"""Pipeline configuration and its key-value text file format.

Config files are plain UTF-8 text: one ``key = value`` pair per line,
``#`` starts a comment.  List values are semicolon separated (kernel
encodings contain commas).  Unknown and repeated keys are rejected.

Example::

    n_pcs = 3
    knn_k = 5
    corrector_kernels = pca:20; poly:5:4; concat(pca:10,poly:5:4)
    pinned_hold = u14; u15
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

from .dataio import read_text
from .embed import parse_kernel_spec
from .errors import FileFormatError, ParamOutOfRange


@dataclass(frozen=True)
class PipelineConfig:
    # base model
    n_pcs: int = 3
    knn_k: int = 5
    # corrector grid
    corrector_kernels: tuple[str, ...] = (
        "pca:20",
        "pca:9",
        "poly:5:4",
        "poly:8:3",
        "concat(pca:10,poly:5:4)",
    )
    # the router's kernel, where a base label gates several groups; a
    # constant, not a config key
    group_kernel: ClassVar[str] = "pca:9"
    min_support: int = 10
    # splits
    user_counts: tuple[int, int, int, int] = (8, 3, 2, 2)
    split_seed: int = 42
    pinned_hold: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_pcs < 1:
            raise FileFormatError("n_pcs must be >= 1")
        if self.knn_k < 1:
            raise FileFormatError("knn_k must be >= 1")
        counts = self.user_counts
        if len(counts) != 4 or not all(type(n) is int and n >= 0 for n in counts):
            raise FileFormatError(
                "user_counts must be four ints >= 0 (train; validation; test; hold), "
                f"got {'; '.join(map(str, counts))}"
            )
        for spec in self.corrector_kernels:
            try:
                parse_kernel_spec(spec)
            except ParamOutOfRange as exc:
                raise FileFormatError(f"corrector_kernels: {exc}") from None


_INT_KEYS = {"n_pcs", "knn_k", "min_support", "split_seed"}
_STR_LIST_KEYS = {"corrector_kernels", "pinned_hold"}
_INT_LIST_KEYS = {"user_counts"}


def parse_config_text(text: str) -> PipelineConfig:
    """The default config with the file's keys set; a key left out keeps
    its default, and a key set twice is refused."""
    overrides = {}
    first_line = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise FileFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in first_line:
            raise FileFormatError(
                f"line {lineno}: config key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            if key in _INT_KEYS:
                overrides[key] = int(value)
            elif key in _STR_LIST_KEYS:
                overrides[key] = tuple(
                    part.strip() for part in value.split(";") if part.strip()
                )
            elif key in _INT_LIST_KEYS:
                overrides[key] = tuple(int(p) for p in value.split(";"))
            else:
                raise FileFormatError(f"line {lineno}: unknown config key {key!r}")
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return PipelineConfig(**overrides)


def load_config(path: Path) -> PipelineConfig:
    return parse_config_text(read_text(Path(path)))


def format_config(config: PipelineConfig) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = "; ".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
