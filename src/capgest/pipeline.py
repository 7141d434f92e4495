"""End-to-end orchestration: training, evaluation, persistence, latency.

The deployable artifact is a :class:`ModelBundle`: the frozen base model
(uncentered PCA + KNN) plus the zero-FP error correctors and their
kernels, serialized into a checksummed container under the 5 MB budget.
A sample's base label gates the correctors of the error groups that predict
it; every gated corrector is scored, and the sample takes a corrector's
truth label only when exactly one of them fires.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import struct
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import neighbors
from .classify import (
    CentroidModel,
    KnnModel,
    LdaModel,
    knn_cell_share,
    knn_fit,
    knn_map_share,
    knn_predict_batch,
)
from .config import PipelineConfig
from .corrector import (
    N_LABELS,
    Corrector,
    ErrorGroup,
    _cascade,
    build_routing_table,
    corrected_predict,
    corrected_predict_batch,
    discover_groups,
    feature_rows,
    train_corrector,
)
from .embed import (
    FittedKernel,
    KernelSpec,
    kernel_apply,
    kernel_fit,
    kernel_output_width,
    parse_kernel_spec,
    pca_fit,
    pca_transform,
)
from .errors import (
    CorruptFile,
    DataError,
    DimensionMismatch,
    EmptyEvalSet,
    EmptySplit,
    InconsistentBundle,
    OversizeBundle,
    VersionMismatch,
)
from .signals import (
    PARTITION_NAMES,
    DatasetSplit,
    GestureLabel,
    Sample,
    feature_matrix,
    label_array,
    split_by_user,
)

BUNDLE_MAGIC = b"CGMB"
BUNDLE_FORMAT_VERSION = 10
BUNDLE_SIZE_BUDGET = 5 * 1024 * 1024  # bytes
_LABEL_VALUES = [int(label) for label in GestureLabel]


@dataclass(frozen=True)
class ModelBundle:
    """The full deployable artifact."""

    config: PipelineConfig
    base_pca: np.ndarray  # (n_features, n_pcs) uncentered principal components
    base_knn: KnnModel
    correctors: tuple[Corrector, ...]
    corrector_kernels: Mapping[str, FittedKernel]
    discovered_group_ids: tuple[int, ...]
    # base label -> the correctors it gates, for the labels that gate one
    routing: dict[int, tuple[Corrector, ...]] = field(init=False, repr=False, compare=False)
    # no field and never stored: perfbench/spans.py's install_layers reads it
    group_classifier = None

    def __post_init__(self) -> None:
        _check_shapes(self)
        # derived from the fields above on every construction, never serialized
        object.__setattr__(self, "routing", build_routing_table(self.correctors))

    def predict(self, feature_vector: np.ndarray) -> GestureLabel:
        return corrected_predict(self, feature_vector)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return corrected_predict_batch(self, features)

    def predict_base_batch(self, features: np.ndarray) -> np.ndarray:
        features = feature_rows(features, self.base_pca.shape[0])
        return knn_predict_batch(self.base_knn, pca_transform(self.base_pca, features))


def _check_shapes(bundle: ModelBundle) -> None:
    """Raise InconsistentBundle unless every model's arrays fit the widths
    of its input, the scalars inference reads have their types,
    every float and float array is finite and the KNN labels are
    ``GestureLabel`` values.

    The cascade checks each feature row once, against ``base_pca``, and runs
    every later stage on it unchecked; this check makes that safe, also for
    a bundle decoded from a file: a bundle that loads maps every row to a
    ``GestureLabel``.
    """

    def expect(part: str, got: tuple, want: tuple) -> None:
        if got != want:
            raise InconsistentBundle(f"{part} has shape {got}, expected {want}")

    def expect_ints(part: str, values: Sequence) -> None:
        if not all(type(v) is int for v in values):
            raise InconsistentBundle(f"{part} {values!r} are not all ints")

    def expect_finite(part: str, value) -> None:
        if not (isinstance(value, float) and math.isfinite(value)):
            raise InconsistentBundle(f"{part} {value!r} is not a finite float")

    def output_width(part: str, kernel: FittedKernel) -> int:
        try:
            return kernel_output_width(kernel, n_features)
        except DimensionMismatch as exc:
            raise InconsistentBundle(f"{part}: {exc}") from None

    components = bundle.base_pca
    if not isinstance(components, np.ndarray) or components.ndim != 2:
        shape = getattr(components, "shape", None)
        raise InconsistentBundle(
            f"base_pca is no 2-D array ({type(components).__name__}, shape {shape})"
        )
    n_features, n_pcs = components.shape
    points = bundle.base_knn.points
    expect("base_knn.points", points.shape[1:], (n_pcs,))
    labels = bundle.base_knn.labels
    expect("base_knn.labels", labels.shape, points.shape[:1])
    if labels.dtype.kind not in "iu" or not np.isin(labels, _LABEL_VALUES).all():
        raise InconsistentBundle("base_knn.labels holds values that are no GestureLabel")

    discovered = bundle.discovered_group_ids
    expect_ints("discovered_group_ids", discovered)
    if list(discovered) != sorted(set(discovered)) or not all(
        0 <= g < N_LABELS**2 and g // N_LABELS != g % N_LABELS for g in discovered
    ):
        raise InconsistentBundle(
            f"discovered_group_ids {discovered} are not error group ids in ascending order"
        )
    corrector_ids = [c.group_id for c in bundle.correctors]
    expect_ints("corrector group ids", corrector_ids)
    if not set(corrector_ids) <= set(discovered):
        raise InconsistentBundle(f"corrector group ids {corrector_ids} are not all discovered")
    if len(set(corrector_ids)) != len(corrector_ids):
        raise InconsistentBundle(f"corrector group ids {corrector_ids} are not distinct")

    widths = {
        name: output_width(f"corrector kernel {name}", k)
        for name, k in bundle.corrector_kernels.items()
    }
    for c in bundle.correctors:
        part = f"corrector {c.group_id}"
        if c.kernel_name not in widths:
            raise InconsistentBundle(f"{part} reads kernel {c.kernel_name!r}, which the bundle lacks")
        width = widths[c.kernel_name]
        expect_finite(f"{part} threshold", c.threshold)
        model = c.model
        if isinstance(model, CentroidModel):
            if model.classes.tolist() != [0, 1]:
                raise InconsistentBundle(f"{part}: centroid classes {model.classes.tolist()}")
            expect(f"{part} centroids", model.centroids.shape, (2, width))
        elif isinstance(model, LdaModel):
            expect_finite(f"{part} lda.bias", model.bias)
            expect(f"{part} lda.w", model.w.shape, (width,))
        else:
            raise InconsistentBundle(f"{part}: model {type(model).__name__} is no binary classifier")

    for part, value in _state_leaves(bundle_state(bundle), ""):
        if isinstance(value, np.ndarray):
            finite = value.dtype.kind != "f" or np.isfinite(value).all()
        else:
            finite = not isinstance(value, float) or math.isfinite(value)
        if not finite:
            raise InconsistentBundle(f"{part} holds non-finite values")

    # an in-range row x has |x| <= 1 per feature, so its base features q
    # reach at most ``reach``; with p a reference, every term of the KNN's
    # |p|^2 - 2 q.p + |q|^2 is at most (|q| + |p|)^2 <= 2 span.span
    reach = np.abs(components).sum(axis=0)
    span = reach + np.abs(points).max(axis=0)
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * (span @ span)):
            raise InconsistentBundle(
                "base_pca and base_knn.points give in-range rows squared distances "
                "beyond the float range"
            )


def _state_leaves(value, part: str):
    """(name, value) of each array and scalar of a ``bundle_state`` part."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _state_leaves(v, f"{part}.{key}" if part else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _state_leaves(v, f"{part}[{i}]")
    else:
        yield part, value


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_pipeline(config: PipelineConfig, split: DatasetSplit) -> ModelBundle:
    """Train the base model and its corrector cascade on one split.

    PCA is fit on the train partition; the KNN references come from the
    validation partition (two-stage protocol).  Error groups and the
    correctors are trained on train-partition base-model errors, with the
    validation partition as the zero-FP holdout sweep.

    The corrector grid runs one kernel at a time, in config order, and
    within a kernel one gated base label at a time: apply the kernel
    (:func:`kernel_apply`) to the train and validation rows the base model
    gave that label, search the classifiers of every group the label gates
    on those candidates, and drop them before the next label.  So training
    never holds a kernel's output on a whole matrix.  A group keeps the cell
    with the most train TP; a tie goes to the kernel earlier in
    ``config.corrector_kernels``, then to the earlier classifier.
    """
    if not split.train or not split.validation:
        raise EmptySplit("train and validation partitions must be nonempty")
    x_train = feature_matrix(split.train)
    y_train = label_array(split.train)
    x_val = feature_matrix(split.validation)
    y_val = label_array(split.validation)

    base_pca = pca_fit(x_train, config.n_pcs)
    base_knn = knn_fit(pca_transform(base_pca, x_val), y_val, config.knn_k)

    preds_train = knn_predict_batch(base_knn, pca_transform(base_pca, x_train))
    preds_val = knn_predict_batch(base_knn, pca_transform(base_pca, x_val))

    groups = discover_groups(y_train, preds_train, config.min_support)

    # one memo shares the PCA basis and any kernel nested in several specs
    memo: dict = {}
    names = list(dict.fromkeys(config.corrector_kernels))

    # a group's candidates are the rows the base model gave its predicted
    # label, so groups that share that label share their candidate rows
    by_label: dict[int, list[ErrorGroup]] = {}
    for group in groups:
        by_label.setdefault(int(group.predicted), []).append(group)
    # group id -> the best cell's corrector; the grid runs in config order
    # and a later cell wins only on more train TP, so a tie goes to the
    # earlier kernel (train_corrector keeps a kernel's first best classifier)
    best: dict[int, Corrector] = {}

    def search(name: str, kernel: FittedKernel, label: int) -> None:
        rows, rows_val = preds_train == label, preds_val == label
        cand_train = kernel_apply(kernel, x_train[rows])
        cand_val = kernel_apply(kernel, x_val[rows_val])
        truths, truths_val = y_train[rows], y_val[rows_val]
        for group in by_label[label]:
            trained = train_corrector(group, name, cand_train, truths, cand_val, truths_val)
            if trained is None:
                continue
            kept = best.get(group.group_id)
            if kept is None or trained.train_tp > kept.train_tp:
                best[group.group_id] = trained

    kernels: dict[str, FittedKernel] = {}
    for name in names:
        kernels[name] = kernel_fit(parse_kernel_spec(name), x_train, memo)
        for label in by_label:
            # the label's candidate outputs live only for this call
            search(name, kernels[name], label)

    correctors = [best[g.group_id] for g in groups if g.group_id in best]
    # the bundle keeps only the kernels inference reads, in config order
    used = {c.kernel_name for c in correctors}
    corrector_kernels = {name: kernels[name] for name in names if name in used}

    return ModelBundle(
        config=config,
        base_pca=base_pca,
        base_knn=base_knn,
        correctors=tuple(correctors),
        corrector_kernels=corrector_kernels,
        discovered_group_ids=tuple(g.group_id for g in groups),
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    base_accuracy: float
    corrected_accuracy: float
    per_group: tuple[dict, ...]
    confusion_base: np.ndarray       # (5, 5), rows = truth
    confusion_corrected: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "base_accuracy": self.base_accuracy,
            "corrected_accuracy": self.corrected_accuracy,
            "per_group": list(self.per_group),
            "confusion_base": self.confusion_base.tolist(),
            "confusion_corrected": self.confusion_corrected.tolist(),
        }

    def format_text(self) -> str:
        lines = [
            f"samples: {self.n_samples}",
            f"overall accuracy: base {self.base_accuracy:.4f}"
            f"  base+corrector {self.corrected_accuracy:.4f}",
        ]
        if self.per_group:
            lines.append(
                f"{'group':>5}  {'pattern':<26} {'candidates':>10} "
                f"{'base':>8} {'corrected':>10}  corrector"
            )
            for row in self.per_group:
                lines.append(
                    f"{row['group_id']:>5}  {row['pattern']:<26} "
                    f"{row['n_candidates']:>10} {row['base_accuracy']:>8.4f} "
                    f"{row['corrected_accuracy']:>10.4f}  {row['corrector']}"
                )
        return "\n".join(lines) + "\n"


def _confusion(truths: np.ndarray, preds: np.ndarray) -> np.ndarray:
    m = np.zeros((N_LABELS, N_LABELS), dtype=np.int64)
    np.add.at(m, (truths, preds), 1)
    return m


def evaluate(bundle: ModelBundle, samples: Sequence[Sample]) -> EvalReport:
    """Accuracy of the base and corrected paths, overall and per error group."""
    if not samples:
        raise EmptyEvalSet("evaluation needs at least one sample")
    x = feature_rows(feature_matrix(samples), bundle.base_pca.shape[0])
    y = label_array(samples)
    base, corrected = _cascade(bundle, x)

    per_group = []
    correctors = {c.group_id: c for c in bundle.correctors}
    for group_id in bundle.discovered_group_ids:
        group = ErrorGroup.from_id(group_id)
        mask = base == int(group.predicted)
        n = int(mask.sum())
        trained = correctors.get(group_id)
        per_group.append(
            {
                "group_id": group_id,
                "pattern": group.describe(),
                "n_candidates": n,
                "base_accuracy": float((base[mask] == y[mask]).mean()) if n else float("nan"),
                "corrected_accuracy": float((corrected[mask] == y[mask]).mean())
                if n
                else float("nan"),
                "corrector": trained.kernel_name if trained else "none",
            }
        )
    return EvalReport(
        n_samples=len(samples),
        base_accuracy=float((base == y).mean()),
        corrected_accuracy=float((corrected == y).mean()),
        per_group=tuple(per_group),
        confusion_base=_confusion(y, base),
        confusion_corrected=_confusion(y, corrected),
    )


def cross_validate(
    config: PipelineConfig,
    samples: Sequence[Sample],
    n_combos: int,
) -> dict:
    """Repeat split/train/evaluate over user combinations with a pinned hold set.

    The hold users are fixed across all combinations; every other partition
    reshuffles with the combo index folded into the split seed.
    """
    pinned = config.pinned_hold
    if not pinned:
        # default: pin the lexicographically last hold-count users
        users = sorted({s.user_id for s in samples})
        pinned = tuple(users[len(users) - config.user_counts[3] :])
    accs: dict[str, dict[str, list[float]]] = {
        name: {"base": [], "corrected": []} for name in PARTITION_NAMES
    }
    for combo in range(n_combos):
        split = split_by_user(
            samples,
            user_counts=config.user_counts,
            seed=config.split_seed + combo,
            pinned_hold=pinned,
        )
        bundle = train_pipeline(config, split)
        for name in accs:
            part = split.partition(name)
            if not part:
                continue
            report = evaluate(bundle, part)
            accs[name]["base"].append(report.base_accuracy)
            accs[name]["corrected"].append(report.corrected_accuracy)

    summary: dict = {"n_combos": n_combos, "pinned_hold": list(pinned), "splits": {}}
    for name, paths in accs.items():
        summary["splits"][name] = {
            path: {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
            }
            for path, vals in paths.items()
            if vals
        }
    return summary


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# A format-10 payload is a little-endian u32 header length, the JSON header
# {"arrays": [[dtype, shape], ...], "state": the tagged bundle}, and then the
# arrays of that table in order, each zero-padded to start at a multiple of 8
# bytes.  In the state each dataclass carries its class name under _TAG, and
# each array is {_ARRAY: its row of the table}.  Loading calls no
# class outside _CODEC_TYPES, so a bundle file cannot run code.

_TAG, _ARRAY = "@type", "@array"
# the only classes loading calls: the bundle's own dataclasses
_CODEC_TYPES = {cls.__name__: cls for cls in (
    ModelBundle, PipelineConfig, KnnModel, CentroidModel, LdaModel, Corrector, FittedKernel,
    KernelSpec,
)}
# int arrays are stored in the narrowest of these that holds them and load as int64
_INT_DTYPES = ("|i1", "<i2", "<i4", "<i8")
_ARRAY_DTYPES = {"<f8", *_INT_DTYPES}


def _encode(value, store):
    """``value`` as JSON data, with each array replaced by ``store(array)``.

    A dataclass keeps its init fields only: the fields its ``__post_init__``
    sets are rebuilt from those on load, so they are never stored.
    """
    if isinstance(value, np.ndarray):
        return store(value)
    if is_dataclass(value):
        state = {f.name: _encode(getattr(value, f.name), store) for f in fields(value) if f.init}
        return {_TAG: type(value).__name__, **state}
    if isinstance(value, Mapping):
        if not all(isinstance(key, str) and not key.startswith("@") for key in value):
            raise TypeError(f"cannot store mapping keys {list(value)}")
        return {key: _encode(v, store) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v, store) for v in value]
    return value


def _decode(value, arrays: Sequence[np.ndarray]):
    if isinstance(value, (tuple, list)):
        return tuple(_decode(v, arrays) for v in value)
    if not isinstance(value, dict):
        return value
    if _ARRAY in value:
        return arrays[value[_ARRAY]]
    args = {key: _decode(v, arrays) for key, v in value.items() if key != _TAG}
    if _TAG not in value:
        return args
    cls = _CODEC_TYPES.get(value[_TAG])
    if cls is None:
        raise CorruptFile(f"unknown type tag {value[_TAG]!r}")
    return cls(**args)


def bundle_state(bundle: ModelBundle) -> dict:
    """The bundle's init fields by name, each dataclass in them a dict tagged
    with its class name."""
    state = _encode(bundle, lambda array: array)
    del state[_TAG]
    return state


def bundle_from_state(state: Mapping, arrays: Sequence[np.ndarray] = ()) -> ModelBundle:
    """The bundle of a :func:`bundle_state` dict, in which ``{"@array": i}``
    stands for ``arrays[i]``.

    Calls only the classes of ``_CODEC_TYPES``, so every ``__post_init__``
    check runs; an unknown type tag raises CorruptFile.
    """
    return _decode({**state, _TAG: "ModelBundle"}, arrays)


def _narrowest(array: np.ndarray) -> np.ndarray:
    if array.dtype == np.float64:
        return array.astype("<f8", copy=False)
    if array.dtype != np.int64:
        raise TypeError(f"cannot store a {array.dtype} array")
    for dtype in _INT_DTYPES:
        info = np.iinfo(dtype)
        if not array.size or info.min <= array.min() and array.max() <= info.max:
            return array.astype(dtype, copy=False)


def serialize_bundle(bundle: ModelBundle) -> bytes:
    arrays: list[np.ndarray] = []
    rows: dict[tuple, int] = {}

    def store(array: np.ndarray) -> dict:
        array = _narrowest(array)
        key = (array.dtype.str, array.shape, hashlib.sha256(array.tobytes()).digest())
        if key not in rows:
            rows[key] = len(arrays)
            arrays.append(array)
        return {_ARRAY: rows[key]}

    state = _encode(bundle, store)
    table = [[a.dtype.str, list(a.shape)] for a in arrays]
    header = json.dumps({"arrays": table, "state": state}, separators=(",", ":")).encode()
    payload = bytearray(struct.pack("<I", len(header)) + header)
    for array in arrays:
        payload += bytes(-len(payload) % 8) + array.tobytes()
    digest = hashlib.sha256(payload).digest()
    return BUNDLE_MAGIC + struct.pack("<I", BUNDLE_FORMAT_VERSION) + digest + payload


def _read_arrays(payload: bytes, table, offset: int) -> list[np.ndarray]:
    """The arrays of the header's table, read from ``payload`` after ``offset``."""
    arrays = []
    for dtype, shape in table:
        if dtype not in _ARRAY_DTYPES or not all(type(n) is int and n >= 0 for n in shape):
            raise CorruptFile(f"array {len(arrays)} has dtype {dtype!r} and shape {shape!r}")
        offset += -offset % 8
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(payload):
            raise CorruptFile(f"array {len(arrays)} runs past the payload end")
        array = np.frombuffer(payload, dtype, count, offset).reshape(shape)
        arrays.append(array.astype(np.float64 if dtype == "<f8" else np.int64))
        offset = end
    return arrays


def save_bundle(bundle: ModelBundle, path: Path) -> int:
    """Write the versioned container; refuses to exceed the 5 MB budget.

    A path that cannot be written raises DataError.
    """
    blob = serialize_bundle(bundle)
    if len(blob) >= BUNDLE_SIZE_BUDGET:
        raise OversizeBundle(
            f"bundle is {len(blob)} bytes, budget is {BUNDLE_SIZE_BUDGET}"
        )
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
    return len(blob)


def load_bundle(path: Path) -> ModelBundle:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptFile(f"cannot read bundle {path}: {exc}") from exc
    if len(blob) < 40 or blob[:4] != BUNDLE_MAGIC:
        raise CorruptFile(f"{path}: not a capgest bundle")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {version}, expected {BUNDLE_FORMAT_VERSION}"
        )
    digest, payload = blob[8:40], memoryview(blob)[40:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        (size,) = struct.unpack_from("<I", payload)
        header = json.loads(bytes(payload[4 : 4 + size]))
        return bundle_from_state(
            header["state"], _read_arrays(payload, header["arrays"], 4 + size)
        )
    except Exception as exc:
        raise CorruptFile(f"{path}: cannot decode payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def bench_latency(bundle: ModelBundle, features: np.ndarray) -> dict:
    """Single-threaded per-sample latency of the corrected cascade.

    Every row of ``features`` is timed once, in a fixed-seed random
    permutation, after ``min(50, 2n)`` warm-up calls over the same order.
    Each timed call runs the full single-sample path end to end; stats are
    reported in milliseconds.  ``knn_cell_share`` is the share of rows whose
    base KNN search is answered from its cell block, and ``knn_map_share``
    the share whose fine cell holds a proven label, which a prediction reads
    without a search; both are counted after the timed loop.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] == 0:
        return {
            "n_timed": 0,
            "backend": neighbors.BACKEND,
            "hardware": platform.processor() or platform.machine(),
        }
    n = features.shape[0]
    rows = list(features[np.random.default_rng(0).permutation(n)])
    for fv in (rows + rows)[:50]:
        corrected_predict(bundle, fv)
    timings = np.empty(n)
    for i, fv in enumerate(rows):
        start = time.perf_counter_ns()
        corrected_predict(bundle, fv)
        timings[i] = time.perf_counter_ns() - start
    ms = timings / 1e6
    base = pca_transform(bundle.base_pca, features)
    # read first: the block searches of knn_cell_share may prove more cells
    map_share = knn_map_share(bundle.base_knn, base)
    cell_share = knn_cell_share(bundle.base_knn, base)
    return {
        "n_timed": n,
        "p50_ms": float(np.percentile(ms, 50)),
        "p95_ms": float(np.percentile(ms, 95)),
        "p99_ms": float(np.percentile(ms, 99)),
        "max_ms": float(ms.max()),
        "mean_ms": float(ms.mean()),
        "knn_cell_share": cell_share,
        "knn_map_share": map_share,
        "backend": neighbors.BACKEND,
        "hardware": platform.processor() or platform.machine(),
    }

