"""Line-oriented text inputs (UTF-8, comma separated): the dataset files and
the ``predict --features`` file, 100 values a line and ``#`` lines comments.

A dataset file starts with a ``# capgest-<kind> v1`` line and a column header,
which each writer writes and each reader checks:

* recording: ``user_id,<id>`` and ``sample_rate_hz,40.0`` rows, the header
  ``frame,thumb,index,middle,ring,pinky``, then frame rows 0, 1, ...
* marks: ``start,end,label``; a row per inclusive frame span.
* calibration: ``user_id,channel,min_raw,max_raw``; a row per (user, channel).

Blank lines are skipped, and a bad row or header raises FileFormatError naming
``<path>: line N``.  A recording ``<stem>.csv`` needs ``<stem>.marks.csv``
beside it; a dataset directory holds ``recordings/`` and ``calibration.csv``.
"""

from __future__ import annotations

from contextlib import suppress
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateRange, FileFormatError
from .signals import (
    CHANNEL_NAMES,
    N_CHANNELS,
    N_FEATURES,
    SAMPLE_RATE_HZ,
    CalibrationRange,
    GestureLabel,
    GestureMark,
    Recording,
)

RECORDING_MAGIC = "# capgest-recording v1"
RECORDING_COLUMNS = "frame," + ",".join(CHANNEL_NAMES)
MARKS_MAGIC = "# capgest-marks v1"
MARKS_COLUMNS = "start,end,label"
CALIBRATION_MAGIC = "# capgest-calibration v1"
CALIBRATION_COLUMNS = "user_id,channel,min_raw,max_raw"


def read_text(path: Path) -> str:
    """The text of a UTF-8 input file: a dataset, config or feature file.

    A path that cannot be read, a directory among them, and bytes that are
    not UTF-8 raise FileFormatError.
    """
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def numbered_lines(text: str, clean=str.strip) -> tuple[Sequence[int], list[str]]:
    """The 1-based numbers (a ``range`` if no line is dropped) and the lines
    of ``text`` as ``clean`` returns them, without those it makes empty."""
    lines = list(map(clean, text.splitlines()))
    if "" not in lines:
        return range(1, len(lines) + 1), lines
    return [n for n, ln in enumerate(lines, 1) if ln], list(filter(None, lines))


def _read_table(path: Path, magic: str, columns: str, at: int = 1):
    """The numbered lines of a dataset file whose first line is ``magic``
    and whose non-blank line ``at`` (0-based) is the column header."""
    numbers, lines = numbered_lines(read_text(path))
    if not lines or lines[0] != magic:
        raise FileFormatError(f"{path}: expected first line {magic!r}")
    if len(lines) <= at or lines[at] != columns:
        number = numbers[at] if len(lines) > at else numbers[-1] + 1
        raise FileFormatError(f"{path}: line {number}: expected column header {columns!r}")
    return numbers, lines


@lru_cache(maxsize=None)
def _frame_starts(bits: int) -> list[str]:
    """The first tokens of 2**bits frame rows joined by ",\\n": "0", "\\n1", ..."""
    return ["0", *(f"\n{i}" for i in range(1, 1 << bits))]


def _parse_rows(path: Path, numbers, lines, width: int, what: str, framed=False) -> np.ndarray:
    """The (n, width) matrix of ``lines`` of ``width`` comma-separated finite
    numbers, after a column of frame numbers 0, 1, ... if ``framed``, which is
    checked and dropped.  One pass parses the rows; if it fails, a row loop
    finds the first bad row, and its FileFormatError names the line."""
    n, step = len(lines), width + framed
    tokens = ",\n".join(lines).split(",")  # "\n" starts each row's first token but row 0's
    starts = tokens[::step]  # every row has step tokens if all after the first hold a "\n"
    aligned = len(tokens) == n * step and "".join(starts).count("\n") == n - 1
    if framed:
        aligned = aligned and starts == _frame_starts(n.bit_length())[:n]
        del tokens[::step]
    if aligned:
        with suppress(ValueError):
            values = np.fromiter(map(float, tokens), dtype=np.float64, count=n * width)
            if np.isfinite(values).all():
                return values.reshape(n, width)
    rows = np.empty((n, width))
    for i, (number, ln) in enumerate(zip(numbers, lines)):
        parts = ln.split(",")
        where = f"{path}: line {number}"
        if len(parts) != step:
            raise FileFormatError(f"{where}: expected {width} {what}s, got {len(parts) - framed}")
        if framed and parts[0] != str(i):
            raise FileFormatError(f"{where}: expected frame {i}, got {parts[0]!r}")
        try:
            rows[i] = [float(p) for p in parts[framed:]]
        except ValueError:
            raise FileFormatError(f"{where}: {what} values must be numbers") from None
        if not np.isfinite(rows[i]).all():
            raise FileFormatError(f"{where}: NaN or inf among the {what} values")
    return rows


def write_recording(path: Path, recording: Recording) -> None:
    rows = [RECORDING_MAGIC, f"user_id,{recording.user_id}", f"sample_rate_hz,{SAMPLE_RATE_HZ!r}"]
    rows.append(RECORDING_COLUMNS)
    for i in range(recording.n_frames):
        vals = ",".join(repr(float(v)) for v in recording.channels[:, i])
        rows.append(f"{i},{vals}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_recording(path: Path) -> Recording:
    """Read ``<stem>.csv`` and its ``<stem>.marks.csv``; a missing marks file
    raises FileFormatError naming its path."""
    numbers, lines = _read_table(path, RECORDING_MAGIC, RECORDING_COLUMNS, at=3)
    header = {}  # key -> (value, line number)
    for number, ln in zip(numbers[1:3], lines[1:3]):
        key, _, value = ln.partition(",")
        if key not in ("user_id", "sample_rate_hz") or key in header:
            raise FileFormatError(
                f"{path}: line {number}: expected one user_id and one sample_rate_hz row, "
                f"got {ln!r}"
            )
        header[key] = value, number
    rows = _parse_rows(path, numbers[4:], lines[4:], N_CHANNELS, "channel", framed=True)
    marks = tuple(read_marks(path.with_suffix(".marks.csv")))
    value, number = header["sample_rate_hz"]
    try:
        rate = float(value)
        if rate != SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate_hz is {rate!r}, windows need {SAMPLE_RATE_HZ} Hz")
    except ValueError as exc:
        raise FileFormatError(f"{path}: line {number}: {exc}") from exc
    try:
        return Recording(user_id=header["user_id"][0], channels=rows.T.copy(), gesture_marks=marks)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_marks(path: Path, marks: Sequence[GestureMark]) -> None:
    rows = [MARKS_MAGIC, MARKS_COLUMNS, *(f"{m.start},{m.end},{m.label.text}" for m in marks)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_marks(path: Path) -> list[GestureMark]:
    numbers, lines = _read_table(path, MARKS_MAGIC, MARKS_COLUMNS)
    marks = []
    for number, ln in zip(numbers[2:], lines[2:]):
        try:
            start, end, label = ln.split(",")
            marks.append(GestureMark(int(start), int(end), GestureLabel.from_text(label)))
        except (ValueError, KeyError):
            raise FileFormatError(f"{path}: line {number}: bad mark row {ln!r}") from None
    return marks


def write_calibration(path: Path, calib: Mapping[tuple[str, int], CalibrationRange]) -> None:
    """One row per (user, channel), sorted by that key."""
    rows = [CALIBRATION_MAGIC, CALIBRATION_COLUMNS]
    rows += [f"{u},{ch},{r.min_raw!r},{r.max_raw!r}" for (u, ch), r in sorted(calib.items())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_calibration(path: Path) -> dict[tuple[str, int], CalibrationRange]:
    """The ranges of a calibration file.  A malformed row or a second row for
    one (user, channel) raises FileFormatError, and bounds that are not finite
    with min_raw < max_raw DegenerateRange, each naming the path and line."""
    numbers, lines = _read_table(path, CALIBRATION_MAGIC, CALIBRATION_COLUMNS)
    calib = {}
    first_line = {}  # the line that set each (user, channel)
    for number, ln in zip(numbers[2:], lines[2:]):
        try:
            user_id, channel, min_raw, max_raw = ln.split(",")
            key = user_id, int(channel)
            rng = CalibrationRange(float(min_raw), float(max_raw))
        except ValueError:
            raise FileFormatError(f"{path}: line {number}: bad calibration row {ln!r}") from None
        except DegenerateRange as exc:
            raise DegenerateRange(f"{path}: line {number}: {exc}") from None
        if key in first_line:
            raise FileFormatError(
                f"{path}: line {number}: calibration row for {key} repeats line {first_line[key]}"
            )
        first_line[key] = number
        calib[key] = rng
    return calib


def read_features(path: Path) -> tuple[np.ndarray, Callable[[int], str]]:
    """The (n, 100) rows of a features file, and a function that names a row
    by its path and line."""
    numbers, lines = numbered_lines(
        read_text(path), lambda ln: "" if ln.lstrip().startswith("#") else ln.strip()
    )
    rows = _parse_rows(path, numbers, lines, N_FEATURES, "feature")
    return rows, lambda row: f"{path}: line {numbers[row]}"


def write_dataset(
    root: Path,
    recordings: Sequence[Recording],
    calib: Mapping[tuple[str, int], CalibrationRange],
) -> None:
    """Write a dataset directory: recordings/ + calibration.csv.

    A directory that cannot be written raises DataError, and so does one
    whose recordings/ already holds a ``.csv`` file, before anything is
    written: :func:`read_dataset` reads every recording there, so the new
    dataset would mix with the old one.
    """
    rec_dir = root / "recordings"
    if any(rec_dir.glob("*.csv")):
        raise DataError(f"{rec_dir} already holds recordings; write to a new directory")
    counters: dict[str, int] = {}
    try:
        rec_dir.mkdir(parents=True, exist_ok=True)
        for rec in recordings:
            idx = counters.get(rec.user_id, 0)
            counters[rec.user_id] = idx + 1
            stem = f"{rec.user_id}_r{idx:04d}"
            write_recording(rec_dir / f"{stem}.csv", rec)
            write_marks(rec_dir / f"{stem}.marks.csv", rec.gesture_marks)
        write_calibration(root / "calibration.csv", calib)
    except OSError as exc:
        raise DataError(f"cannot write {root}: {exc}") from None


def read_dataset(
    root: Path,
) -> tuple[list[Recording], dict[tuple[str, int], CalibrationRange]]:
    """Read a dataset directory written by :func:`write_dataset`.

    ``calibration.csv`` is the one source of the calibration ranges: a
    directory without it raises FileFormatError naming the path.
    """
    root = Path(root)
    rec_dir = root / "recordings"
    if not rec_dir.is_dir():
        raise FileFormatError(f"{root}: missing recordings/ directory")
    recordings = [
        read_recording(p)
        for p in sorted(rec_dir.glob("*.csv"), key=lambda p: p.name)
        if not p.name.endswith(".marks.csv")
    ]
    if not recordings:
        raise FileFormatError(f"{rec_dir}: no recording files")
    return recordings, read_calibration(root / "calibration.csv")
