"""Line-oriented dataset file formats (UTF-8, comma separated, versioned).

Three file kinds, all with a ``# capgest-<kind> v1`` first line:

* recording: header rows ``user_id,<id>`` and ``sample_rate_hz,<hz>`` (40.0;
  any other rate is a FileFormatError), a column header, then one row per
  frame: ``frame,thumb,index,middle,ring,pinky``.
* marks: one row per annotation: ``start,end,label`` (inclusive frame span).
* calibration: one row per (user, channel): ``user_id,channel,min_raw,max_raw``.

A recording ``<stem>.csv`` needs its annotation file ``<stem>.marks.csv``
in the same directory; a dataset directory holds ``recordings/`` plus a
top-level ``calibration.csv``, the one source of its calibration ranges.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateRange, FileFormatError
from .signals import (
    CHANNEL_NAMES,
    N_CHANNELS,
    SAMPLE_RATE_HZ,
    CalibrationRange,
    GestureLabel,
    GestureMark,
    Recording,
)

RECORDING_MAGIC = "# capgest-recording v1"
MARKS_MAGIC = "# capgest-marks v1"
CALIBRATION_MAGIC = "# capgest-calibration v1"


def read_text(path: Path) -> str:
    """The text of a UTF-8 input file: a dataset, config or feature file.

    A path that cannot be read, a directory among them, and bytes that are
    not UTF-8 raise FileFormatError.
    """
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _read_lines(path: Path, magic: str) -> list[str]:
    lines = list(filter(None, map(str.strip, read_text(path).splitlines())))
    if not lines or lines[0] != magic:
        raise FileFormatError(f"{path}: expected first line {magic!r}")
    return lines[1:]


def write_recording(path: Path, recording: Recording) -> None:
    rows = [RECORDING_MAGIC]
    rows.append(f"user_id,{recording.user_id}")
    rows.append(f"sample_rate_hz,{SAMPLE_RATE_HZ!r}")
    rows.append("frame," + ",".join(CHANNEL_NAMES))
    for i in range(recording.n_frames):
        vals = ",".join(repr(float(v)) for v in recording.channels[:, i])
        rows.append(f"{i},{vals}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _parse_frames(path: Path, body: list[str]) -> np.ndarray:
    """(5, n) frame matrix of the rows ``frame,thumb,...,pinky``.

    The body is parsed in one pass over all tokens; the frame column is not
    read.  If that pass fails, the rows are parsed one at a time, so the
    error names the first bad row.  Non-finite values are rejected.
    """
    n = len(body)
    if set(map(str.count, body, repeat(","))) <= {N_CHANNELS}:  # per-row column check
        tokens = ",".join(body).split(",")
        del tokens[:: N_CHANNELS + 1]
        try:
            values = np.fromiter(map(float, tokens), dtype=np.float64, count=n * N_CHANNELS)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return np.ascontiguousarray(values.reshape(n, N_CHANNELS).T)
    frames = np.empty((N_CHANNELS, n))
    for i, ln in enumerate(body):
        parts = ln.split(",")
        if len(parts) != N_CHANNELS + 1:
            raise FileFormatError(f"{path}: bad frame row {ln!r}")
        try:
            frames[:, i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad frame row {ln!r}") from exc
        if not np.isfinite(frames[:, i]).all():
            raise FileFormatError(f"{path}: non-finite value in frame row {ln!r}")
    return frames


def read_recording(path: Path) -> Recording:
    """Read ``<stem>.csv`` and its ``<stem>.marks.csv``; a missing marks file
    raises FileFormatError naming its path."""
    lines = _read_lines(path, RECORDING_MAGIC)
    if len(lines) < 3:
        raise FileFormatError(f"{path}: truncated recording file")
    header: dict[str, str] = {}
    for ln in lines[:2]:
        key, _, value = ln.partition(",")
        header[key] = value
    if "user_id" not in header or "sample_rate_hz" not in header:
        raise FileFormatError(f"{path}: missing user_id/sample_rate_hz header")
    frames = _parse_frames(path, lines[3:])  # skip column header line
    marks = tuple(read_marks(path.with_suffix(".marks.csv")))
    try:
        rate = float(header["sample_rate_hz"])
        if rate != SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate_hz is {rate!r}, windows need {SAMPLE_RATE_HZ} Hz")
        return Recording(user_id=header["user_id"], channels=frames, gesture_marks=marks)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_marks(path: Path, marks: Sequence[GestureMark]) -> None:
    rows = [MARKS_MAGIC, "start,end,label"]
    for m in marks:
        rows.append(f"{m.start},{m.end},{m.label.text}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_marks(path: Path) -> list[GestureMark]:
    lines = _read_lines(path, MARKS_MAGIC)
    marks = []
    for ln in lines[1:]:  # skip column header
        parts = ln.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad mark row {ln!r}")
        try:
            marks.append(
                GestureMark(int(parts[0]), int(parts[1]), GestureLabel.from_text(parts[2]))
            )
        except (ValueError, KeyError) as exc:
            raise FileFormatError(f"{path}: bad mark row {ln!r}") from exc
    return marks


def write_calibration(path: Path, calib: Mapping[tuple[str, int], CalibrationRange]) -> None:
    """One row per (user, channel), sorted by that key."""
    rows = [CALIBRATION_MAGIC, "user_id,channel,min_raw,max_raw"]
    for (user_id, channel), rng in sorted(calib.items()):
        rows.append(f"{user_id},{channel},{rng.min_raw!r},{rng.max_raw!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_calibration(path: Path) -> dict[tuple[str, int], CalibrationRange]:
    """The ranges of a calibration file.  A malformed row or a second row for
    one (user, channel) raises FileFormatError, and a range with min_raw >=
    max_raw DegenerateRange, each naming the path and the line."""
    lines = map(str.strip, read_text(path).splitlines())
    numbered = [(n, ln) for n, ln in enumerate(lines, 1) if ln]
    if not numbered or numbered[0][1] != CALIBRATION_MAGIC:
        raise FileFormatError(f"{path}: expected first line {CALIBRATION_MAGIC!r}")
    calib = {}
    first_line = {}  # the line that set each (user, channel)
    for number, ln in numbered[2:]:  # skip the magic and column header lines
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
