import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest import dataio
from capgest.cli import main
from capgest.config import load_config
from capgest.errors import DataError, DegenerateRange, FileFormatError
from capgest.signals import (
    CalibrationRange,
    GestureLabel,
    GestureMark,
    Recording,
)
from capgest.synth import GenConfig, gen_dataset


def make_recording(user_id="u01", n_frames=30, marks=()):
    rng = np.random.default_rng(0)
    return Recording(
        user_id=user_id,
        channels=rng.uniform(300.0, 900.0, (5, n_frames)),
        gesture_marks=tuple(marks),
    )


class TestRoundTrips:
    def test_recording_exact(self, tmp_path):
        rec = make_recording(marks=(GestureMark(5, 20, GestureLabel.SHOOT),))
        path = tmp_path / "r.csv"
        dataio.write_recording(path, rec)
        dataio.write_marks(tmp_path / "r.marks.csv", rec.gesture_marks)
        back = dataio.read_recording(path)
        assert back.user_id == rec.user_id
        assert np.array_equal(back.channels, rec.channels)  # repr() is lossless
        assert back.gesture_marks == rec.gesture_marks

    def test_marks(self, tmp_path):
        marks = [
            GestureMark(0, 9, GestureLabel.INDEX_BEND),
            GestureMark(15, 30, GestureLabel.NONE),
        ]
        path = tmp_path / "m.csv"
        dataio.write_marks(path, marks)
        assert dataio.read_marks(path) == marks

    def test_calibration(self, tmp_path):
        table = {
            ("u01", 0): CalibrationRange(310.5, 900.25),
            ("u02", 4): CalibrationRange(290.0, 1100.0),
        }
        path = tmp_path / "c.csv"
        dataio.write_calibration(path, table)
        assert dataio.read_calibration(path) == table

    def test_calibration_rows_sorted_by_user_and_channel(self, tmp_path):
        keys = [(u, ch) for u in ("u2", "u10", "u01") for ch in (4, 0, 3, 1, 2)]
        for order in (keys, keys[::-1], keys[7:] + keys[:7]):
            calib = {key: CalibrationRange(100.0 + key[1], 900.5) for key in order}
            dataio.write_dataset(tmp_path, [], calib)
            lines = (tmp_path / "calibration.csv").read_text(encoding="utf-8").splitlines()
            assert lines[:2] == [dataio.CALIBRATION_MAGIC, "user_id,channel,min_raw,max_raw"]
            assert lines[2:] == [
                f"{u},{ch},{100.0 + ch!r},900.5" for u, ch in sorted(keys)
            ]

    def test_unwritable_directory_is_a_data_error(self, tmp_path):
        # a file where the dataset directory should go, and a path below a file
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for root in (tmp_path / "file", tmp_path / "file" / "d"):
            with pytest.raises(DataError, match=re.escape(f"cannot write {root}: ")):
                dataio.write_dataset(root, [make_recording()], {})

    def test_directory_with_recordings_is_refused(self, tmp_path):
        # read_dataset would read a second dataset and the first as one
        dataio.write_dataset(tmp_path, [make_recording("u01"), make_recording("u02")], {})
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rec_dir = tmp_path / "recordings"
        with pytest.raises(DataError, match=re.escape(f"{rec_dir} already holds recordings")):
            dataio.write_dataset(tmp_path, [make_recording("u03")], {})
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_dataset_directory(self, tmp_path):
        config = GenConfig(n_users=2, gestures_per_user_per_class=1, none_recordings_per_user=1)
        recordings, calib = gen_dataset(config)
        dataio.write_dataset(tmp_path, recordings, calib)
        back_recs, back_calib = dataio.read_dataset(tmp_path)
        assert len(back_recs) == len(recordings)
        assert back_calib == calib
        by_key = {(r.user_id, r.n_frames, r.gesture_marks) for r in recordings}
        assert {(r.user_id, r.n_frames, r.gesture_marks) for r in back_recs} == by_key


    def test_dotted_user_id(self, tmp_path):
        # the marks file is the recording's own name with .marks.csv for
        # .csv, so a dot in the stem does not point at another file
        rec = make_recording("u.1", marks=(GestureMark(5, 20, GestureLabel.SHOOT),))
        dataio.write_dataset(tmp_path, [rec], {})
        (back,), _ = dataio.read_dataset(tmp_path)
        assert back.gesture_marks == rec.gesture_marks


class TestCalibrationRows:
    HEAD = f"{dataio.CALIBRATION_MAGIC}\nuser_id,channel,min_raw,max_raw\n"

    def test_repeated_row_is_a_format_error(self, tmp_path):
        # the second u01,0 row would silently replace the first
        path = tmp_path / "calibration.csv"
        path.write_text(
            self.HEAD + "u01,0,405.0,1007.0\nu01,1,400.0,1000.0\n\nu01,0,1012.0,1017.0\n",
            encoding="utf-8",
        )
        with pytest.raises(
            FileFormatError,
            match=re.escape(f"{path}: line 6: calibration row for ('u01', 0) repeats line 3"),
        ):
            dataio.read_calibration(path)

    def test_degenerate_range_names_path_and_line(self, tmp_path):
        path = tmp_path / "calibration.csv"
        path.write_text(self.HEAD + "u01,0,405.0,1007.0\nu01,1,1000.0,400.0\n", encoding="utf-8")
        with pytest.raises(DegenerateRange, match=re.escape(f"{path}: line 4: min_raw 1000.0")):
            dataio.read_calibration(path)

    @pytest.mark.parametrize("row", ["u01,1,400.0,inf", "u01,1,-inf,1000.0"])
    def test_infinite_bound_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "calibration.csv"
        path.write_text(self.HEAD + f"u01,0,405.0,1007.0\n{row}\n", encoding="utf-8")
        with pytest.raises(DegenerateRange, match=re.escape(f"{path}: line 4: min_raw ")):
            dataio.read_calibration(path)


def _written(tmp_path, kind):
    """A valid file of ``kind``, its reader and the line of its column header."""
    path = tmp_path / "r.csv"
    if kind == "recording":
        dataio.write_recording(path, make_recording(n_frames=55))
        dataio.write_marks(tmp_path / "r.marks.csv", ())
        return path, dataio.read_recording, 4
    if kind == "marks":
        dataio.write_marks(path, [GestureMark(5, 20, GestureLabel.SHOOT)])
        return path, dataio.read_marks, 2
    calib = {("u01", 0): CalibrationRange(405.0, 1007.0), ("u01", 1): CalibrationRange(1.0, 9.0)}
    dataio.write_calibration(path, calib)
    return path, dataio.read_calibration, 2


def _edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


KINDS = ["recording", "marks", "calibration"]


class TestColumnHeaders:
    """Each reader checks its column header.  Without the check, a file
    that lacked it lost its first row: 55 -> 54 frames, 1 -> 0 marks, and
    one calibration row fewer, with no error."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_header(self, tmp_path, kind):
        path, reader, number = _written(tmp_path, kind)
        _edit_lines(path, lambda lines: lines.pop(number - 1))
        with pytest.raises(
            FileFormatError, match=re.escape(f"{path}: line {number}: expected column header")
        ):
            reader(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_header(self, tmp_path, kind):
        path, reader, number = _written(tmp_path, kind)

        def reverse_columns(lines):
            lines[number - 1] = ",".join(reversed(lines[number - 1].split(",")))

        _edit_lines(path, reverse_columns)
        with pytest.raises(
            FileFormatError, match=re.escape(f"{path}: line {number}: expected column header")
        ):
            reader(path)

    def test_header_after_the_last_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(dataio.MARKS_MAGIC + "\n\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: line 2: expected column")):
            dataio.read_marks(path)

    def test_writers_write_the_headers(self, tmp_path):
        for kind in KINDS:
            path, _, number = _written(tmp_path, kind)
            header = path.read_text(encoding="utf-8").splitlines()[number - 1]
            assert header == {
                "recording": "frame,thumb,index,middle,ring,pinky",
                "marks": "start,end,label",
                "calibration": "user_id,channel,min_raw,max_raw",
            }[kind]


class TestRowLines:
    """Every row error names the row's line in the file, blank lines counted."""

    @pytest.mark.parametrize(
        "kind, row, problem",
        [
            ("recording", "55,1,2,3,4,x", "channel values must be numbers"),
            ("marks", "30,40,waggle", "bad mark row '30,40,waggle'"),
            ("calibration", "u02,0,1.0", "bad calibration row 'u02,0,1.0'"),
        ],
    )
    def test_blank_lines_before_a_bad_row(self, tmp_path, kind, row, problem):
        path, reader, _ = _written(tmp_path, kind)

        def add_blanks_and_row(lines):
            lines.insert(1, "")
            lines += ["  ", row]

        _edit_lines(path, add_blanks_and_row)
        number = len(path.read_text(encoding="utf-8").splitlines())
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: line {number}: {problem}")):
            reader(path)

    def test_deleted_frame_row(self, tmp_path):
        # reading 54 of 55 frames would move every later mark by a frame
        path, reader, _ = _written(tmp_path, "recording")
        _edit_lines(path, lambda lines: lines.pop(4 + 6))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: line 11: expected frame 6")):
            reader(path)

    @pytest.mark.parametrize("frame", ["60", "06", "5", ""])
    def test_renumbered_frame_row(self, tmp_path, frame):
        path, reader, _ = _written(tmp_path, "recording")

        def renumber(lines):
            lines[10] = frame + lines[10][1:]

        _edit_lines(path, renumber)
        want = f"{path}: line 11: expected frame 6, got {frame!r}"
        with pytest.raises(FileFormatError, match=re.escape(want)):
            reader(path)


class TestMissingCalibration:
    def test_directory_without_calibration_is_a_format_error(self, tmp_path):
        # the ranges come from calibration.csv only, never from the recordings
        dataio.write_dataset(tmp_path, [make_recording()], {})
        path = tmp_path / "calibration.csv"
        path.unlink()
        with pytest.raises(FileFormatError, match=re.escape(f"cannot read {path}: ")):
            dataio.read_dataset(tmp_path)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# wrong v9\n", encoding="utf-8")
        for reader in (dataio.read_recording, dataio.read_marks, dataio.read_calibration):
            with pytest.raises(FileFormatError):
                reader(path)

    def test_bad_frame_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "# capgest-recording v1\nuser_id,u01\nsample_rate_hz,40.0\n"
            "frame,thumb,index,middle,ring,pinky\n0,1,2,3\n",
            encoding="utf-8",
        )
        want = f"{path}: line 5: expected 5 channels, got 3"
        with pytest.raises(FileFormatError, match=re.escape(want)):
            dataio.read_recording(path)

    def test_sample_rate_other_than_40_hz(self, tmp_path):
        path = tmp_path / "r.csv"
        dataio.write_recording(path, make_recording())
        dataio.write_marks(tmp_path / "r.marks.csv", ())
        path.write_text(
            path.read_text(encoding="utf-8").replace("sample_rate_hz,40.0", "sample_rate_hz,100.0"),
            encoding="utf-8",
        )
        with pytest.raises(FileFormatError, match="sample_rate_hz is 100.0") as exc:
            dataio.read_recording(path)
        assert str(path) in str(exc.value)

    def test_missing_marks_file(self, tmp_path):
        # the marks file is the one source of a recording's labels: without
        # it, every window would silently become a NONE window
        path = tmp_path / "r.csv"
        dataio.write_recording(path, make_recording())
        marks = tmp_path / "r.marks.csv"
        with pytest.raises(FileFormatError, match=re.escape(f"cannot read {marks}: ")):
            dataio.read_recording(path)

    def test_errors_checked_frames_then_marks_then_rate(self, tmp_path):
        path = tmp_path / "r.csv"
        dataio.write_recording(path, make_recording())
        text = path.read_text(encoding="utf-8").replace("sample_rate_hz,40.0", "sample_rate_hz,9.0")
        path.write_text(text + "30,1,2\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="line 35: expected 5 channels"):
            dataio.read_recording(path)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError, match="r.marks.csv"):
            dataio.read_recording(path)
        dataio.write_marks(tmp_path / "r.marks.csv", ())
        with pytest.raises(FileFormatError, match="sample_rate_hz is 9.0"):
            dataio.read_recording(path)

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("sample_rate_hz,40.0", "sample_rate_hz,9.0", 3,
             "sample_rate_hz is 9.0, windows need 40.0 Hz"),
            ("sample_rate_hz,40.0", "sample_rate_hz,fast", 3, "could not convert"),
            ("user_id,u01", "user,u01", 2,
             "expected one user_id and one sample_rate_hz row, got 'user,u01'"),
            ("sample_rate_hz,40.0", "user_id,u02", 3,
             "expected one user_id and one sample_rate_hz row, got 'user_id,u02'"),
        ],
        ids=["rate", "rate-text", "no-user-id", "user-id-twice"],
    )
    def test_header_rows_name_their_line(self, tmp_path, old, new, line, message):
        # a blank line first: the number is the file's line, not the row's index
        path = tmp_path / "r.csv"
        dataio.write_recording(path, make_recording())
        dataio.write_marks(tmp_path / "r.marks.csv", ())
        text = path.read_text(encoding="utf-8").replace(old, new)
        path.write_text(text.replace("\n", "\n\n", 1), encoding="utf-8")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: line {line + 1}: {message}")):
            dataio.read_recording(path)

    def test_bad_mark_label(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "# capgest-marks v1\nstart,end,label\n0,5,waggle\n", encoding="utf-8"
        )
        with pytest.raises(FileFormatError):
            dataio.read_marks(path)

    @pytest.mark.parametrize(
        "reader", [dataio.read_recording, dataio.read_marks, dataio.read_calibration, load_config]
    )
    def test_bytes_not_utf8(self, tmp_path, reader):
        path = tmp_path / "x.csv"
        path.write_bytes(b"# capgest-marks v1\nstart,end,label\n0,9,\xff\xfe\n")
        with pytest.raises(FileFormatError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            reader(path)

    @pytest.mark.parametrize("reader", [dataio.read_recording, load_config])
    def test_missing_or_directory_path(self, tmp_path, reader):
        for path in (tmp_path / "missing.csv", tmp_path):
            with pytest.raises(FileFormatError, match=re.escape(f"cannot read {path}: ")):
                reader(path)

    def test_missing_recordings_dir(self, tmp_path):
        with pytest.raises(FileFormatError, match="recordings"):
            dataio.read_dataset(tmp_path)


def reference_read_recording(path):
    """The row loop of ``read_recording``, kept as the oracle: the (5, n)
    frame matrix, or the ``FileFormatError`` of the first bad row."""
    lines = enumerate(map(str.strip, path.read_text(encoding="utf-8").splitlines()), 1)
    body = [(number, ln) for number, ln in lines if ln][4:]
    frames = np.empty((5, len(body)))
    for i, (number, ln) in enumerate(body):
        where = f"{path}: line {number}"
        parts = ln.split(",")
        if len(parts) != 6:
            raise FileFormatError(f"{where}: expected 5 channels, got {len(parts) - 1}")
        if parts[0] != str(i):
            raise FileFormatError(f"{where}: expected frame {i}, got {parts[0]!r}")
        try:
            frames[:, i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{where}: channel values must be numbers") from exc
    return frames


def _finite_or_junk(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return True


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_JUNK = st.one_of(
    st.sampled_from(["", "x", "1.2.3", "0x10", "1e", "--1", "1 2"]),
    st.text(alphabet="0123456789.eE+-_ xn", max_size=5).filter(_finite_or_junk),
)
_TOKEN = st.builds(lambda pad, token, pad2: pad + token + pad2, _PAD, _VALUE, _PAD)
_FRAME = st.one_of(st.integers(0, 10**5).map(str), st.sampled_from(["", "f", "1.5", "nan"]))


def _write_body(path, rows):
    header = "# capgest-recording v1\nuser_id,u01\nsample_rate_hz,40.0\n"
    path.write_text(header + "frame,thumb,index,middle,ring,pinky\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    # an empty marks file, as write_dataset writes for a NONE recording
    dataio.write_marks(path.with_name(path.stem + ".marks.csv"), ())


class TestReaderOracle:
    """The one-pass body parse against the former row loop."""

    def test_valid_rows_take_one_pass(self, tmp_path, monkeypatch):
        # the row loop, which alone calls np.empty, only names a bad row
        path, _, _ = _written(tmp_path, "recording")
        features = tmp_path / "f.csv"
        row = ",".join(["0.25"] * 100)
        features.write_text(f"# probe\n{row}\n\n{row}\n", encoding="utf-8")
        monkeypatch.setattr(dataio.np, "empty", None)
        assert dataio.read_recording(path).n_frames == 55
        assert dataio.read_features(features)[0].shape == (2, 100)

    @given(
        values=st.lists(st.lists(_TOKEN, min_size=5, max_size=5), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_row_loop(self, tmp_path_factory, values, data):
        # well-formed rows, then up to two edits: a junk token, a dropped or
        # an added token, a token moved to another row (column counts off
        # by one in two rows, the token total unchanged), or a frame number
        frames = list(map(str, range(len(values))))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(values) - 1))
            j = data.draw(st.integers(0, len(values[i])))
            edit = data.draw(st.sampled_from(["junk", "drop", "add", "move", "frame"]))
            if edit == "frame":
                frames[i] = data.draw(_FRAME)
            elif edit == "add":
                values[i].insert(j, data.draw(_TOKEN))
            elif j == len(values[i]):
                continue
            elif edit == "junk":
                values[i][j] = data.draw(_JUNK)
            elif edit == "drop":
                del values[i][j]
            else:
                values[data.draw(st.integers(0, len(values) - 1))].append(values[i].pop(j))
        rows = [",".join([frame, *v]) for frame, v in zip(frames, values)]
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        _write_body(path, rows)
        try:
            want = reference_read_recording(path)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as got:
                dataio.read_recording(path)
            assert str(got.value) == str(exc)
            return
        got = dataio.read_recording(path).channels
        assert got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(
        rows=st.lists(st.lists(_VALUE, min_size=5, max_size=5), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_value_names_its_row(self, tmp_path_factory, rows, data):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, 4))
        rows[i][j] = data.draw(st.sampled_from(["nan", "inf", "-inf", " NaN", "Infinity "]))
        lines = [",".join([str(k), *r]) for k, r in enumerate(rows)]
        path = tmp_path_factory.getbasetemp() / "nonfinite.csv"
        _write_body(path, lines)
        with pytest.raises(FileFormatError) as got:
            dataio.read_recording(path)
        # the magic, key and column header lines come first
        assert str(got.value) == f"{path}: line {i + 5}: NaN or inf among the channel values"


def test_nan_frame_fails_train_with_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--users", "15", "--per-class", "4"]) == 0
    # u01 is a validation user at the default split seed: before the reader
    # rejected NaN, it reached the base KNN and crashed with a bare ValueError
    path = sorted((data / "recordings").glob("u01_*[0-9].csv"))[0]
    lines = path.read_text(encoding="utf-8").splitlines()
    frame, *values = lines[10].split(",")
    lines[10] = ",".join([frame, "nan", *values[1:]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.capgest")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 11: NaN or inf" in err
