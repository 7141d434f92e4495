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
        with pytest.raises(FileFormatError, match="frame row"):
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
        with pytest.raises(FileFormatError, match="bad frame row"):
            dataio.read_recording(path)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError, match="r.marks.csv"):
            dataio.read_recording(path)
        dataio.write_marks(tmp_path / "r.marks.csv", ())
        with pytest.raises(FileFormatError, match="sample_rate_hz is 9.0"):
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
    """The former row loop of ``read_recording``, kept as the oracle: the
    (5, n) frame matrix, or the ``FileFormatError`` of the first bad row."""
    lines = dataio._read_lines(path, dataio.RECORDING_MAGIC)
    body = lines[3:]
    frames = np.empty((5, len(body)))
    for i, ln in enumerate(body):
        parts = ln.split(",")
        if len(parts) != 6:
            raise FileFormatError(f"{path}: bad frame row {ln!r}")
        try:
            frames[:, i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad frame row {ln!r}") from exc
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

    @given(
        values=st.lists(st.lists(_TOKEN, min_size=5, max_size=5), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_row_loop(self, tmp_path_factory, values, data):
        # well-formed rows, then up to two edits: a junk token, a dropped or
        # an added token, or a token moved to another row (column counts off
        # by one in two rows, the token total unchanged)
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(values) - 1))
            j = data.draw(st.integers(0, len(values[i])))
            edit = data.draw(st.sampled_from(["junk", "drop", "add", "move"]))
            if edit == "add":
                values[i].insert(j, data.draw(_TOKEN))
            elif j == len(values[i]):
                continue
            elif edit == "junk":
                values[i][j] = data.draw(_JUNK)
            elif edit == "drop":
                del values[i][j]
            else:
                values[data.draw(st.integers(0, len(values) - 1))].append(values[i].pop(j))
        rows = [",".join([data.draw(_FRAME), *v]) for v in values]
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
        assert str(got.value) == f"{path}: non-finite value in frame row {lines[i].strip()!r}"


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
    assert str(path) in err and repr(lines[10]) in err
