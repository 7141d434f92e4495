import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgest.errors import (
    DegenerateRange,
    MissingCalibration,
    NotEnoughUsers,
)
from capgest.signals import (
    N_CHANNELS,
    N_FEATURES,
    WINDOW_FRAMES,
    CalibrationRange,
    GestureLabel,
    GestureMark,
    Recording,
    Sample,
    assemble_sliding,
    feature_matrix,
    label_array,
    normalize,
    split_by_user,
)
from capgest.synth import GenConfig, gen_dataset


def make_recording(n_frames=60, user_id="u01", marks=(), values=None):
    channels = (
        values
        if values is not None
        else np.full((N_CHANNELS, n_frames), 0.25)
    )
    return Recording(user_id=user_id, channels=channels, gesture_marks=tuple(marks))


def flat_calib(user_id="u01", lo=0.0, hi=1.0):
    return {(user_id, ch): CalibrationRange(lo, hi) for ch in range(N_CHANNELS)}


class TestLabels:
    def test_text_round_trip(self):
        for label in GestureLabel:
            assert GestureLabel.from_text(label.text) is label

    def test_texts_and_parsing(self):
        # the names that marks files and predict output have always used
        assert [label.text for label in GestureLabel] == [
            "index_bend", "shoot", "flick_index", "flick_middle", "none"
        ]
        assert GestureLabel.from_text(" Flick_Middle\n") is GestureLabel.FLICK_MIDDLE
        for text in ("waggle", "", "text"):
            with pytest.raises(KeyError):
                GestureLabel.from_text(text)

    def test_fixed_order(self):
        assert [int(l) for l in GestureLabel] == [0, 1, 2, 3, 4]


class TestValidation:
    def test_mark_rejects_bad_span(self):
        with pytest.raises(ValueError):
            GestureMark(5, 5, GestureLabel.SHOOT)
        with pytest.raises(ValueError):
            GestureMark(-1, 3, GestureLabel.SHOOT)

    def test_recording_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Recording(user_id="u", channels=np.zeros((4, 10)))

    def test_recording_rejects_overlapping_marks(self):
        marks = (
            GestureMark(0, 10, GestureLabel.SHOOT),
            GestureMark(10, 20, GestureLabel.FLICK_INDEX),
        )
        with pytest.raises(ValueError, match="overlap"):
            make_recording(30, marks=marks)

    def test_recording_rejects_out_of_bounds_mark(self):
        with pytest.raises(ValueError, match="bounds"):
            make_recording(10, marks=(GestureMark(0, 10, GestureLabel.SHOOT),))

    def test_sample_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            Sample(np.full((5, 20), 1.5), GestureLabel.NONE, "u")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_rejects_non_finite_values(self, bad):
        matrix = np.full((5, 20), 0.5)
        matrix[2, 7] = bad
        with pytest.raises(ValueError):
            Sample(matrix, GestureLabel.NONE, "u")

    def test_calibration_rejects_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            CalibrationRange(10.0, 10.0)

    @pytest.mark.parametrize("bounds", [(405.0, np.inf), (-np.inf, 1007.0), (np.nan, 1007.0)])
    def test_calibration_rejects_bound_that_is_not_finite(self, bounds):
        # an infinite max_raw mapped the channel to all zeros
        with pytest.raises(DegenerateRange, match="both finite"):
            CalibrationRange(*bounds)


class TestNormalize:
    def test_affine_map(self):
        rec = make_recording(values=np.full((N_CHANNELS, 4), 600.0))
        table = flat_calib(lo=400.0, hi=800.0)
        out = normalize(rec, table)
        assert np.allclose(out.channels, 0.5)

    def test_clamps_outside_range(self):
        values = np.full((N_CHANNELS, 3), 0.0)
        values[0] = 1e6
        rec = make_recording(values=values)
        out = normalize(rec, flat_calib(lo=100.0, hi=200.0))
        assert out.channels.min() == 0.0 and out.channels.max() == 1.0

    def test_missing_calibration(self):
        with pytest.raises(MissingCalibration):
            normalize(make_recording(), {})

    @pytest.mark.parametrize("channel", range(N_CHANNELS))
    def test_missing_channel_calibration(self, channel):
        # the user's other channels are calibrated, and another user has this one
        calib = {**flat_calib(), **flat_calib(user_id="u02")}
        del calib["u01", channel]
        with pytest.raises(MissingCalibration, match=f"user='u01' channel={channel}$"):
            normalize(make_recording(), calib)
        with pytest.raises(MissingCalibration):
            assemble_sliding([make_recording()], calib)

    @given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_byte_equal_to_per_channel_loop(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        rec = make_recording(values=rng.uniform(-500.0, 1500.0, (N_CHANNELS, n_frames)))
        table = {}
        for ch in range(N_CHANNELS):
            lo = float(rng.uniform(0.0, 600.0))
            table["u01", ch] = CalibrationRange(lo, lo + float(rng.uniform(1e-3, 900.0)))
        # the former body of normalize, one channel slice at a time
        want = np.empty_like(rec.channels)
        for ch in range(N_CHANNELS):
            r = table["u01", ch]
            want[ch] = np.clip((rec.channels[ch] - r.min_raw) / (r.max_raw - r.min_raw), 0.0, 1.0)
        got = normalize(rec, table).channels
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestExtract:
    def test_sliding_label_rule(self):
        # mark [20, 50]: span 30, eligible window ends are [40, 50]
        mark = GestureMark(20, 50, GestureLabel.FLICK_INDEX)
        values = np.tile(np.arange(70) / 100.0, (N_CHANNELS, 1))
        rec = make_recording(values=values, marks=(mark,))
        samples = assemble_sliding(
            [rec], flat_calib(), none_ratio=1e9, max_mark_overlap=1.0
        )
        # every window is kept; its last frame value tells where it ends
        ends = [round(s.matrix[0, -1] * 100) for s in samples]
        assert sorted(ends) == list(range(WINDOW_FRAMES - 1, 70))
        for end, sample in zip(ends, samples):
            expected = (
                GestureLabel.FLICK_INDEX if 40 <= end <= 50 else GestureLabel.NONE
            )
            assert sample.label is expected, end

    def test_sliding_stride(self):
        # NONE windows are kept up to a multiple of the gesture windows, so
        # the recording needs one gesture to keep any
        rec = make_recording(60, marks=(GestureMark(25, 45, GestureLabel.SHOOT),))
        samples = assemble_sliding(
            [rec], flat_calib(), stride_frames=5, none_ratio=1e9, max_mark_overlap=1.0
        )
        assert len(samples) == len(range(19, 60, 5))


class TestFlatten:
    def test_channel_major_order(self):
        matrix = np.arange(100).reshape(5, 20) / 100.0
        sample = Sample(matrix, GestureLabel.NONE, "u")
        flat = feature_matrix([sample])[0]
        assert np.array_equal(flat[:20], matrix[0])
        assert np.array_equal(flat[20:40], matrix[1])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=100, max_size=100
        )
    )
    def test_round_trip(self, values):
        matrix = np.array(values).reshape(5, 20)
        sample = Sample(matrix, GestureLabel.NONE, "u")
        assert np.array_equal(feature_matrix([sample])[0], matrix.reshape(100))


def make_user_samples(n_users):
    return [
        Sample(np.full((5, 20), 0.5), GestureLabel.NONE, f"u{u:02d}")
        for u in range(n_users)
        for _ in range(3)
    ]


class TestSplit:
    def test_counts_and_disjoint(self):
        split = split_by_user(make_user_samples(15), seed=1)
        users = {
            name: {s.user_id for s in split.partition(name)}
            for name in ("train", "validation", "test", "hold")
        }
        assert tuple(len(users[n]) for n in ("train", "validation", "test", "hold")) == (8, 3, 2, 2)
        all_users = [u for us in users.values() for u in us]
        assert len(all_users) == len(set(all_users))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_and_disjoint_any_seed(self, seed):
        samples = make_user_samples(16)
        a = split_by_user(samples, seed=seed)
        b = split_by_user(samples, seed=seed)
        assert a.user_assignment == b.user_assignment
        # extras beyond the requested 15 go to train
        assert sum(v == "train" for v in a.user_assignment.values()) == 9

    def test_pinned_hold(self):
        split = split_by_user(make_user_samples(15), seed=3, pinned_hold=("u00", "u07"))
        hold_users = {s.user_id for s in split.hold}
        assert hold_users == {"u00", "u07"}

    def test_not_enough_users(self):
        with pytest.raises(NotEnoughUsers):
            split_by_user(make_user_samples(10))
        with pytest.raises(NotEnoughUsers):
            split_by_user(make_user_samples(15), pinned_hold=("zz",))
        with pytest.raises(NotEnoughUsers):
            split_by_user(make_user_samples(15), pinned_hold=("u00", "u01", "u02"))


class TestAssemble:
    def test_subsamples_none_class(self):
        marks = (GestureMark(25, 45, GestureLabel.SHOOT),)
        recs = [make_recording(200, marks=marks) for _ in range(6)]
        samples = assemble_sliding(recs, flat_calib(), none_ratio=1.0, seed=0)
        labels = label_array(samples)
        n_gesture = int((labels == int(GestureLabel.SHOOT)).sum())
        n_none = int((labels == int(GestureLabel.NONE)).sum())
        assert n_gesture > 0
        assert n_none == n_gesture  # one gesture class, ratio 1.0

    def test_drops_near_duplicate_none_windows(self):
        marks = (GestureMark(25, 45, GestureLabel.SHOOT),)
        rec = make_recording(80, marks=marks)
        samples = assemble_sliding([rec], flat_calib(), none_ratio=1e9, seed=0)
        labels = label_array(samples)
        # window ends 19..79; SHOOT ends are 39..45 (trailing third of the
        # mark); NONE ends 46..49 overlap the mark by >15 of 20 frames and
        # are dropped, leaving 20 + 30 NONE windows
        assert int((labels == int(GestureLabel.SHOOT)).sum()) == 7
        assert int((labels == int(GestureLabel.NONE)).sum()) == 50

    def test_feature_matrix_shape(self):
        samples = make_user_samples(2)
        X = feature_matrix(samples)
        assert X.shape == (len(samples), N_FEATURES)
        assert feature_matrix([]).shape == (0, N_FEATURES)

    def test_feature_matrix_equals_flatten_stack(self, small_samples):
        X = feature_matrix(small_samples)
        # each row is its sample's matrix read row after row, channel-major
        want = np.stack([s.matrix.reshape(N_FEATURES).copy() for s in small_samples])
        assert X.dtype == want.dtype and X.flags.c_contiguous
        assert np.array_equal(X, want)
        assert X.tobytes() == want.tobytes()


def reference_assemble_sliding(
    recordings, calib, stride_frames=1, none_ratio=1.5, max_mark_overlap=0.75, seed=0
):
    """The former ``assemble_sliding`` body, which built a Sample for every
    window before subsampling; kept as the oracle."""
    gesture_samples = []
    none_pool = []
    max_overlap_frames = max_mark_overlap * WINDOW_FRAMES
    for rec in recordings:
        rec = normalize(rec, calib)
        for end in range(WINDOW_FRAMES - 1, rec.n_frames, stride_frames):
            start = end - WINDOW_FRAMES + 1
            label = GestureLabel.NONE
            near_duplicate = False
            for mark in rec.gesture_marks:
                eligible = mark.start + math.ceil(2.0 / 3.0 * (mark.end - mark.start))
                if eligible <= end <= mark.end:
                    label = mark.label
                    break
                overlap = min(end, mark.end) - max(start, mark.start) + 1
                if overlap > max_overlap_frames:
                    near_duplicate = True
            matrix = rec.channels[:, start : end + 1]
            sample = Sample(matrix=matrix, label=label, user_id=rec.user_id)
            if label is not GestureLabel.NONE:
                gesture_samples.append(sample)
            elif not near_duplicate:
                none_pool.append(sample)

    n_gesture_classes = max(1, len({s.label for s in gesture_samples}))
    target_none = int(round(none_ratio * len(gesture_samples) / n_gesture_classes))
    if target_none < len(none_pool):
        keep = sorted(random.Random(seed).sample(range(len(none_pool)), target_none))
        none_pool = [none_pool[i] for i in keep]
    return gesture_samples + none_pool


class TestAssembleOracle:
    @pytest.mark.parametrize(
        "stride, seed, overlap", [(1, 0, 0.75), (1, 7, 0.75), (3, 1, 0.5)]
    )
    def test_matches_reference(self, stride, seed, overlap):
        recordings, calib = gen_dataset(
            GenConfig(n_users=3, gestures_per_user_per_class=3, none_recordings_per_user=2)
        )
        args = dict(stride_frames=stride, max_mark_overlap=overlap, seed=seed)
        got = assemble_sliding(recordings, calib, **args)
        want = reference_assemble_sliding(recordings, calib, **args)
        # the NONE subsample is active: the unsubsampled set is larger
        unsampled = reference_assemble_sliding(
            recordings, calib, **{**args, "none_ratio": 1e9}
        )
        assert len(want) < len(unsampled)
        assert np.array_equal(feature_matrix(got), feature_matrix(want))
        assert np.array_equal(label_array(got), label_array(want))
        assert [s.user_id for s in got] == [s.user_id for s in want]
