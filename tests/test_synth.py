import numpy as np

from capgest.signals import GestureLabel, label_array, normalize
from capgest.synth import (
    GESTURE_TEMPLATES,
    GenConfig,
    UserProfile,
    build_sliding_dataset,
    gen_dataset,
    gen_profile,
    gen_recording,
)

SMALL = GenConfig(n_users=2, gestures_per_user_per_class=2, none_recordings_per_user=2)


def quiet_profile():
    """No jitter, no noise: signal shape is exactly the template."""
    return UserProfile(
        user_id="u00",
        baseline=np.full(5, 0.2),
        gain=np.ones(5),
        sigma_amp=0.0,
        sigma_time_ms=0.0,
        sigma_noise=0.0,
        calib_min=np.full(5, 400.0),
        calib_max=np.full(5, 1000.0),
    )


class TestDeterminism:
    def test_identical_configs_identical_recordings(self):
        a, calib_a = gen_dataset(SMALL)
        b, calib_b = gen_dataset(SMALL)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.user_id == rb.user_id
            assert ra.gesture_marks == rb.gesture_marks
            assert np.array_equal(ra.channels, rb.channels)
        assert calib_a.items() == calib_b.items()

    def test_seed_changes_data(self):
        a, _ = gen_dataset(SMALL)
        b, _ = gen_dataset(GenConfig(**{**SMALL.__dict__, "seed": 1}))
        assert not np.array_equal(a[0].channels, b[0].channels)


class TestProfiles:
    def test_documented_ranges(self):
        for u in range(10):
            p = gen_profile((0, u), user_id=f"u{u}")
            assert np.all((0.15 <= p.baseline) & (p.baseline <= 0.32))
            assert np.all((0.80 <= p.gain) & (p.gain <= 1.15))
            assert np.all(p.calib_min < p.calib_max)

    def test_calibration_covers_all_channels(self):
        assert len(gen_profile(0).calibration()) == 5


class TestRecordings:
    def test_gesture_has_one_mark(self):
        p = gen_profile(1)
        for label in GESTURE_TEMPLATES:
            rec = gen_recording(p, label, seed=(1, int(label)))
            assert len(rec.gesture_marks) == 1
            assert rec.gesture_marks[0].label is label

    def test_none_has_no_marks(self):
        rec = gen_recording(gen_profile(1), GestureLabel.NONE, seed=2)
        assert rec.gesture_marks == ()

    def test_quiet_profile_inactive_channels_at_baseline(self):
        p = quiet_profile()
        rec = gen_recording(p, GestureLabel.INDEX_BEND, seed=0)
        norm = normalize(rec, {("u00", ch): r for ch, r in p.calibration()})
        for ch in (0, 2, 3, 4):  # only channel 1 moves for an index bend
            assert np.allclose(norm.channels[ch], 0.2, atol=1e-12)
        assert norm.channels[1].max() > 0.9  # 0.2 baseline + 0.8 pulse

    def test_raw_units_span_calibration(self):
        p = gen_profile(3)
        rec = gen_recording(p, GestureLabel.SHOOT, seed=4)
        assert rec.channels.min() > 0.0
        assert rec.channels.max() < 1300.0


class TestDataset:
    def test_all_labels_present(self):
        samples, _ = build_sliding_dataset(
            GenConfig(n_users=15, gestures_per_user_per_class=3, none_recordings_per_user=2)
        )
        labels = set(label_array(samples).tolist())
        assert labels == {0, 1, 2, 3, 4}

    def test_default_scale_exceeds_twenty_thousand(self, default_samples):
        assert len(default_samples) > 20_000
