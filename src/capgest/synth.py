"""Seed-deterministic synthetic capacitive recordings.

The generator mimics the structure of a real multi-user gesture corpus:
4 dynamic gesture templates with per-user gain/offset/jitter, a wandering
rest signal for the NONE class, and per-user calibration ranges in raw
sensor units.  Parameters were tuned once so the default dataset satisfies
the pipeline's PCA-concentration and separability properties, then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    N_CHANNELS,
    SAMPLE_RATE_HZ,
    CalibrationRange,
    GestureLabel,
    GestureMark,
    Recording,
    Sample,
    assemble_sliding,
)


@dataclass(frozen=True)
class ChannelPulse:
    """One raised-cosine bump on one channel."""

    channel: int
    amplitude: float          # in (0, 1], relative to the calibrated span
    duration_ms: float
    onset_offset_ms: float = 0.0
    attack_fraction: float = 0.5   # < 0.5 means a sharper release than rise


# Channel roles: 0 thumb, 1 index, 2 middle, 3 ring, 4 pinky.
# Flicks are shorter than bends and release more sharply.
GESTURE_TEMPLATES: dict[GestureLabel, tuple[ChannelPulse, ...]] = {
    GestureLabel.INDEX_BEND: (ChannelPulse(channel=1, amplitude=0.80, duration_ms=500.0),),
    GestureLabel.SHOOT: (
        ChannelPulse(channel=1, amplitude=0.75, duration_ms=520.0),
        ChannelPulse(channel=2, amplitude=0.70, duration_ms=520.0, onset_offset_ms=30.0),
    ),
    GestureLabel.FLICK_INDEX: (
        ChannelPulse(channel=1, amplitude=0.85, duration_ms=230.0, attack_fraction=0.35),
    ),
    GestureLabel.FLICK_MIDDLE: (
        ChannelPulse(channel=2, amplitude=0.85, duration_ms=250.0, attack_fraction=0.35),
    ),
}
# chance that a NONE recording carries a gesture-like triangular bump
NONE_BUMP_PROBABILITY = 0.55


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    baseline: np.ndarray        # (5,) normalized rest level per channel
    gain: np.ndarray            # (5,) pulse amplitude multiplier, > 0
    sigma_amp: float            # relative amplitude jitter
    sigma_time_ms: float        # duration/onset jitter
    sigma_noise: float          # additive noise, raw units
    calib_min: np.ndarray       # (5,) raw units
    calib_max: np.ndarray       # (5,) raw units

    def calibration(self) -> list[tuple[int, CalibrationRange]]:
        return [
            (ch, CalibrationRange(float(self.calib_min[ch]), float(self.calib_max[ch])))
            for ch in range(N_CHANNELS)
        ]


@dataclass(frozen=True)
class GenConfig:
    """Deterministic dataset recipe; identical configs give identical bytes."""

    n_users: int = 15
    gestures_per_user_per_class: int = 70
    none_recordings_per_user: int = 12
    none_ratio: float = 1.5          # NONE windows vs mean gesture class count
    stride_frames: int = 1
    max_mark_overlap: float = 0.75
    seed: int = 0


def gen_profile(seed, user_id: str = "u00") -> UserProfile:
    """Draw one user's signal personality from documented ranges."""
    rng = np.random.default_rng(seed)
    return UserProfile(
        user_id=user_id,
        baseline=rng.uniform(0.15, 0.32, N_CHANNELS),
        gain=rng.uniform(0.80, 1.15, N_CHANNELS),
        sigma_amp=float(rng.uniform(0.04, 0.10)),
        sigma_time_ms=float(rng.uniform(8.0, 25.0)),
        sigma_noise=float(rng.uniform(1.5, 4.0)),
        calib_min=rng.uniform(300.0, 480.0, N_CHANNELS),
        calib_max=rng.uniform(900.0, 1150.0, N_CHANNELS),
    )


def _pulse_shape(n_frames: int, attack_fraction: float) -> np.ndarray:
    """Single smooth lobe rising over the attack fraction, 0 at both ends."""
    t = np.linspace(0.0, 1.0, n_frames)
    a = attack_fraction
    rise = np.sin(0.5 * np.pi * np.minimum(t, a) / a) ** 2
    fall = np.cos(0.5 * np.pi * np.maximum(t - a, 0.0) / (1.0 - a)) ** 2
    return np.where(t <= a, rise, fall)


def _triangle_shape(n_frames: int, peak_fraction: float) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n_frames)
    up = t / peak_fraction
    down = (1.0 - t) / (1.0 - peak_fraction)
    return np.minimum(up, down)


def gen_recording(profile: UserProfile, label: GestureLabel, seed) -> Recording:
    """One raw-unit recording: a marked gesture pulse, or unmarked wander.

    With all jitters and noise at zero, inactive channels sit exactly at the
    user's baseline.
    """
    rng = np.random.default_rng(seed)
    ms_per_frame = 1000.0 / SAMPLE_RATE_HZ

    if label is GestureLabel.NONE:
        normalized, marks = _gen_none(profile, rng, ms_per_frame)
    else:
        normalized, marks = _gen_gesture(profile, label, rng, ms_per_frame)

    span = profile.calib_max - profile.calib_min
    raw = profile.calib_min[:, None] + normalized * span[:, None]
    if profile.sigma_noise > 0:
        raw = raw + rng.normal(0.0, profile.sigma_noise, raw.shape)
    return Recording(
        user_id=profile.user_id,
        channels=raw,
        gesture_marks=marks,
    )


def _gen_gesture(profile, label, rng, ms_per_frame):
    pre_pad = int(rng.integers(14, 24))
    post_pad = int(rng.integers(8, 16))

    lanes = []
    for pulse in GESTURE_TEMPLATES[label]:
        dur_ms = max(
            3 * ms_per_frame, pulse.duration_ms + rng.normal(0.0, profile.sigma_time_ms)
        )
        onset_ms = max(0.0, pulse.onset_offset_ms + rng.normal(0.0, 0.5 * profile.sigma_time_ms))
        amp = pulse.amplitude * float(profile.gain[pulse.channel])
        amp *= 1.0 + rng.normal(0.0, profile.sigma_amp)
        onset = int(round(onset_ms / ms_per_frame))
        n_frames = max(3, int(round(dur_ms / ms_per_frame)))
        lanes.append((pulse.channel, onset, n_frames, min(max(amp, 0.05), 0.97), pulse.attack_fraction))

    mark_len = max(onset + n for _, onset, n, _, _ in lanes)
    total = pre_pad + mark_len + post_pad
    normalized = np.repeat(profile.baseline[:, None], total, axis=1)
    for channel, onset, n_frames, amp, attack in lanes:
        shape = _pulse_shape(n_frames, attack)
        start = pre_pad + onset
        seg = normalized[channel, start : start + n_frames]
        normalized[channel, start : start + n_frames] = np.maximum(
            seg, profile.baseline[channel] + amp * shape
        )
    np.clip(normalized, 0.0, 1.0, out=normalized)
    mark = GestureMark(pre_pad, pre_pad + mark_len - 1, label)
    return normalized, (mark,)


def _gen_none(profile, rng, ms_per_frame):
    total = int(rng.integers(40, 70))
    normalized = np.repeat(profile.baseline[:, None], total, axis=1)
    # slow low-amplitude wander on every channel
    t = np.arange(total)
    for ch in range(N_CHANNELS):
        n_waves = int(rng.integers(1, 4))
        for _ in range(n_waves):
            amp = rng.uniform(0.01, 0.08)
            period = rng.uniform(25.0, 90.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            normalized[ch] += amp * np.sin(2.0 * np.pi * t / period + phase)
    # occasional gesture-like triangular bump: confusable in 3 PCs,
    # distinguishable from the raised-cosine pulses in the full feature space
    if rng.random() < NONE_BUMP_PROBABILITY:
        channel = int(rng.integers(1, 3))  # index or middle
        dur_ms = rng.uniform(150.0, 450.0)
        n_frames = max(3, int(round(dur_ms / ms_per_frame)))
        amp = rng.uniform(0.30, 0.75) * float(profile.gain[channel])
        start = int(rng.integers(0, max(1, total - n_frames)))
        peak = rng.uniform(0.25, 0.75)
        shape = _triangle_shape(n_frames, peak)
        normalized[channel, start : start + n_frames] += amp * shape
    np.clip(normalized, 0.0, 1.0, out=normalized)
    return normalized, ()


def gen_dataset(
    config: GenConfig,
) -> tuple[list[Recording], dict[tuple[str, int], CalibrationRange]]:
    """All users' raw recordings plus their calibration ranges by (user, channel)."""
    recordings: list[Recording] = []
    calib = {}
    for u in range(config.n_users):
        user_id = f"u{u + 1:02d}"
        profile = gen_profile((config.seed, 0xA11CE, u), user_id=user_id)
        for ch, rng_ in profile.calibration():
            calib[user_id, ch] = rng_
        for class_idx, label in enumerate(GestureLabel):
            if label is GestureLabel.NONE:
                n_rec = config.none_recordings_per_user
            else:
                n_rec = config.gestures_per_user_per_class
            for r in range(n_rec):
                recordings.append(
                    gen_recording(profile, label, seed=(config.seed, u, class_idx, r))
                )
    return recordings, calib


def build_sliding_dataset(
    config: GenConfig,
) -> tuple[list[Sample], dict[tuple[str, int], CalibrationRange]]:
    """Generate recordings and assemble the sliding-window sample set."""
    recordings, calib = gen_dataset(config)
    samples = assemble_sliding(
        recordings,
        calib,
        stride_frames=config.stride_frames,
        none_ratio=config.none_ratio,
        max_mark_overlap=config.max_mark_overlap,
        seed=config.seed,
    )
    return samples, calib
