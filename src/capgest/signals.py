"""Domain types and deterministic preprocessing for capacitive recordings.

Raw recordings carry 5 parallel finger traces in sensor units.  This module
normalizes them into [0, 1] per user calibration, cuts them into 5x20
samples (500 ms at 40 Hz, the one rate a recording may have), flattens
samples into 100-feature vectors, and produces user-grouped dataset splits.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateRange,
    MissingCalibration,
    NotEnoughUsers,
)

N_CHANNELS = 5
WINDOW_FRAMES = 20
N_FEATURES = N_CHANNELS * WINDOW_FRAMES
SAMPLE_RATE_HZ = 40.0  # the only rate windows are cut at

CHANNEL_NAMES = ("thumb", "index", "middle", "ring", "pinky")
# the range of a normalized value, with slack for float rounding
FEATURE_BOUNDS = (-1e-9, 1 + 1e-9)


class GestureLabel(IntEnum):
    """The 4 dynamic gestures plus the catch-all rest label.

    The integer values define the fixed label order used everywhere a
    deterministic tie-break is needed.
    """

    INDEX_BEND = 0
    SHOOT = 1
    FLICK_INDEX = 2
    FLICK_MIDDLE = 3
    NONE = 4

    @property
    def text(self) -> str:
        return self.name.lower()

    @classmethod
    def from_text(cls, text: str) -> "GestureLabel":
        """The label named ``text``, in any case; an unknown name is a KeyError."""
        return cls[text.strip().upper()]


@dataclass(frozen=True)
class GestureMark:
    """Inclusive [start, end] frame span annotated with a gesture."""

    start: int
    end: int
    label: GestureLabel

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"bad mark span [{self.start}, {self.end}]")


@dataclass(frozen=True)
class Recording:
    """Multi-channel capacitive time series with gesture annotations.

    ``channels`` is a (5, n_frames) array sampled at :data:`SAMPLE_RATE_HZ`;
    raw sensor units unless produced by :func:`normalize`.
    """

    user_id: str
    channels: np.ndarray
    gesture_marks: tuple[GestureMark, ...] = ()

    def __post_init__(self) -> None:
        ch = np.asarray(self.channels, dtype=np.float64)
        object.__setattr__(self, "channels", ch)
        if ch.ndim != 2 or ch.shape[0] != N_CHANNELS or ch.shape[1] < 1:
            raise ValueError(f"channels must be (5, n>=1), got {ch.shape}")
        n = ch.shape[1]
        prev_end = -1
        for mark in sorted(self.gesture_marks, key=lambda m: m.start):
            if mark.start <= prev_end:
                raise ValueError("gesture_marks overlap")
            if mark.end >= n:
                raise ValueError("gesture_mark out of bounds")
            prev_end = mark.end

    @property
    def n_frames(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class CalibrationRange:
    """Raw-unit range for one (user, channel): fully open .. full press.
    Both bounds are finite."""

    min_raw: float
    max_raw: float

    def __post_init__(self) -> None:
        # NaN fails every comparison
        if not -math.inf < self.min_raw < self.max_raw < math.inf:
            raise DegenerateRange(
                f"min_raw {self.min_raw} must be < max_raw {self.max_raw}, both finite"
            )


@dataclass(frozen=True)
class Sample:
    """A normalized 5x20 signal window with its gesture label."""

    matrix: np.ndarray
    label: GestureLabel
    user_id: str

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.shape != (N_CHANNELS, WINDOW_FRAMES):
            raise ValueError(f"sample matrix must be (5, 20), got {m.shape}")
        lo, hi = FEATURE_BOUNDS
        # a NaN is the min and the max, and fails both comparisons
        if not (lo <= m.min() and m.max() <= hi):
            raise ValueError("sample values must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class DatasetSplit:
    """User-disjoint train/validation/test/hold partitions."""

    train: tuple[Sample, ...]
    validation: tuple[Sample, ...]
    test: tuple[Sample, ...]
    hold: tuple[Sample, ...]
    user_assignment: Mapping[str, str] = field(default_factory=dict)

    def partition(self, name: str) -> tuple[Sample, ...]:
        return getattr(self, name)


PARTITION_NAMES = ("train", "validation", "test", "hold")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def normalize(
    recording: Recording, calib: Mapping[tuple[str, int], CalibrationRange]
) -> Recording:
    """Map raw traces to [0, 1] with the user's per-channel calibration,
    ``calib[user_id, channel]``.

    0 means fingers fully open, 1 means full press.  Values outside the
    calibrated range are clamped: live sensors drift past calibration and a
    hard failure there would be useless in deployment.  A missing
    (user, channel) raises MissingCalibration.
    """
    try:
        ranges = [calib[recording.user_id, ch] for ch in range(N_CHANNELS)]
    except KeyError as exc:
        user_id, channel = exc.args[0]
        raise MissingCalibration(
            f"no calibration for user={user_id!r} channel={channel}"
        ) from None
    lo = np.array([[r.min_raw] for r in ranges])
    span = np.array([[r.max_raw - r.min_raw] for r in ranges])
    return replace(
        recording, channels=np.clip((recording.channels - lo) / span, 0.0, 1.0)
    )


def _eligible_start(mark: GestureMark) -> int:
    # window end must trail the gesture: from 2/3 of its span to its end
    return mark.start + math.ceil(2.0 / 3.0 * (mark.end - mark.start))


def split_by_user(
    samples: Sequence[Sample],
    user_counts: tuple[int, int, int, int] = (8, 3, 2, 2),
    seed: int = 0,
    pinned_hold: Iterable[str] = (),
) -> DatasetSplit:
    """Partition samples into user-disjoint train/validation/test/hold sets.

    Deterministic for a fixed seed.  ``pinned_hold`` users always land in
    hold; users beyond the requested counts are added to train.
    """
    users = sorted({s.user_id for s in samples})
    needed = sum(user_counts)
    if len(users) < needed:
        raise NotEnoughUsers(f"need {needed} users, got {len(users)}")
    pinned = sorted(set(pinned_hold))
    unknown = [u for u in pinned if u not in users]
    if unknown:
        raise NotEnoughUsers(f"pinned hold users not in dataset: {unknown}")
    n_train, n_val, n_test, n_hold = user_counts
    if len(pinned) > n_hold:
        raise NotEnoughUsers(f"{len(pinned)} pinned users exceed hold size {n_hold}")

    pool = [u for u in users if u not in pinned]
    random.Random(seed).shuffle(pool)

    hold = list(pinned) + pool[: n_hold - len(pinned)]
    pool = pool[n_hold - len(pinned) :]
    train = pool[:n_train]
    validation = pool[n_train : n_train + n_val]
    test = pool[n_train + n_val : n_train + n_val + n_test]
    train += pool[n_train + n_val + n_test :]  # extras beyond 15 users

    assignment = {
        u: name
        for name, members in zip(PARTITION_NAMES, (train, validation, test, hold))
        for u in members
    }
    buckets: dict[str, list[Sample]] = {name: [] for name in PARTITION_NAMES}
    for s in samples:
        buckets[assignment[s.user_id]].append(s)
    return DatasetSplit(
        **{name: tuple(bucket) for name, bucket in buckets.items()},
        user_assignment=assignment,
    )


def assemble_sliding(
    recordings: Sequence[Recording],
    calib: Mapping[tuple[str, int], CalibrationRange],
    stride_frames: int = 1,
    none_ratio: float = 1.5,
    max_mark_overlap: float = 0.75,
    seed: int = 0,
) -> list[Sample]:
    """Build the sliding dataset from normalized-or-raw recordings.

    Every ``stride_frames``-th 20-frame window is cut.  A window ending at
    frame ``e`` inherits a mark's label when ``e`` lies in
    [start + ceil(2/3 * (end - start)), end]; all other windows are NONE.
    Gesture-labeled windows are kept as-is.  NONE windows overlapping a mark
    by more than ``max_mark_overlap`` of the window are dropped (they are
    near-duplicates of gesture windows), and the rest are subsampled so the
    NONE class holds roughly ``none_ratio`` times the mean dynamic-gesture
    class count.  Deterministic for a fixed seed.
    """
    gesture_samples: list[Sample] = []
    # NONE windows stay (recording, start, end) until the subsample picks them
    none_pool: list[tuple[Recording, int, int]] = []
    max_overlap_frames = max_mark_overlap * WINDOW_FRAMES
    for rec in recordings:
        rec = normalize(rec, calib)
        for end in range(WINDOW_FRAMES - 1, rec.n_frames, stride_frames):
            start = end - WINDOW_FRAMES + 1
            label = GestureLabel.NONE
            near_duplicate = False
            for mark in rec.gesture_marks:
                if _eligible_start(mark) <= end <= mark.end:
                    label = mark.label
                    break
                overlap = min(end, mark.end) - max(start, mark.start) + 1
                if overlap > max_overlap_frames:
                    near_duplicate = True
            if label is not GestureLabel.NONE:
                matrix = rec.channels[:, start : end + 1]
                gesture_samples.append(
                    Sample(matrix=matrix, label=label, user_id=rec.user_id)
                )
            elif not near_duplicate:
                none_pool.append((rec, start, end))

    n_gesture_classes = max(
        1, len({s.label for s in gesture_samples})
    )
    target_none = int(round(none_ratio * len(gesture_samples) / n_gesture_classes))
    if target_none < len(none_pool):
        keep = sorted(
            random.Random(seed).sample(range(len(none_pool)), target_none)
        )
        none_pool = [none_pool[i] for i in keep]
    none_samples = [
        Sample(
            matrix=rec.channels[:, start : end + 1],
            label=GestureLabel.NONE,
            user_id=rec.user_id,
        )
        for rec, start, end in none_pool
    ]
    return gesture_samples + none_samples


def feature_matrix(samples: Sequence[Sample]) -> np.ndarray:
    """Stack samples into an (n, 100) matrix; row i is ``samples[i].matrix``
    channel-major (features 0-19 thumb, 20-39 index, ...)."""
    if not samples:
        return np.empty((0, N_FEATURES))
    return np.stack([s.matrix for s in samples]).reshape(len(samples), N_FEATURES)


def label_array(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([int(s.label) for s in samples], dtype=np.int64)
