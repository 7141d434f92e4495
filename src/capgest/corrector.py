"""Adaptive error correction: group discovery, zero-FP thresholds, cascade.

Errors of the frozen base model are bucketed into (truth, prediction)
groups.  Each group gets a binary classifier over high-dimensional kernel
features whose decision threshold is chosen so it never fires on a sample
the base model got right, on both the training and holdout sweeps.  At
inference a sample's base label gates the correctors of the groups that
predict it, and every gated corrector is scored: the sample takes a
corrector's truth label only when exactly one of them fires.  Each corrector
is thresholded on every train candidate of its base label, so no corrector
fires on a train sample the base model got right, and the rule breaks none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classify import (
    BINARY_FITS,
    CentroidModel,
    LdaModel,
    binary_kind,
    binary_scores,
    knn_predict_batch,
)
from .embed import as_rows, kernel_apply, pca_transform
from .errors import (
    DimensionMismatch,
    FeatureOutOfRange,
    InconsistentBundle,
    NonFiniteInput,
    NonNumericInput,
)
from .signals import FEATURE_BOUNDS, GestureLabel

N_LABELS = len(GestureLabel)


@dataclass(frozen=True)
class ErrorGroup:
    """An ordered (ground truth, base prediction) confusion pattern."""

    truth: GestureLabel
    predicted: GestureLabel

    def __post_init__(self) -> None:
        if self.truth == self.predicted:
            raise ValueError("an error group needs truth != predicted")

    @property
    def group_id(self) -> int:
        return N_LABELS * int(self.truth) + int(self.predicted)

    @classmethod
    def from_id(cls, group_id: int) -> "ErrorGroup":
        return cls(GestureLabel(group_id // N_LABELS), GestureLabel(group_id % N_LABELS))

    def describe(self) -> str:
        return f"{self.truth.text}->{self.predicted.text}"


def discover_groups(
    truths: np.ndarray, base_preds: np.ndarray, min_support: int = 10
) -> list[ErrorGroup]:
    """All confusion patterns that occur at least ``min_support`` times
    (at least once where ``min_support`` <= 1), in ascending group id."""
    truths = np.asarray(truths, dtype=np.int64)
    base_preds = np.asarray(base_preds, dtype=np.int64)
    if len(truths) != len(base_preds):
        raise ValueError("truths and base_preds must have equal length")
    counts = np.bincount((N_LABELS * truths + base_preds)[truths != base_preds])
    return [ErrorGroup.from_id(int(g)) for g in np.flatnonzero(counts >= max(min_support, 1))]


def select_threshold_zero_fp(
    train_scores: np.ndarray,
    train_labels: np.ndarray,
    holdout_scores: np.ndarray,
    holdout_labels: np.ndarray,
) -> float | None:
    """Threshold with the most train TP and zero FP on BOTH sweeps, if any.

    A corrector fires at ``score >= threshold``, so a threshold is safe iff it
    lies above every negative score of the train and holdout sweeps.  Above
    that floor every train score is a positive's, so the smallest one there
    detects the most train positives, and any higher threshold strictly fewer.
    Returns None when no train score lies above the floor.
    """
    floor = _negatives_max(train_scores, train_labels, holdout_scores, holdout_labels)
    safe = train_scores[train_scores > floor]
    return float(safe.min()) if len(safe) else None


def _negatives_max(
    train_scores: np.ndarray,
    train_labels: np.ndarray,
    holdout_scores: np.ndarray,
    holdout_labels: np.ndarray,
) -> float:
    """The largest negative score of both sweeps, -inf without negatives."""
    negatives = np.concatenate(
        (train_scores[train_labels == 0], holdout_scores[holdout_labels == 0])
    )
    return negatives.max() if len(negatives) else -np.inf


THRESHOLD_MARGIN = 1e-9  # relative to max(1, |threshold|)


def with_margin(
    threshold: float,
    train_scores: np.ndarray,
    train_labels: np.ndarray,
    holdout_scores: np.ndarray,
    holdout_labels: np.ndarray,
) -> float:
    """``threshold`` lowered by ``THRESHOLD_MARGIN · max(1, |threshold|)`` when
    that stays above every negative score of both sweeps, else unchanged.

    A zero-FP threshold is a train score as the batch computed it, so it has
    no margin: a one-row product, or a refit whose arithmetic rounds
    differently, can score that train row just below it.  The margin places
    the threshold between the classes (Gorban et al. 2018), so such rounding
    flips no label.  No train score lies between the negatives' maximum and
    the threshold, so the train TP is the same either way.
    """
    lowered = threshold - THRESHOLD_MARGIN * max(1.0, abs(threshold))
    floor = _negatives_max(train_scores, train_labels, holdout_scores, holdout_labels)
    return lowered if lowered > floor else threshold


# ---------------------------------------------------------------------------
# Per-group correctors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corrector:
    group_id: int
    kernel_name: str
    model: CentroidModel | LdaModel  # class 1 is the group's errors
    threshold: float
    train_tp: int
    train_positives: int
    holdout_tp: int
    holdout_positives: int
    # derived from group_id on every construction, never serialized
    group: ErrorGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            group = ErrorGroup.from_id(self.group_id)
        except (TypeError, ValueError):
            raise InconsistentBundle(
                f"corrector group id {self.group_id!r} is no error group"
            ) from None
        object.__setattr__(self, "group", group)

    def score(self, kernel_features: np.ndarray) -> np.ndarray:
        """Score of each row of a float (n, d) matrix of this corrector's
        kernel features, as training scored it.

        The matrix is not checked: its width is the kernel's output width,
        which the bundle checks when it is built.
        """
        return binary_scores(self.model, kernel_features)


def train_corrector(
    group: ErrorGroup,
    kernel_name: str,
    train_candidates: np.ndarray,
    train_truths: np.ndarray,
    holdout_candidates: np.ndarray,
    holdout_truths: np.ndarray,
) -> Corrector | None:
    """Search the classifiers of :data:`BINARY_FITS`, in its order, for the
    best zero-FP corrector of ``group`` on one kernel's features.

    The candidates are the kernel features of the train and holdout rows the
    base model labelled ``group.predicted``, and the truths are those rows'
    true labels; a candidate is a positive iff its truth is ``group.truth``.
    Returns the classifier with maximal train TP (the first on a tie) whose
    threshold yields zero false positives on both candidate sweeps, or None
    when none can detect a single error safely.  The stored threshold lies a
    rounding margin below the smallest safe train score (see
    :func:`with_margin`).
    """
    y_train = (np.asarray(train_truths) == int(group.truth)).astype(np.int64)
    y_holdout = (np.asarray(holdout_truths) == int(group.truth)).astype(np.int64)
    if not y_train.any() or y_train.all():
        return None  # every classifier needs both classes

    best: Corrector | None = None
    for fit in BINARY_FITS.values():
        model = fit(train_candidates, y_train)
        s_train = binary_scores(model, train_candidates)
        s_holdout = binary_scores(model, holdout_candidates)
        threshold = select_threshold_zero_fp(s_train, y_train, s_holdout, y_holdout)
        if threshold is None:
            continue
        threshold = with_margin(threshold, s_train, y_train, s_holdout, y_holdout)
        candidate = Corrector(
            group_id=group.group_id,
            kernel_name=kernel_name,
            model=model,
            threshold=threshold,
            # at or above the threshold every score on both sweeps is a positive's
            train_tp=int((s_train >= threshold).sum()),
            train_positives=int(y_train.sum()),
            holdout_tp=int((s_holdout >= threshold).sum()),
            holdout_positives=int(y_holdout.sum()),
        )
        if best is None or candidate.train_tp > best.train_tp:
            best = candidate
    return best


# ---------------------------------------------------------------------------
# Corrected inference
# ---------------------------------------------------------------------------

def build_routing_table(correctors: Sequence[Corrector]) -> dict[int, tuple[Corrector, ...]]:
    """The correctors each base label gates, in ascending group id, for the
    base labels, in ascending order, that gate one."""
    gated: dict[int, list[Corrector]] = {}
    for c in sorted(correctors, key=lambda c: c.group_id):
        gated.setdefault(int(c.group.predicted), []).append(c)
    return {label: tuple(gated[label]) for label in sorted(gated)}


def feature_rows(
    features: np.ndarray, n_features: int, one: bool = False, where="feature row {}".format
) -> np.ndarray:
    """``features`` as a float (n, n_features) matrix: the cascade's one input check.

    A 1-D ``features`` is one row.  With ``one`` the input must be exactly
    one row.  Raises DimensionMismatch on rows of different shapes or any
    other wrong shape, NonNumericInput when a value is not a number,
    NonFiniteInput on NaN or inf and FeatureOutOfRange on a finite value
    outside the normalized range [0, 1]; the last two name the row as
    ``where(index)`` does.
    """
    try:
        features = as_rows(features, n_features)
    except (TypeError, ValueError) as exc:
        ragged = _ragged_rows(features)
        if ragged:
            raise DimensionMismatch(ragged) from None
        raise NonNumericInput(f"feature values must be numbers: {exc}") from None
    if one and len(features) != 1:
        raise DimensionMismatch(f"expects one feature row, got shape {features.shape}")
    lo, hi = FEATURE_BOUNDS
    # a NaN is the min and the max, and fails both comparisons
    if features.size and not (lo <= features.min() and features.max() <= hi):
        row, col = np.argwhere(~((features >= lo) & (features <= hi)))[0]
        if not np.isfinite(features[row]).all():
            raise NonFiniteInput(f"{where(row)}: NaN or inf")
        raise FeatureOutOfRange(f"{where(row)}: value {float(features[row, col])!r} outside [0, 1]")
    return features


def _ragged_rows(features) -> str:
    """Names the first row of a sequence whose shape differs from row 0's, else ''."""
    try:
        shapes = [np.shape(row) for row in features]
    except TypeError:  # not a sequence of rows
        return ""
    except ValueError:  # a row is itself ragged
        return "feature rows are ragged"
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            return f"feature row {i} has shape {shape}, row 0 has shape {shapes[0]}"
    return ""


def corrected_predict(bundle, feature_vector: np.ndarray) -> GestureLabel:
    """The cascade for one 100-feature sample: a batch of one.

    ``feature_vector`` is one row, 1-D or (1, 100); any other shape raises
    DimensionMismatch.
    """
    width = bundle.base_pca.shape[0]
    _, out = _cascade(bundle, feature_rows(feature_vector, width, one=True))
    return GestureLabel(int(out[0]))


def corrected_predict_batch(bundle, features: np.ndarray) -> np.ndarray:
    """The cascade over an (n, 100) feature matrix.

    Base prediction, then every corrector that base label gates is scored,
    and a sample where exactly one of them clears its zero-FP threshold takes
    that corrector's truth label.  A sample where none fires, or several do,
    keeps its base prediction.
    """
    return _cascade(bundle, feature_rows(features, bundle.base_pca.shape[0]))[1]


def _cascade(bundle, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The base and the corrected labels of a matrix that :func:`feature_rows`
    checked."""
    base = knn_predict_batch(bundle.base_knn, pca_transform(bundle.base_pca, features))
    out = base.copy()
    applied: dict = {}  # kernel name -> its features of every row

    def kernel_features(name: str) -> np.ndarray:
        if name not in applied:
            applied[name] = kernel_apply(bundle.corrector_kernels[name], features)
        return applied[name]

    if len(base) == 1:
        # its label's correctors only, on Python floats, up to a second firing
        truth = None
        for c in bundle.routing.get(int(base[0]), ()):
            if c.score(kernel_features(c.kernel_name)).item() >= c.threshold:
                if truth is not None:
                    return base, out
                truth = int(c.group.truth)
        if truth is not None:
            out[0] = truth
        return base, out
    # skip absent labels before the per-label scan
    present = set(base.tolist())
    for label, correctors in bundle.routing.items():
        if label not in present:
            continue
        rows = np.flatnonzero(base == label)
        fired = np.zeros(len(rows), dtype=np.int64)
        truth = np.empty(len(rows), dtype=np.int64)
        for c in correctors:
            hit = c.score(kernel_features(c.kernel_name)[rows]) >= c.threshold
            fired += hit
            truth[hit] = int(c.group.truth)
        once = fired == 1
        out[rows[once]] = truth[once]
    return base, out


def audit_records(correctors: Sequence[Corrector]) -> list[dict]:
    """Machine-readable per-group corrector audit."""
    return [
        {
            "group_id": c.group.group_id,
            "pattern": c.group.describe(),
            "kernel": c.kernel_name,
            "classifier": binary_kind(c.model),
            "threshold": c.threshold,
            "train_tp": c.train_tp,
            "train_errors": c.train_positives,
            "holdout_tp": c.holdout_tp,
            "holdout_errors": c.holdout_positives,
        }
        for c in sorted(correctors, key=lambda c: c.group.group_id)
    ]


def format_audit(records: Sequence[dict]) -> str:
    if not records:
        return "no correctors trained\n"
    header = (
        f"{'group':>5}  {'pattern':<26} {'kernel':<24} {'clf':<8} "
        f"{'threshold':>10} {'train TP/err':>13} {'holdout TP/err':>15}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['group_id']:>5}  {r['pattern']:<26} {r['kernel']:<24} "
            f"{r['classifier']:<8} {r['threshold']:>10.4f} "
            f"{r['train_tp']:>6}/{r['train_errors']:<6} "
            f"{r['holdout_tp']:>7}/{r['holdout_errors']}"
        )
    return "\n".join(lines) + "\n"
