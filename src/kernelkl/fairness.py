"""Fairness metrics as mutual information between predictions and a protected attribute.

Demographic parity is I(prediction; attribute); equality of odds conditions on
the ground-truth label and is computed as the class-frequency-weighted sum of
per-class mutual informations; equality of opportunity is the single-class
case.  Attributes may be categorical (integer-coded) or continuous; tied and
categorical columns go to ``estimate_mi`` as given, as in the ``estimate-mi``
command: the pivoted Cholesky factor behind either kernel path skips a repeated
row, whose residual is zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .estimator import MIN_MI_ROWS, EstimatorConfig, derive_seed, estimate_mi

_CLASS_TAG_BASE = 1000


@dataclass(frozen=True)
class AuditTable:
    """Prediction log to audit: predictions, protected attribute, optional labels."""

    predictions: np.ndarray
    attribute: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pred = np.asarray(self.predictions, dtype=float)
        attr = np.asarray(self.attribute, dtype=float)
        if pred.ndim != 1 or attr.ndim != 1 or pred.shape != attr.shape:
            raise InvalidInputError("predictions and attribute must be equal-length 1-D columns")
        if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(attr))):
            raise InvalidInputError("audit columns contain non-finite values")
        object.__setattr__(self, "predictions", pred)
        object.__setattr__(self, "attribute", attr)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != pred.shape:
                raise InvalidInputError("labels must match the prediction column length")
            object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.predictions.shape[0]


@dataclass(frozen=True)
class FairnessReport:
    demographic_parity_mi: float
    equality_of_odds_mi: float | None = None
    equality_of_opportunity_mi: float | None = None
    per_class_detail: dict = field(default_factory=dict)
    skipped_classes: tuple = ()


def _column_mi(pred, attr, cfg, seed):
    if np.unique(pred).size == 1 or np.unique(attr).size == 1:
        return 0.0
    pairs = np.column_stack([pred, attr])
    result = estimate_mi(pairs, [0], [1], cfg, seed=seed)
    # MI is nonnegative; clamp the optimizer's small negative excursions
    return max(0.0, float(result.kl_estimate))


def _class_mi(table, mask, rank, cfg, seed):
    """MI within one label class; its seed derives from the class's rank among the sorted labels."""
    return _column_mi(table.predictions[mask], table.attribute[mask], cfg, derive_seed(seed, _CLASS_TAG_BASE + rank))


def demographic_parity(table, cfg=None, seed=0):
    """I(prediction; attribute); zero means the criterion is met."""
    cfg = cfg or EstimatorConfig()
    if len(table) < MIN_MI_ROWS:
        raise InvalidInputError(f"need at least {MIN_MI_ROWS} rows")
    return _column_mi(table.predictions, table.attribute, cfg, seed)


def _per_class_mi(table, cfg, seed):
    """Conditional decomposition: class label -> (weight, mi), plus the skipped tiny classes."""
    if table.labels is None:
        raise InvalidInputError("conditional metrics require a label column")
    detail = {}
    skipped = []
    for rank, cls in enumerate(sorted(np.unique(table.labels).tolist())):
        mask = table.labels == cls
        count = int(mask.sum())
        if count < MIN_MI_ROWS:
            skipped.append(cls)
            continue
        detail[cls] = (count, _class_mi(table, mask, rank, cfg, seed))
    if not detail:
        raise InvalidInputError("every label class has fewer rows than the minimum")
    total = sum(count for count, _ in detail.values())
    return {cls: (count / total, mi) for cls, (count, mi) in detail.items()}, tuple(skipped)


def equality_of_odds(table, cfg=None, seed=0):
    """I(prediction; attribute | label) via the per-class decomposition."""
    cfg = cfg or EstimatorConfig()
    detail, _ = _per_class_mi(table, cfg, seed)
    return sum(weight * mi for weight, mi in detail.values())


def equality_of_opportunity(table, positive_class, cfg=None, seed=0):
    """I(prediction; attribute | label = positive_class)."""
    cfg = cfg or EstimatorConfig()
    if table.labels is None:
        raise InvalidInputError("equality of opportunity requires a label column")
    classes = sorted(np.unique(table.labels).tolist())
    if positive_class not in classes:
        raise InvalidInputError(f"class {positive_class!r} not present in the label column")
    mask = table.labels == positive_class
    if int(mask.sum()) < MIN_MI_ROWS:
        raise InvalidInputError(f"class {positive_class!r} has fewer than {MIN_MI_ROWS} rows")
    return _class_mi(table, mask, classes.index(positive_class), cfg, seed)


def audit(table, cfg=None, seed=0, positive_class=None):
    """Compute every metric the table supports and bundle them in one report."""
    cfg = cfg or EstimatorConfig()
    if positive_class is not None and table.labels is None:
        raise InvalidInputError("equality of opportunity requires a label column")
    dp = demographic_parity(table, cfg, seed=seed)
    eo = eop = None
    detail = {}
    skipped = ()
    if table.labels is not None:
        detail, skipped = _per_class_mi(table, cfg, seed)
        eo = sum(weight * mi for weight, mi in detail.values())
        if positive_class is not None:
            eop = equality_of_opportunity(table, positive_class, cfg, seed=seed)
    return FairnessReport(
        demographic_parity_mi=dp,
        equality_of_odds_mi=eo,
        equality_of_opportunity_mi=eop,
        per_class_detail=detail,
        skipped_classes=skipped,
    )
