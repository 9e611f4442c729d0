"""Confusion-matrix accounting and derived evaluation metrics.

The positive class is the spam/fake label (1) unless a caller swaps it.
Ratios with zero denominators are reported as 0 and flagged degenerate
instead of NaN so reports stay machine-readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import _replace_when_written

__all__ = ["EvalMetrics", "confusion", "compute_metrics", "write_metrics_report"]


@dataclass
class EvalMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: list[str] = field(default_factory=list)


def confusion(predicted, actual, positive_class: int = 1):
    """Counts (tp, fp, tn, fn) of binary predictions against truth."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"prediction shape {predicted.shape} != actual shape {actual.shape}")
    for name, arr in (("predicted", predicted), ("actual", actual)):
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError(f"{name} labels must be 0 or 1")
    if positive_class not in (0, 1):
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class}")
    pos_pred = predicted == positive_class
    pos_act = actual == positive_class
    tp = int((pos_pred & pos_act).sum())
    fp = int((pos_pred & ~pos_act).sum())
    tn = int((~pos_pred & ~pos_act).sum())
    fn = int((~pos_pred & pos_act).sum())
    return tp, fp, tn, fn


def compute_metrics(counts) -> EvalMetrics:
    """Accuracy, precision, recall and F1 from (tp, fp, tn, fn)."""
    tp, fp, tn, fn = (int(c) for c in counts)
    if min(tp, fp, tn, fn) < 0:
        raise ValueError("confusion counts must be nonnegative")
    total = tp + fp + tn + fn
    if total == 0:
        raise ValueError("cannot compute metrics over zero samples")

    degenerate = []

    def ratio(name, num, den):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    return EvalMetrics(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=(tp + tn) / total,
        precision=ratio("precision", tp, tp + fp),
        recall=ratio("recall", tp, tp + fn),
        f1=ratio("f1", 2 * tp, 2 * tp + fp + fn),
        degenerate=degenerate,
    )


def write_metrics_report(metrics: EvalMetrics, path):
    """Counts plus the four metrics as percentages at two decimals, moved
    to ``path`` only when complete."""
    with _replace_when_written(path) as fh:
        for name in ("tp", "fp", "tn", "fn"):
            fh.write(f"{name}\t{getattr(metrics, name)}\n")
        for name in ("accuracy", "precision", "recall", "f1"):
            fh.write(f"{name}\t{getattr(metrics, name) * 100:.2f}%\n")
        if metrics.degenerate:
            fh.write(f"degenerate\t{','.join(metrics.degenerate)}\n")
