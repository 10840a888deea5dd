"""Multilabel and regression metrics: precision/recall/F1 under micro, macro,
and samples averaging, mean absolute error, and pooled Pearson correlation.

Conventions, applied uniformly: any precision/recall with a 0/0 denominator
contributes 0; macro averaging skips labels that are positive in neither the
predictions nor the targets; thresholding is inclusive (score >= threshold is
positive); Pearson is computed over all flattened (prediction, target) pairs
as one cloud.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import _single_thread_blas

__all__ = [
    "binarize",
    "prf",
    "mae",
    "pearson",
    "EvalReport",
    "evaluate_multilabel",
    "evaluate_regression",
    "scatter_csv",
]

AVERAGINGS = ("micro", "macro", "samples")


def binarize(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise score >= threshold as a 0/1 array."""
    return (np.asarray(scores, dtype=np.float64) >= threshold).astype(np.uint8)


def _check_binary_pair(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions)
    t = np.asarray(targets)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.ndim != 2:
        raise ValueError("expected 2-D (instances x labels) arrays")
    for name, arr in (("predictions", p), ("targets", t)):
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise ValueError(f"{name} must contain only 0/1 entries")
    return p.astype(bool, copy=False), t.astype(bool, copy=False)


def prf(predictions: np.ndarray, targets: np.ndarray, averaging: str) -> tuple[float, float, float]:
    """Precision, recall, F1 of binary label matrices under one averaging."""
    if averaging not in AVERAGINGS:
        raise ValueError(f"unknown averaging {averaging!r}; expected one of {AVERAGINGS}")
    p, t = _check_binary_pair(predictions, targets)
    return _prf(p, t, p & t, averaging)


# The axis each averaging counts along: all cells, each label, each instance.
_COUNT_AXES = {"micro": None, "macro": 0, "samples": 1}


def _prf(p: np.ndarray, t: np.ndarray, tp: np.ndarray, averaging: str) -> tuple[float, float, float]:
    """prf on checked bool matrices, with tp = p & t computed by the caller.

    One formula serves every averaging: count true, predicted and target
    positives per item (the whole matrix, a label or an instance), score
    each item, and average the items' scores with correctly rounded sums.
    """
    axis = _COUNT_AXES[averaging]
    tp_n, pred_n, targ_n = (np.atleast_1d(np.count_nonzero(a, axis=axis)) for a in (tp, p, t))
    if averaging == "macro":
        keep = (pred_n + targ_n) > 0
        tp_n, pred_n, targ_n = tp_n[keep], pred_n[keep], targ_n[keep]
    m = tp_n.size
    if m == 0:
        if averaging == "samples":
            raise ValueError("samples averaging over an empty prediction matrix")
        return 0.0, 0.0, 0.0
    precision, recall = (np.divide(tp_n, d, out=np.zeros(m), where=d > 0) for d in (pred_n, targ_n))
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(m), where=both > 0)
    return math.fsum(precision) / m, math.fsum(recall) / m, math.fsum(f1) / m


def _regression_pair(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.size == 0:
        raise ValueError("MAE of empty input is undefined")
    return p, t


def mae(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute error over all entries.

    Raises on mismatched shapes, empty input, and a non-finite or
    overflowing value.
    """
    p, t = _regression_pair(predictions, targets)
    # Non-finite or overflowing values raise below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        error = float(np.abs(p - t).mean())
    if not math.isfinite(error):
        raise ValueError("MAE undefined: non-finite or overflowing values")
    return error


def pearson(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Sample Pearson r over flattened pairs, plus r squared.

    Raises on fewer than 2 pairs, zero variance on either side, or a
    non-finite or overflowing value. Its sums are BLAS dot products, run on
    one OpenBLAS thread, so r does not depend on the core count.
    """
    x = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("prediction and target sizes differ")
    if x.size < 2:
        raise ValueError("Pearson correlation needs at least 2 pairs")
    # Non-finite or overflowing values raise below, not as warnings.
    with _single_thread_blas(), np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        sxx = float(dx @ dx)
        syy = float(dy @ dy)
        sxy = float(dx @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("Pearson correlation undefined: zero variance")
    if not math.isfinite(sxx * syy):
        raise ValueError("Pearson correlation undefined: non-finite or overflowing values")
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return r, r * r


@dataclass(frozen=True)
class EvalReport:
    """Classification and/or regression metrics of one evaluation run.

    Fields that do not apply to the evaluated task are None (for example
    mae/pearson on a pure classification run, or the P/R/F1 groups on a
    regression run). mae and the pearson fields are also None when they are
    undefined: on non-finite or overflowing values, and for pearson on
    constant predictions or targets. So ``to_json`` never writes NaN; it
    raises on a report built by hand with one.
    """

    precision: dict[str, float] | None
    recall: dict[str, float] | None
    f1: dict[str, float] | None
    threshold: float | None
    mae: float | None
    pearson_r: float | None
    pearson_r2: float | None

    def to_document(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "threshold": self.threshold,
            "mae": self.mae,
            "pearson_r": self.pearson_r,
            "pearson_r2": self.pearson_r2,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), separators=(",", ":"), allow_nan=False)


def evaluate_multilabel(scores: np.ndarray, targets: np.ndarray, threshold: float = 0.5) -> EvalReport:
    """Threshold the scores and compute P/R/F1 under all three averagings.

    The targets are checked and the true positives counted once for all
    three. A non-finite threshold raises ValueError.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    p, t = _check_binary_pair(np.asarray(scores, dtype=np.float64) >= threshold, targets)
    tp = p & t
    precision: dict[str, float] = {}
    recall: dict[str, float] = {}
    f1: dict[str, float] = {}
    for averaging in AVERAGINGS:
        precision[averaging], recall[averaging], f1[averaging] = _prf(p, t, tp, averaging)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        threshold=threshold,
        mae=None,
        pearson_r=None,
        pearson_r2=None,
    )


def evaluate_regression(predictions: np.ndarray, targets: np.ndarray) -> EvalReport:
    """MAE plus pooled Pearson r and r squared, each None when undefined.

    Mismatched shapes and empty input raise ValueError.
    """
    p, t = _regression_pair(predictions, targets)
    try:
        error = mae(p, t)
    except ValueError:
        error = None
    try:
        r, r2 = pearson(p, t)
    except ValueError:
        r, r2 = None, None
    return EvalReport(
        precision=None,
        recall=None,
        f1=None,
        threshold=None,
        mae=error,
        pearson_r=r,
        pearson_r2=r2,
    )


def scatter_csv(predictions: np.ndarray, targets: np.ndarray) -> str:
    """Flattened (target, prediction) pairs as two-column CSV."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError("prediction and target sizes differ")
    lines = ["target,prediction"]
    lines.extend(f"{ti!r},{pi!r}" for ti, pi in zip(t.tolist(), p.tolist()))
    return "\n".join(lines) + "\n"
