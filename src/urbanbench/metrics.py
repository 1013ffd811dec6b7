"""The nine evaluation metrics, each function returning {name: float} in
`core.METRICS_FOR_KIND` order (`core.METRIC_DIRECTION` says which way is better).

Regression: r2, mae, rmse. Classification: macro_f1, macro_precision,
macro_recall (unweighted over classes). Distribution: kl, chebyshev, l1
(per-unit values averaged over units; KL in nats with epsilon on q).
"""

from __future__ import annotations

import numpy as np

from .core import ValidationError

KL_EPSILON = 1e-8


def _check_pair(y: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValidationError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValidationError("empty inputs")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise ValidationError("inputs must be finite")
    return y, y_hat


def regression_metrics(y, y_hat) -> dict[str, float]:
    """R2 = 1 - SS_res/SS_tot, MAE, RMSE. Zero target variance makes R2 NaN
    rather than +-inf."""
    y, y_hat = _check_pair(y, y_hat)
    err = y - y_hat
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = float("nan") if ss_tot == 0.0 else 1.0 - float(np.sum(err * err)) / ss_tot
    return {"r2": r2, "mae": mae, "rmse": rmse}


def classification_metrics(y, y_hat, n_classes: int) -> dict[str, float]:
    """Macro F1/precision/recall. A class whose denominator vanishes
    contributes 0 to that macro average."""
    if n_classes < 1:
        raise ValidationError("n_classes must be >= 1")
    y = np.asarray(y, dtype=np.int64)
    y_hat = np.asarray(y_hat, dtype=np.int64)
    if y.shape != y_hat.shape or y.size == 0:
        raise ValidationError("class arrays must be equal-length and nonempty")
    if y.min() < 0 or y.max() >= n_classes or y_hat.min() < 0 or y_hat.max() >= n_classes:
        raise ValidationError(f"class ids outside [0,{n_classes})")
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        tp = int(np.count_nonzero((y == c) & (y_hat == c)))
        fp = int(np.count_nonzero((y != c) & (y_hat == c)))
        fn = int(np.count_nonzero((y == c) & (y_hat != c)))
        if tp + fp > 0:
            precision[c] = tp / (tp + fp)
        if tp + fn > 0:
            recall[c] = tp / (tp + fn)
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
    return {"macro_f1": float(f1.mean()), "macro_precision": float(precision.mean()),
            "macro_recall": float(recall.mean())}


def distribution_metrics(p, q) -> dict[str, float]:
    """Mean per-unit KL(p || q+eps) in nats, Chebyshev, and L1 distances."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] == 0:
        raise ValidationError("distributions must be 2-d arrays of equal shape")
    if np.any(p < 0) or np.any(q < 0):
        raise ValidationError("distribution entries must be nonnegative")
    log_ratio = np.zeros_like(p)
    nz = p > 0
    log_ratio[nz] = np.log(p[nz] / (q[nz] + KL_EPSILON))
    kl = float(np.mean(np.sum(p * log_ratio, axis=1)))
    diff = np.abs(p - q)
    cheb = float(np.mean(diff.max(axis=1)))
    l1 = float(np.mean(diff.sum(axis=1)))
    return {"kl": kl, "chebyshev": cheb, "l1": l1}
