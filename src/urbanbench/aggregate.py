"""Seed/city aggregation, tie-aware ranks, split deltas, and factor correlations.

Every function takes and returns plain values: floats, tuples, and dicts
keyed as the caller keys its scores; `cli.report` holds the (protocol,
model, task, city) keys and groups by them once. Reordering inputs never
changes any output. Non-finite values are left out rather than propagated.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import HIGHER_BETTER, LOWER_BETTER, ValidationError

__all__ = [
    "city_ranks", "city_score", "mean_city_rank", "overall_rank", "spearman_factor_correlation",
    "split_delta", "task_summary",
]


def city_score(values: Iterable[float]) -> float:
    """Mean of one cell's seed values, leaving out the non-finite ones."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise ValidationError("all seed values degenerate; no city score")
    # fsum is exactly rounded, so the mean is invariant to value order
    return math.fsum(finite) / len(finite)


def task_summary(values: Sequence[float]) -> tuple[float, float | None]:
    """(mean, cross-city sample std (n-1)) of a model's city scores on one
    task; the std is None for one city."""
    if not values:
        raise ValidationError("no city scores")
    avg = math.fsum(values) / len(values)
    c_std = (math.sqrt(math.fsum((v - avg) ** 2 for v in values) / (len(values) - 1))
             if len(values) >= 2 else None)
    return avg, c_std


def city_ranks(scores: Mapping[str, float], direction: str) -> dict[str, int]:
    """{model: rank} by competition ranking: rank 1 is best under the metric
    direction, tied models share the best rank, and the next rank skips by
    the tie size. A model with a non-finite score is left out."""
    if direction not in (HIGHER_BETTER, LOWER_BETTER):
        raise ValidationError(f"unknown direction {direction!r}")
    if not scores:
        raise ValidationError("no scores to rank")
    ranked = {m: v for m, v in scores.items() if math.isfinite(v)}
    sign = -1.0 if direction == HIGHER_BETTER else 1.0
    return {m: 1 + sum(1 for w in ranked.values() if sign * w < sign * v)
            for m, v in ranked.items()}


def mean_city_rank(per_city_ranks: Sequence[Mapping[str, int]]) -> dict[str, float]:
    """Average a model's rank over the cities where it was ranked."""
    ranks: dict[str, list[float]] = {}
    for table in per_city_ranks:
        for m, r in table.items():
            ranks.setdefault(m, []).append(float(r))
    return {m: math.fsum(v) / len(v) for m, v in ranks.items()}


def overall_rank(task_mean_ranks: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """{model: equal-task average of its per-task mean city ranks}. A model
    missing from any task is left out, not partially averaged."""
    if not task_mean_ranks:
        raise ValidationError("no per-task rank tables")
    tasks = sorted(task_mean_ranks)
    complete = set.intersection(*(set(task_mean_ranks[t]) for t in tasks))
    return {m: math.fsum(task_mean_ranks[t][m] for t in tasks) / len(tasks)
            for m in sorted(complete)}


def split_delta(random_scores: Mapping[tuple[str, str, str], float],
                spatial_scores: Mapping[tuple[str, str, str], float]) -> dict[tuple[str, str, str], float]:
    """{(model, task, city): random minus spatial} on the raw metric, for the
    keys both protocols scored; sign interpretation is the consumer's job via
    the metric direction."""
    return {k: random_scores[k] - spatial_scores[k]
            for k in sorted(random_scores.keys() & spatial_scores.keys())}


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_factor_correlation(factors: Mapping[str, float],
                                perf: Mapping[str, float],
                                orientation: str = HIGHER_BETTER) -> tuple[float, float, int] | None:
    """(rho, p_value, n): Spearman rho between a per-city factor and per-city
    performance over the n cities that have both, or None where rho is
    undefined because either side is constant.

    Lower-better metrics are sign-flipped first so positive rho always
    means larger factor values go with better performance. p-values use
    the t-approximation and are reported raw and unadjusted. A city whose
    factor or performance is not finite is left out.
    """
    common = sorted(c for c in set(factors) & set(perf)
                    if math.isfinite(factors[c]) and math.isfinite(perf[c]))
    n = len(common)
    if n < 3:
        raise ValidationError(f"need >= 3 cities with both values, got {n}")
    f = np.array([factors[c] for c in common], dtype=np.float64)
    p = np.array([perf[c] for c in common], dtype=np.float64)
    if orientation == LOWER_BETTER:
        p = -p
    if np.all(f == f[0]) or np.all(p == p[0]):
        return None
    rf = _average_ranks(f)
    rp = _average_ranks(p)
    rf = rf - rf.mean()
    rp = rp - rp.mean()
    rho = float(np.sum(rf * rp) / np.sqrt(np.sum(rf * rf) * np.sum(rp * rp)))
    if abs(rho) >= 1.0:
        p_value = 0.0
    else:
        from scipy import stats  # deferred: only `report --factors` needs scipy

        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p_value = float(2.0 * stats.t.sf(abs(t), df=n - 2))
    return rho, p_value, n
