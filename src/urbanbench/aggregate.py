"""Seed/city aggregation, tie-aware ranks, split deltas, and factor correlations.

All computations are pure batch functions over result records; reordering
inputs never changes any output. Degenerate (non-finite) values are
excluded rather than propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import HIGHER_BETTER, LOWER_BETTER, ResultRecord, ValidationError

__all__ = [
    "CityScore", "ResultRecord", "SpearmanResult", "TaskSummary", "city_ranks",
    "city_score", "mean_city_rank", "overall_rank", "spearman_factor_correlation",
    "split_delta", "task_summary",
]


@dataclass(frozen=True)
class CityScore:
    model_id: str
    task: str
    city: str
    protocol: str
    metric: str
    value: float


def city_score(records: Sequence[ResultRecord]) -> CityScore:
    """Mean of the metric over seeds, excluding degenerate seed values."""
    if not records:
        raise ValidationError("no records")
    keys = {(r.model_id, r.task, r.city, r.protocol, r.metric) for r in records}
    if len(keys) > 1:
        raise ValidationError(f"records mix keys: {sorted(keys)}")
    finite = [r.value for r in records if not r.degenerate]
    if not finite:
        raise ValidationError("all seed values degenerate; no city score")
    model_id, task, city, protocol, metric = next(iter(keys))
    # fsum is exactly rounded, so the mean is invariant to record order
    return CityScore(model_id, task, city, protocol, metric, value=math.fsum(finite) / len(finite))


@dataclass(frozen=True)
class TaskSummary:
    model_id: str
    task: str
    avg: float
    c_std: float | None       # cross-city sample std (n-1); None for one city
    n_cities: int


def task_summary(scores: Sequence[CityScore]) -> TaskSummary:
    if not scores:
        raise ValidationError("no city scores")
    keys = {(s.model_id, s.task, s.protocol, s.metric) for s in scores}
    if len(keys) > 1:
        raise ValidationError(f"scores mix keys: {sorted(keys)}")
    cities = [s.city for s in scores]
    if len(set(cities)) != len(cities):
        raise ValidationError("duplicate city in task summary input")
    values = [s.value for s in scores]
    model_id, task, _, _ = next(iter(keys))
    avg = math.fsum(values) / len(values)
    c_std = (math.sqrt(math.fsum((v - avg) ** 2 for v in values) / (len(values) - 1))
             if len(values) >= 2 else None)
    return TaskSummary(model_id, task, avg=avg, c_std=c_std, n_cities=len(values))


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


def split_delta(random_scores: Sequence[CityScore],
                spatial_scores: Sequence[CityScore]) -> dict[tuple[str, str, str], float]:
    """{(model, task, city): random minus spatial} on the raw metric, for the
    keys both protocols scored; sign interpretation is the consumer's job via
    the metric direction."""
    rand = {(s.model_id, s.task, s.city): s.value for s in random_scores}
    spat = {(s.model_id, s.task, s.city): s.value for s in spatial_scores}
    return {k: rand[k] - spat[k] for k in sorted(rand.keys() & spat.keys())}


@dataclass(frozen=True)
class SpearmanResult:
    rho: float | None
    p_value: float | None
    n: int
    approximate: bool         # t-approximation is rough below n=10
    undefined: bool = False


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
                                orientation: str = HIGHER_BETTER) -> SpearmanResult:
    """Spearman rho between a per-city factor and per-city performance.

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
        return SpearmanResult(rho=None, p_value=None, n=n, approximate=n < 10, undefined=True)
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
    return SpearmanResult(rho=rho, p_value=p_value, n=n, approximate=n < 10)
