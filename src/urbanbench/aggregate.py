"""Seed/city aggregation, tie-aware ranks, split deltas, and factor correlations.

All computations are pure batch functions over result records; reordering
inputs never changes any output. Degenerate (non-finite) values are
excluded with counts rather than propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import HIGHER_BETTER, LOWER_BETTER, ResultRecord, ValidationError

__all__ = [
    "CityScore", "OverallRank", "RankResult", "ResultRecord", "SpearmanResult",
    "SplitDelta", "TaskSummary", "city_ranks", "city_score", "mean_city_rank",
    "overall_rank", "spearman_factor_correlation", "split_delta", "task_summary",
]


@dataclass(frozen=True)
class CityScore:
    model_id: str
    task: str
    city: str
    protocol: str
    metric: str
    value: float
    n_seeds: int
    n_excluded: int = 0


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
    return CityScore(model_id, task, city, protocol, metric,
                     value=math.fsum(finite) / len(finite), n_seeds=len(finite),
                     n_excluded=len(records) - len(finite))


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


@dataclass(frozen=True)
class RankResult:
    ranks: Mapping[str, int]
    excluded: tuple[str, ...] = ()


def city_ranks(scores: Mapping[str, float], direction: str) -> RankResult:
    """Competition ranking: rank 1 is best under the metric direction, tied
    models share the best rank, and the next rank skips by the tie size.
    Non-finite scores exclude the model from this city's ranking."""
    if direction not in (HIGHER_BETTER, LOWER_BETTER):
        raise ValidationError(f"unknown direction {direction!r}")
    if not scores:
        raise ValidationError("no scores to rank")
    ranked = {m: v for m, v in scores.items() if math.isfinite(v)}
    excluded = tuple(sorted(set(scores) - set(ranked)))
    sign = -1.0 if direction == HIGHER_BETTER else 1.0
    ranks = {}
    for m, v in ranked.items():
        ranks[m] = 1 + sum(1 for w in ranked.values() if sign * w < sign * v)
    return RankResult(ranks=ranks, excluded=excluded)


def mean_city_rank(per_city_ranks: Sequence[Mapping[str, int]]) -> dict[str, float]:
    """Average a model's rank over the cities where it was ranked."""
    ranks: dict[str, list[float]] = {}
    for table in per_city_ranks:
        for m, r in table.items():
            ranks.setdefault(m, []).append(float(r))
    return {m: math.fsum(v) / len(v) for m, v in ranks.items()}


@dataclass(frozen=True)
class OverallRank:
    ranks: Mapping[str, float]
    excluded: tuple[str, ...] = ()


def overall_rank(task_mean_ranks: Mapping[str, Mapping[str, float]]) -> OverallRank:
    """Equal-task average of per-task mean city ranks. Models missing from
    any task are excluded (flagged), not partially averaged."""
    if not task_mean_ranks:
        raise ValidationError("no per-task rank tables")
    tasks = sorted(task_mean_ranks)
    all_models = set()
    for t in tasks:
        all_models |= set(task_mean_ranks[t])
    complete = [m for m in sorted(all_models)
                if all(m in task_mean_ranks[t] for t in tasks)]
    excluded = tuple(m for m in sorted(all_models) if m not in complete)
    ranks = {m: math.fsum(task_mean_ranks[t][m] for t in tasks) / len(tasks)
             for m in complete}
    return OverallRank(ranks=ranks, excluded=excluded)


@dataclass(frozen=True)
class SplitDelta:
    deltas: Mapping[tuple[str, str, str], float]   # (model, task, city) -> random - spatial
    gaps: tuple[tuple[str, str, str], ...] = ()


def split_delta(random_scores: Sequence[CityScore],
                spatial_scores: Sequence[CityScore]) -> SplitDelta:
    """random minus spatial on the raw metric; sign interpretation is the
    consumer's job via the metric direction."""
    rand = {(s.model_id, s.task, s.city): s.value for s in random_scores}
    spat = {(s.model_id, s.task, s.city): s.value for s in spatial_scores}
    deltas = {k: rand[k] - spat[k] for k in sorted(rand.keys() & spat.keys())}
    gaps = tuple(sorted(rand.keys() ^ spat.keys()))
    return SplitDelta(deltas=deltas, gaps=gaps)


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
    the t-approximation and are reported raw and unadjusted.
    """
    common = sorted(set(factors) & set(perf))
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
