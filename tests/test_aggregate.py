"""Tests for seed/city aggregation, tie-aware ranking, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanbench.aggregate import (
    _t_two_sided_p,
    city_ranks,
    city_score,
    mean_city_rank,
    overall_rank,
    spearman_factor_correlation,
    split_delta,
    task_summary,
)
from urbanbench.core import HIGHER_BETTER, LOWER_BETTER, ValidationError


class TestCityScore:
    def test_mean_over_seeds(self):
        assert abs(city_score([0.5, 0.7]) - 0.6) < 1e-15

    def test_five_equal_values(self):
        assert city_score([0.4] * 5) == 0.4

    def test_degenerate_excluded_with_count(self):
        # the mean is over the two finite seeds: the NaN and infinite seeds are
        # left out, not averaged as zero (which would give 0.12)
        assert abs(city_score([0.2, 0.4, math.nan, math.inf, -math.inf]) - 0.3) < 1e-15

    def test_all_degenerate_errors(self):
        for values in ([math.nan], [math.nan, math.inf], []):
            with pytest.raises(ValidationError):
                city_score(values)


class TestTaskSummary:
    def test_hand_example(self):
        avg, c_std = task_summary([0.2, 0.4])
        assert abs(avg - 0.3) < 1e-15
        assert abs(c_std - math.sqrt(0.02 / 1)) < 1e-12

    def test_equal_scores_zero_std(self):
        assert task_summary([0.5] * 4) == (0.5, 0.0)

    def test_single_city_undefined_std(self):
        assert task_summary([0.5]) == (0.5, None)

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            task_summary([])


class TestCityRanks:
    def test_tie_example(self):
        ranks = city_ranks({"a": 0.9, "b": 0.7, "c": 0.9, "d": 0.5}, HIGHER_BETTER)
        assert ranks == {"a": 1, "c": 1, "b": 3, "d": 4}

    def test_single_model(self):
        assert city_ranks({"only": 0.1}, HIGHER_BETTER) == {"only": 1}

    def test_lower_better_direction_flip(self):
        assert city_ranks({"a": 0.04, "b": 0.02}, LOWER_BETTER) == {"a": 2, "b": 1}

    def test_non_finite_excluded(self):
        scores = {"a": 0.5, "b": float("nan"), "c": float("inf")}
        ranks = city_ranks(scores, HIGHER_BETTER)
        assert ranks == {"a": 1}
        assert set(scores) - set(ranks) == {"b", "c"}

    def test_no_ties_gives_full_rank_set(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.permutation(rng.standard_normal(8))
            ranks = city_ranks({f"m{i}": v for i, v in enumerate(vals)}, HIGHER_BETTER)
            assert sorted(ranks.values()) == list(range(1, 9))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = {f"m{i}": float(v) for i, v in enumerate(rng.standard_normal(6))}
        base = city_ranks(scores, HIGHER_BETTER)
        transformed = {m: math.exp(3 * v) + 1 for m, v in scores.items()}
        assert city_ranks(transformed, HIGHER_BETTER) == base


class TestOverallRank:
    def test_equal_task_average(self):
        assert overall_rank({"POP": {"m": 2.0}, "LST": {"m": 4.0}}) == {"m": 3.0}

    def test_single_task(self):
        assert overall_rank({"POP": {"m": 1.5}}) == {"m": 1.5}

    def test_missing_model_excluded(self):
        tables = {"POP": {"a": 1.0, "b": 2.0}, "LST": {"a": 1.0, "c": 2.0}}
        ranks = overall_rank(tables)
        assert ranks == {"a": 1.0}
        assert set().union(*tables.values()) - set(ranks) == {"b", "c"}

    def test_conservation_with_eleven_models(self):
        # sum of overall ranks equals the task-mean of the rank sums
        rng = np.random.default_rng(2)
        models = [f"m{i}" for i in range(11)]
        tables = {}
        for t in ("A", "B", "C"):
            per_city = [city_ranks(
                {m: float(v) for m, v in zip(models, rng.standard_normal(11))},
                HIGHER_BETTER) for _ in range(4)]
            tables[t] = mean_city_rank(per_city)
        out = overall_rank({t: tables[t] for t in tables})
        assert sorted(out) == sorted(models)
        lhs = sum(out.values())
        rhs = sum(sum(tables[t][m] for m in models) for t in tables) / len(tables)
        assert abs(lhs - rhs) < 1e-9

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            overall_rank({})


class TestPermutationInvariance:
    def test_all_aggregations(self):
        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.standard_normal(5)]
        shuffled = [values[i] for i in rng.permutation(5)]
        assert city_score(values) == city_score(shuffled)

        scores = [float(v) for v in rng.standard_normal(5)]
        shuffled_scores = [scores[i] for i in rng.permutation(5)]
        assert task_summary(scores) == task_summary(shuffled_scores)


class TestSplitDelta:
    def test_basic_delta(self):
        deltas = split_delta({("m", "POP", "c"): 0.8}, {("m", "POP", "c"): 0.5})
        assert deltas == {("m", "POP", "c"): pytest.approx(0.3)}

    def test_equal_scores_zero(self):
        deltas = split_delta({("m", "POP", "c"): 0.5}, {("m", "POP", "c"): 0.5})
        assert deltas == {("m", "POP", "c"): 0.0}

    def test_unmatched_key_is_gap(self):
        # a key only one protocol scored has no delta; the gaps are the
        # symmetric difference of the two protocols' keys
        random_ = {("m", "POP", "a"): 0.8, ("m", "POP", "c"): 0.7}
        spatial = {("m", "POP", "b"): 0.5, ("m", "POP", "c"): 0.6}
        deltas = split_delta(random_, spatial)
        assert deltas == {("m", "POP", "c"): pytest.approx(0.1)}
        assert random_.keys() ^ spatial.keys() == {("m", "POP", "a"), ("m", "POP", "b")}
        assert not deltas.keys() & (random_.keys() ^ spatial.keys())


class TestSpearman:
    def test_monotone_increasing(self):
        rho, p_value, n = spearman_factor_correlation({"a": 1, "b": 2, "c": 3}, {"a": 10, "b": 20, "c": 30})
        assert rho == pytest.approx(1.0)
        assert p_value == 0.0
        assert n == 3

    def test_monotone_decreasing(self):
        rho, _, _ = spearman_factor_correlation({"a": 1, "b": 2, "c": 3}, {"a": 3, "b": 2, "c": 1})
        assert rho == pytest.approx(-1.0)

    def test_hand_example(self):
        rho, _, _ = spearman_factor_correlation({"a": 1, "b": 2, "c": 3}, {"a": 3, "b": 1, "c": 2})
        assert rho == pytest.approx(-0.5)

    def test_lower_better_sign_flip(self):
        # smaller KL with larger factor => positive association after flip
        rho, _, _ = spearman_factor_correlation({"a": 1, "b": 2, "c": 3},
                                                {"a": 0.3, "b": 0.2, "c": 0.1},
                                                orientation=LOWER_BETTER)
        assert rho == pytest.approx(1.0)

    def test_constant_input_undefined(self):
        assert spearman_factor_correlation({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 2, "c": 3}) is None

    def test_non_finite_city_left_out(self):
        perf = {"a": 10.0, "b": 20.0, "c": 30.0, "d": 40.0}
        rho, _, n = spearman_factor_correlation({"a": 1, "b": math.nan, "c": 3, "d": 4}, perf)
        assert n == 3 and rho == pytest.approx(1.0)
        _, _, n = spearman_factor_correlation({"a": 1, "b": 2, "c": 3, "d": 4}, {**perf, "a": math.inf})
        assert n == 3

    def test_fewer_than_three_cities_errors(self):
        with pytest.raises(ValidationError):
            spearman_factor_correlation({"a": 1, "b": 2}, {"a": 1, "b": 2})

    def test_matches_scipy_on_random_inputs(self):
        from scipy import stats

        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 15))
            f = {f"c{i}": float(v) for i, v in enumerate(rng.standard_normal(n))}
            p = {f"c{i}": float(v) for i, v in enumerate(rng.standard_normal(n))}
            rho, p_value, _ = spearman_factor_correlation(f, p)
            ref_rho, ref_p = stats.spearmanr([f[k] for k in sorted(f)],
                                             [p[k] for k in sorted(p)])
            assert rho == pytest.approx(ref_rho, abs=1e-12)
            assert p_value == pytest.approx(ref_p, abs=1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_p_value_near_perfect_rho_matches_scipy(self, sign):
        # one adjacent swap in n ranks: |rho| = 1 - 12 / (n^3 - n), df 1 to 60
        from scipy import stats

        for n in range(3, 63):
            f = {f"c{i:02d}": float(i) for i in range(n)}
            p = {c: sign * v for c, v in f.items()}
            p["c00"], p["c01"] = p["c01"], p["c00"]
            rho, p_value, _ = spearman_factor_correlation(f, p)
            assert abs(rho) == pytest.approx(1.0 - 12.0 / (n ** 3 - n), abs=1e-12)
            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            assert p_value == pytest.approx(2.0 * stats.t.sf(abs(t), n - 2), abs=1e-12)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(df=st.integers(1, 60),
       t=st.floats(0.0, 50.0) | st.sampled_from([0.0, 1e-300, 5e-324, 1e-8, 1.0, 49.999999999999]))
def test_t_p_value_matches_scipy(df, t):
    # t with one df is the Cauchy distribution: scipy's t.sf at df 1 is off by
    # up to 3e-9 near t = 1e-8 (against mpmath), its cauchy.sf by under 1e-15
    from scipy import stats

    ref = 2.0 * (stats.cauchy.sf(t) if df == 1 else stats.t.sf(t, df))
    assert _t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-12)
    assert _t_two_sided_p(-t, df) == pytest.approx(ref, abs=1e-12)
