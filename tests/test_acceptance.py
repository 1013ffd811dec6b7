"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -rA or -s to see them);
a failure shows up as the test failing.
"""

import json
import math

import numpy as np
import pytest

from urbanbench.aggregate import city_ranks, overall_rank
from urbanbench.align import align_entities_direct, coverage, write_erf
from urbanbench.cli import RunPlan, align_support, evaluate, read_result_store, run
from urbanbench.core import HIGHER_BETTER, Rect, ValidationError, write_task_dataset
from urbanbench.grid import BlockGrid
from urbanbench.heads import HeadConfig, gradient_check
from urbanbench.metrics import (
    KL_EPSILON,
    classification_metrics,
    distribution_metrics,
    regression_metrics,
)
from urbanbench.split import spatial_split
from urbanbench.synth import SynthConfig, synth_city

from test_metrics import (
    brute_classification,
    brute_distribution,
    brute_regression,
    random_distributions,
)
from test_split import assert_one_label_per_block, block_sets
from test_synth import leakage_r2, mean_delta


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def r2_of(records):
    return next(r.value for r in records if r.metric == "r2")


LINEAR_HEAD = HeadConfig(kind="linear", output="scalar", n_out=1,
                         batch_size=128, max_epochs=150, patience=10)


class TestMetricOracleEquivalence:
    def test_nine_metrics_vs_brute_force(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            y = rng.standard_normal(n) * rng.uniform(0.5, 5)
            y_hat = y + rng.standard_normal(n)
            out = regression_metrics(y, y_hat)
            r2, mae, rmse = brute_regression(y.tolist(), y_hat.tolist())
            assert abs(out["r2"] - r2) < 1e-9
            assert abs(out["mae"] - mae) < 1e-9
            assert abs(out["rmse"] - rmse) < 1e-9
        for _ in range(1000):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(2, 40))
            y = rng.integers(0, c, size=n)
            y_hat = rng.integers(0, c, size=n)
            out = classification_metrics(y, y_hat, c)
            f1, p, r = brute_classification(y.tolist(), y_hat.tolist(), c)
            assert abs(out["macro_f1"] - f1) < 1e-9
            assert abs(out["macro_precision"] - p) < 1e-9
            assert abs(out["macro_recall"] - r) < 1e-9
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 15))
            p = random_distributions(rng, n, k)
            q = random_distributions(rng, n, k)
            out = distribution_metrics(p, q)
            kl, cheb, l1 = brute_distribution(p.tolist(), q.tolist())
            assert abs(out["kl"] - kl) < 1e-9
            assert abs(out["chebyshev"] - cheb) < 1e-9
            assert abs(out["l1"] - l1) < 1e-9
        ok("metric oracle equivalence (9 metrics x 1000 instances, 1e-9)")


class TestHandDerivedValues:
    def test_regression_hand_values(self):
        out = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert abs(out["r2"] - 0.5) < 1e-12
        assert abs(out["mae"] - 1.0 / 3.0) < 1e-12
        assert abs(out["rmse"] - math.sqrt(1.0 / 3.0)) < 1e-12
        ok("hand-derived regression values (1e-12)")

    def test_macro_f1_hand_value(self):
        out = classification_metrics([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert abs(out["macro_f1"] - 11.0 / 15.0) < 1e-12
        ok("hand-derived macro-F1 11/15 (1e-12)")

    def test_kl_hand_value(self):
        out = distribution_metrics([[0.5, 0.5]], [[0.25, 0.75]])
        # hand evaluation of the implemented formula (epsilon inside)
        hand = 0.5 * math.log(0.5 / (0.25 + KL_EPSILON)) + 0.5 * math.log(0.5 / (0.75 + KL_EPSILON))
        assert abs(out["kl"] - hand) < 1e-12
        # epsilon-free closed form holds to the epsilon effect
        closed = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(out["kl"] - closed) < 1e-7
        ok("hand-derived KL 0.5*ln2+0.5*ln(2/3) (1e-12 vs formula, 1e-7 vs closed form)")


class TestSplitProtocolConstants:
    def grid_task(self):
        from reference import TaskUnit, dataset

        units = [TaskUnit(f"u{iy}_{ix}", (ix + 0.5), (iy + 0.5))
                 for iy in range(10) for ix in range(10)]
        return dataset("demo", "POP", units, np.zeros(100), Rect(0, 0, 10, 10))

    def test_block_counts_and_reproducibility(self):
        task = self.grid_task()
        grid = BlockGrid(task.extent, 10, 10)
        seeds = (42, 24, 7, 0, 100)
        for seed in seeds:
            a = spatial_split(task, grid, seed)
            # each unit's block from `assign_blocks`, its label from the split
            assert_one_label_per_block(task, grid, a)
            sets = block_sets(task, grid, a)
            assert len(sets["test"]) == 20
            assert len(sets["val"]) == 8
            assert len(sets["train"]) == 72
            b = spatial_split(task, grid, seed)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.assignment_hash == b.assignment_hash
        ok("split protocol constants (20/8/72, bit-identical seeds, no overlap)")


class TestModelInvarianceOfSplits:
    def test_split_hash_precedes_models(self, tmp_path):
        cfg = SynthConfig(n=12, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.02,
                          label_kind="scalar", embedding_kind="field_value", dim=4,
                          seed=1, city="synthA")
        task, rep = synth_city(cfg)
        write_task_dataset(tmp_path / "task.csv", task)
        write_erf(tmp_path / "field.erf", rep.support)
        manifest = {
            "cities": {"synthA": {"tasks": {"POP": "task.csv"}}},
            "models": {
                "field": {"dim": 4, "support": "raster", "files": {"synthA": "field.erf"}},
                "pe": {"dim": 192, "support": "coordinate_encoder",
                       "encoder": "pe_spherec_approx"},
            },
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        plan = RunPlan(manifest_path=tmp_path / "manifest.json", out_dir=tmp_path / "out",
                       seeds=(42,), protocols=("spatial",),
                       head=HeadConfig(kind="linear", batch_size=64, max_epochs=20, patience=5))
        assert run(plan, log=lambda *a: None).exit_code == 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        # exactly one hash per (city, task, protocol, seed): nothing per-model
        assert list(meta["splits"]) == ["synthA|POP|spatial|42"]
        recomputed = spatial_split(task, BlockGrid(task.extent, 10, 10), 42)
        assert meta["splits"]["synthA|POP|spatial|42"] == recomputed.assignment_hash
        ok("model invariance of splits (hash precedes models, identical across)")


class TestGradientChecks:
    def test_all_three_heads(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((8, 12))
        y_scalar = rng.standard_normal(8)
        y_class = rng.integers(0, 3, size=8)
        p = rng.random((8, 3))
        y_dist = p / p.sum(axis=1, keepdims=True)

        err_lin = gradient_check(
            HeadConfig(kind="linear", output="scalar", n_out=1, hidden_dim=8,
                       batch_size=8, max_epochs=2, patience=1), (x, y_scalar), 0)
        assert err_lin < 1e-6
        err_ce = gradient_check(
            HeadConfig(kind="mlp", output="class", n_out=3, hidden_dim=8,
                       batch_size=8, max_epochs=2, patience=1), (x, y_class), 0)
        assert err_ce < 1e-4
        err_kl = gradient_check(
            HeadConfig(kind="mlp", output="distribution", n_out=3, hidden_dim=8,
                       batch_size=8, max_epochs=2, patience=1), (x, y_dist), 0)
        assert err_kl < 1e-4
        ok(f"gradient checks (linear+mse {err_lin:.1e} < 1e-6, "
           f"mlp+ce {err_ce:.1e} < 1e-4, mlp+kl {err_kl:.1e} < 1e-4)")


class TestLeakageReproduction:
    def test_pe_leakage_direction(self):
        seeds = (42, 24, 7, 0, 100)
        smooth = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.05,
                             label_kind="scalar", embedding_kind="coordinate_pe", seed=3)
        delta_smooth = mean_delta(leakage_r2(smooth, LINEAR_HEAD, seeds=seeds))
        white = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.002,
                            label_kind="scalar", embedding_kind="coordinate_pe", seed=3)
        delta_white = mean_delta(leakage_r2(white, LINEAR_HEAD, seeds=seeds))
        assert delta_smooth > 0
        assert delta_smooth - delta_white >= 0.05
        ok(f"leakage reproduction (delta {delta_smooth:.3f} > 0, "
           f"margin over white {delta_smooth - delta_white:.3f} >= 0.05)")


class TestH3FirstCoverageDirection:
    def test_coverage_and_downstream_metric(self):
        seeds = (42, 24, 7, 0, 100)
        cfg = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.05,
                          noise_sd=1.0, label_kind="scalar",
                          embedding_kind="sparse_entities", density=0.05, dim=4, seed=3)
        task, rep = synth_city(cfg)
        m_h3 = align_support(rep.support, task)
        m_direct = align_entities_direct(rep.support, task)
        cov_h3, cov_direct = coverage(m_h3), coverage(m_direct)
        assert cov_h3 > cov_direct
        grid = BlockGrid(task.extent, 10, 10)
        wins = 0
        for seed in seeds:
            split = spatial_split(task, grid, seed)
            r_h3 = r2_of(evaluate(rep.model_id, task, m_h3, split, LINEAR_HEAD, run_seed=seed))
            try:
                r_direct = r2_of(evaluate(rep.model_id, task, m_direct, split, LINEAR_HEAD, run_seed=seed))
            except ValidationError:
                wins += 1  # direct could not even train/evaluate on this seed
                continue
            if r_h3 >= r_direct:
                wins += 1
        assert wins >= 4
        ok(f"h3-first coverage direction (coverage {cov_h3:.2f} > {cov_direct:.2f}, "
           f"metric wins {wins}/5)")


class TestRankingArithmetic:
    def test_tie_example_and_overall(self):
        assert city_ranks({"a": 0.9, "b": 0.7, "c": 0.9, "d": 0.5}, HIGHER_BETTER) == {
            "a": 1, "b": 3, "c": 1, "d": 4}
        assert overall_rank({"T1": {"m": 2.0}, "T2": {"m": 4.0}}) == {"m": 3.0}
        ok("ranking arithmetic (tie example, equal-task average)")

    def test_permutation_invariance(self):
        from urbanbench.aggregate import city_score, task_summary

        rng = np.random.default_rng(6)
        values = [float(v) for v in rng.standard_normal(5)]
        perm = [values[i] for i in rng.permutation(5)]
        assert city_score(values) == city_score(perm)
        scores = [float(rng.standard_normal()) for _ in range(6)]
        perm_scores = [scores[i] for i in rng.permutation(6)]
        assert task_summary(scores) == task_summary(perm_scores)
        ranks_a = city_ranks({f"m{i}": float(v) for i, v in enumerate(rng.standard_normal(7))},
                             HIGHER_BETTER)
        assert sorted(ranks_a.values()) == list(range(1, 8))
        ok("aggregation permutation invariance")


class TestEndToEndSanity:
    def test_field_value_linear_head(self):
        cfg = SynthConfig(n=40, extent=Rect(-0.1, -0.1, 0.1, 0.1), length_scale=0.05,
                          label_kind="scalar", embedding_kind="field_value", dim=4, seed=3)
        r2 = leakage_r2(cfg, LINEAR_HEAD, seeds=(42, 24, 7))
        assert min(r2["spatial"]) > 0.95
        assert min(r2["random"]) > 0.95
        ok(f"end-to-end sanity (spatial R2 >= {min(r2['spatial']):.3f}, "
           f"random R2 >= {min(r2['random']):.3f}, both > 0.95)")


class TestFullRunDeterminism:
    def test_byte_identical_stores(self, tmp_path):
        cfg = SynthConfig(n=12, extent=Rect(-0.05, -0.05, 0.05, 0.05), length_scale=0.02,
                          label_kind="scalar", embedding_kind="field_value", dim=4,
                          seed=1, city="synthA")
        task, rep = synth_city(cfg)
        write_task_dataset(tmp_path / "task.csv", task)
        write_erf(tmp_path / "field.erf", rep.support)
        manifest = {
            "cities": {"synthA": {"tasks": {"POP": "task.csv"}}},
            "models": {"field": {"dim": 4, "support": "raster",
                                 "files": {"synthA": "field.erf"}},
                       "pe": {"dim": 192, "support": "coordinate_encoder",
                              "encoder": "pe_spherec_approx"}},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        stores = []
        for out in ("run1", "run2"):
            plan = RunPlan(manifest_path=tmp_path / "manifest.json",
                           out_dir=tmp_path / out, seeds=(42, 24),
                           protocols=("spatial", "random"),
                           head=HeadConfig(kind="linear", batch_size=64, max_epochs=30, patience=5))
            assert run(plan, log=lambda *a: None).exit_code == 0
            stores.append((tmp_path / out / "results.csv").read_bytes())
        assert stores[0] == stores[1]
        # split hashes and constants agree across the two runs as well
        assert ((tmp_path / "run1" / "run_meta.json").read_bytes()
                == (tmp_path / "run2" / "run_meta.json").read_bytes())
        n_records = len(read_result_store(tmp_path / "run1" / "results.csv"))
        assert n_records == 2 * 2 * 2 * 3  # models x protocols x seeds x metrics
        ok("full-run determinism (byte-identical result stores)")
