"""Metric correctness against hand-derived values and brute-force oracles.

The oracles are deliberately naive (pure-Python double loops) and never
share code with the implementations they check.
"""

import math

import numpy as np
import pytest

from urbanbench.core import ValidationError
from urbanbench.metrics import (
    KL_EPSILON,
    classification_metrics,
    distribution_metrics,
    regression_metrics,
)


# ---------------------------------------------------------------------------
# Brute-force oracles

def brute_regression(y, y_hat):
    n = len(y)
    mae = sum(abs(y[i] - y_hat[i]) for i in range(n)) / n
    rmse = math.sqrt(sum((y[i] - y_hat[i]) ** 2 for i in range(n)) / n)
    ybar = sum(y) / n
    ss_tot = sum((v - ybar) ** 2 for v in y)
    r2 = None if ss_tot == 0 else 1.0 - sum((y[i] - y_hat[i]) ** 2 for i in range(n)) / ss_tot
    return r2, mae, rmse


def brute_classification(y, y_hat, n_classes):
    ps, rs, f1s = [], [], []
    for c in range(n_classes):
        tp = sum(1 for i in range(len(y)) if y[i] == c and y_hat[i] == c)
        fp = sum(1 for i in range(len(y)) if y[i] != c and y_hat[i] == c)
        fn = sum(1 for i in range(len(y)) if y[i] == c and y_hat[i] != c)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        f1s.append(f)
    return sum(f1s) / n_classes, sum(ps) / n_classes, sum(rs) / n_classes


def brute_distribution(p, q):
    n, k = len(p), len(p[0])
    kls, chebs, l1s = [], [], []
    for i in range(n):
        kl = 0.0
        for j in range(k):
            if p[i][j] > 0:
                kl += p[i][j] * math.log(p[i][j] / (q[i][j] + KL_EPSILON))
        kls.append(kl)
        chebs.append(max(abs(p[i][j] - q[i][j]) for j in range(k)))
        l1s.append(sum(abs(p[i][j] - q[i][j]) for j in range(k)))
    return sum(kls) / n, sum(chebs) / n, sum(l1s) / n


def random_distributions(rng, n, k):
    p = rng.random((n, k))
    return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Hand-derived values

class TestHandValues:
    def test_regression_example(self):
        out = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert abs(out["r2"] - 0.5) < 1e-12
        assert abs(out["mae"] - 1.0 / 3.0) < 1e-12
        assert abs(out["rmse"] - math.sqrt(1.0 / 3.0)) < 1e-12

    def test_perfect_prediction(self):
        out = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out["r2"] == 1.0
        assert out["mae"] == 0.0
        assert out["rmse"] == 0.0

    def test_mean_predictor_r2_zero(self):
        y = [1.0, 2.0, 3.0]
        out = regression_metrics(y, [2.0, 2.0, 2.0])
        assert abs(out["r2"]) < 1e-15

    def test_macro_f1_example(self):
        # y=[0,0,1,1], yhat=[0,1,1,1] -> P=(1,2/3), R=(1/2,1), F1=(2/3,4/5)
        out = classification_metrics([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert abs(out["macro_f1"] - 11.0 / 15.0) < 1e-12
        assert abs(out["macro_precision"] - (1.0 + 2.0 / 3.0) / 2) < 1e-12
        assert abs(out["macro_recall"] - (0.5 + 1.0) / 2) < 1e-12

    def test_perfect_classification(self):
        out = classification_metrics([0, 1, 2], [0, 1, 2], 3)
        for name in ("macro_f1", "macro_precision", "macro_recall"):
            assert out[name] == 1.0

    def test_all_predicted_class_zero(self):
        out = classification_metrics([0, 0, 1, 1], [0, 0, 0, 0], 2)
        # R1=0, F1_1=0 => macroF1 = F1_0/2 = (2*1*1/2)/2
        f1_0 = 2 * 0.5 * 1.0 / 1.5
        assert abs(out["macro_f1"] - f1_0 / 2) < 1e-12
        # class 1 is never predicted: its precision adds 0 to the macro average
        assert out["macro_precision"] == 0.25

    def test_kl_example(self):
        p = [[0.5, 0.5]]
        q = [[0.25, 0.75]]
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        out = distribution_metrics(p, q)
        assert abs(out["kl"] - expected) < 1e-7  # epsilon perturbs below this
        assert abs(out["chebyshev"] - 0.25) < 1e-12
        assert abs(out["l1"] - 0.5) < 1e-12

    def test_one_hot_vs_uniform(self):
        out = distribution_metrics([[1.0, 0.0, 0.0, 0.0]], [[0.25] * 4])
        assert abs(out["kl"] - math.log(4.0)) < 1e-7

    def test_identical_distributions(self):
        p = [[0.3, 0.7], [0.5, 0.5]]
        out = distribution_metrics(p, p)
        assert abs(out["kl"]) < 1e-7
        assert out["chebyshev"] == 0.0
        assert out["l1"] == 0.0


class TestDegeneracy:
    def test_zero_target_variance_flags_r2(self):
        out = regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert math.isnan(out["r2"])
        assert out["mae"] == 2.0 / 3.0

    def test_empty_class_flags(self):
        # class 1 is neither present nor predicted: it adds 0 to each macro average
        out = classification_metrics([0, 0], [0, 0], 2)
        assert out == {"macro_f1": 0.5, "macro_precision": 0.5, "macro_recall": 0.5}

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            regression_metrics([1.0], [1.0, 2.0])

    def test_negative_distribution_entries(self):
        with pytest.raises(ValidationError):
            distribution_metrics([[1.1, -0.1]], [[0.5, 0.5]])

    def test_zero_classes(self):
        with pytest.raises(ValidationError):
            classification_metrics([0], [0], 0)


class TestOracleEquivalence:
    def test_regression_1000_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            y = rng.standard_normal(n) * rng.uniform(0.1, 10)
            y_hat = y + rng.standard_normal(n) * rng.uniform(0, 2)
            out = regression_metrics(y, y_hat)
            r2, mae, rmse = brute_regression(y.tolist(), y_hat.tolist())
            assert abs(out["r2"] - r2) < 1e-9
            assert abs(out["mae"] - mae) < 1e-9
            assert abs(out["rmse"] - rmse) < 1e-9

    def test_classification_1000_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(2, 50))
            y = rng.integers(0, c, size=n)
            y_hat = rng.integers(0, c, size=n)
            out = classification_metrics(y, y_hat, c)
            f1, p, r = brute_classification(y.tolist(), y_hat.tolist(), c)
            assert abs(out["macro_f1"] - f1) < 1e-9
            assert abs(out["macro_precision"] - p) < 1e-9
            assert abs(out["macro_recall"] - r) < 1e-9

    def test_distribution_1000_instances(self):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 20))
            p = random_distributions(rng, n, k)
            q = random_distributions(rng, n, k)
            out = distribution_metrics(p, q)
            kl, cheb, l1 = brute_distribution(p.tolist(), q.tolist())
            assert abs(out["kl"] - kl) < 1e-9
            assert abs(out["chebyshev"] - cheb) < 1e-9
            assert abs(out["l1"] - l1) < 1e-9


class TestProperties:
    def test_kl_nonnegative_for_exact_distributions(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p = random_distributions(rng, 5, k)
            q = random_distributions(rng, 5, k)
            assert distribution_metrics(p, q)["kl"] >= -1e-6

    def test_chebyshev_le_l1_le_2(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            p = random_distributions(rng, 8, 5)
            q = random_distributions(rng, 8, 5)
            out = distribution_metrics(p, q)
            assert out["chebyshev"] <= out["l1"] + 1e-12
            assert out["l1"] <= 2.0 + 1e-12

    def test_r2_at_most_one_and_mae_le_rmse(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            y = rng.standard_normal(n)
            y_hat = rng.standard_normal(n)
            out = regression_metrics(y, y_hat)
            assert out["r2"] <= 1.0
            assert out["mae"] <= out["rmse"] + 1e-12

    def test_result_store_metric_names_fixed(self):
        from urbanbench.core import METRICS_FOR_KIND

        names = [m for kind in ("scalar", "class", "distribution")
                 for m in METRICS_FOR_KIND[kind]]
        assert names == ["r2", "mae", "rmse", "macro_f1", "macro_precision",
                         "macro_recall", "kl", "chebyshev", "l1"]

    def test_directions(self):
        from urbanbench.core import METRIC_DIRECTION, METRICS_FOR_KIND

        assert METRIC_DIRECTION["r2"] == "higher_better"
        assert METRIC_DIRECTION["mae"] == "lower_better"
        assert METRIC_DIRECTION["macro_f1"] == "higher_better"
        assert METRIC_DIRECTION["kl"] == "lower_better"
        # each function returns plain floats keyed in its kind's metric order
        for kind, out in (("scalar", regression_metrics([1.0, 2.0], [1.0, 2.0])),
                          ("class", classification_metrics([0, 1], [0, 1], 2)),
                          ("distribution", distribution_metrics([[0.5, 0.5]], [[0.5, 0.5]]))):
            assert list(out) == list(METRICS_FOR_KIND[kind])
            assert all(type(v) is float for v in out.values())
