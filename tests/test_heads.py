"""Tests for the downstream predictors: scaler, training, early stopping,
prediction, and gradient verification."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from urbanbench import heads
from urbanbench.align import AlignedMatrix
from urbanbench.core import LABEL_KINDS, ValidationError
from urbanbench.heads import (
    LEARNING_RATE,
    HeadConfig,
    TrainedHead,
    batch_gradients,
    batch_loss,
    fit_scaler,
    gradient_check,
    predict,
    train_head,
)
from urbanbench.split import SplitAssignment


def matrix(x):
    x = np.asarray(x, dtype=np.float64)
    return AlignedMatrix(x, np.ones(x.shape[0], dtype=bool))


def make_split(n, n_val, n_test, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.full(n, "train", dtype="<U5")
    idx = rng.permutation(n)
    labels[idx[:n_test]] = "test"
    labels[idx[n_test:n_test + n_val]] = "val"
    return SplitAssignment(city="c", task="POP", seed=seed, protocol="random",
                           unit_ids=tuple(f"u{i}" for i in range(n)), labels=labels)


class TestScaler:
    def test_population_convention(self):
        s = fit_scaler([0.0, 2.0])
        assert s.mean == 1.0
        assert s.std == 1.0

    def test_constant_targets_degenerate(self):
        assert fit_scaler([3.0, 3.0, 3.0]) is None

    def test_inverse_round_trip(self):
        s = fit_scaler([1.0, 5.0, -2.0, 0.5])
        y = np.array([0.3, -7.1, 4.2])
        np.testing.assert_allclose(s.inverse(s.transform(y)), y, atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            fit_scaler([])


class TestEarlyStopping:
    """`train_head`'s stopping rule, on validation losses scripted through
    `batch_loss`, which also records the parameters after each epoch."""

    @staticmethod
    def scripted(monkeypatch, losses, patience, max_epochs=100):
        script, after_epoch = iter(losses), []

        def val_loss(params, *args, **kwargs):
            after_epoch.append({k: v.tobytes() for k, v in params.items()})
            return next(script)

        monkeypatch.setattr(heads, "batch_loss", val_loss)
        rng = np.random.default_rng(5)
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=4,
                         max_epochs=max_epochs, patience=patience)
        head = train_head(matrix(rng.standard_normal((20, 2))), rng.standard_normal(20),
                          make_split(20, 4, 4, seed=1), cfg, run_seed=0)
        assert len(after_epoch) == head.epochs_run
        return head, after_epoch

    @staticmethod
    def assert_snapshot_of_epoch(head, after_epoch, epoch):
        # byte for byte the parameters of a head trained for exactly `epoch` epochs
        assert {k: v.tobytes() for k, v in head.params.items()} == after_epoch[epoch - 1]
        assert after_epoch[epoch - 1] != after_epoch[-1]

    def test_monotone_increasing_stops_at_patience_plus_one(self, monkeypatch):
        head, after_epoch = self.scripted(monkeypatch, [1.0 + 0.1 * e for e in range(100)], patience=10)
        assert head.epochs_run == 11  # epoch 1 improves from inf, then 10 stale epochs
        assert head.best_val_loss == 1.0
        self.assert_snapshot_of_epoch(head, after_epoch, 1)

    def test_improvement_resets(self, monkeypatch):
        head, after_epoch = self.scripted(monkeypatch, [1.0, 1.5, 0.5, 0.6, 0.7], patience=2)
        assert head.epochs_run == 5
        assert head.best_val_loss == 0.5
        self.assert_snapshot_of_epoch(head, after_epoch, 3)
        # the same bytes as a head whose training ends, improving, at epoch 3
        short, _ = self.scripted(monkeypatch, [3.0, 2.0, 1.0], patience=2, max_epochs=3)
        assert short.epochs_run == 3
        assert all(head.params[k].tobytes() == short.params[k].tobytes() for k in head.params)

    def test_tolerance(self, monkeypatch):
        head, after_epoch = self.scripted(monkeypatch, [1.0, 1.0 - 1e-9], patience=1)
        assert head.epochs_run == 2  # within tolerance: not an improvement
        assert head.best_val_loss == 1.0
        self.assert_snapshot_of_epoch(head, after_epoch, 1)


class TestTraining:
    def test_linearly_separable_two_classes(self):
        rng = np.random.default_rng(0)
        n = 200
        x = rng.standard_normal((n, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        x[y == 1] += 2.0  # widen the margin
        split = make_split(n, 30, 40)
        cfg = HeadConfig(kind="mlp", output="class", n_out=2, hidden_dim=16,
                         batch_size=32, max_epochs=100, patience=20)
        head = train_head(matrix(x), y, split, cfg, run_seed=1)
        preds = predict(head, matrix(x))
        train_mask = split.mask("train")
        assert np.mean(preds[train_mask] == y[train_mask]) == 1.0

    def test_identity_task_linear_head(self):
        rng = np.random.default_rng(1)
        n = 300
        y = rng.standard_normal(n) * 2.0 + 1.0
        x = y[:, None].copy()
        split = make_split(n, 40, 60)
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=32,
                         max_epochs=600, patience=100)
        head = train_head(matrix(x), y, split, cfg, run_seed=2)
        preds = predict(head, matrix(x))
        test = split.mask("test")
        ss_res = np.sum((y[test] - preds[test]) ** 2)
        ss_tot = np.sum((y[test] - y[test].mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99

    def test_constant_targets_train_unscaled(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 2))
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=8, max_epochs=5, patience=2)
        head = train_head(matrix(x), np.full(40, 3.0), make_split(40, 6, 8), cfg, run_seed=1)
        assert head.scaler is None
        z = x @ head.params["W"] + head.params["b"]
        np.testing.assert_array_equal(predict(head, matrix(x)), z[:, 0])

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(3)
        n = 100
        x = rng.standard_normal((n, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.standard_normal(n)
        split = make_split(n, 15, 20)
        cfg = HeadConfig(kind="mlp", output="scalar", n_out=1, hidden_dim=8,
                         batch_size=16, max_epochs=20, patience=5)
        h1 = train_head(matrix(x), y, split, cfg, run_seed=9)
        h2 = train_head(matrix(x), y, split, cfg, run_seed=9)
        for k in h1.params:
            np.testing.assert_array_equal(h1.params[k], h2.params[k])
        assert h1.best_val_loss == h2.best_val_loss

    def test_test_labels_never_read(self):
        rng = np.random.default_rng(4)
        n = 100
        x = rng.standard_normal((n, 3))
        y = x[:, 0].copy()
        split = make_split(n, 15, 20)
        poisoned = y.copy()
        poisoned[split.mask("test")] = np.nan  # would blow up any use in training
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=32,
                         max_epochs=10, patience=3)
        h_clean = train_head(matrix(x), y, split, cfg, run_seed=5)
        h_poison = train_head(matrix(x), poisoned, split, cfg, run_seed=5)
        for k in h_clean.params:
            np.testing.assert_array_equal(h_clean.params[k], h_poison.params[k])

    def test_empty_val_after_masking_errors(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 2))
        y = np.zeros(10)
        split = make_split(10, 2, 2, seed=1)
        valid = np.ones(10, dtype=bool)
        valid[split.mask("val")] = False
        feats = AlignedMatrix(x, valid)
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=4,
                         max_epochs=5, patience=2)
        with pytest.raises(ValidationError, match="validation"):
            train_head(feats, y, split, cfg, run_seed=0)

    @pytest.mark.parametrize("part, loss, output", [
        pytest.param(part, loss, output, id=f"{part}-{loss}" + ("" if output == "scalar" else f"-{output}"))
        for output in ("scalar", "class", "distribution") for part, loss in [("train", "training"), ("val", "validation")]
    ])
    def test_non_finite_loss_errors(self, part, loss, output):
        # rows of the largest float overflow the outputs of the units they hold:
        # one ValidationError, and no numpy warning, which this suite makes an error
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 2))
        split = make_split(20, 4, 4, seed=1)
        x[split.mask(part)] = np.finfo(np.float64).max
        y = {"scalar": rng.standard_normal(20), "class": rng.integers(0, 3, 20),
             "distribution": rng.dirichlet(np.ones(3), 20)}[output]
        cfg = HeadConfig(kind="linear", output=output, n_out=1 if output == "scalar" else 3, batch_size=4,
                         max_epochs=5, patience=2)
        with pytest.raises(ValidationError, match=f"^float overflow in {loss} at epoch 0$"):
            train_head(matrix(x), y, split, cfg, run_seed=0)

    @pytest.mark.parametrize("step, nan, loss", [("batch_gradients", (math.nan, None), "training"),
                                                 ("batch_loss", math.nan, "validation")], ids=["training", "validation"])
    def test_nan_loss_errors(self, monkeypatch, step, nan, loss):
        # a NaN loss raises no floating-point error, so the loss checks catch it
        monkeypatch.setattr(heads, step, lambda *args, **kwargs: nan)
        rng = np.random.default_rng(5)
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=4, max_epochs=5, patience=2)
        with pytest.raises(ValidationError, match=f"^non-finite {loss} loss at epoch 0$"):
            train_head(matrix(rng.standard_normal((20, 2))), rng.standard_normal(20), make_split(20, 4, 4, seed=1),
                       cfg, run_seed=0)

    def test_invalid_rows_excluded_from_training(self):
        # corrupt features on invalid rows must not affect the fit
        rng = np.random.default_rng(6)
        n = 80
        x = rng.standard_normal((n, 2))
        y = x[:, 0] + x[:, 1]
        split = make_split(n, 12, 16)
        valid = np.ones(n, dtype=bool)
        valid[:10] = False
        x_corrupt = x.copy()
        x_corrupt[:10] = 1e9
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=16,
                         max_epochs=10, patience=3)
        h1 = train_head(AlignedMatrix(x, valid), y, split, cfg, run_seed=7)
        h2 = train_head(AlignedMatrix(x_corrupt, valid), y, split, cfg, run_seed=7)
        for k in h1.params:
            np.testing.assert_array_equal(h1.params[k], h2.params[k])

    def test_tiny_lr_step_does_not_increase_train_loss(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((32, 3))
        y = x @ np.array([0.5, -1.0, 2.0])
        cfg = HeadConfig(kind="mlp", output="scalar", n_out=1, hidden_dim=8,
                         batch_size=32, max_epochs=2, patience=1)
        from urbanbench.heads import _Adam, _BatchBuffers, _flat_views, _init_params

        init = _init_params(cfg, 3, np.random.default_rng(0))
        flat = np.concatenate([v.ravel() for v in init.values()])
        params = _flat_views(flat, init)
        before = batch_loss(params, cfg, x, y)
        bufs = _BatchBuffers(params, cfg, len(x))
        batch_gradients(params, cfg, x, y, bufs=bufs)
        _Adam(flat, 1e-6).step(flat, bufs.grad)
        after = batch_loss(params, cfg, x, y)
        assert after <= before


class TestPredict:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(9)
        n = 60
        x = rng.standard_normal((n, 3))
        p = rng.random((n, 4))
        p = p / p.sum(axis=1, keepdims=True)
        split = make_split(n, 10, 12)
        cfg = HeadConfig(kind="mlp", output="distribution", n_out=4, hidden_dim=8,
                         batch_size=16, max_epochs=10, patience=3)
        head = train_head(matrix(x), p, split, cfg, run_seed=10)
        preds = predict(head, matrix(x))
        np.testing.assert_allclose(preds.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((40, 2))
        y = x[:, 0]
        split = make_split(40, 6, 8)
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=8,
                         max_epochs=5, patience=2)
        head = train_head(matrix(x), y, split, cfg, run_seed=11)
        np.testing.assert_array_equal(predict(head, matrix(x)), predict(head, matrix(x)))

    def test_zero_weight_head_predicts_train_mean(self):
        from urbanbench.heads import TargetScaler

        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=8,
                         max_epochs=5, patience=2)
        head = TrainedHead(cfg=cfg, params={"W": np.zeros((3, 1)), "b": np.zeros(1)},
                           scaler=TargetScaler(mean=4.5, std=2.0),
                           best_val_loss=0.0, epochs_run=1)
        preds = predict(head, matrix(np.ones((5, 3))))
        np.testing.assert_allclose(preds, 4.5)

    def test_dim_mismatch_errors(self):
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, batch_size=8,
                         max_epochs=5, patience=2)
        head = TrainedHead(cfg=cfg, params={"W": np.zeros((3, 1)), "b": np.zeros(1)},
                           scaler=None, best_val_loss=0.0, epochs_run=1)
        with pytest.raises(ValidationError, match="dim"):
            predict(head, matrix(np.ones((5, 4))))


class TestGradientCheck:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.x = rng.standard_normal((8, 12))
        self.y_scalar = rng.standard_normal(8)
        self.y_class = rng.integers(0, 3, size=8)
        p = rng.random((8, 3))
        self.y_dist = p / p.sum(axis=1, keepdims=True)

    def test_linear_mse(self):
        cfg = HeadConfig(kind="linear", output="scalar", n_out=1, hidden_dim=8,
                         batch_size=8, max_epochs=2, patience=1)
        assert gradient_check(cfg, (self.x, self.y_scalar), run_seed=0) < 1e-6

    def test_mlp_cross_entropy(self):
        cfg = HeadConfig(kind="mlp", output="class", n_out=3, hidden_dim=8,
                         batch_size=8, max_epochs=2, patience=1)
        assert gradient_check(cfg, (self.x, self.y_class), run_seed=0) < 1e-4

    def test_mlp_kl(self):
        cfg = HeadConfig(kind="mlp", output="distribution", n_out=3, hidden_dim=8,
                         batch_size=8, max_epochs=2, patience=1)
        assert gradient_check(cfg, (self.x, self.y_dist), run_seed=0) < 1e-4


class TestHeadConfig:
    def test_protocol_defaults(self):
        cfg = HeadConfig()
        assert cfg.hidden_dim == 1024
        assert cfg.batch_size == 512
        assert LEARNING_RATE == 1e-3
        assert cfg.max_epochs == 100
        assert cfg.patience == 10

    def test_patience_bound(self):
        with pytest.raises(ValidationError):
            HeadConfig(max_epochs=5, patience=5)

    @pytest.mark.parametrize("field", [{"kind": "transformer"}, {"output": "logits"}], ids=["kind", "output"])
    def test_unknown_kind(self, field):
        with pytest.raises(ValidationError):
            HeadConfig(**field)


def _golden_case(kind, output, n_out, n, dim, batch_size, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    if output == "scalar":
        y = x @ rng.standard_normal(dim) + 0.3 * rng.standard_normal(n)
    elif output == "class":
        y = rng.integers(0, n_out, size=n)
    else:
        p = rng.random((n, n_out))
        y = p / p.sum(axis=1, keepdims=True)
    split = make_split(n, n // 6, n // 6, seed=seed)
    cfg = HeadConfig(kind=kind, output=output, n_out=n_out, hidden_dim=64,
                     batch_size=batch_size, max_epochs=12, patience=11)
    return matrix(x), y, split, cfg


def _digest(params, predictions, best_val_loss, epochs_run):
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(params[k].tobytes())
    h.update(np.ascontiguousarray(predictions).tobytes())
    h.update(repr((best_val_loss, epochs_run)).encode())
    return h.hexdigest()


def _head_digest(head, features):
    return _digest(head.params, predict(head, features), head.best_val_loss, head.epochs_run)


class TestGoldenTraining:
    """Pinned digests of trained parameters and predictions.

    Training must stay bit-identical under refactors of the training step;
    a digest change means the floats changed. The digests assume a BLAS
    that gives the same bits for the same matmul (OpenBLAS with one or
    more threads does), like the digests pinned in `perfbench/workloads.py`.
    """

    # (kind, output, n_out, n, dim, batch_size, seed) -> sha256
    CASES = [
        # n_train = 200, not a multiple of the batch size
        (("mlp", "scalar", 1, 300, 8, 64, 1),
         "0f66e24340a83934d36ee76e0fe0de16382c8d614cc67819e6e0248501bfba64"),
        (("mlp", "class", 3, 300, 8, 64, 2),
         "0c3d93bb20f72763b4c1fe0894cb4bac724f9c1c589ba6018f83d42f198a7e56"),
        (("mlp", "distribution", 4, 300, 8, 64, 3),
         "8b0ca74a3dd075e7df8595a20b8794105fd28ab90224ce099cc03bb0c92f0fe7"),
        (("linear", "scalar", 1, 300, 8, 64, 4),
         "ab94cee0448da7924daa264251c8643431cc66f98d7aa6ad7ebc1da489c65fc5"),
        # n_train = 134 < batch_size
        (("mlp", "scalar", 1, 200, 16, 512, 5),
         "1f79ce8a0a04ec548485ead0bea77f0beec2e5b4e46527f16651690d5c09087c"),
        (("linear", "class", 3, 300, 8, 64, 7),
         "7a43bb35fc75f26ceeb7de8bd267b50f1c2768c30c77dc13259cafabd4dcb3ef"),
        (("linear", "distribution", 4, 300, 8, 64, 8),
         "5b9a839443ecc645dd4065a4c4258b11351711ce4dacacde360a5b7ff441dd0a"),
    ]

    @pytest.mark.parametrize("args,digest", CASES)
    def test_train_head_digest(self, args, digest):
        features, y, split, cfg = _golden_case(*args)
        head = train_head(features, y, split, cfg, run_seed=args[-1])
        assert _head_digest(head, features) == digest

    @pytest.mark.parametrize("args,digest", CASES)
    def test_reference_trainer_digest(self, args, digest):
        # the plain trainer of tests/reference.py gives every pinned digest
        features, y, split, cfg = _golden_case(*args)
        ref = reference.train_head_reference(features, y, split, cfg, run_seed=args[-1])
        assert _digest(ref.params, ref.predictions, ref.best_val_loss, ref.epochs_run) == digest

    def test_forward_with_buffer_matches(self):
        from urbanbench.heads import _forward, _init_params

        features, _, _, cfg = _golden_case("mlp", "scalar", 1, 50, 8, 64, 6)
        params = _init_params(cfg, features.dim, np.random.default_rng(6))
        z0, h0 = _forward(params, cfg, features.rows)
        buf = np.full((64, cfg.hidden_dim), np.nan)
        z1, h1 = _forward(params, cfg, features.rows, h=buf[:features.n])
        assert z1.tobytes() == z0.tobytes()
        assert h1.tobytes() == h0.tobytes()

    def test_returned_params_outlive_the_next_head(self):
        # a head's params must not share memory with any training buffer
        features, y, split, cfg = _golden_case("mlp", "scalar", 1, 300, 8, 64, 1)
        first = train_head(features, y, split, cfg, run_seed=1)
        digest = _head_digest(first, features)
        features2, y2, split2, cfg2 = _golden_case("mlp", "scalar", 1, 300, 8, 64, 9)
        train_head(features2, y2, split2, cfg2, run_seed=9)
        assert _head_digest(first, features) == digest


@st.composite
def training_cases(draw):
    """A head config, aligned features with some invalid (NaN) rows, labels
    as `TaskDataset` holds them, a split and a run seed."""
    output = draw(st.sampled_from(LABEL_KINDS))
    max_epochs = draw(st.integers(2, 10))
    cfg = HeadConfig(kind=draw(st.sampled_from(["linear", "mlp"])), output=output,
                     n_out=1 if output == "scalar" else draw(st.integers(2, 6)),
                     hidden_dim=draw(st.integers(4, 64)), batch_size=draw(st.integers(8, 512)),
                     max_epochs=max_epochs, patience=draw(st.integers(1, max_epochs - 1)))
    n, dim, seed = draw(st.integers(30, 400)), draw(st.integers(1, 39)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    if output == "scalar":
        y = np.full(n, 2.5) if draw(st.booleans()) else x @ rng.standard_normal(dim) + rng.standard_normal(n)
    elif output == "class":
        y = rng.integers(0, cfg.n_out, size=n)
    else:
        p = rng.random((n, cfg.n_out)) * (rng.random((n, cfg.n_out)) > 0.3)  # some zero probabilities
        p[:, 0] += 1e-3
        y = p / p.sum(axis=1, keepdims=True)
    y.setflags(write=False)
    valid = rng.random(n) >= draw(st.sampled_from([0.0, 0.2]))
    x[~valid] = np.nan
    split = make_split(n, n // 6, n // 6, seed=seed)
    assume(np.any(split.mask("train") & valid) and np.any(split.mask("val") & valid))
    return AlignedMatrix(x, valid), y, split, cfg, seed


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=training_cases())
def test_train_head_matches_reference_trainer(case):
    # the same parameter bytes, best validation loss, epoch count and predictions
    features, y, split, cfg, seed = case
    head = train_head(features, y, split, cfg, run_seed=seed)
    ref = reference.train_head_reference(features, y, split, cfg, run_seed=seed)
    assert {k: v.tobytes() for k, v in head.params.items()} == {k: v.tobytes() for k, v in ref.params.items()}
    assert (repr(head.best_val_loss), head.epochs_run) == (repr(ref.best_val_loss), ref.epochs_run)
    assert predict(head, features).tobytes() == ref.predictions.tobytes()


class TestBatchBuffers:
    """`batch_gradients` into reused buffers gives the bits of a throwaway-buffer call."""

    @staticmethod
    def _grad_bits(loss, grads):
        return repr(loss), {k: v.tobytes() for k, v in grads.items()}

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("output,n_out", [("scalar", 1), ("class", 3), ("distribution", 4)])
    def test_reused_buffers_match_throwaway(self, kind, output, n_out):
        from urbanbench.heads import _BatchBuffers, _init_params

        features, y, _, _ = _golden_case(kind, output, n_out, 90, 8, 64, 11)
        cfg = HeadConfig(kind=kind, output=output, n_out=n_out, hidden_dim=16,
                         batch_size=64, max_epochs=2, patience=1)
        params = _init_params(cfg, features.dim, np.random.default_rng(11))
        bufs = _BatchBuffers(params, cfg, 64)
        bufs.grad[:] = np.nan
        if kind == "mlp":
            for a in (bufs.h, bufs.dh):
                a[:] = np.nan
        x = features.rows
        # a full batch, then a partial last batch into the same buffers
        for sel in (slice(0, 64), slice(64, 90)):
            ref = self._grad_bits(*batch_gradients(params, cfg, x[sel], y[sel]))
            got = self._grad_bits(*batch_gradients(params, cfg, x[sel], y[sel], bufs=bufs))
            assert got == ref


def test_adam_blocks_match_whole_array_formula():
    # the blocked in-place step gives the bits of the whole-array expressions
    from urbanbench.heads import ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS, _Adam

    rng = np.random.default_rng(12)
    size = 2 * ADAM_BLOCK + 5
    p = rng.standard_normal(size)
    ref_p, ref_m, ref_v = p.copy(), np.zeros(size), np.zeros(size)
    adam = _Adam(p, LEARNING_RATE)
    for t in range(1, 4):
        g = rng.standard_normal(size)
        adam.step(p, g)
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        ref_m = ADAM_BETA1 * ref_m + (1.0 - ADAM_BETA1) * g
        ref_v = ADAM_BETA2 * ref_v + (1.0 - ADAM_BETA2) * g * g
        ref_p -= LEARNING_RATE * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + ADAM_EPS)
        assert p.tobytes() == ref_p.tobytes()
