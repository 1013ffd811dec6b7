"""Fixed downstream predictors: linear probe and one-hidden-layer MLP.

A head's output is its task's label kind (`core.LABEL_KINDS`): scalar
(MSE), class (softmax cross-entropy, argmax prediction) or distribution
(KL to the softmax). Protocol defaults: hidden 1024, batch 512, lr 1e-3,
at most 100 epochs, validation early stopping with patience 10, regression
targets standardized on the training units. Training is float64 throughout and
bit-deterministic given the run seed. `train_head` allocates its arrays once
per head: the parameters, their gradient and the Adam moments are flat
vectors with a view per parameter, and every batch writes its hidden
activations, their gradient and the ReLU mask into fixed buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedMatrix
from .core import LABEL_KINDS, ValidationError
from .split import SplitAssignment, TRAIN, VAL

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_BLOCK = 32768  # elements per in-place pass of an Adam step: 256 KiB per vector
ADAM_EPS = 1e-8
EARLY_STOP_TOL = 1e-7
GRADIENT_CHECK_STEP = 1e-5
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class HeadConfig:
    kind: str = "mlp"                 # "linear" | "mlp"
    output: str = "scalar"            # the task's label kind: "scalar" | "class" | "distribution"
    n_out: int = 1                    # C for class, K for distribution
    hidden_dim: int = 1024
    batch_size: int = 512
    max_epochs: int = 100
    patience: int = 10

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValidationError(f"unknown head kind {self.kind!r}")
        if self.output not in LABEL_KINDS:
            raise ValidationError(f"unknown output kind {self.output!r}")
        for name in ("n_out", "hidden_dim", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.patience >= self.max_epochs:
            raise ValidationError("patience must be < max_epochs")


@dataclass(frozen=True)
class TargetScaler:
    """Train-set mean/std for scalar targets; population (divide-by-n) std."""

    mean: float = 0.0
    std: float = 1.0
    degenerate: bool = False  # constant targets: transform and inverse pass them through

    def transform(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) if self.degenerate else (y - self.mean) / self.std

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) if self.degenerate else y * self.std + self.mean


def fit_scaler(train_labels) -> TargetScaler:
    y = np.asarray(train_labels, dtype=np.float64)
    if y.size == 0:
        raise ValidationError("cannot fit a scaler on an empty training set")
    mean = float(y.mean())
    std = float(np.sqrt(np.mean((y - mean) ** 2)))
    if std == 0.0:
        return TargetScaler(mean=mean, std=1.0, degenerate=True)
    return TargetScaler(mean=mean, std=std)


class EarlyStopper:
    """Stops after `patience` epochs without an improvement of more than EARLY_STOP_TOL."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.stale = 0
        self.improved = False

    def update(self, loss: float) -> bool:
        """Record one validation loss; True means stop now."""
        self.improved = loss < self.best - EARLY_STOP_TOL
        if self.improved:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


# ---------------------------------------------------------------------------
# Parameters and forward/backward

def _init_params(cfg: HeadConfig, dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    def uniform(fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    if cfg.kind == "linear":
        return {"W": uniform(dim, cfg.n_out), "b": np.zeros(cfg.n_out)}
    return {
        "W1": uniform(dim, cfg.hidden_dim), "b1": np.zeros(cfg.hidden_dim),
        "W2": uniform(cfg.hidden_dim, cfg.n_out), "b2": np.zeros(cfg.n_out),
    }


def _flat_views(flat: np.ndarray, like: dict) -> dict[str, np.ndarray]:
    """Views into `flat` with the keys and shapes of `like`, laid end to end."""
    views, start = {}, 0
    for k, v in like.items():
        views[k] = flat[start:start + v.size].reshape(v.shape)
        start += v.size
    return views


class _BatchBuffers:
    """What one batch step writes: a flat gradient vector (`grad`, with a view
    per parameter in `grads`) and, for an MLP, the hidden activations `h`,
    their gradient `dh` and the ReLU `mask` of up to `rows` units."""

    def __init__(self, params: dict, cfg: HeadConfig, rows: int):
        self.grad = np.empty(sum(p.size for p in params.values()))
        self.grads = _flat_views(self.grad, params)
        if cfg.kind == "mlp":
            self.h = np.empty((rows, cfg.hidden_dim))
            self.dh = np.empty_like(self.h)
            self.mask = np.empty(self.h.shape, dtype=bool)


def _forward(params: dict, cfg: HeadConfig, x: np.ndarray, h: np.ndarray | None = None):
    """Output and hidden activations; an MLP writes the hidden ones into `h` if given."""
    if cfg.kind == "linear":
        return x @ params["W"] + params["b"], None
    h = np.matmul(x, params["W1"], out=h)
    h += params["b1"]
    np.maximum(h, 0.0, out=h)
    return h @ params["W2"] + params["b2"], h


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def _loss_and_dz(z: np.ndarray, y: np.ndarray, output: str) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its gradient wrt the output layer.

    scalar: MSE; class: softmax cross-entropy; distribution:
    KL(target || softmax(z)) with 0*log(0) = 0.
    """
    n = z.shape[0]
    if output == "scalar":
        diff = z[:, 0] - y
        return float(np.add.reduce(diff * diff) / n), (2.0 / n) * diff[:, None]
    log_q = _log_softmax(z)
    q = np.exp(log_q)
    if output == "class":
        loss = float(-(np.add.reduce(log_q[np.arange(n), y]) / n))
        dz = q.copy()
        dz[np.arange(n), y] -= 1.0
        return loss, dz / n
    p_log_p = np.zeros_like(y)
    nz = y > 0
    p_log_p[nz] = y[nz] * np.log(y[nz])
    loss = float(np.add.reduce(np.sum(p_log_p - y * log_q, axis=1)) / n)
    return loss, (q - y) / n


def _backward(params: dict, cfg: HeadConfig, x: np.ndarray, h: np.ndarray | None,
              dz: np.ndarray, bufs: _BatchBuffers) -> None:
    """Write the gradients of every parameter into `bufs.grads`."""
    g = bufs.grads
    if cfg.kind == "linear":
        np.matmul(x.T, dz, out=g["W"])
        np.sum(dz, axis=0, out=g["b"])
        return
    dh = bufs.dh[:len(x)]
    mask = bufs.mask[:len(x)]
    if cfg.n_out == 1:
        # W2[j] * dz[i]: one rounded product per element, as the k=1 matmul
        # gives; filling then scaling in place is faster than the outer product
        dh[...] = params["W2"].T
        dh *= dz
    else:
        np.matmul(dz, params["W2"].T, out=dh)
    np.greater(h, 0.0, out=mask)
    np.multiply(dh, mask, out=dh)
    np.matmul(x.T, dh, out=g["W1"])
    np.sum(dh, axis=0, out=g["b1"])
    np.matmul(h.T, dz, out=g["W2"])
    np.sum(dz, axis=0, out=g["b2"])


def batch_loss(params: dict, cfg: HeadConfig, x: np.ndarray, y: np.ndarray,
               h: np.ndarray | None = None) -> float:
    z, _ = _forward(params, cfg, x, h)
    loss, _ = _loss_and_dz(z, y, cfg.output)
    return loss


def batch_gradients(params: dict, cfg: HeadConfig, x: np.ndarray, y: np.ndarray,
                    bufs: _BatchBuffers | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients of one batch, written into `bufs` (throwaway
    buffers if not given); the gradients returned are views into `bufs.grad`."""
    if bufs is None:
        bufs = _BatchBuffers(params, cfg, len(x))
    z, h = _forward(params, cfg, x, bufs.h[:len(x)] if cfg.kind == "mlp" else None)
    loss, dz = _loss_and_dz(z, y, cfg.output)
    _backward(params, cfg, x, h, dz, bufs)
    return loss, bufs.grads


class _Adam:
    """Adam over one flat parameter vector, stepped in place one block of
    ADAM_BLOCK elements at a time, so that a block's passes run in cache."""

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._tmp = np.empty((2, min(ADAM_BLOCK, params.size)))
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), each rounded as written."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for start in range(0, params.size, ADAM_BLOCK):
            s = slice(start, start + ADAM_BLOCK)
            p, g, m, v = params[s], grad[s], self.m[s], self.v[s]
            a, b = self._tmp[:, :p.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainedHead:
    cfg: HeadConfig
    params: dict[str, np.ndarray]
    scaler: TargetScaler | None
    best_val_loss: float
    epochs_run: int


def _prepare_labels(labels, cfg: HeadConfig) -> np.ndarray:
    labels = np.asarray(labels)
    if cfg.output == "scalar":
        if labels.ndim != 1:
            raise ValidationError("scalar head expects 1-d labels")
        return labels.astype(np.float64)
    if cfg.output == "class":
        if labels.ndim != 1:
            raise ValidationError("class head expects 1-d class labels")
        labels = labels.astype(np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= cfg.n_out):
            raise ValidationError(f"class labels outside [0,{cfg.n_out})")
        return labels
    if labels.ndim != 2 or labels.shape[1] != cfg.n_out:
        raise ValidationError(f"distribution head expects (n,{cfg.n_out}) labels")
    return labels.astype(np.float64)


def train_head(
    features: AlignedMatrix,
    labels,
    split: SplitAssignment,
    cfg: HeadConfig,
    run_seed: int,
) -> TrainedHead:
    """Train on valid train units, early-stop on valid val units, and return
    the parameters at the best validation loss. Test labels are never read."""
    labels = _prepare_labels(labels, cfg)
    if len(labels) != features.n or features.n != len(split.labels):
        raise ValidationError("features, labels, and split must be parallel")

    train_mask = split.mask(TRAIN) & features.valid
    val_mask = split.mask(VAL) & features.valid
    if not np.any(train_mask):
        raise ValidationError("empty training set after validity masking")
    if not np.any(val_mask):
        raise ValidationError("empty validation set after validity masking")

    x_train = features.rows[train_mask]
    x_val = features.rows[val_mask]
    y_train = labels[train_mask]
    y_val = labels[val_mask]

    scaler = fit_scaler(y_train) if cfg.output == "scalar" else None
    if scaler is not None:
        y_train = scaler.transform(y_train)
        y_val = scaler.transform(y_val)

    rng = np.random.default_rng(run_seed)
    init = _init_params(cfg, features.dim, rng)
    flat = np.concatenate([v.ravel() for v in init.values()])
    params = _flat_views(flat, init)
    best = flat.copy()
    adam = _Adam(flat, LEARNING_RATE)
    stopper = EarlyStopper(cfg.patience)
    n_train = x_train.shape[0]
    bufs = _BatchBuffers(params, cfg, min(cfg.batch_size, n_train))
    h_val = bufs.h[:len(x_val)] if cfg.kind == "mlp" and len(x_val) <= len(bufs.h) else None
    epochs = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            loss, _ = batch_gradients(params, cfg, x_train[sel], y_train[sel], bufs=bufs)
            if not math.isfinite(loss):
                raise ValidationError(f"non-finite training loss at epoch {epoch}")
            adam.step(flat, bufs.grad)
        val_loss = batch_loss(params, cfg, x_val, y_val, h=h_val)
        if not math.isfinite(val_loss):
            raise ValidationError(f"non-finite validation loss at epoch {epoch}")
        epochs = epoch + 1
        stop = stopper.update(val_loss)
        if stopper.improved:
            np.copyto(best, flat)
        if stop:
            break

    return TrainedHead(cfg=cfg, params=_flat_views(best, init), scaler=scaler,
                       best_val_loss=stopper.best, epochs_run=epochs)


def predict(head: TrainedHead, features) -> np.ndarray:
    """scalar -> inverse-scaled reals; class -> argmax class ids;
    distribution -> softmax rows (each summing to 1 within 1e-9)."""
    x = features.rows if isinstance(features, AlignedMatrix) else np.asarray(features, dtype=np.float64)
    input_dim = head.params["W" if head.cfg.kind == "linear" else "W1"].shape[0]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValidationError(f"feature dim {x.shape} does not match training dim {input_dim}")
    z, _ = _forward(head.params, head.cfg, x)
    if head.cfg.output == "scalar":
        out = z[:, 0]
        return head.scaler.inverse(out) if head.scaler is not None else out
    if head.cfg.output == "class":
        return np.argmax(z, axis=1)
    return softmax(z)


# ---------------------------------------------------------------------------
# Gradient verification

def gradient_check(cfg: HeadConfig, batch: tuple[np.ndarray, np.ndarray], run_seed: int) -> float:
    """Max relative error between analytic gradients and central finite
    differences (step GRADIENT_CHECK_STEP) over every parameter element.
    Meant for small batches (<= 8) and small dims (<= 16)."""
    x, y_raw = batch
    x = np.asarray(x, dtype=np.float64)
    y = _prepare_labels(y_raw, cfg)
    rng = np.random.default_rng(run_seed)
    params = _init_params(cfg, x.shape[1], rng)
    _, grads = batch_gradients(params, cfg, x, y)
    worst = 0.0
    for k, p in params.items():
        flat = p.reshape(-1)
        g_flat = grads[k].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + GRADIENT_CHECK_STEP
            up = batch_loss(params, cfg, x, y)
            flat[idx] = orig - GRADIENT_CHECK_STEP
            down = batch_loss(params, cfg, x, y)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
            denom = max(abs(g_flat[idx]) + abs(numeric), 1e-8)
            worst = max(worst, abs(g_flat[idx] - numeric) / denom)
    return worst
