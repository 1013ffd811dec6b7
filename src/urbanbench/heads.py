"""Fixed downstream predictors: linear probe and one-hidden-layer MLP.

Protocol defaults: hidden 1024, batch 512, lr 1e-3, at most 100 epochs,
validation early stopping with patience 10, regression targets
standardized on the training units. Training is float64 throughout and
bit-deterministic given the run seed. `train_head` reuses one hidden-layer
buffer across its batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedMatrix
from .core import ValidationError
from .split import SplitAssignment, TRAIN, VAL

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EARLY_STOP_TOL = 1e-7
GRADIENT_CHECK_STEP = 1e-5

OUTPUT_KINDS = ("scalar", "logits", "distribution")


@dataclass(frozen=True)
class HeadConfig:
    kind: str = "mlp"                 # "linear" | "mlp"
    output: str = "scalar"            # "scalar" | "logits" | "distribution"
    n_out: int = 1                    # C for logits, K for distribution
    hidden_dim: int = 1024
    batch_size: int = 512
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValidationError(f"unknown head kind {self.kind!r}")
        if self.output not in OUTPUT_KINDS:
            raise ValidationError(f"unknown output kind {self.output!r}")
        for name in ("n_out", "hidden_dim", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.patience >= self.max_epochs:
            raise ValidationError("patience must be < max_epochs")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")


@dataclass(frozen=True)
class TargetScaler:
    """Train-set mean/std for scalar targets; population (divide-by-n) std."""

    mean: float = 0.0
    std: float = 1.0
    enabled: bool = True
    degenerate: bool = False

    def transform(self, y: np.ndarray) -> np.ndarray:
        return (y - self.mean) / self.std if self.enabled else np.asarray(y, dtype=np.float64)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return y * self.std + self.mean if self.enabled else np.asarray(y, dtype=np.float64)


def fit_scaler(train_labels) -> TargetScaler:
    y = np.asarray(train_labels, dtype=np.float64)
    if y.size == 0:
        raise ValidationError("cannot fit a scaler on an empty training set")
    mean = float(y.mean())
    std = float(np.sqrt(np.mean((y - mean) ** 2)))
    if std == 0.0:
        return TargetScaler(mean=mean, std=1.0, enabled=False, degenerate=True)
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

    scalar: MSE; logits: softmax cross-entropy; distribution:
    KL(target || softmax(z)) with 0*log(0) = 0.
    """
    n = z.shape[0]
    if output == "scalar":
        diff = z[:, 0] - y
        return float(np.mean(diff * diff)), (2.0 / n) * diff[:, None]
    log_q = _log_softmax(z)
    q = np.exp(log_q)
    if output == "logits":
        loss = float(-np.mean(log_q[np.arange(n), y]))
        dz = q.copy()
        dz[np.arange(n), y] -= 1.0
        return loss, dz / n
    p_log_p = np.zeros_like(y)
    nz = y > 0
    p_log_p[nz] = y[nz] * np.log(y[nz])
    loss = float(np.mean(np.sum(p_log_p - y * log_q, axis=1)))
    return loss, (q - y) / n


def _backward(params: dict, cfg: HeadConfig, x: np.ndarray, h: np.ndarray | None,
              dz: np.ndarray) -> dict[str, np.ndarray]:
    if cfg.kind == "linear":
        return {"W": x.T @ dz, "b": dz.sum(axis=0)}
    dh = dz @ params["W2"].T
    dh *= h > 0.0
    return {
        "W1": x.T @ dh, "b1": dh.sum(axis=0),
        "W2": h.T @ dz, "b2": dz.sum(axis=0),
    }


def batch_loss(params: dict, cfg: HeadConfig, x: np.ndarray, y: np.ndarray) -> float:
    z, _ = _forward(params, cfg, x)
    loss, _ = _loss_and_dz(z, y, cfg.output)
    return loss


def batch_gradients(params: dict, cfg: HeadConfig, x: np.ndarray, y: np.ndarray,
                    h: np.ndarray | None = None) -> tuple[float, dict[str, np.ndarray]]:
    z, h = _forward(params, cfg, x, h)
    loss, dz = _loss_and_dz(z, y, cfg.output)
    return loss, _backward(params, cfg, x, h, dz)


class _Adam:
    def __init__(self, params: dict, lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for k, g in grads.items():
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            params[k] -= self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainedHead:
    cfg: HeadConfig
    params: dict[str, np.ndarray]
    input_dim: int
    scaler: TargetScaler | None
    best_val_loss: float
    epochs_run: int
    degenerate: bool = False


def _prepare_labels(labels, cfg: HeadConfig) -> np.ndarray:
    labels = np.asarray(labels)
    if cfg.output == "scalar":
        if labels.ndim != 1:
            raise ValidationError("scalar head expects 1-d labels")
        return labels.astype(np.float64)
    if cfg.output == "logits":
        if labels.ndim != 1:
            raise ValidationError("logits head expects 1-d class labels")
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

    scaler = None
    degenerate = False
    if cfg.output == "scalar":
        scaler = fit_scaler(y_train)
        degenerate = scaler.degenerate
        y_train = scaler.transform(y_train)
        y_val = scaler.transform(y_val)

    rng = np.random.default_rng(run_seed)
    params = _init_params(cfg, features.dim, rng)
    adam = _Adam(params, cfg.learning_rate)
    stopper = EarlyStopper(cfg.patience)
    best_params = {k: v.copy() for k, v in params.items()}
    best_val = math.inf
    n_train = x_train.shape[0]
    hbuf = np.empty((min(cfg.batch_size, n_train), cfg.hidden_dim))
    epochs = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            loss, grads = batch_gradients(params, cfg, x_train[sel], y_train[sel],
                                          h=hbuf[:len(sel)])
            if not math.isfinite(loss):
                raise ValidationError(f"non-finite training loss at epoch {epoch}")
            adam.step(params, grads)
        val_loss = batch_loss(params, cfg, x_val, y_val)
        if not math.isfinite(val_loss):
            raise ValidationError(f"non-finite validation loss at epoch {epoch}")
        epochs = epoch + 1
        stop = stopper.update(val_loss)
        if stopper.improved:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
        if stop:
            break

    return TrainedHead(cfg=cfg, params=best_params, input_dim=features.dim,
                       scaler=scaler, best_val_loss=best_val, epochs_run=epochs,
                       degenerate=degenerate)


def predict(head: TrainedHead, features) -> np.ndarray:
    """scalar -> inverse-scaled reals; logits -> argmax class ids;
    distribution -> softmax rows (each summing to 1 within 1e-9)."""
    x = features.rows if isinstance(features, AlignedMatrix) else np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != head.input_dim:
        raise ValidationError(f"feature dim {x.shape} does not match training dim {head.input_dim}")
    z, _ = _forward(head.params, head.cfg, x)
    if head.cfg.output == "scalar":
        out = z[:, 0]
        return head.scaler.inverse(out) if head.scaler is not None else out
    if head.cfg.output == "logits":
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
