"""Compact multi-step forecaster with a frozen linear embedding front end.

The embedding map turns each hourly row (values concatenated with its mask)
into a dense vector, so downstream code always sees a fixed-size matrix with
no missing entries. The forecaster pools the embedded rows with learned
per-hour weights, passes them through one tanh hidden layer to form a context
vector, and unrolls a single-step recurrent decoder for the forecast horizon.
The decoder consumes its own previous prediction at every step (student
forcing), during training and inference alike.

Gradients are computed analytically by backpropagation through the unroll;
per-sample gradients are available for differentially private updates.
Finite-difference verification lives in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    PointSet,
    Standardizer,
    TrainingError,
    WindowSet,
    readonly,
)

log = logging.getLogger(__name__)

PARAM_FIELDS = ("pos", "w_hidden", "b_hidden", "w_state", "w_feedback", "b_state", "w_out", "b_out")

_SHUFFLE_STREAM = 7
_NOISE_STREAM = 8


@dataclass
class EmbeddingMap:
    """Row-wise linear map from (values, mask) pairs to embedding vectors.

    Frozen by construction: the arrays are read-only and no training path
    touches the map after pretraining.
    """

    weight: np.ndarray  # (2F, n)
    bias: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.weight = readonly(self.weight)
        self.bias = readonly(self.bias)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ConfigurationError("embedding weight must be (2F, n) with bias of length n")

    @property
    def n_vars(self) -> int:
        return self.weight.shape[0] // 2


@dataclass
class ForecasterParams:
    """All trainable forecaster parameters; arrays are read-only, updates allocate."""

    pos: np.ndarray  # (input_hours,) pooling weights
    w_hidden: np.ndarray  # (H, n)
    b_hidden: np.ndarray  # (H,)
    w_state: np.ndarray  # (H, H)
    w_feedback: np.ndarray  # (H, F)
    b_state: np.ndarray  # (H,)
    w_out: np.ndarray  # (F, H)
    b_out: np.ndarray  # (F,)
    horizon: int = 24

    def __post_init__(self) -> None:
        for name in PARAM_FIELDS:
            setattr(self, name, readonly(getattr(self, name)))
        H, n = self.w_hidden.shape
        F = self.w_out.shape[0]
        ok = (
            self.b_hidden.shape == (H,)
            and self.w_state.shape == (H, H)
            and self.w_feedback.shape == (H, F)
            and self.b_state.shape == (H,)
            and self.w_out.shape == (F, H)
            and self.b_out.shape == (F,)
            and self.horizon >= 1
        )
        if not ok:
            raise ConfigurationError("inconsistent parameter shapes")

    @property
    def n(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def n_vars(self) -> int:
        return self.w_out.shape[0]

    @property
    def input_hours(self) -> int:
        return self.pos.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(getattr(self, name))) for name in PARAM_FIELDS)

    def updated(self, deltas: dict[str, np.ndarray], scale: float) -> "ForecasterParams":
        """Return new params with each array shifted by scale * deltas[name]."""
        new = {name: getattr(self, name) + scale * deltas[name] for name in PARAM_FIELDS}
        return replace(self, **new)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and model-size settings for plain minibatch gradient descent."""

    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 100
    hidden_dim: int = 32
    n: int = 32
    horizon: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.learning_rate, self.batch_size, self.max_epochs, self.hidden_dim, self.n, self.horizon) <= 0:
            raise ConfigurationError("TrainConfig values must be positive")


@dataclass(frozen=True)
class DpConfig:
    """Per-sample clipping norm, Gaussian noise multiplier, and learning-rate boost."""

    noise_multiplier: float = 1.1
    clip_norm: float = 2.0
    lr_scale: float = 100.0

    def __post_init__(self) -> None:
        if self.noise_multiplier < 0:
            raise ConfigurationError("noise_multiplier must be >= 0")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be > 0")
        if self.lr_scale <= 0:
            raise ConfigurationError("lr_scale must be > 0")


def init_params(
    n: int,
    hidden_dim: int,
    n_vars: int,
    horizon: int,
    seed: int,
    input_hours: int = 24,
) -> tuple[EmbeddingMap, ForecasterParams]:
    """Seeded init: every array uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)

    def u(shape, fan):
        b = 1.0 / np.sqrt(fan)
        return rng.uniform(-b, b, size=shape)

    emb = EmbeddingMap(weight=u((2 * n_vars, n), 2 * n_vars), bias=u((n,), 2 * n_vars))
    params = ForecasterParams(
        pos=u((input_hours,), input_hours),
        w_hidden=u((hidden_dim, n), n),
        b_hidden=u((hidden_dim,), n),
        w_state=u((hidden_dim, hidden_dim), hidden_dim),
        w_feedback=u((hidden_dim, n_vars), n_vars),
        b_state=u((hidden_dim,), hidden_dim),
        w_out=u((n_vars, hidden_dim), hidden_dim),
        b_out=u((n_vars,), hidden_dim),
        horizon=horizon,
    )
    return emb, params


def window_inputs(values: np.ndarray, mask: np.ndarray, n_vars: int) -> np.ndarray:
    """The embedding map's input rows (..., input_len, 2F): each hour's values, then its input mask."""
    if values.shape != mask.shape or values.shape[-1] != n_vars:
        raise ConfigurationError(f"windows have {values.shape[-1]} variables, embedding expects {n_vars}")
    return np.concatenate([values, mask], axis=-1)


def bake_points(windows: WindowSet, emb: EmbeddingMap) -> PointSet:
    """Freeze a non-empty WindowSet into a PointSet under the fixed embedding map.

    The points share the windows' target and mask arrays and keep their episode ids.
    """
    if not len(windows):
        raise DomainError("no windows to bake")
    X = window_inputs(windows.values, windows.mask_in, emb.n_vars)
    return PointSet(
        E=X @ emb.weight + emb.bias,
        Y=windows.target,
        M=windows.mask_out,
        episode_id=windows.episode_id,
    )


def _forward(E: np.ndarray, params: ForecasterParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unroll the decoder; returns (pooled, states S, predictions Yh).

    S has shape (B, T+1, H) with S[:, 0] the context vector; Yh has shape
    (B, T+1, F) with Yh[:, 0] = 0 as the initial feedback input. Both are
    transposed views of time-major buffers, so each step reads and writes
    contiguous rows in place, in the order (S @ Ws.T + Yh @ Wf.T) + b.
    """
    B = E.shape[0]
    T = params.horizon
    H = params.hidden_dim
    F = params.n_vars
    pooled = np.einsum("h,bhn->bn", params.pos, E)
    S = np.empty((T + 1, B, H))
    S[0] = np.tanh(pooled @ params.w_hidden.T + params.b_hidden)
    Yh = np.zeros((T + 1, B, F))
    a, fb = np.empty((B, H)), np.empty((B, H))
    for t in range(1, T + 1):
        np.matmul(S[t - 1], params.w_state.T, out=a)
        np.matmul(Yh[t - 1], params.w_feedback.T, out=fb)
        a += fb
        a += params.b_state
        np.tanh(a, out=S[t])
        np.matmul(S[t], params.w_out.T, out=Yh[t])
        Yh[t] += params.b_out
    return pooled, S.transpose(1, 0, 2), Yh.transpose(1, 0, 2)


def forecast_batch(E: np.ndarray, params: ForecasterParams) -> np.ndarray:
    """Forecast a batch of embeddings; returns (B, horizon, F)."""
    E = np.asarray(E, dtype=np.float64)
    if E.shape[1:] != (params.input_hours, params.n):
        raise ConfigurationError(f"embedding batch shape {E.shape} does not match (B, {params.input_hours}, {params.n})")
    if not params.is_finite():
        raise EvaluationError("forecaster parameters contain non-finite values")
    return _forward(E, params)[2][:, 1:]


def masked_batch_losses(pred: np.ndarray, Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Per-sample masked mean squared error over a batch."""
    counts = M.sum(axis=(1, 2))
    if np.any(counts < 1):
        raise DomainError("sample with empty target mask")
    return (((pred - Y) ** 2) * M).sum(axis=(1, 2)) / counts


def _backward(
    E: np.ndarray,
    Y: np.ndarray,
    M: np.ndarray,
    params: ForecasterParams,
    pooled: np.ndarray,
    S: np.ndarray,
    Yh: np.ndarray,
    per_sample: bool,
    X: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Backprop each sample's own masked MSE through the unroll.

    With per_sample=True the returned arrays keep the leading batch axis;
    otherwise they are already averaged over the batch. On the batch-mean
    path only, passing the raw window inputs X (B, I, 2F) additionally yields
    the embedding map's gradients.
    """
    B, T = Y.shape[0], Y.shape[1]
    counts = M.sum(axis=(1, 2))
    # gradient of each sample's mmse w.r.t. its predictions
    dY_loss = 2.0 * M * (Yh[:, 1:] - Y) / counts[:, None, None]

    H = params.hidden_dim
    F = params.n_vars
    DY = np.empty((B, T, F))  # total gradient reaching each prediction
    DA = np.empty((B, T, H))  # gradient at each pre-activation state
    da_next: np.ndarray | None = None
    for t in range(T, 0, -1):
        dy = dY_loss[:, t - 1].copy()
        ds = np.zeros((B, H))
        if da_next is not None:
            dy += da_next @ params.w_feedback
            ds += da_next @ params.w_state
        ds += dy @ params.w_out
        da = ds * (1.0 - S[:, t] ** 2)
        DY[:, t - 1] = dy
        DA[:, t - 1] = da
        da_next = da

    ds0 = DA[:, 0] @ params.w_state
    da0 = ds0 * (1.0 - S[:, 0] ** 2)
    dpooled = da0 @ params.w_hidden

    if per_sample:
        # per-example outer products as batched matmuls (Goodfellow 2015)
        g = {
            "w_out": DY.transpose(0, 2, 1) @ S[:, 1:],
            "b_out": DY.sum(axis=1),
            "w_state": DA.transpose(0, 2, 1) @ S[:, :T],
            "w_feedback": DA.transpose(0, 2, 1) @ Yh[:, :T],
            "b_state": DA.sum(axis=1),
            "w_hidden": da0[:, :, None] * pooled[:, None, :],
            "b_hidden": da0,
            "pos": (E @ dpooled[:, :, None])[:, :, 0],
        }
    else:
        # einsum folds each output element over (b, t) in order. On contiguous
        # copies it runs that fold as one loop, on _forward's strided views as
        # many short ones: the same bits at H, F >= 2, in a third of the time
        S_next, S_prev, Yh_prev = (np.ascontiguousarray(a) for a in (S[:, 1:], S[:, :T], Yh[:, :T]))
        g = {
            "w_out": np.einsum("btf,bth->fh", DY, S_next) / B,
            "b_out": DY.sum(axis=(0, 1)) / B,
            "w_state": np.einsum("bth,btk->hk", DA, S_prev) / B,
            "w_feedback": np.einsum("bth,btf->hf", DA, Yh_prev) / B,
            "b_state": DA.sum(axis=(0, 1)) / B,
            "w_hidden": np.einsum("bh,bn->hn", da0, pooled) / B,
            "b_hidden": da0.sum(axis=0) / B,
            "pos": np.einsum("bn,bin->i", dpooled, E) / B,
        }
        if X is not None:
            dE = params.pos[None, :, None] * dpooled[:, None, :]
            g["emb_weight"] = np.einsum("bip,bin->pn", X, dE) / B
            g["emb_bias"] = dE.sum(axis=(0, 1)) / B
    return g


def _gradients(points: PointSet, params: ForecasterParams, per_sample: bool):
    """Gradients of each point's masked MSE (or their batch mean) and the per-point losses."""
    E, Y, M = points.E, points.Y, points.M
    pooled, S, Yh = _forward(E, params)
    losses = masked_batch_losses(Yh[:, 1:], Y, M)
    return _backward(E, Y, M, params, pooled, S, Yh, per_sample=per_sample), losses


def mean_gradients(points: PointSet, params: ForecasterParams) -> tuple[dict[str, np.ndarray], float]:
    """Batch-mean gradient of the masked MSE and the mean loss itself."""
    grads, losses = _gradients(points, params, per_sample=False)
    return grads, float(losses.mean())


def per_sample_gradients(points: PointSet, params: ForecasterParams) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample gradients (leading batch axis) and per-sample losses."""
    return _gradients(points, params, per_sample=True)


def _assert_finite_grads(grads: dict[str, np.ndarray], loss: float) -> None:
    if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
        raise TrainingError(f"non-finite gradient or loss (loss={loss})")


def train_step(
    points: PointSet,
    params: ForecasterParams,
    cfg: TrainConfig,
) -> tuple[ForecasterParams, float]:
    """One plain gradient-descent step on the batch-mean masked MSE."""
    if len(points) == 0:
        raise DomainError("empty batch")
    grads, loss = mean_gradients(points, params)
    _assert_finite_grads(grads, loss)
    return params.updated(grads, -cfg.learning_rate), loss


def clip_per_sample(grads: dict[str, np.ndarray], clip_norm: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Scale each sample's gradient to L2 norm at most clip_norm.

    Returns the clipped per-sample gradients and the post-clip norms.
    """
    B = next(iter(grads.values())).shape[0]
    sq = np.zeros(B)
    for g in grads.values():
        sq += (g.reshape(B, -1) ** 2).sum(axis=1)
    norms = np.sqrt(sq)
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    clipped = {k: g * scale.reshape((B,) + (1,) * (g.ndim - 1)) for k, g in grads.items()}
    return clipped, norms * scale


def dp_train_step(
    points: PointSet,
    params: ForecasterParams,
    cfg: TrainConfig,
    dp: DpConfig,
    rng: np.random.Generator,
) -> ForecasterParams:
    """One differentially private step: clip per-sample gradients, average, add noise.

    The noise is Gaussian with per-coordinate std noise_multiplier * clip_norm /
    batch_size, and the step uses cfg.learning_rate * dp.lr_scale.
    """
    if len(points) == 0:
        raise DomainError("empty batch")
    grads, losses = per_sample_gradients(points, params)
    _assert_finite_grads(grads, float(losses.mean()))
    B = losses.shape[0]
    clipped, _ = clip_per_sample(grads, dp.clip_norm)
    noise_std = dp.noise_multiplier * dp.clip_norm / B
    update = {
        k: g.mean(axis=0) + noise_std * rng.standard_normal(g.shape[1:]) for k, g in clipped.items()
    }
    return params.updated(update, -cfg.learning_rate * dp.lr_scale)


def _run_epochs(state, n: int, batch_size: int, epochs: int, rng: np.random.Generator, step: Callable):
    """The one minibatch loop: each epoch shuffles n items with `rng` and calls
    `state, loss = step(state, idx)` on each batch's indices. Returns the final
    state and each epoch's mean loss."""
    history: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            state, loss = step(state, idx)
            total += loss * len(idx)
        history.append(total / n)
    return state, history


def train(
    points: PointSet,
    params: ForecasterParams,
    cfg: TrainConfig,
    epochs: int,
    seed: int,
) -> tuple[ForecasterParams, list[float]]:
    """Minibatch SGD for a fixed number of epochs; returns params and per-epoch mean loss."""
    if len(points) == 0:
        raise DomainError("empty training set")
    rng = np.random.default_rng([seed, _SHUFFLE_STREAM])
    return _run_epochs(params, len(points), cfg.batch_size, epochs, rng, lambda p, idx: train_step(points[idx], p, cfg))


def dp_train(
    points: PointSet,
    params: ForecasterParams,
    cfg: TrainConfig,
    dp: DpConfig,
    epochs: int,
    seed: int,
) -> ForecasterParams:
    """DP-SGD training loop with independent shuffle and noise streams; a DP step reports no loss."""
    if len(points) == 0:
        raise DomainError("empty training set")
    shuffle_rng = np.random.default_rng([seed, _SHUFFLE_STREAM])
    noise_rng = np.random.default_rng([seed, _NOISE_STREAM])

    def step(p: ForecasterParams, idx: np.ndarray) -> tuple[ForecasterParams, float]:
        return dp_train_step(points[idx], p, cfg, dp, noise_rng), 0.0

    return _run_epochs(params, len(points), cfg.batch_size, epochs, shuffle_rng, step)[0]


def pretrain_embedding(windows: WindowSet, cfg: TrainConfig) -> tuple[EmbeddingMap, ForecasterParams]:
    """Jointly train embedding map and forecaster, then freeze the embedding.

    Runs cfg.max_epochs of minibatch SGD on the masked MSE. The returned map
    is the one all later augmentation and retraining operates on; only the
    forecaster parameters remain trainable afterwards.
    """
    if not len(windows):
        raise DomainError("empty pretraining set")
    input_hours, n_vars = windows.values.shape[1:]
    emb, params = init_params(cfg.n, cfg.hidden_dim, n_vars, cfg.horizon, cfg.seed, input_hours=input_hours)
    X = window_inputs(windows.values, windows.mask_in, n_vars)
    Y, M = windows.target, windows.mask_out

    def step(state, idx: np.ndarray):
        params, weight, bias = state
        Xb, Yb, Mb = X[idx], Y[idx], M[idx]
        Eb = Xb @ weight + bias
        pooled, S, Yh = _forward(Eb, params)
        loss = float(masked_batch_losses(Yh[:, 1:], Yb, Mb).mean())
        grads = _backward(Eb, Yb, Mb, params, pooled, S, Yh, per_sample=False, X=Xb)
        _assert_finite_grads(grads, loss)
        params = params.updated({k: grads[k] for k in PARAM_FIELDS}, -cfg.learning_rate)
        weight = weight - cfg.learning_rate * grads["emb_weight"]
        bias = bias - cfg.learning_rate * grads["emb_bias"]
        return (params, weight, bias), loss

    rng = np.random.default_rng([cfg.seed, _SHUFFLE_STREAM])
    state = (params, emb.weight, emb.bias)
    (params, weight, bias), _ = _run_epochs(state, len(windows), cfg.batch_size, cfg.max_epochs, rng, step)
    return EmbeddingMap(weight=weight, bias=bias), params


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1
# the model shape a checkpoint records beside its arrays, checked against the run config on load
_SHAPE_KEYS = ("n", "hidden_dim", "n_vars", "horizon", "input_hours")


def save_checkpoint(
    path: str,
    emb: EmbeddingMap,
    params: ForecasterParams,
    std: Standardizer,
    seed: int,
) -> None:
    """Persist model state as an npz archive (layout documented in the README)."""
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        **{key: np.int64(getattr(params, key)) for key in _SHAPE_KEYS},
        seed=np.int64(seed),
        emb_weight=emb.weight,
        emb_bias=emb.bias,
        std_mean=std.mean,
        std_std=std.std,
        **params.arrays(),
    )


def load_checkpoint(path: str) -> tuple[EmbeddingMap, ForecasterParams, Standardizer, dict]:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {version}")
        emb = EmbeddingMap(weight=data["emb_weight"], bias=data["emb_bias"])
        params = ForecasterParams(
            **{name: data[name] for name in PARAM_FIELDS},
            horizon=int(data["horizon"]),
        )
        std = Standardizer(mean=data["std_mean"], std=data["std_std"])
        meta = {k: int(data[k]) for k in (*_SHAPE_KEYS, "seed")}
    return emb, params, std, meta
