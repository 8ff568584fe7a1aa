"""Compact multi-step forecaster with a frozen linear embedding front end.

The embedding map turns each hourly row (values concatenated with its mask)
into a dense vector, so downstream code always sees a fixed-size matrix with
no missing entries. The forecaster pools the embedded rows with learned
per-hour weights, passes them through one tanh hidden layer to form a context
vector, and unrolls a single-step recurrent decoder for the forecast horizon.
The decoder consumes its own previous prediction at every step (student
forcing), during training and inference alike.

Gradients are computed analytically by backpropagation through the unroll.
One _unroll yields each sample's backprop signals; plain and pretraining
steps reduce them to the batch mean, private steps to the mean of gradients
clipped by norms from Gram matrices over time, and the per-sample reference
that step is tested against keeps the batch axis. One minibatch loop,
_run_epochs, owns the shuffle stream for every kind of training.
Finite-difference verification lives in the test suite.
"""

from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    PointRows,
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
# windows per pass of bake_points
_BAKE_CHUNK = 128
# time steps per batched matmul in the recurrent weight folds (_fold)
_FOLD_STEPS = 8


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
        # each bound is written so that NaN fails it
        for name in ("learning_rate", "batch_size", "max_epochs", "hidden_dim", "n", "horizon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class DpConfig:
    """Per-sample clipping norm, Gaussian noise multiplier, and learning-rate boost."""

    noise_multiplier: float = 1.1
    clip_norm: float = 2.0
    lr_scale: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.noise_multiplier < np.inf:
            raise ConfigurationError(f"noise_multiplier must be >= 0 and finite, got {self.noise_multiplier}")
        for name in ("clip_norm", "lr_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be > 0 and finite, got {getattr(self, name)}")


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
    """The embedding map's input rows (..., input_len, 2F): each hour's values, then its input mask as 0.0 or 1.0."""
    if values.shape != mask.shape or values.shape[-1] != n_vars:
        raise ConfigurationError(f"windows have {values.shape[-1]} variables, embedding expects {n_vars}")
    return np.concatenate([values, mask], axis=-1)


def bake_points(windows: WindowSet, emb: EmbeddingMap) -> PointSet:
    """Freeze a non-empty WindowSet into a PointSet under the fixed embedding map.

    The points share the windows' target and mask arrays and keep their episode ids.
    The map's input rows are built _BAKE_CHUNK windows at a time, never for the whole
    set; matmul multiplies a stack window by window, so each chunk's rows get the
    bits of one product over the whole set.
    """
    if not len(windows):
        raise DomainError("no windows to bake")
    values, mask = windows.values, windows.mask_in
    E = np.empty((len(windows), values.shape[1], emb.bias.size))
    for a in range(0, len(E), _BAKE_CHUNK):
        rows = slice(a, a + _BAKE_CHUNK)
        np.matmul(window_inputs(values[rows], mask[rows], emb.n_vars), emb.weight, out=E[rows])
    E += emb.bias
    return PointSet(
        E=E,
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
    """Per-sample masked mean squared error over a batch.

    M is the points' bool mask (a 0/1 float mask gives the same bits): the
    squared errors are multiplied by it as 0.0 / 1.0 and each sample's sum is
    divided by its count of observed cells.
    """
    counts = M.sum(axis=(1, 2))
    if np.any(counts < 1):
        raise DomainError("sample with empty target mask")
    return (((pred - Y) ** 2) * M).sum(axis=(1, 2)) / counts


def _signals(
    Y: np.ndarray, M: np.ndarray, params: ForecasterParams, S: np.ndarray, Yh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reverse unroll of each sample's own masked MSE: its backprop signals.

    Returns DY (B, T, F), the total gradient reaching each prediction; DA
    (B, T, H), the gradient at each pre-activation state; da0 (B, H), the
    context's; and dpooled (B, n), the pooled embedding's. Every parameter
    gradient is a fold of these against the unroll's activations.
    """
    B, T = Y.shape[0], Y.shape[1]
    counts = M.sum(axis=(1, 2))
    # gradient of each sample's mmse w.r.t. its predictions
    dY_loss = 2.0 * M * (Yh[:, 1:] - Y) / counts[:, None, None]

    H = params.hidden_dim
    F = params.n_vars
    DY = np.empty((B, T, F))
    DA = np.empty((B, T, H))
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
    return DY, DA, da0, da0 @ params.w_hidden


def _unroll(E: np.ndarray, Y: np.ndarray, M: np.ndarray, params: ForecasterParams):
    """A batch's activations (pooled, S, Yh), per-sample masked MSE and backprop signals
    (DY, DA, da0, dpooled); each step kind reduces them as (E, acts, signals)."""
    pooled, S, Yh = _forward(E, params)
    return (pooled, S, Yh), masked_batch_losses(Yh[:, 1:], Y, M), _signals(Y, M, params, S, Yh)


def _mean_grads(E: np.ndarray, acts, signals) -> dict[str, np.ndarray]:
    """Batch mean of the per-sample gradients, the decoder's from _recurrent_folds
    as the DP step's are; the plain and pretraining steps' reduction."""
    pooled, S, Yh = acts
    DY, DA, da0, dpooled = signals
    B = len(E)
    # the unscaled signals are folded, then divided: scaling them by 1/B first rounds differently
    g = {name: total / B for name, total in _recurrent_folds(DY, DA, S, Yh).items()}
    g["w_hidden"] = np.einsum("bh,bn->hn", da0, pooled) / B
    g["b_hidden"] = da0.sum(axis=0) / B
    g["pos"] = np.einsum("bn,bin->i", dpooled, E) / B
    return g


def _per_sample_grads(E: np.ndarray, acts, signals) -> dict[str, np.ndarray]:
    """Each sample's gradient, with a leading batch axis: the reference the DP step
    is tested against, as per-example outer products in batched matmuls (Goodfellow 2015)."""
    pooled, S, Yh = acts
    DY, DA, da0, dpooled = signals
    T = DY.shape[1]
    return {
        "w_out": DY.transpose(0, 2, 1) @ S[:, 1:],
        "b_out": DY.sum(axis=1),
        "w_state": DA.transpose(0, 2, 1) @ S[:, :T],
        "w_feedback": DA.transpose(0, 2, 1) @ Yh[:, :T],
        "b_state": DA.sum(axis=1),
        "w_hidden": da0[:, :, None] * pooled[:, None, :],
        "b_hidden": da0,
        "pos": (E @ dpooled[:, :, None])[:, :, 0],
    }


def _embedding_grads(X: np.ndarray, pos: np.ndarray, dpooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch-mean gradients of the embedding map's weight and bias, from the batch's
    map inputs X (B, I, 2F) and the pooled embedding's signal; pretraining only."""
    B = len(X)
    dE = pos[None, :, None] * dpooled[:, None, :]
    return np.einsum("bip,bin->pn", X, dE) / B, dE.sum(axis=(0, 1)) / B


def _gram(A: np.ndarray) -> np.ndarray:
    """Each sample's Gram matrix over time: (B, T, d) -> (B, T, T)."""
    return A @ A.transpose(0, 2, 1)


def _sample_norms(E: np.ndarray, acts, signals) -> np.ndarray:
    """Each sample's gradient L2 norm over all parameters, without forming the gradient.

    A recurrent weight's per-sample gradient is a sum of outer products over
    time, so its squared norm is sum(A A^T * B B^T) over T x T Gram matrices
    (Goodfellow 2015); the biases, w_hidden and pos are direct.
    """
    pooled, S, Yh = acts
    DY, DA, da0, dpooled = signals
    T = DY.shape[1]
    G_S = _gram(S)  # both state blocks: S_prev is [:T, :T], S_next is [1:, 1:]
    G = _gram(Yh[:, :T])
    G += G_S[:, :T, :T]
    G *= _gram(DA)
    sq = G.sum(axis=(1, 2))  # w_state, w_feedback
    sq += (_gram(DY) * G_S[:, 1:, 1:]).sum(axis=(1, 2))  # w_out
    sq += (DY.sum(axis=1) ** 2).sum(axis=1) + (DA.sum(axis=1) ** 2).sum(axis=1)  # b_out, b_state
    sq += (da0**2).sum(axis=1) * ((pooled**2).sum(axis=1) + 1.0)  # w_hidden, b_hidden
    sq += ((E @ dpooled[:, :, None]) ** 2).sum(axis=(1, 2))  # pos
    return np.sqrt(np.maximum(sq, 0.0))


def _fold(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum over t of A[:, t].T @ Z[t], for batch-major A (B, T, p) and time-major Z (T, B, q).

    The one kernel behind every recurrent weight gradient, plain, pretraining
    and DP alike: one (p, B) x (B, q) product per step, _FOLD_STEPS steps per
    batched matmul. The products stay small enough for BLAS to run each on
    one thread; a single (p, T*B) x (T*B, q) product starts BLAS threads, and
    those stall whenever another process holds a core.
    """
    T = A.shape[1]
    return sum(
        np.matmul(A[:, t : t + _FOLD_STEPS].transpose(1, 2, 0), Z[t : t + _FOLD_STEPS]).sum(axis=0)
        for t in range(0, T, _FOLD_STEPS)
    )


def _recurrent_folds(DY: np.ndarray, DA: np.ndarray, S: np.ndarray, Yh: np.ndarray) -> dict[str, np.ndarray]:
    """The decoder's gradients summed over batch and time, each sample weighted as its DY and
    DA already are; the weights fold through _fold against _forward's time-major buffers."""
    T = DY.shape[1]
    S_tm, Yh_tm = S.transpose(1, 0, 2), Yh.transpose(1, 0, 2)
    return {
        "w_out": _fold(DY, S_tm[1:]),
        "b_out": DY.sum(axis=(0, 1)),
        "w_state": _fold(DA, S_tm[:T]),
        "w_feedback": _fold(DA, Yh_tm[:T]),
        "b_state": DA.sum(axis=(0, 1)),
    }


def _clipped_mean(E: np.ndarray, acts, signals, clip_norm: float) -> dict[str, np.ndarray]:
    """Batch mean of the per-sample gradients, each clipped to L2 norm clip_norm,
    without forming any of them ("ghost clipping", Li et al. 2022): DY and DA
    are scaled in place by each sample's clip factor over B and go through
    _recurrent_folds, as the plain step's do. The norms' Gram matrices are
    freed before the fold, which keeps the step's peak allocation low.
    """
    pooled, S, Yh = acts
    DY, DA, da0, dpooled = signals
    norms = _sample_norms(E, acts, signals)
    k = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300)) / len(DY)
    DY *= k[:, None, None]
    DA *= k[:, None, None]
    da0, dpooled = da0 * k[:, None], dpooled * k[:, None]
    return {
        **_recurrent_folds(DY, DA, S, Yh),
        "w_hidden": da0.T @ pooled,
        "b_hidden": da0.sum(axis=0),
        "pos": np.einsum("bn,bin->i", dpooled, E),
    }


def mean_gradients(points: PointSet, params: ForecasterParams) -> tuple[dict[str, np.ndarray], float]:
    """Batch-mean gradient of the masked MSE and the mean loss itself."""
    acts, losses, signals = _unroll(points.E, points.Y, points.M, params)
    return _mean_grads(points.E, acts, signals), float(losses.mean())


def per_sample_gradients(points: PointSet, params: ForecasterParams) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample gradients (leading batch axis) and per-sample losses."""
    acts, losses, signals = _unroll(points.E, points.Y, points.M, params)
    return _per_sample_grads(points.E, acts, signals), losses


def _assert_finite_grads(loss: float, *grads: np.ndarray) -> None:
    if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads):
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
    _assert_finite_grads(loss, *grads.values())
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

    The clipped mean comes from _clipped_mean, so no per-sample gradient is
    formed. The noise is Gaussian with per-coordinate std noise_multiplier *
    clip_norm / batch_size, and the step uses cfg.learning_rate * dp.lr_scale.
    """
    if len(points) == 0:
        raise DomainError("empty batch")
    acts, losses, signals = _unroll(points.E, points.Y, points.M, params)
    loss = float(losses.mean())
    mean = _clipped_mean(points.E, acts, signals, dp.clip_norm)
    _assert_finite_grads(loss, *mean.values())
    noise_std = dp.noise_multiplier * dp.clip_norm / len(points)
    update = {k: g + noise_std * rng.standard_normal(g.shape) for k, g in mean.items()}
    return params.updated(update, -cfg.learning_rate * dp.lr_scale)


def _run_epochs(state, n: int, batch_size: int, epochs: int, seed: int, step: Callable):
    """The one minibatch loop: each epoch shuffles n items with the seed's shuffle
    stream and calls `state, loss = step(state, idx)` on each batch's indices.
    Returns the final state and each epoch's mean loss; n = 0 is a DomainError."""
    if n == 0:
        raise DomainError("empty training set")
    rng = np.random.default_rng([seed, _SHUFFLE_STREAM])
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
    points: PointSet | PointRows,
    params: ForecasterParams,
    cfg: TrainConfig,
    epochs: int,
    seed: int,
) -> tuple[ForecasterParams, list[float]]:
    """Minibatch SGD for a fixed number of epochs; returns params and per-epoch mean loss.

    `points` is read only by `len` and by each batch's index array, so a
    PointRows trains exactly as the PointSet it selects would.
    """
    return _run_epochs(params, len(points), cfg.batch_size, epochs, seed, lambda p, idx: train_step(points[idx], p, cfg))


def dp_train(
    points: PointSet,
    params: ForecasterParams,
    cfg: TrainConfig,
    dp: DpConfig,
    epochs: int,
    seed: int,
) -> ForecasterParams:
    """DP-SGD training loop with independent shuffle and noise streams; a DP step reports no loss."""
    noise_rng = np.random.default_rng([seed, _NOISE_STREAM])

    def step(p: ForecasterParams, idx: np.ndarray) -> tuple[ForecasterParams, float]:
        return dp_train_step(points[idx], p, cfg, dp, noise_rng), 0.0

    return _run_epochs(params, len(points), cfg.batch_size, epochs, seed, step)[0]


def pretrain_embedding(windows: WindowSet, cfg: TrainConfig) -> tuple[EmbeddingMap, ForecasterParams]:
    """Jointly train embedding map and forecaster, then freeze the embedding.

    Runs cfg.max_epochs of minibatch SGD on the masked MSE. The returned map
    is the one all later augmentation and retraining operates on; only the
    forecaster parameters remain trainable afterwards.
    """
    input_hours, n_vars = windows.values.shape[1:]
    emb, params = init_params(cfg.n, cfg.hidden_dim, n_vars, cfg.horizon, cfg.seed, input_hours=input_hours)
    values, mask_in, Y, M = windows.values, windows.mask_in, windows.target, windows.mask_out

    def step(state, idx: np.ndarray):
        params, weight, bias = state
        # only this batch's map inputs: the same rows as gathering from the whole split's
        Xb = window_inputs(values[idx], mask_in[idx], n_vars)
        Eb = Xb @ weight + bias
        acts, losses, signals = _unroll(Eb, Y[idx], M[idx], params)
        loss = float(losses.mean())
        grads = _mean_grads(Eb, acts, signals)
        d_weight, d_bias = _embedding_grads(Xb, params.pos, signals[3])
        _assert_finite_grads(loss, *grads.values(), d_weight, d_bias)
        params = params.updated(grads, -cfg.learning_rate)
        weight = weight - cfg.learning_rate * d_weight
        bias = bias - cfg.learning_rate * d_bias
        return (params, weight, bias), loss

    state = (params, emb.weight, emb.bias)
    (params, weight, bias), _ = _run_epochs(state, len(windows), cfg.batch_size, cfg.max_epochs, cfg.seed, step)
    return EmbeddingMap(weight=weight, bias=bias), params


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1
# the model shape a checkpoint records beside its arrays, checked against the run config on load
_SHAPE_KEYS = ("n", "hidden_dim", "n_vars", "horizon", "input_hours")
_CHECKPOINT_KEYS = ("version", *_SHAPE_KEYS, "seed", "emb_weight", "emb_bias", "std_mean", "std_std", *PARAM_FIELDS)


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
    """Read a save_checkpoint archive. A file that is not an npz archive of plain
    arrays, or lacks one of the layout's keys, is a ConfigurationError naming it."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("it holds a single array")
        with data:
            missing = [key for key in _CHECKPOINT_KEYS if key not in data.files]
            if missing:
                raise ConfigurationError(f"checkpoint {path} has no {', '.join(missing)}")
            arrays = {key: data[key] for key in _CHECKPOINT_KEYS}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"checkpoint {path} is not an npz archive of arrays: {exc}") from exc
    version = int(arrays["version"])
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    emb = EmbeddingMap(weight=arrays["emb_weight"], bias=arrays["emb_bias"])
    params = ForecasterParams(
        **{name: arrays[name] for name in PARAM_FIELDS},
        horizon=int(arrays["horizon"]),
    )
    std = Standardizer(mean=arrays["std_mean"], std=arrays["std_std"])
    meta = {k: int(arrays[k]) for k in (*_SHAPE_KEYS, "seed")}
    return emb, params, std, meta
