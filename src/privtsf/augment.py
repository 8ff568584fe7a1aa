"""Embedding-space data synthesis: gradient-free optimization, PCA-restricted
perturbations, convex mixing, and the bounded synthetic pool.

One kernel, `zoo_descend`, does the gradient-free route for a whole batch of
embedding matrices. It estimates the gradient of a batched objective from
paired evaluations at unit perturbations of each matrix and takes descent
steps. The caller passes each step's perturbations in as the step starts,
so the kernel draws nothing itself and holds one step's probes at a time.
The model-backed objective (`zoo_objective`) trades off diversity (raising
the candidate's masked MSE) against attacker confusion (making it look like
a member of the reference set); alpha = 1 optimizes purely for diversity,
alpha = 0 purely for member-likeness. The PCA variant confines the
perturbations to the span of the top principal components of the training
embeddings.

`zoo_generate` draws the perturbations of seed point j from its own RNG
stream derived from (wave seed, j), one step at a time, so waves reproduce
exactly regardless of evaluation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import (
    ConfigurationError,
    DataPoint,
    DomainError,
    NO_POINTS,
    PointRows,
    PointSet,
    ValidationError,
    readonly,
)
from .forecaster import ForecasterParams, forecast_batch
from .metrics import chunked_losses

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ZooConfig:
    """Step size, probe width, probes per step, step count, and objective mix."""

    alpha: float = 0.75
    lam: float = 3000.0
    mu: float = 300.0
    k: int = 3
    steps: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in [0, 1]")
        for name in ("lam", "mu"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.k < 1 or self.steps < 0:
            raise ConfigurationError("k must be >= 1 and steps >= 0")


@dataclass(frozen=True)
class MixupConfig:
    """Beta(beta, beta) concentration for the interpolation weight."""

    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.beta < np.inf:
            raise ConfigurationError(f"beta must be positive and finite, got {self.beta}")


@dataclass
class PcaBasis:
    """Principal directions of flattened embeddings covering a variance target.

    Keeps the minimal prefix of components whose cumulative explained
    variance ratio reaches `variance_threshold`; components are orthonormal.
    """

    mean: np.ndarray  # (D,)
    components: np.ndarray  # (d, D)
    explained_variance_ratio: np.ndarray  # (d,)
    variance_threshold: float

    def __post_init__(self) -> None:
        self.mean = readonly(self.mean)
        self.components = readonly(self.components)
        self.explained_variance_ratio = readonly(self.explained_variance_ratio)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(embeddings: Sequence[np.ndarray] | np.ndarray, variance_threshold: float = 0.70) -> PcaBasis:
    """Fit a PCA basis on flattened embedding matrices, given as an (N, ...) array or a sequence of them.

    Components are the right singular vectors of the centred data matrix in
    descending singular-value order (the sample covariance's eigenvectors);
    directions below numerical rank are dropped before applying the
    threshold, so a threshold of 1.0 keeps exactly the covariance rank. The
    SVD's bits, and so every zoo-pca wave's, depend on the BLAS thread count.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    X = X.reshape(X.shape[0], -1)
    if X.shape[0] < 2:
        raise DomainError("PCA needs at least 2 samples")
    if not 0.0 < variance_threshold <= 1.0:
        raise ConfigurationError("variance_threshold must lie in (0, 1]")
    mean = X.mean(axis=0)
    Xc = X - mean
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    if s[0] <= 0:
        raise DomainError("embeddings have zero variance")
    rank = int((s > s[0] * max(X.shape) * np.finfo(np.float64).eps).sum())
    var = s[:rank] ** 2
    ratio = var / var.sum()
    d = int(np.searchsorted(np.cumsum(ratio), variance_threshold - 1e-9) + 1)
    d = min(d, rank)
    return PcaBasis(
        mean=mean,
        components=Vt[:d],
        explained_variance_ratio=ratio[:d],
        variance_threshold=variance_threshold,
    )


def zoo_probes(
    shape: tuple[int, ...], count: int, cfg: ZooConfig, seed: int, basis: PcaBasis | None = None
) -> Iterator[np.ndarray]:
    """Each step's unit perturbations for `count` seed points, one step at a time.

    Yields cfg.steps arrays of shape (count, k) + shape, each of unit
    Frobenius norm and confined to the basis span if one is given. Point j
    draws its k normals (or k coefficient rows) per step next on the stream
    (seed, j). One buffer is refilled for every step, so a yielded array holds
    only until the next one is drawn.
    """
    rngs = [np.random.default_rng([seed, j]) for j in range(count)]
    size = int(np.prod(shape))
    draw = np.empty((count, cfg.k, size if basis is None else basis.n_components))
    U = draw if basis is None else np.empty((count, cfg.k, size))
    for _ in range(cfg.steps):
        for rng, rows in zip(rngs, draw):
            rng.standard_normal(out=rows)
        if basis is not None:
            np.matmul(draw.reshape(-1, basis.n_components), basis.components, out=U.reshape(-1, size))
        U /= np.maximum(np.linalg.norm(U, axis=-1), 1e-300)[..., None]
        yield U.reshape((count, cfg.k) + shape)


def zoo_objective(
    Y: np.ndarray, M: np.ndarray, tau: float, params: ForecasterParams, alpha: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Model-backed objective over r stacked batches of embeddings with fixed targets and masks.

    It maps (r * B, ...) embeddings, r batches in the order of the B target
    rows, to (r * B,) values. Row j is -(alpha * loss_j + (1 - alpha) *
    [loss_j < tau]), where loss_j is the masked MSE of the forecast for
    embedding j against (Y[j % B], M[j % B]), evaluated in chunks as
    `metrics.chunked_losses` does.
    """
    stacked: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def objective(E: np.ndarray) -> np.ndarray:
        r = len(E) // len(Y)
        if r not in stacked:
            stacked[r] = (np.concatenate([Y] * r), np.concatenate([M] * r))
        Yr, Mr = stacked[r]
        losses = chunked_losses(forecast_batch, params, PointSet(E=E, Y=Yr, M=Mr))
        return -(alpha * losses + (1.0 - alpha) * (losses < tau).astype(np.float64))

    return objective


def zoo_descend(
    E: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    probes: Iterable[np.ndarray],
    cfg: ZooConfig,
) -> tuple[np.ndarray, int]:
    """Run the estimator steps on a batch of embeddings; returns (moved E, skipped pairs).

    `objective` maps a (2B, ...) batch to (2B,) values, row by row. `probes`
    yields each step's unit perturbations, shaped (B, k) + E.shape[1:], for
    cfg.steps steps. Step s probes the objective at E + mu * U[:, i] and
    E - mu * U[:, i], stacked as one batch, for each i of its probes U in
    turn, averages the k paired differences along their directions, and moves
    every row by -lam times that estimate. A pair whose difference is not
    finite is skipped and adds nothing to its row's estimate.
    """
    E = np.asarray(E, dtype=np.float64)
    B = E.shape[0]
    want = (B, cfg.k) + E.shape[1:]
    steps = iter(probes)
    skipped = 0
    probed = np.empty((2,) + E.shape)  # one direction's plus and minus probes, refilled for each
    for s in range(cfg.steps):
        U = next(steps, None)
        if U is None or U.shape != want:
            got = "none" if U is None else f"shape {U.shape}"
            raise ConfigurationError(f"step {s} of {cfg.steps} has perturbations of {got}, expected (B, k, ...) = {want}")
        est = np.zeros_like(E)
        for i in range(cfg.k):
            Us = U[:, i]
            np.multiply(Us, cfg.mu, out=probed[1])
            np.add(E, probed[1], out=probed[0])
            np.subtract(E, probed[1], out=probed[1])
            values = objective(probed.reshape((2 * B,) + E.shape[1:]))
            diff = (values[:B] - values[B:]) / (2.0 * cfg.mu)
            finite = np.isfinite(diff)
            skipped += int((~finite).sum())
            est += np.where(finite, diff, 0.0).reshape((-1,) + (1,) * (E.ndim - 1)) * Us
        E = E - cfg.lam * est / cfg.k
    if skipped:
        log.warning("skipped %d non-finite perturbation pairs during generation", skipped)
    return E, skipped


def zoo_generate(
    seed_points: PointSet,
    tau: float,
    params: ForecasterParams,
    cfg: ZooConfig,
    seed: int,
    epoch: int,
    basis: PcaBasis | None = None,
) -> PointSet:
    """Run the multi-step update on every seed point and emit synthetic points.

    Each output keeps its seed's target, mask and episode id; only the embedding moves.
    Point j draws its perturbations from the stream (seed, j), one step at a time (`zoo_probes`).
    """
    if len(seed_points) == 0:
        raise DomainError("no seed points")
    E, Y, M = seed_points.E, seed_points.Y, seed_points.M
    if cfg.steps > 0:
        probes = zoo_probes(E.shape[1:], len(E), cfg, seed, basis)
        E, _ = zoo_descend(E, zoo_objective(Y, M, tau, params, cfg.alpha), probes, cfg)
    return PointSet(E=E, Y=Y, M=M, episode_id=seed_points.episode_id, created_epoch=epoch)


def mixup_wave(a: PointSet, b: PointSet, lam: np.ndarray, epoch: int) -> PointSet:
    """Row-wise convex combinations of two point sets, each row inheriting its dominant input's labels.

    Row j is lam[j] * a.E[j] + (1 - lam[j]) * b.E[j], with (Y, M) and the
    episode id from a's row j where lam[j] > 0.5 and from b's otherwise.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if a.E.shape != b.E.shape or a.Y.shape != b.Y.shape or lam.shape != (len(a),):
        shapes = f"{a.E.shape}, {a.Y.shape} and {b.E.shape}, {b.Y.shape}"
        raise ConfigurationError(f"mixup of point sets of shapes {shapes} with weights of shape {lam.shape}")
    take_a = lam > 0.5
    w, rows_a = lam[:, None, None], take_a[:, None, None]
    return PointSet(
        E=w * a.E + (1.0 - w) * b.E,
        Y=np.where(rows_a, a.Y, b.Y),
        M=np.where(rows_a, a.M, b.M),
        episode_id=np.where(take_a, a.episode_id, b.episode_id),
        created_epoch=epoch,
    )


def mixup_generate(
    x1: DataPoint,
    x2: DataPoint,
    cfg: MixupConfig,
    rng: np.random.Generator,
    epoch: int = 0,
    uid: str = "",
) -> DataPoint:
    """One mixup point, the one-row case of `mixup_wave` with lam ~ Beta(beta, beta).

    The mixed point takes (y, m) and the episode id from x1 when lam > 0.5 and
    from x2 otherwise. `uid` is unused; the benchmark's mixup check still passes it.
    """
    lam = float(rng.beta(cfg.beta, cfg.beta))
    a, b = (PointSet(E=x.e[None], Y=x.y[None], M=x.m[None], episode_id=x.episode_id) for x in (x1, x2))
    return mixup_wave(a, b, np.array([lam]), epoch)[0]


class SyntheticPool:
    """Bounded first-in-first-out store of synthetic points.

    Inserts append in creation order and evict from the front (oldest
    creation epoch first) until the size bound holds again. The pool's
    arrays are a copy of its newest rows, joined through PointRows, so no
    evicted row is kept alive behind them.
    """

    def __init__(self, cap: int):
        if cap < 0:
            raise ConfigurationError("pool cap must be non-negative")
        self.cap = cap
        self._items = NO_POINTS

    def insert(self, items: PointSet) -> None:
        if np.any(items.created_epoch < 1):
            raise ValidationError("pool accepts synthetic points only (created_epoch >= 1)")
        n = len(self._items) + len(items)
        # a copy of the newest `cap` rows, so no evicted row stays alive; at cap 0 that is none of them
        self._items = PointRows((self._items, items), np.arange(n - min(self.cap, n), n))[:]

    @property
    def items(self) -> PointSet:
        return self._items

    def __len__(self) -> int:
        return len(self._items)
