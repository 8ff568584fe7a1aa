"""Shared test utilities: finite-difference oracles, tiny corpus builders and
reference formulas that the package itself does not need."""

from __future__ import annotations

import dataclasses
import tracemalloc
import types

import numpy as np

from privtsf import augment as ag
from privtsf import forecaster as fc
from privtsf import metrics as pm
from privtsf.data import Episode, PointSet, Standardizer, WindowSet
from privtsf.synth import _EPISODE_STREAM, readout_matrix


def episode(eid, trips, length) -> Episode:
    """An Episode from (t, var_id, value) tuples, in the given order."""
    t, var, val = (list(col) for col in zip(*trips)) if trips else ([], [], [])
    return Episode(episode_id=eid, t=t, var_id=var, value=val, length_hours=length)


def window_rows(windows: WindowSet) -> list[types.SimpleNamespace]:
    """Each window of a WindowSet as named views: its rows of the four arrays, its episode id and start."""
    return [
        types.SimpleNamespace(
            values=windows.values[i], mask_in=windows.mask_in[i], target=windows.target[i],
            mask_out=windows.mask_out[i], episode_id=int(windows.episode_id[i]),
            window_start=int(windows.window_start[i]),
        )
        for i in range(len(windows))
    ]


def take_windows(windows: WindowSet, index) -> WindowSet:
    """The windows at a slice or index array, as a new WindowSet."""
    return WindowSet(*(getattr(windows, f.name)[index] for f in dataclasses.fields(WindowSet)))


def generate_reference(config) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """`synth.generate` one episode and one hour at a time: (t, var_id, value, length) per
    episode, columns stable-sorted by time."""
    readout = readout_matrix(config)
    rates = np.full(config.n_vars, config.sparse_rate)
    rates[: config.dense_var_count] = config.dense_rate
    innov_std = np.sqrt(1.0 - config.ar_coefficient**2)
    out = []
    for eid in range(config.n_episodes):
        rng = np.random.default_rng([config.seed, _EPISODE_STREAM, eid])
        length = int(rng.integers(config.stay_hours[0], config.stay_hours[1] + 1))
        z = np.empty((length, config.latent_dim))
        z[0] = rng.standard_normal(config.latent_dim)
        innov = rng.standard_normal((length - 1, config.latent_dim)) * innov_std
        for h in range(1, length):
            z[h] = config.ar_coefficient * z[h - 1] + innov[h - 1]
        true_vals = z @ readout.T
        emitted = rng.random((length, config.n_vars)) < rates[None, :]
        noise = rng.standard_normal((length, config.n_vars)) * config.obs_noise_std
        jitter = rng.random((length, config.n_vars))
        obs = [(h + jitter[h, f], f, true_vals[h, f] + noise[h, f]) for h, f in zip(*np.nonzero(emitted))]
        obs.sort(key=lambda o: o[0])
        t, var, val = (np.array(col) for col in zip(*obs)) if obs else (np.zeros(0), np.zeros(0, int), np.zeros(0))
        out.append((t, var, val, float(length)))
    return out


def bin_range_reference(ep: Episode, std: Standardizer, start: float, values: np.ndarray, mask: np.ndarray) -> None:
    """Bin hours [start, start + len(values)) of `ep` into the zeroed `values` and `mask` rows, one window alone."""
    n_hours, n_vars = values.shape
    t, var, val = ep.t, ep.var_id, ep.value
    lo, hi = np.searchsorted(t, [start, start + n_hours], side="left")
    if lo == hi:
        return
    hours = np.floor(t[lo:hi] - start).astype(np.int64)
    key = hours * n_vars + var[lo:hi]
    # t-sorted input makes the first occurrence of each key the earliest observation
    _, first = np.unique(key, return_index=True)
    hsel = hours[first]
    vsel = var[lo:hi][first]
    values[hsel, vsel] = std.standardize(val[lo:hi][first], vsel)
    mask[hsel, vsel] = 1.0


def bin_windows_reference(starts, input_len: int, horizon: int, std: Standardizer) -> WindowSet:
    """`data.bin_windows` one window at a time: each row's input and target blocks binned alone."""
    shape_in, shape_out = (len(starts), input_len, std.n_vars), (len(starts), horizon, std.n_vars)
    values, mask_in, target, mask_out = np.zeros(shape_in), np.zeros(shape_in), np.zeros(shape_out), np.zeros(shape_out)
    for i, (ep, s) in enumerate(starts):
        bin_range_reference(ep, std, s, values[i], mask_in[i])
        bin_range_reference(ep, std, s + input_len, target[i], mask_out[i])
    ids, window_starts = [ep.episode_id for ep, _ in starts], [s for _, s in starts]
    return WindowSet(values, mask_in, target, mask_out, episode_id=ids, window_start=window_starts)


def build_windows_reference(episodes, std, stride=4, input_len=24, horizon=24, max_start=96, limit=0, rng=None):
    """`data.build_windows` one episode and one start at a time, capped by the same draw, binned by the reference."""
    starts = []
    for ep in episodes:
        for s in range(0, max_start + 1, stride):
            fits = s + input_len + horizon <= ep.length_hours + 1e-9
            if fits and np.any((ep.t >= s + input_len) & (ep.t < s + input_len + horizon)):
                starts.append((ep, s))
    if limit and len(starts) > limit:
        idx = np.sort(rng.choice(len(starts), size=limit, replace=False))
        starts = [starts[i] for i in idx]
    return bin_windows_reference(starts, input_len, horizon, std)


def same_windows(a: WindowSet, b: WindowSet) -> bool:
    """Whether two window sets hold the same bytes in every array and column."""
    return all(
        getattr(a, f.name).dtype == getattr(b, f.name).dtype
        and getattr(a, f.name).shape == getattr(b, f.name).shape
        and getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
        for f in dataclasses.fields(WindowSet)
    )


def identity_standardizer(n_vars: int) -> Standardizer:
    """A standardizer that leaves values unchanged."""
    return Standardizer(mean=np.zeros(n_vars), std=np.ones(n_vars))


def destandardize(std: Standardizer, values: np.ndarray, var_ids: np.ndarray) -> np.ndarray:
    """The inverse of `std.standardize`."""
    return np.asarray(values, dtype=np.float64) * std.std[var_ids] + std.mean[var_ids]


def predict_zero_mse(points) -> float:
    """Masked MSE of the all-zero forecast, the natural floor for learnability checks."""
    return float(fc.masked_batch_losses(np.zeros_like(points.Y), points.Y, points.M).mean())


def make_points(rng: np.random.Generator, count: int, input_hours: int, n: int, horizon: int, n_vars: int) -> PointSet:
    """Random points with at least one observed target cell each."""
    rows = []
    for _ in range(count):
        e = rng.standard_normal((input_hours, n))
        y = rng.standard_normal((horizon, n_vars))
        m = (rng.random((horizon, n_vars)) < 0.6).astype(float)
        if m.sum() == 0:
            m = m.copy()
            m[0, 0] = 1.0
        rows.append((e, y * m, m))
    E, Y, M = (np.stack(col) for col in zip(*rows))
    return PointSet(E=E, Y=Y, M=M)


def stacked_points(*parts: PointSet) -> PointSet:
    """The rows of every part in order, each array stacked whole: the reference for `data.PointRows`."""
    names = ("E", "Y", "M", "episode_id", "created_epoch")
    return PointSet(**{name: np.concatenate([getattr(p, name) for p in parts]) for name in names})


def batch_loss(points, params) -> float:
    pred = fc.forecast_batch(points.E, params)
    return float(fc.masked_batch_losses(pred, points.Y, points.M).mean())


def fd_param_gradients(points, params, step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central finite differences of the batch-mean masked MSE per parameter group."""
    out = {}
    for name in fc.PARAM_FIELDS:
        arr = getattr(params, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = arr.copy()
            plus[idx] += step
            minus = arr.copy()
            minus[idx] -= step
            lp = batch_loss(points, dataclasses.replace(params, **{name: plus}))
            lm = batch_loss(points, dataclasses.replace(params, **{name: minus}))
            g[idx] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


def unit_perturbations(shape, k, rng, basis=None) -> np.ndarray:
    """k random directions of unit Frobenius norm drawn at once from `rng`; confined to the basis span if given."""
    if basis is None:
        u = rng.standard_normal((k,) + tuple(shape))
    else:
        coef = rng.standard_normal((k, basis.n_components))
        u = (coef @ basis.components).reshape((k,) + tuple(shape))
    flat = u.reshape(k, -1)
    norms = np.maximum(np.linalg.norm(flat, axis=1), 1e-300)
    return (flat / norms[:, None]).reshape((k,) + tuple(shape))


def zoo_descend_one(e, objective, cfg, rng, basis=None) -> np.ndarray:
    """One step of the batched zoo kernel on a single embedding (B=1).

    Draws the step's k perturbations from `rng` with `unit_perturbations`
    and lifts the scalar `objective` to a batch; `cfg.steps` must be 1.
    """
    e = np.asarray(e, dtype=np.float64)
    U = unit_perturbations(e.shape, cfg.k, rng, basis)[None]
    out, _ = ag.zoo_descend(e[None], lambda E: np.array([objective(x) for x in E]), [U], cfg)
    return out[0]


def zoo_generate_drawn_first(seed_points, tau, params, cfg, seed, epoch, basis=None) -> PointSet:
    """A zoo wave that draws every probe before the first step: the reference for `zoo_generate`.

    Seed point j draws all steps * k of its perturbations at once from the
    stream (seed, j), the wave stacks them into one (B, steps, k, ...) array,
    and the objective forecasts the whole batch in one call.
    """
    E, Y, M = seed_points.E, seed_points.Y, seed_points.M
    if cfg.steps > 0:
        shape = E.shape[1:]
        U = np.stack(
            [
                unit_perturbations(shape, cfg.steps * cfg.k, np.random.default_rng([seed, j]), basis).reshape(
                    (cfg.steps, cfg.k) + shape
                )
                for j in range(len(seed_points))
            ]
        )

        def objective(X):
            losses = fc.masked_batch_losses(fc.forecast_batch(X, params), Y, M)
            return -(cfg.alpha * losses + (1.0 - cfg.alpha) * (losses < tau).astype(np.float64))

        E, _ = ag.zoo_descend(E, objective, [U[:, s] for s in range(cfg.steps)], cfg)
    return PointSet(E=E, Y=Y, M=M, episode_id=seed_points.episode_id, created_epoch=epoch)


def allocation_peak(fn) -> int:
    """Bytes that a second call of `fn` allocates at its peak, above what was live before it, by tracemalloc."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


class FixedRng:
    """Duck-typed generator returning preset draws, for closed-form oracle tests."""

    def __init__(self, normals=None, beta_value=None):
        self._normals = list(normals) if normals is not None else []
        self._beta = beta_value

    def standard_normal(self, shape):
        return np.asarray(self._normals.pop(0), dtype=np.float64).reshape(shape)

    def beta(self, a, b):
        return self._beta


def tpr_fpr(members, nonmembers, tau):
    """The attack's (TPR, FPR) at tau, read off `attack_report`."""
    rep = pm.attack_report(members, nonmembers, tau)
    return rep.tpr, rep.fpr


def priv(members, nonmembers, tau):
    return pm.attack_report(members, nonmembers, tau).priv


def roc_curve(members, nonmembers):
    """The swept ROC and its area, which do not depend on tau."""
    rep = pm.attack_report(members, nonmembers, 0.5)
    return rep.roc, rep.auroc
