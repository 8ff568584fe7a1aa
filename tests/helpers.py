"""Shared test utilities: finite-difference oracles and tiny corpus builders."""

from __future__ import annotations

import dataclasses

import numpy as np

from privtsf import augment as ag
from privtsf import forecaster as fc
from privtsf.data import DataPoint


def make_points(rng: np.random.Generator, count: int, input_hours: int, n: int, horizon: int, n_vars: int):
    """Random DataPoints with at least one observed target cell each."""
    pts = []
    for _ in range(count):
        e = rng.standard_normal((input_hours, n))
        y = rng.standard_normal((horizon, n_vars))
        m = (rng.random((horizon, n_vars)) < 0.6).astype(float)
        if m.sum() == 0:
            m = m.copy()
            m[0, 0] = 1.0
        y = y * m
        pts.append(DataPoint(e=e, y=y, m=m))
    return pts


def batch_loss(points, params) -> float:
    E = np.stack([p.e for p in points])
    Y = np.stack([p.y for p in points])
    M = np.stack([p.m for p in points])
    pred = fc.forecast_batch(E, params)
    return float(fc.masked_batch_losses(pred, Y, M).mean())


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


def zoo_descend_one(e, objective, cfg, rng, basis=None) -> np.ndarray:
    """One step of the batched zoo kernel on a single embedding (B=1).

    Draws the step's k perturbations from `rng` with `unit_perturbations`
    and lifts the scalar `objective` to a batch; `cfg.steps` must be 1.
    """
    e = np.asarray(e, dtype=np.float64)
    U = ag.unit_perturbations(e.shape, cfg.k, rng, basis)[None, None]
    out, _ = ag.zoo_descend(e[None], lambda E: np.array([objective(x) for x in E]), U, cfg)
    return out[0]


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
