"""Masked losses and the loss-thresholding membership attack.

The attack calls a sample a training-set member when the model's masked MSE
on it falls strictly below a threshold tau, conventionally the average loss
on a reference set. Its strength is summarized by the ratio of true-positive
to false-positive rate at tau: 1.0 means the attacker does no better than
random guessing. Sweeping tau over every observed loss yields the exact
empirical ROC curve and its area.

Everything here is a pure function over immutable inputs; evaluation is safe
to run in parallel across models and datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DomainError, PointRows, PointSet, readonly
from .forecaster import ForecasterParams, forecast_batch, masked_batch_losses


# rows per forecast call of an evaluation: chunks of EVAL_CHUNK rows, the last one taking the remainder
EVAL_CHUNK = 512


def chunked_losses(
    forecast: Callable[[np.ndarray, ForecasterParams], np.ndarray],
    params: ForecasterParams,
    rows: PointSet | PointRows,
) -> np.ndarray:
    """Per-row masked MSE over `rows`, forecasting `rows[a:b]` one chunk at a time.

    `forecast(E, params)` forecasts each chunk. Evaluation passes this
    module's `forecast_batch` and the zoo objective passes augment's, so
    wrapping one module's name sees only its own callers' forecasts. Chunks
    hold EVAL_CHUNK rows and the last one the remainder too, so a call has at
    least EVAL_CHUNK and under 2 * EVAL_CHUNK rows, and an evaluation of
    fewer rows is one call. A PointSet chunk is read in place; a PointRows
    chunk copies only its own rows.
    """
    n = len(rows)
    bounds = list(range(0, n, EVAL_CHUNK))[: max(1, n // EVAL_CHUNK)] + [n]
    out = np.empty(n)
    for a, b in zip(bounds, bounds[1:]):
        chunk = rows[a:b]
        out[a:b] = masked_batch_losses(forecast(chunk.E, params), chunk.Y, chunk.M)
    return out


def dataset_losses(points: PointSet, params: ForecasterParams, *more: PointSet) -> np.ndarray:
    """Per-sample masked MSE for every point, then for every point of each of `more`, as one evaluation.

    Sets with rows are joined through one PointRows; a set alone is read in place and copies no rows."""
    if len(points) == 0:
        raise DomainError("empty dataset")
    parts = (points, *more)
    total = sum(map(len, parts))
    rows = points if total == len(points) else PointRows(parts, np.arange(total))
    return chunked_losses(forecast_batch, params, rows)


def mse_set(points: PointSet, params: ForecasterParams, *more: PointSet) -> float:
    """Unweighted mean of per-sample masked MSE over a dataset and each of `more`."""
    return float(dataset_losses(points, params, *more).mean())


@dataclass
class LossTable:
    """Per-sample losses keyed by sample id, labelled member or non-member.

    The program passes plain loss arrays to `attack_report`; a table reads as
    its loss array there, so a caller that keeps ids with its losses can pass
    the table instead.
    """

    ids: tuple[str, ...]
    losses: np.ndarray
    label: str

    def __post_init__(self) -> None:
        self.losses = readonly(self.losses)
        if self.losses.ndim != 1 or len(self.ids) != self.losses.shape[0]:
            raise DomainError("ids and losses must align")
        if self.losses.size and (not np.all(np.isfinite(self.losses)) or np.any(self.losses < 0)):
            raise DomainError("losses must be finite and non-negative")

    def __len__(self) -> int:
        return self.losses.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.losses, dtype=dtype, copy=copy)


@dataclass
class AttackReport:
    """Threshold attack summary for one model/dataset pair."""

    tau: float
    tpr: float
    fpr: float
    priv: float
    roc: np.ndarray  # (K, 3) threshold/fpr/tpr rows
    auroc: float


def attack_report(member_losses: np.ndarray, nonmember_losses: np.ndarray, tau: float) -> AttackReport:
    """The attack at tau plus the full swept ROC and its area: the one path from losses to rates.

    TPR and FPR are the fractions of member and non-member losses strictly
    below tau. Priv is TPR/FPR; a zero FPR with zero TPR reports 1.0 (the
    attack is exactly random guessing), a zero FPR with positive TPR +inf,
    serialized as `inf` in CSV output. The exact empirical ROC has one
    (threshold, fpr, tpr) row per observed loss value plus -inf/+inf ends, in
    ascending threshold order, so both rates are non-decreasing; the AUROC is
    its trapezoidal area.
    """
    members, nonmembers = (np.asarray(x, dtype=np.float64) for x in (member_losses, nonmember_losses))
    for losses in (members, nonmembers):
        if losses.ndim != 1 or losses.size == 0:
            raise DomainError("member and non-member losses must be nonempty 1-d arrays")
        if not np.all(np.isfinite(losses)) or np.any(losses < 0):
            raise DomainError("losses must be finite and non-negative")
    tpr = float((members < tau).mean())
    fpr = float((nonmembers < tau).mean())
    if fpr == 0.0:
        ratio = 1.0 if tpr == 0.0 else math.inf
    else:
        ratio = tpr / fpr
    thresholds = np.concatenate([[-np.inf], np.unique(np.concatenate([members, nonmembers])), [np.inf]])
    roc = np.column_stack(
        [
            thresholds,
            np.searchsorted(np.sort(nonmembers), thresholds, side="left") / len(nonmembers),
            np.searchsorted(np.sort(members), thresholds, side="left") / len(members),
        ]
    )
    return AttackReport(tau=tau, tpr=tpr, fpr=fpr, priv=ratio, roc=roc, auroc=float(np.trapezoid(roc[:, 2], roc[:, 1])))
