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
import numpy as np

from .data import DomainError, PointSet, readonly
from .forecaster import ForecasterParams, forecast_batch, masked_batch_losses


def dataset_losses(points: PointSet, params: ForecasterParams) -> np.ndarray:
    """Per-sample masked MSE for every point, batched."""
    if len(points) == 0:
        raise DomainError("empty dataset")
    return masked_batch_losses(forecast_batch(points.E, params), points.Y, points.M)


def mse_set(points: PointSet, params: ForecasterParams) -> float:
    """Unweighted mean of per-sample masked MSE over a dataset."""
    return float(dataset_losses(points, params).mean())


@dataclass
class LossTable:
    """Per-sample losses keyed by sample id, labelled member or non-member."""

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


def point_ids(points: PointSet) -> tuple[str, ...]:
    """Each point's uid, or its position for a point without one."""
    return tuple(uid or str(i) for i, uid in enumerate(points.uid))


def loss_table(points: PointSet, params: ForecasterParams, label: str) -> LossTable:
    return LossTable(ids=point_ids(points), losses=dataset_losses(points, params), label=label)


def tpr_fpr(members: LossTable, nonmembers: LossTable, tau: float) -> tuple[float, float]:
    """Fractions of member and non-member losses strictly below tau."""
    if len(members) == 0 or len(nonmembers) == 0:
        raise DomainError("member and non-member tables must be nonempty")
    tpr = float((members.losses < tau).mean())
    fpr = float((nonmembers.losses < tau).mean())
    return tpr, fpr


def priv(members: LossTable, nonmembers: LossTable, tau: float) -> float:
    """TPR/FPR ratio at tau.

    A zero FPR with zero TPR reports 1.0 (the attack is exactly random
    guessing); a zero FPR with positive TPR reports +inf, serialized as
    `inf` in CSV output.
    """
    tpr, fpr = tpr_fpr(members, nonmembers, tau)
    if fpr == 0.0:
        return 1.0 if tpr == 0.0 else math.inf
    return tpr / fpr


def roc_points(members: LossTable, nonmembers: LossTable) -> np.ndarray:
    """Exact empirical ROC: one point per observed loss value plus -inf/+inf ends.

    Returns an array of (threshold, fpr, tpr) rows in ascending threshold
    order; both rates are non-decreasing in the threshold.
    """
    if len(members) == 0 or len(nonmembers) == 0:
        raise DomainError("member and non-member tables must be nonempty")
    thresholds = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([members.losses, nonmembers.losses])), [np.inf]]
    )
    m_sorted = np.sort(members.losses)
    n_sorted = np.sort(nonmembers.losses)
    tpr = np.searchsorted(m_sorted, thresholds, side="left") / len(members)
    fpr = np.searchsorted(n_sorted, thresholds, side="left") / len(nonmembers)
    return np.column_stack([thresholds, fpr, tpr])


def auroc_from_points(points: np.ndarray) -> float:
    """Trapezoidal area under a (threshold, fpr, tpr) curve."""
    return float(np.trapezoid(points[:, 2], points[:, 1]))


def roc_curve(members: LossTable, nonmembers: LossTable) -> tuple[np.ndarray, float]:
    pts = roc_points(members, nonmembers)
    return pts, auroc_from_points(pts)


@dataclass
class AttackReport:
    """Threshold attack summary for one model/dataset pair."""

    tau: float
    tpr: float
    fpr: float
    priv: float
    roc: np.ndarray  # (K, 3) threshold/fpr/tpr rows
    auroc: float


def attack_report(members: LossTable, nonmembers: LossTable, tau: float) -> AttackReport:
    """Assemble TPR/FPR/Priv at tau plus the full swept ROC and its area."""
    tpr, fpr = tpr_fpr(members, nonmembers, tau)
    pts, area = roc_curve(members, nonmembers)
    return AttackReport(
        tau=tau,
        tpr=tpr,
        fpr=fpr,
        priv=priv(members, nonmembers, tau),
        roc=pts,
        auroc=area,
    )
