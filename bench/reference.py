"""Reference computations the benchmark checks the program against.

Everything here is written from the model and metric definitions in the
package docstrings and the README, not from the package code: the forward
pass, the masked MSE, the loss-threshold attack rates, the Mann-Whitney
AUROC and the acceptance gate. Only numpy is used; no function here calls
into privtsf, so a fault in the program cannot hide itself by also being
in its own oracle.

A failed check raises CheckFailed with a message that names what differed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with its reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Forecaster and losses
# ---------------------------------------------------------------------------


def reference_forecast(E: np.ndarray, p: dict[str, np.ndarray], horizon: int) -> np.ndarray:
    """Forecast (B, horizon, F) from embeddings E (B, input_hours, n).

    Per window: pool the embedded rows with the per-hour weights `pos`, form
    the context state s0 = tanh(W_hidden pooled + b_hidden), then unroll
    s_t = tanh(W_state s_{t-1} + W_feedback y_{t-1} + b_state) and
    y_t = W_out s_t + b_out for t = 1..horizon, starting from y_0 = 0.
    """
    E = np.asarray(E, dtype=np.float64)
    pooled = (E * p["pos"][None, :, None]).sum(axis=1)
    s = np.tanh(pooled @ p["w_hidden"].T + p["b_hidden"])
    y = np.zeros((E.shape[0], p["w_out"].shape[0]))
    out = np.empty((E.shape[0], horizon, y.shape[1]))
    for t in range(horizon):
        s = np.tanh(s @ p["w_state"].T + y @ p["w_feedback"].T + p["b_state"])
        y = s @ p["w_out"].T + p["b_out"]
        out[:, t] = y
    return out


def masked_mse(pred: np.ndarray, Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Per-window mean squared error over observed target cells only."""
    sq = (pred - Y) ** 2 * M
    return sq.reshape(sq.shape[0], -1).sum(axis=1) / M.reshape(M.shape[0], -1).sum(axis=1)


def reference_losses(E, Y, M, p: dict[str, np.ndarray], horizon: int) -> np.ndarray:
    return masked_mse(reference_forecast(E, p, horizon), Y, M)


def compare_losses(program: np.ndarray, reference: np.ndarray, what: str, rtol: float = 1e-9) -> None:
    program = np.asarray(program, dtype=np.float64)
    require(program.shape == reference.shape, f"{what}: {program.shape[0]} losses, expected {reference.shape[0]}")
    worst = float(np.max(np.abs(program - reference) / np.maximum(np.abs(reference), 1e-300)))
    require(worst <= rtol, f"{what}: per-window loss differs from the reference by {worst:.3e} relative")


# ---------------------------------------------------------------------------
# The loss-threshold attack
# ---------------------------------------------------------------------------


def rate_bounds(losses: np.ndarray, tau: float, rtol: float) -> tuple[float, float]:
    """Share of losses strictly below tau, with losses within rtol of tau counted both ways."""
    band = abs(tau) * rtol
    return float((losses < tau - band).mean()), float((losses < tau + band).mean())


def privacy_ratio(tpr: float, fpr: float) -> float:
    """TPR/FPR; zero FPR gives 1.0 with zero TPR and +inf otherwise."""
    if fpr == 0.0:
        return 1.0 if tpr == 0.0 else math.inf
    return tpr / fpr


def mann_whitney_auroc(members: np.ndarray, nonmembers: np.ndarray) -> float:
    """P(member loss < non-member loss) + 1/2 P(tie), by counting all pairs."""
    members = np.asarray(members, dtype=np.float64)
    nonmembers = np.sort(np.asarray(nonmembers, dtype=np.float64))
    above = len(nonmembers) - np.searchsorted(nonmembers, members, side="right")
    ties = np.searchsorted(nonmembers, members, side="right") - np.searchsorted(nonmembers, members, side="left")
    return float((above.sum() + 0.5 * ties.sum()) / (len(members) * len(nonmembers)))


def check_attack_row(row, members: np.ndarray, nonmembers: np.ndarray, what: str, tau: float | None = None,
                     rtol: float = 1e-9) -> None:
    """Check a metrics row's tau, TPR, FPR, privacy ratio and AUROC against reference losses.

    `tau`, when given, is the reference threshold the row's tau must equal;
    otherwise the row's own tau is used for the rates.
    """
    if tau is not None:
        require(abs(row.tau - tau) <= rtol * abs(tau), f"{what}: tau {row.tau!r}, reference {tau!r}")
    lo, hi = rate_bounds(members, row.tau, rtol)
    require(lo <= row.tpr_at_tau <= hi, f"{what}: tpr_at_tau {row.tpr_at_tau!r}, reference in [{lo}, {hi}]")
    lo, hi = rate_bounds(nonmembers, row.tau, rtol)
    require(lo <= row.fpr_at_tau <= hi, f"{what}: fpr_at_tau {row.fpr_at_tau!r}, reference in [{lo}, {hi}]")
    expected = privacy_ratio(row.tpr_at_tau, row.fpr_at_tau)
    require(
        expected == row.priv_ratio or abs(expected - row.priv_ratio) <= rtol * abs(expected),
        f"{what}: priv_ratio {row.priv_ratio!r}, TPR/FPR gives {expected!r}",
    )
    area = mann_whitney_auroc(members, nonmembers)
    require(abs(row.auroc - area) <= 1e-9, f"{what}: auroc {row.auroc!r}, Mann-Whitney gives {area!r}")


# ---------------------------------------------------------------------------
# The acceptance gate
# ---------------------------------------------------------------------------


def replay_gate(rows, eps_priv: float = 0.005, eps_mse: float = 0.005, beta: float = 3.0) -> list[bool]:
    """Accepted flag per row under the README's three inequalities.

    Row 0 seeds the bests and counts as accepted. A later row is accepted
    when, against the bests so far, priv <= (1 + eps_priv) priv_best,
    mse_heldout <= (1 + eps_mse) mse_best and
    priv + beta mse_heldout <= priv_best + beta mse_best; the bests then move
    to it. Non-finite rows are rejected.
    """
    priv_best, mse_best = rows[0].priv_ratio, rows[0].mse_heldout
    flags = [True]
    for row in rows[1:]:
        p, m = row.priv_ratio, row.mse_heldout
        ok = (
            math.isfinite(p)
            and math.isfinite(m)
            and p <= (1.0 + eps_priv) * priv_best
            and m <= (1.0 + eps_mse) * mse_best
            and p + beta * m <= priv_best + beta * mse_best
        )
        if ok:
            priv_best, mse_best = p, m
        flags.append(ok)
    return flags


def check_gated_run(rows, accepted: list[bool], final_epoch: int, rounds: int, what: str, **gate) -> None:
    """Rows 0..rounds in epoch order, and the logged accepted flags and final epoch match the replay."""
    require(len(rows) == rounds + 1, f"{what}: {len(rows)} rows, expected {rounds + 1}")
    require([r.epoch for r in rows] == list(range(rounds + 1)), f"{what}: epochs {[r.epoch for r in rows]}")
    flags = replay_gate(rows, **gate)
    require(list(accepted) == flags, f"{what}: accepted flags {list(accepted)}, gate replay gives {flags}")
    last = max(i for i, ok in enumerate(flags) if ok)
    require(final_epoch == last, f"{what}: final epoch {final_epoch}, gate replay gives {last}")


# ---------------------------------------------------------------------------
# Gradients, clipping and subspaces
# ---------------------------------------------------------------------------


def directional_fd(loss, p: dict[str, np.ndarray], direction: dict[str, np.ndarray], step: float) -> float:
    """Central difference of loss(p) along `direction`."""
    plus = {k: v + step * direction[k] for k, v in p.items()}
    minus = {k: v - step * direction[k] for k, v in p.items()}
    return (loss(plus) - loss(minus)) / (2.0 * step)


def global_norms(grads: dict[str, np.ndarray]) -> np.ndarray:
    """Per-sample L2 norm over all parameter groups (leading batch axis)."""
    B = next(iter(grads.values())).shape[0]
    return np.sqrt(sum((g.reshape(B, -1) ** 2).sum(axis=1) for g in grads.values()))


def check_clipping(raw: dict[str, np.ndarray], clipped: dict[str, np.ndarray], clip_norm: float, what: str) -> None:
    """No clipped norm exceeds clip_norm; samples already within it are untouched."""
    before = global_norms(raw)
    after = global_norms(clipped)
    require(bool(np.all(after <= clip_norm * (1 + 1e-12))), f"{what}: clipped norm {after.max()!r} > {clip_norm}")
    small = before <= clip_norm
    for k in raw:
        require(bool(np.array_equal(raw[k][small], clipped[k][small])), f"{what}: {k} changed on a sample within the norm")
    require(bool(small.any() and (~small).any()), f"{what}: the batch must hold samples on both sides of the norm")


def span_residual(moves: np.ndarray, components: np.ndarray) -> float:
    """Largest share of a move's norm that lies outside the row span of `components`."""
    Q, _ = np.linalg.qr(components.T)
    flat = moves.reshape(moves.shape[0], -1)
    outside = flat - (flat @ Q) @ Q.T
    norms = np.linalg.norm(flat, axis=1)
    require(bool(np.all(norms > 0)), "zoo-pca wave: a synthetic point did not move from its seed")
    return float(np.max(np.linalg.norm(outside, axis=1) / norms))
