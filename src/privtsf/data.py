"""Core data model for sparse, irregularly sampled multivariate time series.

Raw observations arrive as (time, variable, value) triplets grouped into
episodes (one episode per patient stay). Episodes are binned into hourly
buckets where the first observation per hour and variable wins, standardized
per variable on training-split statistics, and cut into fixed-length
observation/forecast windows with binary observation masks. Unobserved cells
hold 0, which is the per-variable mean in standardized space.

All containers are immutable after construction: numpy payloads are marked
read-only, so windows and points can be shared freely across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

TRIPLET_HEADER = ("episode_id", "t_hours", "var_id", "value")
METRICS_HEADER = (
    "run_id",
    "method",
    "alpha_or_beta",
    "epoch",
    "mse_test",
    "mse_heldout",
    "tpr_at_tau",
    "fpr_at_tau",
    "priv_ratio",
    "auroc",
    "tau",
)
ROC_HEADER = ("threshold", "fpr", "tpr")

ORIGIN_ORIGINAL = "original"
ORIGIN_SYNTHETIC = "synthetic"


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(PipelineError):
    """Inconsistent dimensions or invalid configuration values."""


class ParseError(PipelineError):
    """Malformed input file content."""


class ValidationError(PipelineError):
    """Well-formed input that violates a domain invariant."""


class DomainError(PipelineError):
    """Operation applied outside its mathematical domain (empty set, empty mask)."""


class EvaluationError(PipelineError):
    """Model evaluation with non-finite parameters or inputs."""


class TrainingError(PipelineError):
    """Training aborted on a non-finite loss or gradient."""


def readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Return `a` as a contiguous read-only array (copies only if needed)."""
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Triplet:
    """One raw observation: variable `var_id` measured `t` hours after admission."""

    t: float
    var_id: int
    value: float


@dataclass
class Episode:
    """All observations of one stay; triplets are kept sorted by time."""

    episode_id: int
    triplets: tuple[Triplet, ...]
    length_hours: float

    def __post_init__(self) -> None:
        if self.length_hours <= 0:
            raise ValidationError(f"episode {self.episode_id}: non-positive length {self.length_hours}")
        self.triplets = tuple(sorted(self.triplets, key=lambda tr: tr.t))
        for tr in self.triplets:
            if tr.t < 0:
                raise ValidationError(f"episode {self.episode_id}: negative time {tr.t}")
            if tr.t > self.length_hours:
                raise ValidationError(
                    f"episode {self.episode_id}: observation at {tr.t}h beyond stay of {self.length_hours}h"
                )

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Time-sorted (t, var_id, value) arrays; ties keep input order."""
        t = readonly(np.array([tr.t for tr in self.triplets], dtype=np.float64))
        var = readonly(np.array([tr.var_id for tr in self.triplets], dtype=np.int64), dtype=np.int64)
        val = readonly(np.array([tr.value for tr in self.triplets], dtype=np.float64))
        return t, var, val


@dataclass
class Standardizer:
    """Per-variable z-scoring fitted on the training split only.

    Variables that are constant (or unseen) on the training split get std 1
    so standardization is always invertible.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = readonly(self.mean)
        self.std = readonly(self.std)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ConfigurationError("mean/std must be 1-d arrays of equal length")
        if not np.all(self.std > 0):
            raise ConfigurationError("standardizer std must be strictly positive")

    @property
    def n_vars(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def fit(cls, episodes: Iterable[Episode], n_vars: int) -> "Standardizer":
        sums = np.zeros(n_vars)
        sqsums = np.zeros(n_vars)
        counts = np.zeros(n_vars)
        for ep in episodes:
            _, var, val = ep.arrays
            if var.size and int(var.max()) >= n_vars:
                raise ValidationError(f"episode {ep.episode_id}: variable index {int(var.max())} >= {n_vars}")
            sums += np.bincount(var, weights=val, minlength=n_vars)
            sqsums += np.bincount(var, weights=val * val, minlength=n_vars)
            counts += np.bincount(var, minlength=n_vars)
        seen = counts > 0
        mean = np.zeros(n_vars)
        mean[seen] = sums[seen] / counts[seen]
        var_ = np.zeros(n_vars)
        var_[seen] = np.maximum(sqsums[seen] / counts[seen] - mean[seen] ** 2, 0.0)
        std = np.sqrt(var_)
        std[std < 1e-12] = 1.0
        return cls(mean=mean, std=std)

    @classmethod
    def identity(cls, n_vars: int) -> "Standardizer":
        return cls(mean=np.zeros(n_vars), std=np.ones(n_vars))

    def standardize(self, values: np.ndarray, var_ids: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean[var_ids]) / self.std[var_ids]

    def destandardize(self, values: np.ndarray, var_ids: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std[var_ids] + self.mean[var_ids]


@dataclass
class BinnedWindow:
    """One observation window plus its forecast target, both hourly binned.

    `values` is standardized and zero-imputed; wherever `mask_in` is 0 the
    value is exactly 0. `target`/`mask_out` follow the same convention over
    the forecast horizon.
    """

    values: np.ndarray  # (input_len, F)
    mask_in: np.ndarray  # (input_len, F) in {0, 1}
    target: np.ndarray  # (horizon, F)
    mask_out: np.ndarray  # (horizon, F) in {0, 1}
    window_start: int

    def __post_init__(self) -> None:
        self.values = readonly(self.values)
        self.mask_in = readonly(self.mask_in)
        self.target = readonly(self.target)
        self.mask_out = readonly(self.mask_out)
        if self.values.shape != self.mask_in.shape or self.target.shape != self.mask_out.shape:
            raise ConfigurationError("value/mask shape mismatch")
        if self.values.shape[1] != self.target.shape[1]:
            raise ConfigurationError("input and target variable counts differ")
        for m in (self.mask_in, self.mask_out):
            if not np.all((m == 0) | (m == 1)):
                raise ValidationError("mask entries must be 0 or 1")
        if np.any(self.values[self.mask_in == 0] != 0):
            raise ValidationError("unobserved input cells must hold 0")
        if np.any(self.target[self.mask_out == 0] != 0):
            raise ValidationError("unobserved target cells must hold 0")


@dataclass
class DataPoint:
    """Embedding, forecast target, and observation mask for one window.

    `origin` distinguishes points baked from real windows from generated ones;
    `created_epoch` is the augmentation round that produced a synthetic point
    (0 for originals). Arrays are read-only after construction.
    """

    e: np.ndarray  # (input_len, n)
    y: np.ndarray  # (horizon, F)
    m: np.ndarray  # (horizon, F) in {0, 1}
    origin: str = ORIGIN_ORIGINAL
    created_epoch: int = 0
    uid: str = ""

    def __post_init__(self) -> None:
        self.e = readonly(self.e)
        self.y = readonly(self.y)
        self.m = readonly(self.m)
        if self.origin not in (ORIGIN_ORIGINAL, ORIGIN_SYNTHETIC):
            raise ValidationError(f"unknown origin {self.origin!r}")
        if self.y.shape != self.m.shape:
            raise ConfigurationError("target/mask shape mismatch")
        if not np.all((self.m == 0) | (self.m == 1)):
            raise ValidationError("mask entries must be 0 or 1")


def stack_points(points: Sequence[DataPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack DataPoints into (E, Y, M) batch arrays."""
    if not points:
        raise DomainError("cannot stack an empty list of points")
    E = np.stack([p.e for p in points])
    Y = np.stack([p.y for p in points])
    M = np.stack([p.m for p in points])
    return E, Y, M


def _check_var_ids(ep: Episode, n_vars: int) -> None:
    _, var, _ = ep.arrays
    if var.size and int(var.max()) >= n_vars:
        raise ConfigurationError(
            f"episode {ep.episode_id} uses variable index {int(var.max())}, standardizer has {n_vars}"
        )


def _bin_range(ep: Episode, std: Standardizer, start: float, n_hours: int) -> tuple[np.ndarray, np.ndarray]:
    n_vars = std.n_vars
    values = np.zeros((n_hours, n_vars))
    mask = np.zeros((n_hours, n_vars))
    if n_hours == 0:
        return values, mask
    t, var, val = ep.arrays
    _check_var_ids(ep, n_vars)
    lo, hi = np.searchsorted(t, [start, start + n_hours], side="left")
    if lo == hi:
        return values, mask
    hours = np.floor(t[lo:hi] - start).astype(np.int64)
    key = hours * n_vars + var[lo:hi]
    # t-sorted input makes the first occurrence of each key the earliest observation
    _, first = np.unique(key, return_index=True)
    hsel = hours[first]
    vsel = var[lo:hi][first]
    values[hsel, vsel] = std.standardize(val[lo:hi][first], vsel)
    mask[hsel, vsel] = 1.0
    return values, mask


def bin_episode(
    ep: Episode,
    window_start: int,
    input_len: int,
    horizon: int,
    std: Standardizer,
) -> BinnedWindow:
    """Bin one window: first observation per hour/variable, standardized, zero-imputed.

    The observation block covers hours [window_start, window_start + input_len),
    the target block the following `horizon` hours.
    """
    if input_len <= 0 or horizon < 0 or window_start < 0:
        raise ConfigurationError("window_start/input_len/horizon must be non-negative (input_len > 0)")
    if window_start + input_len + horizon > ep.length_hours + 1e-9:
        raise ConfigurationError(
            f"window [{window_start}, {window_start + input_len + horizon}) exceeds stay of {ep.length_hours}h"
        )
    values, mask_in = _bin_range(ep, std, window_start, input_len)
    target, mask_out = _bin_range(ep, std, window_start + input_len, horizon)
    return BinnedWindow(values=values, mask_in=mask_in, target=target, mask_out=mask_out, window_start=window_start)


def sliding_windows(
    ep: Episode,
    stride: int = 4,
    input_len: int = 24,
    horizon: int = 24,
    max_start: int = 96,
) -> list[int]:
    """Window start offsets for one episode.

    Starts run over {0, stride, 2*stride, ...}, capped at `max_start`, and a
    start is admitted only if the full observation + forecast span fits inside
    the stay. Short stays yield an empty list.
    """
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    return [
        s
        for s in range(0, max_start + 1, stride)
        if s + input_len + horizon <= ep.length_hours + 1e-9
    ]


def split_by_episode(
    episodes: Sequence[Episode],
    fractions: Sequence[float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[set[int], set[int], set[int]]:
    """Partition episode ids into train/heldout/test sets.

    The split is at episode level so every window of an episode lands in
    exactly one set; deterministic for a fixed seed.
    """
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,) or np.any(fr < 0) or abs(float(fr.sum()) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must be 3 non-negative values summing to 1, got {fractions}")
    ids = sorted(ep.episode_id for ep in episodes)
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate episode ids")
    if not ids:
        return set(), set(), set()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_train = int(len(ids) * fr[0])
    n_held = int(len(ids) * fr[1])
    train = {ids[i] for i in perm[:n_train]}
    held = {ids[i] for i in perm[n_train : n_train + n_held]}
    test = {ids[i] for i in perm[n_train + n_held :]}
    return train, held, test


def build_windows(
    episodes: Iterable[Episode],
    std: Standardizer,
    stride: int = 4,
    input_len: int = 24,
    horizon: int = 24,
    max_start: int = 96,
    limit: int = 0,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, BinnedWindow]]:
    """Admissible (episode_id, window) pairs; windows with an empty target mask are dropped.

    With a positive `limit` below the number of such windows, only a random
    subset of `limit` of them, drawn from `rng` and kept in order, is binned.
    Every episode with an admissible start has its variable indices checked
    against the standardizer, whether or not one of its windows is kept.
    """
    if input_len <= 0 or horizon < 0:
        raise ConfigurationError("input_len must be positive and horizon non-negative")
    starts: list[tuple[Episode, int]] = []
    for ep in episodes:
        admissible = sliding_windows(ep, stride=stride, input_len=input_len, horizon=horizon, max_start=max_start)
        if not admissible:
            continue
        _check_var_ids(ep, std.n_vars)
        # a target block holds an observation exactly when its time range does
        target_start = np.asarray(admissible) + input_len
        lo = np.searchsorted(ep.arrays[0], target_start, side="left")
        hi = np.searchsorted(ep.arrays[0], target_start + horizon, side="left")
        starts.extend((ep, s) for s, a, b in zip(admissible, lo, hi) if a < b)
    if limit and len(starts) > limit:
        idx = np.sort(rng.choice(len(starts), size=limit, replace=False))
        starts = [starts[i] for i in idx]
    return [(ep.episode_id, bin_episode(ep, s, input_len, horizon, std)) for ep, s in starts]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_triplets(path: str, n_vars: int) -> list[Episode]:
    """Load episodes from a triplet CSV (header: episode_id,t_hours,var_id,value).

    Episode lengths are inferred as ceil(last observation time). Malformed
    rows raise ParseError and invariant violations ValidationError, both
    naming the offending line.
    """
    grouped: dict[int, list[Triplet]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if tuple(h.strip() for h in header) != TRIPLET_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(TRIPLET_HEADER)}, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                eid = int(row[0])
                t = float(row[1])
                var = int(row[2])
                val = float(row[3])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(t) and math.isfinite(val)):
                raise ParseError(f"{path}:{lineno}: non-finite value")
            if t < 0:
                raise ValidationError(f"{path}:{lineno}: negative time {t}")
            if not 0 <= var < n_vars:
                raise ValidationError(f"{path}:{lineno}: variable index {var} outside 0..{n_vars - 1}")
            grouped.setdefault(eid, []).append(Triplet(t, var, val))
    episodes = []
    for eid in sorted(grouped):
        trips = grouped[eid]
        length = max(math.ceil(max(tr.t for tr in trips)), 1)
        episodes.append(Episode(episode_id=eid, triplets=tuple(trips), length_hours=float(length)))
    return episodes


def write_triplets(episodes: Iterable[Episode], path: str) -> None:
    """Write episodes in the triplet CSV format (one observation per row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIPLET_HEADER)
        for ep in episodes:
            for tr in ep.triplets:
                writer.writerow([ep.episode_id, _fmt(tr.t), tr.var_id, _fmt(tr.value)])


def _fmt(x: float) -> str:
    # repr round-trips exactly through float(), including inf
    return repr(float(x))


@dataclass(frozen=True)
class MetricsRow:
    """One line of the metrics CSV; floats round-trip exactly."""

    run_id: str
    method: str
    alpha_or_beta: str
    epoch: int
    mse_test: float
    mse_heldout: float
    tpr_at_tau: float
    fpr_at_tau: float
    priv_ratio: float
    auroc: float
    tau: float

    def as_list(self) -> list[str]:
        return [
            self.run_id,
            self.method,
            self.alpha_or_beta,
            str(self.epoch),
            _fmt(self.mse_test),
            _fmt(self.mse_heldout),
            _fmt(self.tpr_at_tau),
            _fmt(self.fpr_at_tau),
            _fmt(self.priv_ratio),
            _fmt(self.auroc),
            _fmt(self.tau),
        ]


def write_report_csv(rows: Iterable[MetricsRow], path: str, append: bool = False) -> None:
    """Write (or extend) a metrics CSV with the documented schema."""
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not append or fh.tell() == 0:
            writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def read_metrics_csv(path: str) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return rows
        if tuple(header) != METRICS_HEADER:
            raise ParseError(f"{path}:1: unexpected metrics header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(METRICS_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(METRICS_HEADER)} fields")
            rows.append(
                MetricsRow(
                    run_id=row[0],
                    method=row[1],
                    alpha_or_beta=row[2],
                    epoch=int(row[3]),
                    mse_test=float(row[4]),
                    mse_heldout=float(row[5]),
                    tpr_at_tau=float(row[6]),
                    fpr_at_tau=float(row[7]),
                    priv_ratio=float(row[8]),
                    auroc=float(row[9]),
                    tau=float(row[10]),
                )
            )
    return rows


def write_roc_csv(points: Iterable[tuple[float, float, float]], path: str) -> None:
    """Write ROC points as threshold,fpr,tpr sorted by ascending threshold."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROC_HEADER)
        for thr, fpr, tpr in points:
            writer.writerow([_fmt(thr), _fmt(fpr), _fmt(tpr)])
