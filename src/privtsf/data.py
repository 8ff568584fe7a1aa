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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


@dataclass(eq=False)
class Episode:
    """All observations of one stay as read-only (t, var_id, value) columns.

    The columns are stable-sorted by time on construction, so observations
    at the same time keep their input order.
    """

    episode_id: int
    t: np.ndarray  # (K,) hours since admission
    var_id: np.ndarray  # (K,) variable indices
    value: np.ndarray  # (K,)
    length_hours: float

    def __post_init__(self) -> None:
        if self.length_hours <= 0:
            raise ValidationError(f"episode {self.episode_id}: non-positive length {self.length_hours}")
        t = np.asarray(self.t, dtype=np.float64)
        if not (t.ndim == 1 and np.shape(self.var_id) == t.shape == np.shape(self.value)):
            raise ConfigurationError(f"episode {self.episode_id}: t, var_id and value must be 1-d and of equal length")
        value = np.asarray(self.value, dtype=np.float64)
        if not (np.isfinite(t).all() and np.isfinite(value).all()):
            raise ValidationError(f"episode {self.episode_id}: non-finite time or value")
        order = np.argsort(t, kind="stable")
        self.t = readonly(t[order])
        self.var_id = readonly(np.asarray(self.var_id)[order], dtype=np.int64)
        self.value = readonly(value[order])
        if self.t.size and self.t[0] < 0:
            raise ValidationError(f"episode {self.episode_id}: negative time {self.t[0]}")
        if self.t.size and self.t[-1] > self.length_hours:
            beyond = self.t[self.t > self.length_hours][0]
            raise ValidationError(
                f"episode {self.episode_id}: observation at {beyond}h beyond stay of {self.length_hours}h"
            )


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
            var, val = ep.var_id, ep.value
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

    def standardize(self, values: np.ndarray, var_ids: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean[var_ids]) / self.std[var_ids]


def _freeze(obj, arrays: Sequence[str], columns: Sequence[str]) -> int:
    """Make a frozen set's `arrays` read-only and give each of its int64 `columns` one value per row.

    A scalar column value applies to every row, and a float value must be a
    whole number. Returns the row count, the length of the first array.
    """
    for name in arrays:
        object.__setattr__(obj, name, readonly(getattr(obj, name)))
    n = len(getattr(obj, arrays[0]))
    for name in columns:
        col = np.asarray(getattr(obj, name))
        whole = col.dtype.kind == "f" and np.all((col == np.trunc(col)) & (abs(col) < 2.0**63))
        if not (whole or col.dtype.kind in "biu"):
            raise ConfigurationError(f"{name} column holds values that are not integers")
        if col.shape not in ((), (n,)):
            raise ConfigurationError(f"{name} column of shape {col.shape} for {n} rows")
        object.__setattr__(obj, name, readonly(np.broadcast_to(col, (n,)).copy(), np.int64))
    return n


def _check_mask(m: np.ndarray) -> None:
    if not np.all((m == 0) | (m == 1)):
        raise ValidationError("mask entries must be 0 or 1")


@dataclass(frozen=True, eq=False)
class WindowSet:
    """N observation windows plus their forecast targets, hourly binned, with episode id and start columns.

    `values` is standardized and zero-imputed; wherever `mask_in` is 0 the
    value is exactly 0. `target`/`mask_out` follow the same convention over
    the forecast horizon. The set is read as whole arrays; it has no rows.
    """

    values: np.ndarray  # (N, input_len, F)
    mask_in: np.ndarray  # (N, input_len, F) in {0, 1}
    target: np.ndarray  # (N, horizon, F)
    mask_out: np.ndarray  # (N, horizon, F) in {0, 1}
    episode_id: np.ndarray | int = 0
    window_start: np.ndarray | int = 0

    def __post_init__(self) -> None:
        _freeze(self, ("values", "mask_in", "target", "mask_out"), ("episode_id", "window_start"))
        if self.values.ndim != 3 or self.values.shape != self.mask_in.shape or self.target.shape != self.mask_out.shape:
            raise ConfigurationError("value/mask shape mismatch")
        if self.target.ndim != 3 or self.values.shape[::2] != self.target.shape[::2]:
            raise ConfigurationError("input and target row or variable counts differ")
        _check_mask(self.mask_in)
        _check_mask(self.mask_out)
        if np.any(self.values[self.mask_in == 0] != 0):
            raise ValidationError("unobserved input cells must hold 0")
        if np.any(self.target[self.mask_out == 0] != 0):
            raise ValidationError("unobserved target cells must hold 0")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class DataPoint:
    """One point: a PointSet row, with the same provenance fields."""

    e: np.ndarray  # (input_len, n)
    y: np.ndarray  # (horizon, F)
    m: np.ndarray  # (horizon, F) in {0, 1}
    episode_id: int = 0
    created_epoch: int = 0


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points as stacked read-only arrays plus two int64 provenance columns.

    `episode_id` is the stay the point's window came from (a synthetic point
    keeps its seed's, or its dominant input's); `created_epoch` is 0 for a
    point baked from a window and the augmentation round for a synthetic one.
    Indexing with a slice or an index array returns a PointSet without
    validating again, an int index returns that row as a DataPoint of views,
    and iteration yields the rows in order.
    """

    E: np.ndarray  # (N, input_len, n)
    Y: np.ndarray  # (N, horizon, F)
    M: np.ndarray  # (N, horizon, F) in {0, 1}
    episode_id: np.ndarray | int = 0
    created_epoch: np.ndarray | int = 0

    _ARRAYS = ("E", "Y", "M")
    _COLUMNS = ("episode_id", "created_epoch")

    def __post_init__(self) -> None:
        n = _freeze(self, self._ARRAYS, self._COLUMNS)
        if self.E.ndim != 3 or self.Y.ndim != 3 or self.Y.shape != self.M.shape or len(self.Y) != n:
            raise ConfigurationError(f"point arrays of shapes {self.E.shape}, {self.Y.shape}, {self.M.shape}")
        _check_mask(self.M)

    def __len__(self) -> int:
        return len(self.E)

    def __getitem__(self, index):
        cut = {name: getattr(self, name)[index] for name in (*self._ARRAYS, *self._COLUMNS)}
        if isinstance(index, (int, np.integer)):
            return DataPoint(cut["E"], cut["Y"], cut["M"], int(cut["episode_id"]), int(cut["created_epoch"]))
        return self._trusted(cut)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def _trusted(cls, arrays: dict[str, np.ndarray]) -> "PointSet":
        """A set of arrays cut from validated ones, made read-only but not validated again."""
        out = object.__new__(cls)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out

    @staticmethod
    def concat(*parts: "PointSet") -> "PointSet":
        """The rows of every part in order; parts without rows are left out.

        A lone part with rows is returned as it is: point sets are read-only,
        so it needs no copy.
        """
        parts = [p for p in parts if len(p)] or parts[:1]
        if len(parts) == 1:
            return parts[0]
        if len({(p.E.shape[1:], p.Y.shape[1:]) for p in parts}) > 1:
            raise ConfigurationError("cannot concatenate point sets of different shapes")
        names = (*PointSet._ARRAYS, *PointSet._COLUMNS)
        return PointSet._trusted({name: np.concatenate([getattr(p, name) for p in parts]) for name in names})


# holds no rows, so concatenating it with other point sets takes on their shape
NO_POINTS = PointSet(E=np.empty((0, 0, 0)), Y=np.empty((0, 0, 0)), M=np.empty((0, 0, 0)))


def _check_var_ids(ep: Episode, n_vars: int) -> None:
    if ep.var_id.size and int(ep.var_id.max()) >= n_vars:
        raise ConfigurationError(
            f"episode {ep.episode_id} uses variable index {int(ep.var_id.max())}, standardizer has {n_vars}"
        )


def _bin_range(ep: Episode, std: Standardizer, start: float, values: np.ndarray, mask: np.ndarray) -> None:
    """Bin hours [start, start + len(values)) of `ep` into the zeroed `values` and `mask` rows."""
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


def bin_windows(starts: Sequence[tuple[Episode, int]], input_len: int, horizon: int, std: Standardizer) -> WindowSet:
    """Bin each (episode, window start) into one WindowSet row, in place.

    A row's observation block covers hours [start, start + input_len) of its
    episode, its target block the following `horizon` hours. The first
    observation per hour and variable wins; values are standardized and
    unobserved cells hold 0.
    """
    if input_len <= 0 or horizon < 0:
        raise ConfigurationError("input_len must be positive and horizon non-negative")
    shape_in, shape_out = (len(starts), input_len, std.n_vars), (len(starts), horizon, std.n_vars)
    values, mask_in, target, mask_out = np.zeros(shape_in), np.zeros(shape_in), np.zeros(shape_out), np.zeros(shape_out)
    for i, (ep, s) in enumerate(starts):
        if s < 0 or s + input_len + horizon > ep.length_hours + 1e-9:
            raise ConfigurationError(f"window [{s}, {s + input_len + horizon}) outside stay of {ep.length_hours}h")
        _check_var_ids(ep, std.n_vars)
        _bin_range(ep, std, s, values[i], mask_in[i])
        _bin_range(ep, std, s + input_len, target[i], mask_out[i])
    ids, window_starts = [ep.episode_id for ep, _ in starts], [s for _, s in starts]
    return WindowSet(values, mask_in, target, mask_out, episode_id=ids, window_start=window_starts)


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
) -> WindowSet:
    """Every admissible window of `episodes`, in order, binned into one WindowSet.

    Windows with an empty target mask are dropped. With a positive `limit`
    below the number of such windows, only a random subset of `limit` of
    them, drawn from `rng` and kept in order, is binned.
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
        lo = np.searchsorted(ep.t, target_start, side="left")
        hi = np.searchsorted(ep.t, target_start + horizon, side="left")
        starts.extend((ep, s) for s, a, b in zip(admissible, lo, hi) if a < b)
    if limit and len(starts) > limit:
        idx = np.sort(rng.choice(len(starts), size=limit, replace=False))
        starts = [starts[i] for i in idx]
    return bin_windows(starts, input_len, horizon, std)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


# one observation of the triplet CSV, as the loader holds it
_TRIPLET_ROW = np.dtype([("episode_id", np.int64), ("t", np.float64), ("var_id", np.int64), ("value", np.float64)])
# the bytes of a plain numeric triplet CSV body, on which numpy's and Python's number grammars agree
_PLAIN_BYTES = b"0123456789+-.,eEinfatyINFATY \t\r\n"


def _text_lines(path: str) -> Iterator[str]:
    """The file's lines with their ends, decoded one at a time.

    A line that is not UTF-8 raises ParseError naming it when a reader gets to
    it, so every fault in an earlier line is raised first.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)  # bytes split at \n, \r\n and \r only
    for lineno, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc


def load_triplets(path: str, n_vars: int) -> list[Episode]:
    """Load episodes from a triplet CSV (header: episode_id,t_hours,var_id,value).

    Episodes come back in ascending id. Each one's observations are
    stable-sorted by time, so ties keep file order, and its length is
    max(ceil(last observation time), 1). Malformed rows and bytes that are not
    UTF-8 raise ParseError, invariant violations ValidationError, each naming a line.
    """
    try:
        rows = _parse_plain(path)
    except ValueError:  # not plain numeric CSV, or not UTF-8
        rows = None
    # anything the vectorized pass cannot take is parsed again line by line, which raises at the first bad line
    if rows is None or not np.all(
        np.isfinite(rows["t"]) & np.isfinite(rows["value"]) & (rows["t"] >= 0)
        & (rows["var_id"] >= 0) & (rows["var_id"] < n_vars)
    ):
        rows = _parse_rows(path, n_vars)
    if rows.size == 0:
        return []
    rows = rows[np.argsort(rows["episode_id"], kind="stable")]
    eid = rows["episode_id"]
    starts = np.flatnonzero(np.r_[True, eid[1:] != eid[:-1]])
    ends = np.r_[starts[1:], eid.size]
    lengths = np.maximum(np.ceil(np.maximum.reduceat(rows["t"], starts)), 1.0)
    return [
        Episode(int(eid[a]), rows["t"][a:b], rows["var_id"][a:b], rows["value"][a:b], float(length))
        for a, b, length in zip(starts, ends, lengths)
    ]


def _parse_plain(path: str) -> np.ndarray:
    """Rows of a triplet CSV in one vectorized pass; ValueError unless it is plain numeric CSV.

    The body is checked in chunks, then numpy reads it from the open file, so
    no copy of the whole text is held at once.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if not _is_triplet_header(next(csv.reader([fh.readline()]), None)):
            raise ValueError("not a triplet header")
        start, blank = fh.tell(), True
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if chunk.encode("ascii").translate(None, _PLAIN_BYTES):
                raise ValueError("characters outside the plain numeric alphabet")
            blank = blank and not chunk.strip("\r\n")
        if blank:
            return np.empty(0, dtype=_TRIPLET_ROW)
        fh.seek(start)
        return np.loadtxt(fh, dtype=_TRIPLET_ROW, delimiter=",", comments=None, ndmin=1)


def _parse_rows(path: str, n_vars: int) -> np.ndarray:
    """Rows of a triplet CSV parsed line by line; raises on the first bad line, naming it."""
    rows = []
    reader = csv.reader(_text_lines(path))
    header = next(reader, None)
    if header is not None and not _is_triplet_header(header):
        raise ParseError(f"{path}:1: expected header {','.join(TRIPLET_HEADER)}, got {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        try:
            eid, t, var, val = int(row[0]), float(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(val)):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        if t < 0:
            raise ValidationError(f"{path}:{lineno}: negative time {t}")
        if not 0 <= var < n_vars:
            raise ValidationError(f"{path}:{lineno}: variable index {var} outside 0..{n_vars - 1}")
        if not -(2**63) <= eid < 2**63:
            raise ParseError(f"{path}:{lineno}: episode id {eid} outside the 64-bit range")
        rows.append((eid, t, var, val))
    return np.array(rows, dtype=_TRIPLET_ROW)


def _is_triplet_header(header: list[str] | None) -> bool:
    return header is not None and tuple(h.strip() for h in header) == TRIPLET_HEADER


def write_triplets(episodes: Iterable[Episode], path: str) -> None:
    """Write episodes in the triplet CSV format (one observation per row, CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRIPLET_HEADER) + "\r\n")
        for ep in episodes:
            # floats by repr, which round-trips exactly through float()
            row = f"{ep.episode_id},{{!r}},{{}},{{!r}}\r\n".format
            fh.writelines(map(row, ep.t.tolist(), ep.var_id.tolist(), ep.value.tolist()))


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
        fields = [getattr(self, name) for name in METRICS_HEADER]
        return [*fields[:3], str(self.epoch), *map(_fmt, fields[4:])]


def write_report_csv(rows: Iterable[MetricsRow], path: str) -> None:
    """Append rows to a metrics CSV with the documented schema, starting an empty or new file with the header."""
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def read_metrics_csv(path: str) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    reader = csv.reader(_text_lines(path))
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
        try:
            rows.append(MetricsRow(*row[:3], int(row[3]), *map(float, row[4:])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_roc_csv(points: Iterable[tuple[float, float, float]], path: str) -> None:
    """Write ROC points as threshold,fpr,tpr sorted by ascending threshold."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROC_HEADER)
        for thr, fpr, tpr in points:
            writer.writerow([_fmt(thr), _fmt(fpr), _fmt(tpr)])
