"""Core data model for sparse, irregularly sampled multivariate time series.

Raw observations arrive as (time, variable, value) triplets grouped into
episodes (one episode per patient stay). Episodes are binned into hourly
buckets where the first observation per hour and variable wins, standardized
per variable on training-split statistics, and cut into fixed-length
observation/forecast windows with bool observation masks. Unobserved cells
hold 0, which is the per-variable mean in standardized space.

All containers are immutable after construction: numpy payloads are marked
read-only, so windows and points can be shared freely across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

TRIPLET_HEADER = ("episode_id", "t_hours", "var_id", "value")
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


def _whole(col: np.ndarray) -> bool:
    """Whether every entry of `col` is an integer, or a float that is a whole number within the int64 range."""
    return col.dtype.kind in "biu" or (col.dtype.kind == "f" and np.all((col == np.trunc(col)) & (abs(col) < 2.0**63)))


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
        if not 0 < self.length_hours < np.inf:  # written so that NaN fails it
            raise ValidationError(f"episode {self.episode_id}: length {self.length_hours} is not positive and finite")
        t = np.asarray(self.t, dtype=np.float64)
        if not (t.ndim == 1 and np.shape(self.var_id) == t.shape == np.shape(self.value)):
            raise ConfigurationError(f"episode {self.episode_id}: t, var_id and value must be 1-d and of equal length")
        value, var = np.asarray(self.value, dtype=np.float64), np.asarray(self.var_id)
        if not (np.isfinite(t).all() and np.isfinite(value).all()):
            raise ValidationError(f"episode {self.episode_id}: non-finite time or value")
        if not (_whole(var) and np.all(var >= 0)):
            raise ValidationError(f"episode {self.episode_id}: variable indices must be non-negative whole numbers")
        order = np.argsort(t, kind="stable")
        self.t = readonly(t[order])
        self.var_id = readonly(var[order], dtype=np.int64)
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


def _freeze(obj, arrays: Sequence[str], masks: Sequence[str], columns: Sequence[str]) -> int:
    """Make a frozen set's float64 `arrays` and bool `masks` read-only and give each of its int64 `columns`
    one value per row.

    A mask of any other dtype must hold only 0 and 1, checked before it is
    cast, so 0.5 or NaN raises ValidationError rather than becoming True. A
    scalar column value applies to every row, and a float value must be a
    whole number. Returns the row count, the length of the first array.
    """
    for name in arrays:
        object.__setattr__(obj, name, readonly(getattr(obj, name)))
    for name in masks:
        m = np.asarray(getattr(obj, name))
        if m.dtype != bool and not np.all((m == 0) | (m == 1)):
            raise ValidationError("mask entries must be 0 or 1")
        object.__setattr__(obj, name, readonly(m, bool))
    n = len(getattr(obj, arrays[0]))
    for name in columns:
        col = np.asarray(getattr(obj, name))
        if not _whole(col):
            raise ConfigurationError(f"{name} column holds values that are not integers")
        if col.shape not in ((), (n,)):
            raise ConfigurationError(f"{name} column of shape {col.shape} for {n} rows")
        object.__setattr__(obj, name, readonly(np.broadcast_to(col, (n,)).copy(), np.int64))
    return n


@dataclass(frozen=True, eq=False)
class WindowSet:
    """N observation windows plus their forecast targets, hourly binned, with episode id and start columns.

    `values` is standardized and zero-imputed; wherever `mask_in` is False
    the value is exactly 0. `target`/`mask_out` follow the same convention
    over the forecast horizon. The masks are bool, one byte per cell; a mask
    of another dtype must hold only 0 and 1 and is copied to bool. The set is
    read as whole arrays; it has no rows. A caller's values or target that is
    already contiguous float64, or mask that is already contiguous bool, is
    kept without a copy and made read-only in place; any other is copied.
    """

    values: np.ndarray  # (N, input_len, F)
    mask_in: np.ndarray  # (N, input_len, F) bool
    target: np.ndarray  # (N, horizon, F)
    mask_out: np.ndarray  # (N, horizon, F) bool
    episode_id: np.ndarray | int = 0
    window_start: np.ndarray | int = 0

    def __post_init__(self) -> None:
        _freeze(self, ("values", "target"), ("mask_in", "mask_out"), ("episode_id", "window_start"))
        if self.values.ndim != 3 or self.values.shape != self.mask_in.shape or self.target.shape != self.mask_out.shape:
            raise ConfigurationError("value/mask shape mismatch")
        if self.target.ndim != 3 or self.values.shape[::2] != self.target.shape[::2]:
            raise ConfigurationError("input and target row or variable counts differ")
        if np.any((self.values != 0) & ~self.mask_in):
            raise ValidationError("unobserved input cells must hold 0")
        if np.any((self.target != 0) & ~self.mask_out):
            raise ValidationError("unobserved target cells must hold 0")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class DataPoint:
    """One point: a PointSet row, with the same provenance fields."""

    e: np.ndarray  # (input_len, n)
    y: np.ndarray  # (horizon, F)
    m: np.ndarray  # (horizon, F) bool
    episode_id: int = 0
    created_epoch: int = 0


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points as stacked read-only arrays, float64 E and Y and a bool mask M, plus two int64 provenance columns.

    `episode_id` is the stay the point's window came from (a synthetic point
    keeps its seed's, or its dominant input's); `created_epoch` is 0 for a
    point baked from a window and the augmentation round for a synthetic one.
    Indexing with a slice or an index array returns a PointSet without
    validating again, an int index returns that row as a DataPoint of views,
    and iteration yields the rows in order. As in WindowSet, M holds one byte
    per cell, a mask of another dtype must hold only 0 and 1 and is copied to
    bool, and a caller's E or Y that is already contiguous float64, or M that
    is already contiguous bool, is kept without a copy and made read-only in
    place; any other is copied.
    """

    E: np.ndarray  # (N, input_len, n)
    Y: np.ndarray  # (N, horizon, F)
    M: np.ndarray  # (N, horizon, F) bool
    episode_id: np.ndarray | int = 0
    created_epoch: np.ndarray | int = 0

    _ARRAYS = ("E", "Y", "M")
    _COLUMNS = ("episode_id", "created_epoch")

    def __post_init__(self) -> None:
        n = _freeze(self, ("E", "Y"), ("M",), self._COLUMNS)
        if self.E.ndim != 3 or self.Y.ndim != 3 or self.Y.shape != self.M.shape or len(self.Y) != n:
            raise ConfigurationError(f"point arrays of shapes {self.E.shape}, {self.Y.shape}, {self.M.shape}")

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


# holds no rows, so joining it with other point sets in a PointRows takes on their shape
NO_POINTS = PointSet(E=np.empty((0, 0, 0)), Y=np.empty((0, 0, 0)), M=np.empty((0, 0, 0), dtype=bool))


class PointRows:
    """Rows `index` of the rows of `parts` in order, copied a batch at a time: the one join of point sets.

    `rows[idx]`, for an index array or a slice, is a new PointSet of the
    stacked rows of every part at `index[idx]`, byte for byte, and `rows[:]`
    the whole selection; only those rows are copied, so the joined set is never
    held whole. The pool keeps its newest rows, training reads the retraining
    mixture, and an evaluation of several sets reads its chunks this way.
    With no rows in any part, rows take the first part's shape.
    """

    def __init__(self, parts: Sequence[PointSet], index: np.ndarray):
        self._parts = [p for p in parts if len(p)] or list(parts[:1])
        if len({(p.E.shape[1:], p.Y.shape[1:]) for p in self._parts}) > 1:
            raise ConfigurationError("cannot join point sets of different shapes")
        self._starts = np.cumsum([0] + [len(p) for p in self._parts])
        self._index = np.asarray(index, dtype=np.int64)
        if self._index.size and not (0 <= self._index.min() and self._index.max() < self._starts[-1]):
            raise ConfigurationError(f"row index outside the {self._starts[-1]} joined rows")

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, idx: np.ndarray) -> PointSet:
        at = self._index[idx]
        part = np.searchsorted(self._starts, at, side="right") - 1
        out = {}
        for name in (*PointSet._ARRAYS, *PointSet._COLUMNS):
            first = getattr(self._parts[0], name)
            arr = np.empty((len(at), *first.shape[1:]), dtype=first.dtype)
            for k, p in enumerate(self._parts):
                rows = part == k
                arr[rows] = getattr(p, name)[at[rows] - self._starts[k]]
            out[name] = arr
        return PointSet._trusted(out)


def _check_var_ids(ep: Episode, n_vars: int) -> None:
    if ep.var_id.size and int(ep.var_id.max()) >= n_vars:
        raise ConfigurationError(
            f"episode {ep.episode_id} uses variable index {int(ep.var_id.max())}, standardizer has {n_vars}"
        )


# windows binned per vectorized pass: one pass holds index arrays over about 100 observations per window
_BIN_CHUNK = 1024


def _bin_blocks(obs, lo, hi, start, std: Standardizer, values: np.ndarray, mask: np.ndarray) -> None:
    """Bin observations lo[i]:hi[i] of the flat (t, var_id, value) columns `obs`, in hours since start[i],
    into row i of the zeroed (rows, hours, F) `values` and `mask`."""
    t, var, val = obs
    counts = hi - lo
    row = np.repeat(np.arange(len(lo)), counts)
    at = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    hours = np.floor(t[at] - start[row]).astype(np.int64)
    # the flat index of each observation's cell; rows hold their observations in time order,
    # so the first occurrence of each cell is its earliest observation
    cell, first = np.unique((row * values.shape[1] + hours) * values.shape[2] + var[at], return_index=True)
    at = at[first]
    np.put(values, cell, std.standardize(val[at], var[at]))
    np.put(mask, cell, True)


def bin_windows(starts: Sequence[tuple[Episode, int]], input_len: int, horizon: int, std: Standardizer) -> WindowSet:
    """Bin each (episode, window start) into one WindowSet row.

    A row's observation block covers hours [start, start + input_len) of its
    episode, its target block the following `horizon` hours. The first
    observation per hour and variable wins; values are standardized and
    unobserved cells hold 0. Windows are binned in vectorized passes of
    _BIN_CHUNK rows, each over the observations of its own episodes only.
    """
    if input_len <= 0 or horizon < 0:
        raise ConfigurationError("input_len must be positive and horizon non-negative")
    episodes: dict[int, Episode] = {}
    for ep, s in starts:
        if s < 0 or s + input_len + horizon > ep.length_hours + 1e-9:
            raise ConfigurationError(f"window [{s}, {s + input_len + horizon}) outside stay of {ep.length_hours}h")
        if id(ep) not in episodes:
            _check_var_ids(ep, std.n_vars)
            episodes[id(ep)] = ep
    start = np.array([s for _, s in starts], dtype=np.float64)
    shape_in, shape_out = (len(starts), input_len, std.n_vars), (len(starts), horizon, std.n_vars)
    values, target = np.zeros(shape_in), np.zeros(shape_out)
    mask_in, mask_out = np.zeros(shape_in, dtype=bool), np.zeros(shape_out, dtype=bool)
    for a in range(0, len(starts), _BIN_CHUNK):
        rows, s = slice(a, a + _BIN_CHUNK), start[a : a + _BIN_CHUNK]
        rows_of: dict[int, list[int]] = {}  # the chunk's rows by episode, in order of first use
        for r, (ep, _) in enumerate(starts[rows]):
            rows_of.setdefault(id(ep), []).append(r)
        # each row's block bounds as indices into the chunk episodes' concatenated columns
        bounds = np.stack([s, s + input_len, s + input_len + horizon])
        index = np.empty(bounds.shape, dtype=np.int64)
        offset = 0
        for key, r in rows_of.items():
            index[:, r] = np.searchsorted(episodes[key].t, bounds[:, r], side="left") + offset
            offset += episodes[key].t.size
        obs = [np.concatenate([getattr(episodes[key], name) for key in rows_of]) for name in ("t", "var_id", "value")]
        lo, mid, hi = index
        _bin_blocks(obs, lo, mid, s, std, values[rows], mask_in[rows])
        _bin_blocks(obs, mid, hi, s + input_len, std, target[rows], mask_out[rows])
    ids, window_starts = [ep.episode_id for ep, _ in starts], [s for _, s in starts]
    return WindowSet(values, mask_in, target, mask_out, episode_id=ids, window_start=window_starts)


def _admissible(length_hours, span: int, stride: int, max_start: int) -> tuple[np.ndarray, np.ndarray]:
    """The start grid {0, stride, ..., <= max_start} and which of its starts fit a `span`-hour window in each stay.

    The mask has the shape of `length_hours` plus one trailing grid axis.
    """
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    grid = np.arange(0, max_start + 1, stride)
    return grid, grid + span <= np.asarray(length_hours, dtype=np.float64)[..., None] + 1e-9


def check_fractions(fractions: Sequence[float]) -> np.ndarray:
    """`fractions` as an array; ConfigurationError unless they are 3 finite non-negative values summing to 1."""
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,) or not np.all(np.isfinite(fr)) or np.any(fr < 0) or abs(float(fr.sum()) - 1.0) > 1e-9:
        raise ConfigurationError(f"split_fractions must be 3 finite non-negative values summing to 1, got {fractions}")
    return fr


def split_by_episode(
    episodes: Sequence[Episode],
    fractions: Sequence[float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[set[int], set[int], set[int]]:
    """Partition episode ids into train/heldout/test sets.

    The split is at episode level so every window of an episode lands in
    exactly one set; deterministic for a fixed seed.
    """
    fr = check_fractions(fractions)
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
    them, drawn from `rng` and kept in order, is binned; a positive `limit`
    needs an `rng`.
    Every episode with an admissible start has its variable indices checked
    against the standardizer, whether or not one of its windows is kept.
    """
    if input_len <= 0 or horizon < 0:
        raise ConfigurationError("input_len must be positive and horizon non-negative")
    if limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    if limit and rng is None:
        raise ConfigurationError(f"limit {limit} needs an rng to draw the kept windows")
    episodes = list(episodes)
    grid, fits = _admissible([ep.length_hours for ep in episodes], input_len + horizon, stride, max_start)
    starts: list[tuple[Episode, int]] = []
    for ep, admissible in zip(episodes, fits):
        if not admissible.any():
            continue
        _check_var_ids(ep, std.n_vars)
        # a target block holds an observation exactly when its time range does
        s = grid[admissible]
        lo, hi = np.searchsorted(ep.t, [s + input_len, s + input_len + horizon], side="left")
        starts.extend((ep, start) for start in s[lo < hi].tolist())
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable], append: bool = False) -> None:
    """Write `rows` under `header` as CSV with CRLF line ends, replacing the file unless `append`.

    The header goes into an empty file. A float cell, Python or numpy, is written as its repr,
    which round-trips exactly through float(), inf included; any other cell as csv writes it.
    """
    with open(path, "a" if append else "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row] for row in rows)


@dataclass(frozen=True)
class MetricsRow:
    """One line of the metrics CSV, whose header is these field names; floats round-trip exactly."""

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


METRICS_HEADER = tuple(f.name for f in fields(MetricsRow))


def write_report_csv(rows: Iterable[MetricsRow], path: str) -> None:
    """Append rows to a metrics CSV with the documented schema, starting an empty or new file with the header."""
    write_csv(path, METRICS_HEADER, map(astuple, rows), append=True)


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
    write_csv(path, ROC_HEADER, points)
