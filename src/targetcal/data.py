"""Data model, balance-function construction, target moments, and balance
and overlap diagnostics shared by every estimator.

All container types are immutable after construction (arrays are marked
read-only), so they can be shared freely across concurrent replicate workers.
"""

from __future__ import annotations

import codecs
import copy
import csv
import itertools
import logging
import math
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    EmptyArmError,
    EmptyTargetError,
    ModeError,
    NonFiniteError,
    OutOfRangeError,
    RankDeficientError,
    SchemaError,
    TargetcalError,
    ZeroVarianceError,
)

log = logging.getLogger("targetcal")

# Relative singular-value cutoff below which balance columns are declared
# collinear.
RANK_TOL = 1e-10

# Rows handled at a time by CSV ingest and score export, so that no
# per-field Python object is held for the whole sample.
BLOCK_ROWS = 8192

# The sizes from which the CLI's text I/O shares its work with a forked child
# process on a host with a second CPU (see second_cpu): bytes of CSV body,
# of which the child reads the second half, and units, whose scores.csv the
# child writes. Below them the fork costs about what it saves.
FORK_BYTES = 1 << 20
FORK_ROWS = 10_000

# Bytes read at a time where a CSV body is scanned for its split point.
BLOCK_BYTES = 1 << 20


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


MODES = ("fusion", "transport")


@dataclass(frozen=True)
class Dataset:
    """Per-unit sample indicator, treatment, outcome, and covariates.

    ``mode`` is the one observation rule: in fusion mode z and y are
    observed for every unit; in transport mode only for the study sample
    (s = 1), and the target sample's z and y are stored as NaN.
    """

    s: np.ndarray
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray
    mode: str = "fusion"

    def __post_init__(self):
        s = np.asarray(self.s)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatchError("covariate matrix must be two-dimensional")
        n = x.shape[0]
        if n < 2:
            raise ModeError("need at least two units")
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        for name, arr in (("s", s), ("z", z), ("y", y)):
            if arr.shape != (n,):
                raise DimensionMismatchError(f"{name} must have length {n}")
        if self.mode not in MODES:
            raise ModeError(f"unknown mode '{self.mode}'")
        # Tested before the cast, which would truncate 0.9 to 0 and 257 to 1.
        if not ((s == 0) | (s == 1)).all():
            raise ModeError("s must be binary")
        s = s.astype(np.int8, copy=False)
        if s.min() == s.max():
            raise ModeError("both a study sample (s=1) and a target sample (s=0) are required")
        if not np.isfinite(x).all():
            raise NonFiniteError("covariates contain NaN or infinity")
        study = s == 1
        if np.isnan(z[study]).any() or np.isnan(y[study]).any():
            raise ModeError("z and y must be observed for every study-sample unit")
        if self.mode == "transport":
            z = np.where(study, z, np.nan)
            y = np.where(study, y, np.nan)
        seen = study if self.mode == "transport" else slice(None)
        z_seen = z[seen]
        if not ((z_seen == 0.0) | (z_seen == 1.0)).all():
            raise ModeError("observed z must be binary")
        if not np.isfinite(y[seen]).all():
            raise NonFiniteError("observed y contains NaN or infinity")
        for arm in (0.0, 1.0):
            if not np.any(z[study] == arm):
                raise ModeError(f"study sample has no units with z={int(arm)}")
        object.__setattr__(self, "s", _freeze(s))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "x", _freeze(x))

    @classmethod
    def fusion(cls, s, z, y, x) -> "Dataset":
        """Build a fusion-mode dataset (z and y observed everywhere)."""
        return cls(s, z, y, x, mode="fusion")

    @classmethod
    def transport(cls, s, z, y, x) -> "Dataset":
        """Build a transport-mode dataset; target-sample z and y are dropped."""
        return cls(s, z, y, x, mode="transport")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_study(self) -> int:
        return int(self.s.sum())

    @property
    def n_target(self) -> int:
        return self.n - self.n_study

    def to_transport(self) -> "Dataset":
        """Return a view of the data with target-sample z and y masked out."""
        return Dataset.transport(self.s, self.z, self.y, self.x)

    def observed(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Treatment and outcome for the units selected by ``mask``; all must
        be observed."""
        if self.mode == "transport" and not self.s[mask].all():
            raise ModeError("requested z values include unobserved entries")
        return self.z[mask], self.y[mask]


def _transform_registry() -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    return {
        "identity": lambda v: v,
        "square": lambda v: v ** 2,
        "log": np.log,
        "abs": np.abs,
    }


@dataclass(frozen=True)
class BalanceSpec:
    """Ordered column transformations that generate the balance functions.

    Each entry is ``(output_name, op, column_index)`` with ``op`` drawn from
    a small named registry. The leading intercept column is always added and
    is not listed here.
    """

    entries: tuple = ()

    @classmethod
    def identity(cls, d: int, names: Sequence[str] | None = None) -> "BalanceSpec":
        names = list(names) if names is not None else [f"x{j + 1}" for j in range(d)]
        return cls(entries=tuple((names[j], "identity", j) for j in range(d)))

    def column_names(self) -> list[str]:
        return ["intercept"] + [name for name, _, _ in self.entries]


@dataclass(frozen=True)
class BalanceMatrix:
    """n x m matrix of balance-function evaluations, intercept first."""

    c: np.ndarray
    names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c", _freeze(np.asarray(self.c, dtype=float)))

    @property
    def m(self) -> int:
        return self.c.shape[1]

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def full_rank(self) -> None:
        """Raise the RankDeficientError of the whole matrix, if it has one.
        The matrix is checked once (see ``remember``), on the first call,
        which build_balance_matrix makes."""
        remember(self.__dict__, "_rank", lambda: check_full_rank(self.c, "balance matrix"))


def remember(memo: dict, key, compute: Callable):
    """The value of ``compute()``, computed once per ``key`` of ``memo``. A
    TargetcalError it raises is stored instead, and every later call raises a
    fresh copy. The stored copy has no traceback: its frames hold the memo's
    owner, and the cycle would keep it alive until the garbage collector runs.
    """
    if key not in memo:
        try:
            memo[key] = compute()
        except TargetcalError as exc:
            memo[key] = copy.copy(exc)
            raise
    value = memo[key]
    if isinstance(value, TargetcalError):
        raise copy.copy(value)
    return value


def check_full_rank(mat: np.ndarray, what: str = "matrix") -> None:
    """Raise RankDeficientError if standardized columns are collinear.

    Columns are scaled to unit norm before the singular-value test so the
    cutoff is scale-free. A column with NaN or infinity is a NonFiniteError,
    and an array that is not two-dimensional, or has no column, a
    DimensionMismatchError.
    """
    if mat.ndim != 2:
        raise DimensionMismatchError(f"{what} must be two-dimensional, not {mat.ndim}-dimensional")
    if not mat.shape[1]:
        raise DimensionMismatchError(f"{what} has no columns")
    if mat.shape[0] < mat.shape[1]:
        raise RankDeficientError(f"{what} has fewer rows than columns")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=0)
    # The norm squares each entry, so it overflows for finite entries past
    # about 1e154 and underflows to 0 below about 1e-162: only a column whose
    # norm does is first scaled by its largest entry (x / 1 keeps the others).
    odd = [j for j, v in enumerate(norms.tolist()) if not 0.0 < v < math.inf]
    if odd:
        scale = np.ones(mat.shape[1])
        scale[odd] = np.abs(mat[:, odd]).max(axis=0)
        if not np.isfinite(scale).all():
            j = int(np.flatnonzero(~np.isfinite(scale))[0])
            raise NonFiniteError(f"{what} column {j} holds NaN or infinity")
        if not scale.all():
            raise RankDeficientError(f"{what} has an all-zero column")
        mat = mat / scale
        norms = np.linalg.norm(mat, axis=0)
    sv = np.linalg.svd(mat / norms, compute_uv=False)
    if sv[-1] < RANK_TOL * sv[0]:
        raise RankDeficientError(
            f"{what} is rank deficient (singular value ratio {sv[-1] / sv[0]:.2e})"
        )


def build_balance_matrix(dataset: Dataset, spec: BalanceSpec | None = None) -> BalanceMatrix:
    """Evaluate the balance functions on every unit, intercept first.

    Raises NonFiniteError if a transformation produces NaN/Inf and
    RankDeficientError if the resulting columns are collinear.
    """
    if spec is None:
        spec = BalanceSpec.identity(dataset.x.shape[1])
    registry = _transform_registry()
    cols = [np.ones(dataset.n)]
    for name, op, j in spec.entries:
        if op not in registry:
            raise SchemaError(f"unknown balance transformation '{op}'")
        if not 0 <= j < dataset.x.shape[1]:
            raise SchemaError(f"balance column index {j} out of range")
        with np.errstate(all="ignore"):
            col = registry[op](dataset.x[:, j])
        if not np.isfinite(col).all():
            raise NonFiniteError(f"balance column '{name}' is not finite everywhere")
        cols.append(col)
    c = BalanceMatrix(c=np.column_stack(cols), names=tuple(spec.column_names()))
    c.full_rank()
    return c


def target_moments(c: BalanceMatrix, s: np.ndarray) -> np.ndarray:
    """Means of the balance columns over the target sample (s = 0), as a
    read-only array whose first entry is 1."""
    s = np.asarray(s)
    mask = s == 0
    if not mask.any():
        raise EmptyTargetError("no target-sample units")
    return _freeze(c.c[mask].mean(axis=0))


def standardized_mean_differences(
    c: BalanceMatrix,
    group: np.ndarray,
    weights: np.ndarray | dict | None = None,
) -> np.ndarray | dict:
    """Absolute standardized mean difference per balance column.

    The numerator uses weighted group means; the denominator is the pooled
    unweighted standard deviation, sqrt((var1 + var0) / 2) with ddof=1, so
    pre- and post-weighting tables share one scale. The intercept column is
    reported as 0. ``weights`` is one weight per unit (None: unit weights),
    or a dict of such weightings: then the scale is computed once, the result
    is a dict with the same keys, and the first weighting that fails raises.
    """
    group = np.asarray(group)
    if group.shape != (c.n,):
        raise DimensionMismatchError(f"group has shape {group.shape}, not ({c.n},)")
    # Tested before the cast, which would truncate 0.9 to 0, and a unit in
    # neither group would drop out of both.
    if not ((group == 0) | (group == 1)).all():
        raise ModeError("group must be binary (0 or 1)")
    group = group.astype(int)
    weightings = weights if isinstance(weights, dict) else {None: weights}
    g1 = group == 1
    g0 = group == 0
    if not (g1.any() and g0.any()):
        raise EmptyArmError("both comparison groups must be nonempty")
    # One row per balance column, kept C-contiguous (compress, unlike a
    # boolean index, returns it so), so each row reduces by the same pairwise
    # summation as a per-column np.average / var and the results match bits.
    # Compressed straight from the transposed view, no whole copy is made.
    groups = [(c.c[:, 1:].T.compress(g, axis=1), g) for g in (g1, g0)]
    variances = [x.var(axis=1, ddof=1) if x.shape[1] > 1 else np.zeros(len(x))
                 for x, _ in groups]
    pooled = np.sqrt((variances[0] + variances[1]) / 2.0)
    flat = pooled == 0.0
    out = {}
    for key, w in weightings.items():
        w = np.ones(c.n) if w is None else np.asarray(w, dtype=float)
        if w.shape != (c.n,):
            raise DimensionMismatchError(f"weights have shape {w.shape}, not ({c.n},)")
        means = []
        for x, g in groups:
            w_g = w.compress(g)
            total = w_g.sum()
            if total == 0.0:
                raise AllZeroError("weights sum to zero in a comparison group")
            means.append((x * w_g).sum(axis=1) / total)
        diff = np.abs(means[0] - means[1])
        clash = np.flatnonzero(flat & (diff > 1e-12))
        if clash.size:
            raise ZeroVarianceError(
                f"column {clash[0] + 1} has zero pooled SD but differing group means"
            )
        out[key] = np.zeros(c.m)
        np.divide(diff, pooled, out=out[key][1:], where=~flat)
    return out if isinstance(weights, dict) else out[None]


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size, (sum w)^2 / sum w^2."""
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise NonFiniteError("weights hold NaN or infinity")
    if (w < 0).any():
        raise OutOfRangeError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise AllZeroError("all weights are zero")
    return float(total ** 2 / np.sum(w ** 2))


def second_cpu(size: int, floor: int) -> bool:
    """Whether work of ``size`` goes to a forked child process (see
    _in_child): it is at least ``floor``, os.fork exists, and this process
    may run on two CPUs or more."""
    return (size >= floor and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _other_cpus() -> set:
    """The CPUs this process may run on, but the one it ran on last (field 39
    of /proc/self/stat); an empty set where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            here = int(fh.read().rpartition(b")")[2].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (OSError, AttributeError, IndexError, ValueError):
        return set()


def _in_child(func: Callable, *args) -> Callable:
    """Start ``func(*args)`` in a forked child process, which runs on another
    CPU while this one goes on, and return ``join(kill=False)``.

    ``join()`` waits for the child and returns what ``func`` returned, or
    raises what it raised (ChildProcessError if the child sent neither);
    ``join(kill=True)`` ends the child and returns None. Either reaps the
    child, and a later call does nothing, so a ``finally`` that joins makes
    sure no child outlives its caller. The child sends its outcome pickled
    over a pipe and leaves by os._exit, so it runs nothing else: no exit
    handler, no flush of a buffer it shares with this process. ``func`` must
    start no thread and make no BLAS call: fork copies the calling thread
    only, and a lock that another thread (OpenBLAS's pool) held stays held.
    """
    others = _other_cpus()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: a limit, or memory
        os.close(read)
        os.close(write)
        raise
    if not pid:
        try:
            os.close(read)
            with open(write, "wb") as sink:
                try:
                    outcome = True, func(*args)
                except Exception as exc:
                    outcome = False, exc
                pickle.dump(outcome, sink, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)
    source = open(read, "rb")
    # The child starts on this process's CPU, and the kernel may leave it
    # there for a while (200-400 ms on a 2-vCPU VM, longer than the whole
    # overlap on a mid-sized file): move it to the others now.
    if others:
        try:
            os.sched_setaffinity(pid, others)
        except OSError:  # the CPUs were not this process's to give
            pass

    def join(kill: bool = False):
        nonlocal pid
        if not pid:
            return None
        try:
            if kill:
                import signal  # here, as `import targetcal.cli` loads no signal module

                os.kill(pid, signal.SIGKILL)
                return None
            try:
                ok, value = pickle.load(source)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"child process {pid} sent no result") from None
        finally:
            source.close()
            os.waitpid(pid, 0)
            pid = 0
        if ok:
            return value
        raise value

    return join


def _checked_scores(rho_hat, pi_hat, dataset: Dataset) -> tuple:
    """The scores export_scores writes, as float arrays, once checked."""
    rho_hat = np.asarray(rho_hat, dtype=float)
    pi_hat = np.asarray(pi_hat, dtype=float)
    for name, v in (("sampling", rho_hat), ("propensity", pi_hat)):
        if v.shape != (dataset.n,):
            raise SchemaError(f"{name} score vector has wrong length")
        if not ((v > 0.0) & (v < 1.0)).all():
            raise OutOfRangeError(f"{name} scores must lie strictly in (0, 1)")
    return rho_hat, pi_hat


def _score_blocks(dataset: Dataset) -> int:
    """How many blocks of BLOCK_ROWS units scores.csv is written in."""
    return -(-dataset.n // BLOCK_ROWS)


def _score_block(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, index: int) -> str:
    """The scores.csv lines of block ``index``. No field (an int, a float
    repr or "") ever needs quoting, so they are the bytes csv.writer would
    write, at a fraction of its cost."""
    fusion = dataset.mode == "fusion"
    start = index * BLOCK_ROWS
    block = slice(start, start + BLOCK_ROWS)
    rows = zip(itertools.count(start), dataset.s[block].tolist(), dataset.z[block].tolist(),
               rho_hat[block].tolist(), pi_hat[block].tolist())
    return "".join(f"{i},{s},{repr(z) if fusion or s else ''},{rho!r},{pi!r}\r\n"
                   for i, s, z, rho, pi in rows)


def _write_front(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, path,
                 marks) -> int:
    """Write scores.csv's header and its blocks from the first on while they
    lie below ``marks[1]``, the lowest block claimed by the other side (see
    _format_back), and return how many were written. ``marks[0]`` counts them
    as they are written; a fault sets it to every block, so that the other
    side stops at once, and raises."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write("unit_id,s,z,sampling_score,propensity_score\r\n")
            while marks[0] < marks[1]:
                fh.write(_score_block(rho_hat, pi_hat, dataset, marks[0]))
                marks[0] += 1
        return marks[0]
    except BaseException:
        marks[0] = _score_blocks(dataset)
        raise


def _format_back(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, marks) -> list:
    """The scores.csv blocks from the last down to ``marks[0]``, the count
    _write_front has written, in file order. ``marks[1]`` is lowered to each
    block before it is formatted."""
    tail = []
    while marks[1] > marks[0]:
        marks[1] -= 1
        tail.append(_score_block(rho_hat, pi_hat, dataset, marks[1]))
    return tail[::-1]


def _join_scores(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, path, marks,
                 child: Callable) -> None:
    """Format blocks from the back until they meet _write_front's, take its
    count from ``child()`` (which raises its fault), and append the blocks
    past it to ``path``. Each side's mark is written by that side only and
    moves one way, so a stale read can only make both format the block where
    they meet: the blocks formatted here always reach down to the count."""
    tail = _format_back(rho_hat, pi_hat, dataset, marks)
    written = child()
    with open(path, "a", newline="") as fh:
        fh.writelines(tail[written - marks[1]:])


def export_scores(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, path) -> None:
    """Write fitted sampling and propensity scores to CSV for external plotting.

    Columns: unit_id, s, z, sampling_score, propensity_score. The z field is
    empty for units whose treatment is unobserved. Scores must lie strictly
    inside (0, 1).
    """
    checked = _checked_scores(rho_hat, pi_hat, dataset)
    _write_front(*checked, dataset, path, [0, _score_blocks(dataset)])


def start_export_scores(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset,
                        path) -> Callable:
    """export_scores, shared with a forked child process (see _in_child),
    which writes blocks from the front (_write_front) while this process goes
    on; returns ``join(kill=False)``. ``join()`` formats blocks from the back
    until the two meet, waits for the child and appends its share (see
    _join_scores); ``join(kill=True)`` ends the child. The two read each
    other's progress from two marks in shared memory. The scores are checked
    here first, so the child can fail only with an OSError, which the join
    raises; a child that fails marks every block written before it raises,
    so the join formats none."""
    import mmap  # here, as `import targetcal.cli` loads no mmap module

    scores = *_checked_scores(rho_hat, pi_hat, dataset), dataset
    marks = memoryview(mmap.mmap(-1, 16)).cast("q")
    marks[1] = _score_blocks(dataset)
    child = _in_child(_write_front, *scores, path, marks)

    def join(kill: bool = False):
        return child(kill=True) if kill else _join_scores(*scores, path, marks, child)

    return join


def _block_columns(cells: np.ndarray, header: list, cov_cols: list, mode: str,
                   force_s: int | None) -> dict:
    """The dataset columns of one block of fields, each cast whole (see
    read_csv_columns). A faulty block raises ValueError, for _fault to name:
    a wrong field count, a field float() rejects (a blank one included), an
    s or read z not 0 or 1, or a read y or covariate that is NaN or infinite."""
    n = len(cells)
    if cells.shape[1] != len(header):
        raise ValueError("wrong number of fields")
    if force_s is not None:
        s = np.full(n, force_s, dtype=np.int8)
    else:
        s = cells[:, header.index("s")].astype(float)
        if not ((s == 0.0) | (s == 1.0)).all():
            raise ValueError("s is not 0 or 1")
    cols = {"s": s.astype(np.int8, copy=False)}
    # Transport mode drops target z/y uncast, so a marker such as "NA" is no
    # error; a dropped field only counts as given when it is not blank.
    dropped = s == 0 if mode == "transport" else np.zeros(n, dtype=bool)
    for name in ("z", "y"):
        values, seen = np.full(n, np.nan), np.zeros(n, dtype=bool)
        if name in header:
            fields = cells[:, header.index(name)]
            values[~dropped] = fields[~dropped].astype(float)
            kept = values[~dropped]
            if not ((kept == 0.0) | (kept == 1.0) if name == "z" else np.isfinite(kept)).all():
                raise ValueError(f"observed {name} out of range")
            seen[~dropped] = True
            seen[dropped] = [bool(f.strip()) for f in fields[dropped].tolist()]
        cols[name], cols[f"{name}_observed"] = values, seen
    cols["x"] = cells[:, cov_cols].astype(float, copy=False)
    if not np.isfinite(cols["x"]).all():
        raise ValueError("covariate not finite")
    return cols


def _fault(path, header: list, cov_cols: list, mode: str, force_s: int | None,
           first: int) -> SchemaError:
    """The SchemaError for the block of data rows that starts at data row
    ``first`` and that np.loadtxt or a cast rejected.

    csv.reader reads the file again, through that block only. The fault is
    the block's first row with the wrong number of fields; failing that, its
    earliest row with a faulty field (one float() rejects, a blank one
    included, an s or z not 0 or 1, a y or covariate not finite), and that
    row's first, in the order
    s, z, y, covariates (a dropped target z/y field is not read). A row is named
    by the line of the file it starts on. A row that csv.reader cannot read
    at all (a field over its size limit) is the fault, wherever it lies.
    """
    # Only line breaks and fields count, so a byte that is not UTF-8 may read as U+FFFD.
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = csv.reader(fh)
        start = 1  # the line the next record starts on

        def rows():  # the header first
            nonlocal start
            for record in reader:
                if record:  # np.loadtxt skips blank lines
                    yield start, [field.strip() for field in record]
                start = reader.line_num + 1

        try:
            block = list(itertools.islice(rows(), first + 1, first + 1 + BLOCK_ROWS))
        except csv.Error as exc:
            return SchemaError(f"{path}: {exc} in row {start}")
    for line, fields in block:
        if len(fields) != len(header):
            return SchemaError(f"{path}: row {line} has {len(fields)} fields, "
                               f"expected {len(header)}")
    order = [header.index(name) for name in ("s", "z", "y") if name in header] + cov_cols
    for line, fields in block:
        s = force_s
        for j in order:
            name, field = header[j], fields[j]
            if name in ("z", "y") and mode == "transport" and s == 0:
                continue
            label = f"covariate '{name}'" if j in cov_cols else f"column '{name}'"
            try:
                value = float(field)
            except ValueError:
                what = f"non-numeric value '{field}'" if field else "empty value"
                return SchemaError(f"{path}: {what} in {label} (row {line})")
            if name in ("s", "z") and value not in (0.0, 1.0):
                return SchemaError(f"{path}: column '{name}' must be 0 or 1, "
                                   f"got '{field}' (row {line})")
            if not math.isfinite(value):
                return SchemaError(f"{path}: non-finite value '{field}' in {label} (row {line})")
            if name == "s":
                s = value
    line = block[0][0] if block else reader.line_num + 1
    return SchemaError(f"{path}: malformed CSV from row {line}")


def _read_blocks(lines, blocks: list, columns: tuple, dtype: type = object) -> list:
    """``blocks`` with the column blocks of ``lines``, a CSV body, appended:
    np.loadtxt reads BLOCK_ROWS data rows at a time, as ``dtype``, and
    _block_columns casts them (see read_csv_columns). ``columns`` are
    _block_columns' last four arguments. Lines may be str or UTF-8 bytes."""
    while len(cells := np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None,
                                  quotechar='"', ndmin=2, max_rows=BLOCK_ROWS,
                                  encoding="utf-8")):
        blocks.append(_block_columns(cells, *columns))
    return blocks


def _read_range(path, start: int, lines: int | None, columns: tuple) -> list:
    """The column blocks of ``lines`` lines of ``path`` (None: every line)
    from byte ``start`` on, a line being bytes up to a b"\\n". In fusion
    mode every field is read, and np.loadtxt parses each straight to float,
    with no str per field; its parser accepts a subset of what float() does
    (not "1_000", say), and a range it rejects is read again whole (see
    _read_halves). Transport mode reads str fields, as a dropped target z/y
    field may hold any text."""
    dtype = float if columns[2] == "fusion" else object
    with open(path, "rb") as fh:
        fh.seek(start)
        return _read_blocks(itertools.islice(fh, lines), [], columns, dtype)


def _read_halves(path, head: str, columns: tuple) -> list | None:
    """The column blocks of ``path``'s body, the text after ``head``, read in
    two byte ranges at once: this process reads up to the first line break
    after the body's midpoint, and a forked child (see _in_child) the rest.

    None, with no fork, unless the body has FORK_BYTES and the host a second
    CPU (see second_cpu), the body holds no '"' byte (a quoted field may span
    a line break) and no byte 0x1c to 0x1f (numpy's float parser strips them
    from a field as space, float() does not), and a line break after its
    midpoint. None too when no child can be forked, or either range fails:
    then read_csv_columns reads the body whole, and raises what it raises on
    any fault. A split after a b"\\n" byte cuts no UTF-8 sequence, and a bare
    "\\r" line end makes np.loadtxt fail.
    """
    with open(path, "rb") as fh:
        start = len(head.encode()) + len(codecs.BOM_UTF8) * (fh.read(3) == codecs.BOM_UTF8)
        end = fh.seek(0, os.SEEK_END)
        if not second_cpu(end - start, FORK_BYTES):
            return None
        middle, split, lines = (start + end) // 2, None, 0
        fh.seek(start)
        for at in range(start, end, BLOCK_BYTES):
            chunk = fh.read(BLOCK_BYTES)
            if any(byte in chunk for byte in b'"\x1c\x1d\x1e\x1f'):
                return None
            if split is None:
                cut = chunk.find(b"\n", max(middle - at, 0)) + 1
                split = at + cut if cut else None
                lines += chunk.count(b"\n", 0, cut or len(chunk))
    if split is None or split == end:
        return None
    try:
        join = _in_child(_read_range, path, split, None, columns)
    except OSError:
        return None
    try:
        return _read_range(path, start, lines, columns) + join()
    except Exception:
        return None
    finally:
        join(kill=True)


def read_csv_columns(path, mode: str = "fusion",
                     force_s: int | None = None) -> tuple[dict, list[str]]:
    """Read raw dataset columns from CSV.

    The header must contain ``s`` (unless ``force_s`` fixes the indicator for
    the whole file, when it must not) and, depending on mode, ``z`` and ``y``;
    every remaining column is treated as a covariate, and no name may appear
    twice. ``s`` must be 0 or 1 in every row, and so must every z that is
    read; every y and covariate read must be finite, and no z or y read may
    be blank. Transport mode reads target-sample z/y as NaN without casting
    them.
    Fields may be quoted and padded with whitespace; blank lines are skipped,
    there are no comment lines, and a leading byte-order mark is ignored; a
    file that is not UTF-8 text is a SchemaError.
    Returns a dict of arrays (s, z, y, x, z_observed, y_observed), where the
    masks mark the z and y fields given (read, or dropped but not blank),
    plus the covariate column names; load_dataset_csv turns them into a
    Dataset.

    np.loadtxt reads the body in blocks of BLOCK_ROWS data rows (blank lines
    and the extra lines of a quoted field do not count), each cast to float
    before the next is read, so the str fields of one block at a time are
    held. A large body is read in two halves at once, one by a forked child
    (see _read_halves), which in fusion mode parse their fields straight to
    float; the columns are the same either way. Any fault in a block (a
    wrong field count, a field that float() rejects, an ``s`` or observed
    ``z`` not 0 or 1, an observed ``y`` or a covariate that is NaN or
    infinite) goes to one locator, _fault, which finds it in the file;
    numpy's error text is not read. A file with more than one fault reports
    the first block's.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*contained no data")
        try:
            head = []  # the header's lines, so that _read_halves knows where the body starts
            header = [h.strip() for h in next(csv.reader(head.append(line) or line
                                                         for line in fh))]
            twice = [h for j, h in enumerate(header) if h in header[:j]]
            if twice:
                raise SchemaError(f"{path}: duplicate column '{twice[0]}'")
            if force_s is not None and "s" in header:
                raise SchemaError(f"{path}: column 's' is not allowed when the study and "
                                  "target samples are separate files")
            required = ["s"] * (force_s is None) + ["z", "y"] * (mode == "fusion")
            missing = [name for name in required if name not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column '{missing[0]}'")
            cov_cols = [j for j, h in enumerate(header) if h not in ("s", "z", "y")]
            if not cov_cols:
                raise SchemaError(f"{path}: no covariate columns found")
            columns = header, cov_cols, mode, force_s
            blocks = [_block_columns(np.empty((0, len(header)), dtype=object), *columns)]
            halves = _read_halves(path, "".join(head), columns)
            if halves is None:
                _read_blocks(fh, blocks, columns)
            else:
                blocks += halves
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        except csv.Error as exc:  # only the header is read with csv.reader
            raise SchemaError(f"{path}: {exc} in the header") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x})") from None
        except ValueError:
            rows = sum(len(block["s"]) for block in blocks)
            raise _fault(path, header, cov_cols, mode, force_s, rows) from None
    cols = {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}
    return cols, [header[j] for j in cov_cols]


def load_dataset_csv(path, mode: str = "fusion",
                     target_path=None) -> tuple[Dataset, list[str]]:
    """Read a dataset from CSV: one file with an ``s`` column, or a study
    file plus a ``target_path`` file, neither with one. See read_csv_columns
    for the schema.

    In transport mode the target sample's z and y are dropped, with a
    warning when any were given; in fusion mode every target-sample z and y
    field must be filled in. Returns the dataset and its covariate names.
    """
    if target_path is None:
        cols, names = read_csv_columns(path, mode=mode)
    else:
        study, names = read_csv_columns(path, mode=mode, force_s=1)
        target, target_names = read_csv_columns(target_path, mode=mode, force_s=0)
        if names != target_names:
            raise SchemaError(
                "study and target files must share covariate columns "
                f"({names} vs {target_names})"
            )
        cols = {key: np.concatenate([study[key], target[key]]) for key in study}
    z_seen, y_seen = cols.pop("z_observed"), cols.pop("y_observed")
    target_rows = cols["s"] == 0
    if mode == "transport":
        dropped = int((z_seen | y_seen)[target_rows].sum())
        if dropped:
            log.warning("transport mode: ignoring z/y observed for %d target-sample units",
                        dropped)
    return Dataset(**cols, mode=mode), names
