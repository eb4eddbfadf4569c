"""Data model, balance-function construction, target moments, and balance
and overlap diagnostics shared by every estimator.

All container types are immutable after construction (arrays are marked
read-only), so they can be shared freely across concurrent replicate workers.
"""

from __future__ import annotations

import copy
import csv
import itertools
import logging
import math
import re
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
            raise ModeError("covariate matrix must be two-dimensional")
        n = x.shape[0]
        if n < 2:
            raise ModeError("need at least two units")
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        for name, arr in (("s", s), ("z", z), ("y", y)):
            if arr.shape != (n,):
                raise ModeError(f"{name} must have length {n}")
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
    cols = np.ascontiguousarray(c.c[:, 1:].T)
    groups = [(cols.compress(g, axis=1), g) for g in (g1, g0)]
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


def export_scores(rho_hat: np.ndarray, pi_hat: np.ndarray, dataset: Dataset, path) -> None:
    """Write fitted sampling and propensity scores to CSV for external plotting.

    Columns: unit_id, s, z, sampling_score, propensity_score. The z field is
    empty for units whose treatment is unobserved. Scores must lie strictly
    inside (0, 1).
    """
    rho_hat = np.asarray(rho_hat, dtype=float)
    pi_hat = np.asarray(pi_hat, dtype=float)
    for name, v in (("sampling", rho_hat), ("propensity", pi_hat)):
        if v.shape != (dataset.n,):
            raise SchemaError(f"{name} score vector has wrong length")
        if not ((v > 0.0) & (v < 1.0)).all():
            raise OutOfRangeError(f"{name} scores must lie strictly in (0, 1)")
    fusion = dataset.mode == "fusion"
    # No field (an int, a float repr or "") ever needs quoting, so the lines
    # are the bytes csv.writer would write, at a fraction of its cost.
    with open(path, "w", newline="") as fh:
        fh.write("unit_id,s,z,sampling_score,propensity_score\r\n")
        for start in range(0, dataset.n, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            rows = zip(itertools.count(start), dataset.s[block].tolist(),
                       dataset.z[block].tolist(), rho_hat[block].tolist(),
                       pi_hat[block].tolist())
            fh.writelines(f"{i},{s},{repr(z) if fusion or s else ''},{rho!r},{pi!r}\r\n"
                          for i, s, z, rho, pi in rows)


def _float_column(cells: np.ndarray, blanks: bool = False) -> tuple:
    """Cast one column of a block of CSV fields to float.

    Returns the values, the mask of non-blank fields and the index of the
    first field that is not a number (None when there is none). With
    ``blanks`` a blank field reads as NaN; otherwise it is not a number.
    """
    try:
        return cells.astype(float), np.ones(len(cells), dtype=bool), None
    except ValueError:
        pass
    fields = cells.tolist()
    seen = np.array([bool(f.strip()) for f in fields], dtype=bool)
    values = np.full(len(fields), np.nan)
    for i, field in enumerate(fields):
        if blanks and not seen[i]:
            continue
        try:
            values[i] = float(field)
        except ValueError:
            return values, seen, i
    return values, seen, None


def _file_line(path, row: int) -> int:
    """The line on which data row ``row`` of ``path`` starts; data rows count
    from 0 after the header and skip blank lines, as np.loadtxt counts them."""
    starts, start = [], 1
    # Only line breaks count, so a byte that is not UTF-8 may read as U+FFFD.
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = csv.reader(fh)
        for record in reader:
            if record:
                starts.append(start)
            start = reader.line_num + 1
    return starts[row + 1]


def _parse_block(path, fh, width: int, first: int) -> np.ndarray:
    """Read the next BLOCK_ROWS data rows of the open file ``fh`` as a
    (rows, width) array of str fields, empty at the end of the file; ``first``
    is the data row the block starts at. np.loadtxt skips blank lines and
    reads a quoted field across lines, so a block holds whole rows."""
    try:
        cells = np.loadtxt(fh, delimiter=",", dtype=object, comments=None,
                           quotechar='"', ndmin=2, max_rows=BLOCK_ROWS)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text "
                          f"(byte 0x{exc.object[exc.start]:02x})") from None
    except ValueError as exc:
        # numpy counts data rows from 1 and compares with the first row.
        ragged = re.search(r"from (\d+) to (\d+) at row (\d+)", str(exc))
        if ragged is None:
            raise SchemaError(f"{path}: {exc}") from None
        first_width, got, row = map(int, ragged.groups())
        if first_width != width:
            got, row = first_width, 1
        raise SchemaError(f"{path}: row {_file_line(path, first + row - 1)} has {got} "
                          f"fields, expected {width}") from None
    if len(cells) and cells.shape[1] != width:
        raise SchemaError(f"{path}: row {_file_line(path, first)} has {cells.shape[1]} "
                          f"fields, expected {width}")
    return cells


def _block_columns(path, cells: np.ndarray, header: list, cov_cols: list, mode: str,
                   force_s: int | None, first: int) -> dict:
    """The dataset columns of one block of fields (see read_csv_columns);
    ``first`` is the data row the block starts at.

    A faulty block raises SchemaError naming its earliest faulty row's first
    faulty field, in the order s, z, y, covariates, and the line of the file
    the row is on. Each column is cast whole, and searched field by field
    only when that cast fails.
    """
    n = len(cells)
    faults = []  # (row in the block, message), in field order

    def cast(fields: np.ndarray, label: str, blanks: bool = False) -> tuple:
        values, seen, bad = _float_column(fields, blanks)
        if bad is not None:
            field = fields[bad].strip()
            what = f"non-numeric value '{field}'" if field else "empty value"
            faults.append((bad, f"{what} in {label}"))
        return values, seen

    if force_s is not None:
        s = np.full(n, force_s, dtype=np.int8)
    else:
        j = header.index("s")
        s, _ = cast(cells[:, j], "column 's'")
        bad = np.flatnonzero((s != 0.0) & (s != 1.0))
        if bad.size:
            faults.append((bad[0], f"column 's' must be 0 or 1, got "
                                   f"'{cells[bad[0], j].strip()}'"))
    cols = {}
    # Transport mode drops target z/y uncast, so a marker such as "NA" is no error.
    dropped = s == 0 if mode == "transport" else np.zeros(n, dtype=bool)
    for name in ("z", "y"):
        if name in header:
            fields = cells[:, header.index(name)]
            values, seen = cast(np.where(dropped, "", fields), f"column '{name}'", blanks=True)
            seen[dropped] = [bool(f.strip()) for f in fields[dropped].tolist()]
        else:
            values, seen = np.full(n, np.nan), np.zeros(n, dtype=bool)
        cols[name], cols[f"{name}_observed"] = values, seen
    cols["x"] = np.empty((n, len(cov_cols)))
    for k, j in enumerate(cov_cols):
        cols["x"][:, k] = cast(cells[:, j], f"covariate '{header[j]}'")[0]
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise SchemaError(f"{path}: {message} (row {_file_line(path, first + row)})")
    return {"s": s.astype(np.int8, copy=False), **cols}


def read_csv_columns(path, mode: str = "fusion",
                     force_s: int | None = None) -> tuple[dict, list[str]]:
    """Read raw dataset columns from CSV.

    The header must contain ``s`` (unless ``force_s`` fixes the indicator for
    the whole file, when it must not) and, depending on mode, ``z`` and ``y``;
    every remaining column is treated as a covariate, and no name may appear
    twice. ``s`` must be 0 or 1 in every row. Empty z/y fields mark absent
    values; transport mode reads target-sample z/y as NaN without casting them.
    Fields may be quoted and padded with whitespace; blank lines are skipped,
    there are no comment lines, and a leading byte-order mark is ignored; a
    file that is not UTF-8 text is a SchemaError.
    Returns a dict of arrays (s, z, y, x, z_observed, y_observed), where the
    masks mark non-blank z and y fields, plus the covariate column names;
    load_dataset_csv turns them into a Dataset.

    np.loadtxt reads the body from the open file in blocks of BLOCK_ROWS data
    rows (blank lines and the extra lines of a quoted field do not count),
    each cast to float before the next is read, so the str fields of one
    block at a time are held. A file with more than one fault reports the
    first block's.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x})") from None
        header = [h.strip() for h in header]
        twice = [h for j, h in enumerate(header) if h in header[:j]]
        if twice:
            raise SchemaError(f"{path}: duplicate column '{twice[0]}'")
        if force_s is None and "s" not in header:
            raise SchemaError(f"{path}: missing required column 's'")
        if force_s is not None and "s" in header:
            raise SchemaError(f"{path}: column 's' is not allowed when the study and "
                              "target samples are separate files")
        if mode == "fusion":
            for name in ("z", "y"):
                if name not in header:
                    raise SchemaError(f"{path}: missing required column '{name}'")
        cov_cols = [j for j, h in enumerate(header) if h not in ("s", "z", "y")]
        if not cov_cols:
            raise SchemaError(f"{path}: no covariate columns found")
        blocks, rows = [], 0
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
            while len(cells := _parse_block(path, fh, len(header), rows)):
                blocks.append(_block_columns(path, cells, header, cov_cols, mode,
                                             force_s, rows))
                rows += len(cells)
    if not blocks:
        blocks.append(_block_columns(path, np.empty((0, len(header)), dtype=object),
                                     header, cov_cols, mode, force_s, 0))
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
    elif mode == "fusion" and not (z_seen & y_seen)[target_rows].all():
        raise ModeError("fusion mode requested but z/y are not observed everywhere")
    return Dataset(**cols, mode=mode), names
