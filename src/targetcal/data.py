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


def _block_columns(cells: np.ndarray, header: list, cov_cols: list, mode: str,
                   force_s: int | None) -> dict:
    """The dataset columns of one block of fields, each cast whole (see
    read_csv_columns); a faulty block raises ValueError, for _fault to name."""
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
    # Transport mode drops target z/y uncast, so a marker such as "NA" is no error.
    dropped = s == 0 if mode == "transport" else np.zeros(n, dtype=bool)
    for name in ("z", "y"):
        values, seen = np.full(n, np.nan), np.zeros(n, dtype=bool)
        if name in header:
            fields = cells[:, header.index(name)]
            try:  # fails on a blank or a dropped field
                values, seen = np.where(dropped, "", fields).astype(float), np.ones(n, dtype=bool)
            except ValueError:  # then a blank field reads as NaN
                seen = np.array([bool(f.strip()) for f in fields.tolist()], dtype=bool)
                values[seen & ~dropped] = fields[seen & ~dropped].astype(float)
        cols[name], cols[f"{name}_observed"] = values, seen
    cols["x"] = cells[:, cov_cols].astype(float)
    return cols


def _fault(path, header: list, cov_cols: list, mode: str, force_s: int | None,
           first: int) -> SchemaError:
    """The SchemaError for the block of data rows that starts at data row
    ``first`` and that np.loadtxt or a cast rejected.

    csv.reader reads the file again, through that block only. The fault is
    the block's first row with the wrong number of fields; failing that, its
    earliest row with a faulty field, and that row's first, in the order s,
    z, y, covariates (a dropped target z/y field is not read). A row is named
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
            if name in ("z", "y") and (not field or mode == "transport" and s == 0):
                continue
            label = f"covariate '{name}'" if j in cov_cols else f"column '{name}'"
            try:
                value = float(field)
            except ValueError:
                what = f"non-numeric value '{field}'" if field else "empty value"
                return SchemaError(f"{path}: {what} in {label} (row {line})")
            if name == "s":
                if value not in (0.0, 1.0):
                    return SchemaError(f"{path}: column 's' must be 0 or 1, "
                                       f"got '{field}' (row {line})")
                s = value
    line = block[0][0] if block else reader.line_num + 1
    return SchemaError(f"{path}: malformed CSV from row {line}")


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
    block at a time are held. Any fault in a block (a wrong field count, a
    field that float() rejects, an ``s`` not 0 or 1) goes to one locator,
    _fault, which finds it in the file; numpy's error text is not read. A
    file with more than one fault reports the first block's.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*contained no data")
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
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
            blocks = [_block_columns(np.empty((0, len(header)), dtype=object), header,
                                     cov_cols, mode, force_s)]
            while len(cells := np.loadtxt(fh, delimiter=",", dtype=object, comments=None,
                                          quotechar='"', ndmin=2, max_rows=BLOCK_ROWS)):
                blocks.append(_block_columns(cells, header, cov_cols, mode, force_s))
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
    elif mode == "fusion" and not (z_seen & y_seen)[target_rows].all():
        raise ModeError("fusion mode requested but z/y are not observed everywhere")
    return Dataset(**cols, mode=mode), names
