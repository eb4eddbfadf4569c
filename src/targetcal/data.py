"""Data model, balance-function construction, target moments, and balance
and overlap diagnostics shared by every estimator.

All container types are immutable after construction (arrays are marked
read-only), so they can be shared freely across concurrent replicate workers.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AllZeroError,
    EmptyArmError,
    EmptyTargetError,
    ModeError,
    NonFiniteError,
    OutOfRangeError,
    RankDeficientError,
    SchemaError,
    ZeroVarianceError,
)

# Relative singular-value cutoff below which balance columns are declared
# collinear.
RANK_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Per-unit sample indicator, treatment, outcome, and covariates.

    ``z`` and ``y`` may be unobserved for target-sample units (transport
    mode); observation status lives in the explicit boolean masks, never in
    sentinel values. In fusion mode both masks are all-True.
    """

    s: np.ndarray
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray
    z_observed: np.ndarray
    y_observed: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int8)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise ModeError("covariate matrix must be two-dimensional")
        n = x.shape[0]
        if n < 2:
            raise ModeError("need at least two units")
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        zo = np.asarray(self.z_observed, dtype=bool)
        yo = np.asarray(self.y_observed, dtype=bool)
        for name, arr in (("s", s), ("z", z), ("y", y),
                          ("z_observed", zo), ("y_observed", yo)):
            if arr.shape != (n,):
                raise ModeError(f"{name} must have length {n}")
        if not np.isin(s, (0, 1)).all():
            raise ModeError("s must be binary")
        if s.min() == s.max():
            raise ModeError("both a study sample (s=1) and a target sample (s=0) are required")
        if not np.isfinite(x).all():
            raise NonFiniteError("covariates contain NaN or infinity")
        study = s == 1
        if not (zo[study].all() and yo[study].all()):
            raise ModeError("z and y must be observed for every study-sample unit")
        obs_z = z[zo]
        if not np.isin(obs_z, (0.0, 1.0)).all():
            raise ModeError("observed z must be binary")
        if not np.isfinite(y[yo]).all():
            raise NonFiniteError("observed y contains NaN or infinity")
        if zo.all():
            # Fusion-shaped data: the outcome must be observed wherever the
            # treatment is, otherwise the mode is ambiguous.
            if not yo.all():
                raise ModeError("fusion mode requires y observed for all units")
        for arm in (0.0, 1.0):
            if not np.any(z[study] == arm):
                raise ModeError(f"study sample has no units with z={int(arm)}")
        object.__setattr__(self, "s", _freeze(s))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "z_observed", _freeze(zo))
        object.__setattr__(self, "y_observed", _freeze(yo))

    @classmethod
    def fusion(cls, s, z, y, x) -> "Dataset":
        """Build a fusion-mode dataset (z and y observed everywhere)."""
        n = len(np.asarray(s))
        ones = np.ones(n, dtype=bool)
        return cls(s=s, z=z, y=y, x=x, z_observed=ones, y_observed=ones)

    @classmethod
    def transport(cls, s, z, y, x) -> "Dataset":
        """Build a transport-mode dataset; target-sample z and y are dropped."""
        s = np.asarray(s, dtype=np.int8)
        mask = s == 1
        z = np.where(mask, np.asarray(z, dtype=float), np.nan)
        y = np.where(mask, np.asarray(y, dtype=float), np.nan)
        return cls(s=s, z=z, y=y, x=x, z_observed=mask.copy(), y_observed=mask.copy())

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_study(self) -> int:
        return int(self.s.sum())

    @property
    def n_target(self) -> int:
        return self.n - self.n_study

    @property
    def mode(self) -> str:
        """"fusion" when z and y are observed everywhere, else "transport"."""
        return "fusion" if bool(self.z_observed.all() and self.y_observed.all()) else "transport"

    def to_transport(self) -> "Dataset":
        """Return a view of the data with target-sample z and y masked out."""
        return Dataset.transport(self.s, self.z, self.y, self.x)

    def observed_z(self, mask: np.ndarray) -> np.ndarray:
        """Treatment for the units selected by ``mask``; all must be observed."""
        if not self.z_observed[mask].all():
            raise ModeError("requested z values include unobserved entries")
        return self.z[mask]

    def observed_y(self, mask: np.ndarray) -> np.ndarray:
        """Outcome for the units selected by ``mask``; all must be observed."""
        if not self.y_observed[mask].all():
            raise ModeError("requested y values include unobserved entries")
        return self.y[mask]


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


@dataclass(frozen=True)
class TargetMoments:
    """Target-sample means of the balance columns (first entry is 1)."""

    theta0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta0", _freeze(np.asarray(self.theta0, dtype=float)))


def check_full_rank(mat: np.ndarray, what: str = "matrix") -> None:
    """Raise RankDeficientError if standardized columns are collinear.

    Columns are scaled to unit norm before the singular-value test so the
    cutoff is scale-free.
    """
    if mat.shape[0] < mat.shape[1]:
        raise RankDeficientError(f"{what} has fewer rows than columns")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise RankDeficientError(f"{what} has an all-zero column")
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
    c = np.column_stack(cols)
    check_full_rank(c, "balance matrix")
    return BalanceMatrix(c=c, names=tuple(spec.column_names()))


def target_moments(c: BalanceMatrix, s: np.ndarray) -> TargetMoments:
    """Means of the balance columns over the target sample (s = 0)."""
    s = np.asarray(s)
    mask = s == 0
    if not mask.any():
        raise EmptyTargetError("no target-sample units")
    return TargetMoments(theta0=c.c[mask].mean(axis=0))


def standardized_mean_differences(
    c: BalanceMatrix,
    group: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Absolute standardized mean difference per balance column.

    The numerator uses weighted group means; the denominator is the pooled
    unweighted standard deviation, sqrt((var1 + var0) / 2) with ddof=1, so
    pre- and post-weighting tables share one scale. The intercept column is
    reported as 0.
    """
    group = np.asarray(group).astype(int)
    if weights is None:
        weights = np.ones(c.n)
    weights = np.asarray(weights, dtype=float)
    g1 = group == 1
    g0 = group == 0
    if not (g1.any() and g0.any()):
        raise EmptyArmError("both comparison groups must be nonempty")
    # One row per balance column, kept C-contiguous (compress, unlike a
    # boolean index, returns it so), so each row reduces by the same pairwise
    # summation as a per-column np.average / var and the results match bits.
    cols = np.ascontiguousarray(c.c[:, 1:].T)
    means, variances = [], []
    for g in (g1, g0):
        x, w = cols.compress(g, axis=1), weights[g]
        total = w.sum()
        if total == 0.0:
            raise AllZeroError("weights sum to zero in a comparison group")
        means.append((x * w).sum(axis=1) / total)
        variances.append(x.var(axis=1, ddof=1) if g.sum() > 1 else np.zeros(len(x)))
    pooled = np.sqrt((variances[0] + variances[1]) / 2.0)
    diff = np.abs(means[0] - means[1])
    flat = pooled == 0.0
    clash = np.flatnonzero(flat & (diff > 1e-12))
    if clash.size:
        raise ZeroVarianceError(
            f"column {clash[0] + 1} has zero pooled SD but differing group means"
        )
    out = np.zeros(c.m)
    np.divide(diff, pooled, out=out[1:], where=~flat)
    return out


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size, (sum w)^2 / sum w^2."""
    w = np.asarray(weights, dtype=float)
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
    z_fields = [repr(z) if seen else ""
                for z, seen in zip(dataset.z.tolist(), dataset.z_observed.tolist())]
    rows = zip(range(dataset.n), dataset.s.tolist(), z_fields, rho_hat.tolist(), pi_hat.tolist())
    # No field (an int, a float repr or "") ever needs quoting, so the lines
    # are the bytes csv.writer would write, at a fraction of its cost.
    with open(path, "w", newline="") as fh:
        fh.write("unit_id,s,z,sampling_score,propensity_score\r\n")
        fh.writelines(f"{i},{s},{z},{rho!r},{pi!r}\r\n" for i, s, z, rho, pi in rows)


def _float_column(path, cells: np.ndarray, label: str,
                  blanks: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Cast one column of CSV fields to float.

    Returns the values and the mask of non-blank fields. With ``blanks`` a
    blank field reads as NaN; any other field that is not a number raises
    SchemaError naming the field, its column and its row (the header is
    row 1 and blank lines are not counted).
    """
    try:
        return cells.astype(float), np.ones(len(cells), dtype=bool)
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
            what = f"non-numeric value '{field.strip()}'" if seen[i] else "empty value"
            raise SchemaError(f"{path}: {what} in {label} (row {i + 2})") from None
    return values, seen


def read_csv_columns(path, mode: str = "fusion",
                     force_s: int | None = None) -> tuple[dict, list[str]]:
    """Read raw dataset columns from CSV.

    The header must contain ``s`` (unless ``force_s`` fixes the indicator for
    the whole file) and, depending on mode, ``z`` and ``y``; every remaining
    column is treated as a covariate. ``s`` must be 0 or 1 in every row.
    Empty z/y fields mark absent values. Fields may be quoted and padded
    with whitespace; blank lines are skipped and there are no comment lines.
    Returns a dict of arrays (s, z, y, x, z_observed, y_observed) plus the
    covariate column names; two-file workflows concatenate these before
    constructing a Dataset.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if force_s is None and "s" not in header:
            raise SchemaError(f"{path}: missing required column 's'")
        if mode == "fusion":
            for name in ("z", "y"):
                if name not in header:
                    raise SchemaError(f"{path}: missing required column '{name}'")
        cov_cols = [j for j, h in enumerate(header) if h not in ("s", "z", "y")]
        if not cov_cols:
            raise SchemaError(f"{path}: no covariate columns found")
        # One C-level pass over the body. Fields stay str objects, so each
        # column is cast on its own and blank fields stay distinguishable.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                cells = np.loadtxt(fh, delimiter=",", dtype=object, comments=None,
                                   quotechar='"', ndmin=2)
            except ValueError as exc:
                # numpy counts data rows from 1 and compares with the first row.
                ragged = re.search(r"from (\d+) to (\d+) at row (\d+)", str(exc))
                if ragged is None:
                    raise SchemaError(f"{path}: {exc}") from None
                first, got, row = map(int, ragged.groups())
                if first != len(header):
                    got, row = first, 1
                raise SchemaError(
                    f"{path}: row {row + 1} has {got} fields, expected {len(header)}"
                ) from None
    n = cells.shape[0]
    if n == 0:
        cells = np.empty((0, len(header)), dtype=object)
    elif cells.shape[1] != len(header):
        raise SchemaError(f"{path}: row 2 has {cells.shape[1]} fields, expected {len(header)}")

    if force_s is not None:
        s = np.full(n, force_s, dtype=np.int8)
    else:
        j = header.index("s")
        s, _ = _float_column(path, cells[:, j], "column 's'")
        bad = np.flatnonzero((s != 0.0) & (s != 1.0))
        if bad.size:
            raise SchemaError(f"{path}: column 's' must be 0 or 1, got "
                              f"'{cells[bad[0], j].strip()}' (row {bad[0] + 2})")
        s = s.astype(np.int8)
    cols = {"s": s}
    for name in ("z", "y"):
        if name in header:
            values, seen = _float_column(path, cells[:, header.index(name)],
                                         f"column '{name}'", blanks=True)
        else:
            values, seen = np.full(n, np.nan), np.zeros(n, dtype=bool)
        cols[name], cols[f"{name}_observed"] = values, seen
    cols["x"] = np.empty((n, len(cov_cols)))
    for k, j in enumerate(cov_cols):
        cols["x"][:, k] = _float_column(path, cells[:, j], f"covariate '{header[j]}'")[0]
    return cols, [header[j] for j in cov_cols]


def load_dataset_csv(path, mode: str = "fusion") -> tuple[Dataset, list[str]]:
    """Read a single-file dataset from CSV; see read_csv_columns for the schema."""
    cols, cov_names = read_csv_columns(path, mode=mode)
    return Dataset(**cols), cov_names
