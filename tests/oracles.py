"""Per-cell and per-column reference implementations of the columnar data
path in targetcal.data, kept only for tests to compare against.

`read_csv_columns_per_cell` parses one cell at a time with the csv module;
`export_scores_per_row` writes one row at a time; `smd_per_column` reduces
one balance column at a time with np.average / var. The parser keeps two
faults of the code it reproduces (an empty `s` cell raises TypeError and a
fractional `s` is truncated), so comparisons use inputs without them.
"""

import csv

import numpy as np

from targetcal.errors import EmptyArmError, SchemaError, ZeroVarianceError


def read_csv_columns_per_cell(path, mode="fusion", force_s=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]
    known = {"s", "z", "y"}
    if force_s is None and "s" not in header:
        raise SchemaError(f"{path}: missing required column 's'")
    cov_names = [h for h in header if h not in known]
    if not cov_names:
        raise SchemaError(f"{path}: no covariate columns found")
    idx = {name: header.index(name) for name in header}

    def parse(row, name, required):
        if name not in idx:
            if required:
                raise SchemaError(f"{path}: missing required column '{name}'")
            return None
        cell = row[idx[name]].strip()
        if cell == "":
            return None
        try:
            return float(cell)
        except ValueError:
            raise SchemaError(f"{path}: non-numeric value '{cell}' in column '{name}'") from None

    n = len(rows)
    s = np.empty(n, dtype=np.int8)
    z = np.full(n, np.nan)
    y = np.full(n, np.nan)
    zo = np.zeros(n, dtype=bool)
    yo = np.zeros(n, dtype=bool)
    x = np.empty((n, len(cov_names)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")
        s[i] = int(force_s) if force_s is not None else int(parse(row, "s", True))
        zv = parse(row, "z", mode == "fusion")
        yv = parse(row, "y", mode == "fusion")
        if zv is not None:
            z[i], zo[i] = zv, True
        if yv is not None:
            y[i], yo[i] = yv, True
        for j, name in enumerate(cov_names):
            cell = row[idx[name]].strip()
            try:
                x[i, j] = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{path}: non-numeric value '{cell}' in covariate '{name}'"
                ) from None
    cols = {"s": s, "z": z, "y": y, "x": x, "z_observed": zo, "y_observed": yo}
    return cols, cov_names


def export_scores_per_row(rho_hat, pi_hat, dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "s", "z", "sampling_score", "propensity_score"])
        for i in range(dataset.n):
            z_field = repr(float(dataset.z[i])) if dataset.z_observed[i] else ""
            writer.writerow(
                [i, int(dataset.s[i]), z_field, repr(float(rho_hat[i])), repr(float(pi_hat[i]))]
            )


def smd_per_column(c, group, weights=None):
    group = np.asarray(group).astype(int)
    mat = c.c
    n = mat.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    g1 = group == 1
    g0 = group == 0
    if not (g1.any() and g0.any()):
        raise EmptyArmError("both comparison groups must be nonempty")
    out = np.zeros(mat.shape[1])
    for j in range(1, mat.shape[1]):
        col = mat[:, j]
        m1 = np.average(col[g1], weights=weights[g1])
        m0 = np.average(col[g0], weights=weights[g0])
        v1 = col[g1].var(ddof=1) if g1.sum() > 1 else 0.0
        v0 = col[g0].var(ddof=1) if g0.sum() > 1 else 0.0
        pooled = np.sqrt((v1 + v0) / 2.0)
        diff = abs(m1 - m0)
        if pooled == 0.0:
            if diff > 1e-12:
                raise ZeroVarianceError(
                    f"column {j} has zero pooled SD but differing group means"
                )
            out[j] = 0.0
        else:
            out[j] = diff / pooled
    return out
