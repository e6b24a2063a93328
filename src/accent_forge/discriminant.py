"""Discriminative dimension reduction: LDA and its heteroscedastic generalization.

LDA solves the generalized symmetric eigenproblem of the between-class
scatter against the within-class scatter, with rows normalized so that
w' S_W w = 1. HLDA fits a square transform by maximum likelihood under
diagonal Gaussian class models: the retained rows use per-class variances,
the remaining rows share the global ones. Rows are updated one at a time in
closed form from the cofactor direction, and an update is only accepted if
it does not lower the objective (Gales 1999; objective from Kumar & Andreou
1998).

A sweep inverts A once and keeps the inverse current by Sherman-Morrison
rank-one updates; a nuisance row's system is a multiple of the total
covariance, inverted once per fit. This rounds differently from a dense
inverse and solve per row; the tests hold the rows to 1e-7 of that naive
scheme. The fit is deterministic.

LDA and HLDA share one scatter pass; HLDA's LDA start reuses its statistics.
Beside the rows it holds one class's rows at a time, then the centered rows,
which are the rows themselves when the caller gives them up (overwrite_rows).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import records
from .errors import DataError

logger = logging.getLogger(__name__)

RIDGE_EPS = 1e-6

# HLDA stops after HLDA_MAX_ITERS sweeps or once a sweep raises the
# objective by less than HLDA_REL_TOL of its magnitude.
HLDA_MAX_ITERS = 100
HLDA_REL_TOL = 1e-6


@dataclass
class LabeledFeatures:
    """Row feature matrix with one class id per row; every class needs >= 2 rows."""

    X: np.ndarray  # (K, M)
    labels: np.ndarray  # (K,) int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.X.ndim != 2 or self.labels.shape != (self.X.shape[0],):
            raise ValueError("X must be (K, M) with one label per row")
        classes, counts = np.unique(self.labels, return_counts=True)
        if classes.size < 1 or np.any(counts < 2):
            raise ValueError("every class needs at least 2 rows")
        self.classes = classes
        self.class_counts = counts

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def dims(self) -> int:
        return self.X.shape[1]


@dataclass
class LinearTransform:
    """Row-projection matrix; HLDA keeps the full square basis plus a retained count."""

    kind: str  # "lda" | "hlda"
    matrix: np.ndarray
    retained: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.kind not in ("lda", "hlda"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.matrix.ndim != 2 or not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix must be 2-D and finite")
        if not 1 <= self.retained <= self.matrix.shape[0]:
            raise ValueError("retained row count out of range")

    @property
    def input_dims(self) -> int:
        return self.matrix.shape[1]


def _scatter_stats(data: LabeledFeatures, overwrite_rows: bool = False):
    """One pass over the rows: class covariances (C, M, M), between and within scatter.

    The between matrix averages deviation products over all K rows, so it is
    also the total covariance; the within matrix sums the classes' products
    over their count S. All are exactly symmetric; overwrite_rows centers data.X.
    """
    X = data.X
    products = np.empty((data.classes.size, data.dims, data.dims))
    s_w = np.zeros((data.dims, data.dims))
    for i, cls in enumerate(data.classes):
        d = X[data.labels == cls]
        d -= d.mean(axis=0)
        products[i] = d.T @ d
        s_w += products[i]
        del d  # so two classes' rows are never held at once
    s_w /= data.classes.size
    centered = np.subtract(X, X.mean(axis=0), out=X if overwrite_rows else None)
    s_b = (centered.T @ centered) / data.n_rows
    covs = products / data.class_counts[:, None, None]
    return tuple(0.5 * (a + a.swapaxes(-1, -2)) for a in (covs, s_b, s_w))


def _ensure_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Return mat, ridge-regularized if it is singular at working precision.

    The ridge is RIDGE_EPS * trace/M, added exactly when the smallest
    eigenvalue does not clear that level on its own.
    """
    ridge = RIDGE_EPS * np.trace(mat) / mat.shape[0]
    if ridge <= 0:
        ridge = RIDGE_EPS
    if float(np.linalg.eigvalsh(mat)[0]) > ridge:
        return mat
    logger.warning("%s is singular; adding ridge %.3e", what, ridge)
    return mat + ridge * np.eye(mat.shape[0])


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its first non-negligible entry is positive."""
    out = rows.copy()
    for i, row in enumerate(out):
        scale = np.max(np.abs(row))
        if scale == 0:
            continue
        lead = np.flatnonzero(np.abs(row) > 1e-12 * scale)
        if lead.size and row[lead[0]] < 0:
            out[i] = -row
    return out


def lda_fit(data: LabeledFeatures, m: int, overwrite_rows: bool = False) -> LinearTransform:
    """Top-m discriminant directions of within-scatter-inverse times between-scatter.

    Rows are ordered by descending eigenvalue, normalized so w' S_W w = 1,
    and sign-fixed so the first non-negligible entry is positive.
    overwrite_rows lets the fit center data.X in place instead of copying it.
    """
    if not 1 <= m <= data.dims:
        raise ValueError(f"target dims {m} out of range 1..{data.dims}")
    _, s_b, s_w = _scatter_stats(data, overwrite_rows)
    return _lda(s_b, s_w, m)


def _lda(s_b: np.ndarray, s_w: np.ndarray, m: int) -> LinearTransform:
    import scipy.linalg  # not at the top: it takes half a second to import

    s_w = _ensure_spd(s_w, "within-class scatter")
    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w)
    order = np.argsort(-eigvals, kind="stable")[:m]
    return LinearTransform("lda", _fix_signs(eigvecs[:, order].T), m)


def _variances(rows, covs) -> np.ndarray:
    """Variance of every row (R, M) under every covariance (C, M, M), as (C, R)."""
    return np.einsum("crk,rk->cr", rows @ covs, rows)


def _hlda_objective(a, covs, total_cov, counts, m, n_rows) -> float:
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0:
        raise np.linalg.LinAlgError("transform became singular")
    class_terms = float(counts @ np.log(_variances(a[:m], covs)).sum(axis=1)) / n_rows
    nuisance_q = _variances(a[m:], total_cov[None])[0]
    return n_rows * logdet - 0.5 * n_rows * (class_terms + float(np.sum(np.log(nuisance_q))))


def hlda_converged(trace, rel_tol: float = HLDA_REL_TOL) -> bool:
    """Whether the last sweep of an objective trace gained less than rel_tol, relatively."""
    return len(trace) >= 2 and bool(trace[-1] - trace[-2] < rel_tol * abs(trace[-2]))


def _hlda_sweep(a, covs, total_cov, total_inv, counts, m, n_rows) -> np.ndarray:
    """Update every row of A once, in place; return inv(A).T as kept current.

    Row j of inv(A).T is the cofactor direction of row j (up to det A). It
    is inverted once here and, after each accepted row, updated by
    Sherman-Morrison: replacing row j by c subtracts from inv(A).T the outer
    product of inv(A).T (c - a_j) and cof_j, divided by c . cof_j, which is
    non-zero whenever the gain is finite.
    """
    cofs = np.linalg.inv(a).T.copy()
    flat_covs = covs.reshape(covs.shape[0], -1)
    for j in range(a.shape[0]):
        cof = cofs[j]
        row = a[j]
        # retained rows see every class model, nuisance rows the global one,
        # whose g = (n / q) total_cov needs no solve
        if j < m:
            q = (covs @ row) @ row
            g = ((counts / q) @ flat_covs).reshape(row.size, row.size)
            direction = np.linalg.solve(g, cof)
        else:
            q = float(row @ total_cov @ row)
            direction = (q / n_rows) * (total_inv @ cof)
        denom = float(cof @ direction)
        if denom <= 0:
            continue
        candidate = direction * np.sqrt(n_rows / denom)

        # change in objective if the candidate replaces row j
        pivot = float(candidate @ cof)
        gain = n_rows * (np.log(abs(pivot)) - np.log(abs(float(row @ cof))))
        if j < m:
            gain -= 0.5 * float(counts @ (np.log((covs @ candidate) @ candidate) - np.log(q)))
        else:
            gain -= 0.5 * n_rows * (np.log(float(candidate @ total_cov @ candidate)) - np.log(q))
        if np.isfinite(gain) and gain >= 0.0:
            cofs -= (cofs @ (candidate - row))[:, None] * (cof / pivot)
            a[j] = candidate
    return cofs


def _hlda_optimize(a0, covs, total_cov, counts, m, n_rows, max_iters, rel_tol):
    """Row-wise cofactor updates; returns (A, objective trace per sweep)."""
    a = a0.copy()
    total_inv = np.linalg.inv(total_cov)
    trace = [_hlda_objective(a, covs, total_cov, counts, m, n_rows)]
    for _ in range(max_iters):
        _hlda_sweep(a, covs, total_cov, total_inv, counts, m, n_rows)
        trace.append(_hlda_objective(a, covs, total_cov, counts, m, n_rows))
        if hlda_converged(trace, rel_tol):
            break
    return a, trace


def _order_rows_by_class_gain(rows, covs, total_cov, counts, n_rows):
    """Sort basis rows by the likelihood gain of class-dependent variances.

    The gain of a direction is the drop in the average log variance when
    per-class statistics replace the shared ones; rows where classes differ
    most (in variance or mean) profit most and belong in the retained block.
    The sort is stable, so equally useless directions keep their eigenvalue
    order.
    """
    shared = np.log(_variances(rows, total_cov[None])[0])
    per_class = (counts / n_rows) @ np.log(_variances(rows, covs))
    order = np.argsort(-(shared - per_class), kind="stable")
    return rows[order]


def hlda_fit(
    data: LabeledFeatures,
    m: int,
    max_iters: int = HLDA_MAX_ITERS,
    rel_tol: float = HLDA_REL_TOL,
    overwrite_rows: bool = False,
) -> tuple[LinearTransform, list[float]]:
    """Maximum-likelihood heteroscedastic discriminant transform.

    The first m rows of the returned square basis model class-dependent
    variances; the rest share global statistics. Optimization starts from
    the full LDA eigenbasis with rows ordered by their class-dependence
    gain (row updates refine directions but cannot swap a retained row for
    a nuisance one, so the initial partition must already be the profitable
    one). A restart from the identity happens once if the transform
    degenerates; a DataError if that fails too. Stopping at max_iters
    without converging logs a warning. overwrite_rows is as for lda_fit.
    """
    if not 1 <= m < data.dims:
        raise ValueError(f"retained dims {m} must lie in 1..{data.dims - 1}")
    covs, s_b, s_w = _scatter_stats(data, overwrite_rows)
    covs = np.stack([_ensure_spd(c, "class covariance") for c in covs])
    total_cov = _ensure_spd(s_b, "total covariance")
    n, counts = data.n_rows, data.class_counts

    start = _order_rows_by_class_gain(_lda(s_b, s_w, data.dims).matrix, covs, total_cov, counts, n)
    try:
        a, trace = _hlda_optimize(start, covs, total_cov, counts, m, n, max_iters, rel_tol)
    except np.linalg.LinAlgError:
        logger.warning("transform degenerated; restarting from identity")
        try:
            restart = _order_rows_by_class_gain(np.eye(data.dims), covs, total_cov, counts, n)
            a, trace = _hlda_optimize(restart, covs, total_cov, counts, m, n, max_iters, rel_tol)
        except np.linalg.LinAlgError as exc:
            raise DataError(f"HLDA failed from both starts (dims={data.dims}, m={m}): {exc}") from None
    if not hlda_converged(trace, rel_tol):
        step = (trace[-1] - trace[-2]) / abs(trace[-2]) if len(trace) >= 2 else float("nan")
        logger.warning(
            "HLDA stopped after %d sweeps without converging "
            "(last relative step %.1e, tolerance %.1e)",
            len(trace) - 1, step, rel_tol,
        )
    return LinearTransform("hlda", _fix_signs(a), m), trace


def project(t: LinearTransform, X: np.ndarray) -> np.ndarray:
    """Apply the retained rows of a transform to the rows of X."""
    if X.shape[-1] != t.input_dims:
        raise ValueError(f"feature dims {X.shape[-1]} do not match transform dims {t.input_dims}")
    return X @ t.matrix[: t.retained].T


TRANSFORM_MAGIC = "ACHLDA1"


def save_transform(path, t: LinearTransform) -> None:
    """Write 'ACHLDA1 kind rows cols retained' plus the row-major float64 matrix."""
    with open(path, "wb") as fh:
        records.write_record(fh, TRANSFORM_MAGIC, [t.kind, *t.matrix.shape, t.retained], t.matrix)


def load_transform(path, raw: bytes | None = None) -> LinearTransform:
    """Read a transform written by save_transform, from raw if given (the
    bytes the caller read from path); any damage is a DataError naming the file."""
    with records.open_binary(path, raw) as fh:
        kind, rows, cols, retained = records.read_header(fh, path, TRANSFORM_MAGIC, str, int, int, int)
        if rows < 1 or cols < 1:
            raise DataError(f"{path}: an ACHLDA1 matrix of {rows} x {cols}")
        matrix = records.read_floats(fh, path, TRANSFORM_MAGIC, rows, cols)
        records.read_end(fh, path, TRANSFORM_MAGIC)
    try:
        return LinearTransform(kind, matrix, retained)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
