"""Discriminative dimension reduction: LDA and its heteroscedastic generalization.

LDA solves the generalized symmetric eigenproblem of the between-class
scatter against the within-class scatter, with rows normalized so that
w' S_W w = 1. HLDA fits a square transform by maximum likelihood under
diagonal Gaussian class models: the retained rows use per-class variances,
the remaining rows share the global ones. Rows are updated one at a time in
closed form from the cofactor direction, and an update is only accepted if
it does not lower the objective.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError
from .features import FeatureMatrix

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


def scatter_matrices(data: LabeledFeatures) -> tuple[np.ndarray, np.ndarray]:
    """Between-class (total-deviation) and within-class scatter matrices.

    The between matrix averages outer products of deviations from the global
    mean over all K rows; the within matrix sums per-class deviations and
    divides by the class count S. Both come back exactly symmetric.
    """
    X = data.X
    global_mean = X.mean(axis=0)
    centered = X - global_mean
    s_b = (centered.T @ centered) / data.n_rows

    s_w = np.zeros((data.dims, data.dims))
    for cls in data.classes:
        rows = X[data.labels == cls]
        d = rows - rows.mean(axis=0)
        s_w += d.T @ d
    s_w /= data.classes.size
    return 0.5 * (s_b + s_b.T), 0.5 * (s_w + s_w.T)


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


def lda_fit(data: LabeledFeatures, m: int) -> LinearTransform:
    """Top-m discriminant directions of within-scatter-inverse times between-scatter.

    Rows are ordered by descending eigenvalue, normalized so w' S_W w = 1,
    and sign-fixed so the first non-negligible entry is positive.
    """
    if not 1 <= m <= data.dims:
        raise ValueError(f"target dims {m} out of range 1..{data.dims}")
    s_b, s_w = scatter_matrices(data)
    s_w = _ensure_spd(s_w, "within-class scatter")
    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w)
    order = np.argsort(-eigvals, kind="stable")[:m]
    rows = eigvecs[:, order].T
    return LinearTransform("lda", _fix_signs(rows), m)


def _class_stats(data: LabeledFeatures):
    """Per-class and global covariance (population normalization), plus counts."""
    covs = []
    for cls in data.classes:
        rows = data.X[data.labels == cls]
        d = rows - rows.mean(axis=0)
        cov = (d.T @ d) / rows.shape[0]
        covs.append(0.5 * (cov + cov.T))
    d = data.X - data.X.mean(axis=0)
    total = (d.T @ d) / data.n_rows
    return covs, 0.5 * (total + total.T), data.class_counts


def _hlda_objective(a, covs, total_cov, counts, m, n_rows) -> float:
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0:
        raise np.linalg.LinAlgError("transform became singular")
    retained = a[:m]
    nuisance = a[m:]
    class_terms = 0.0
    for cov, count in zip(covs, counts):
        q = np.einsum("jk,kl,jl->j", retained, cov, retained)
        class_terms += (count / n_rows) * np.sum(np.log(q))
    nuisance_q = np.einsum("jk,kl,jl->j", nuisance, total_cov, nuisance)
    return n_rows * logdet - 0.5 * n_rows * (class_terms + float(np.sum(np.log(nuisance_q))))


def hlda_converged(trace, rel_tol: float = HLDA_REL_TOL) -> bool:
    """Whether the last sweep of an objective trace gained less than rel_tol, relatively."""
    return len(trace) >= 2 and bool(trace[-1] - trace[-2] < rel_tol * abs(trace[-2]))


def _hlda_optimize(a0, covs, total_cov, counts, m, n_rows, max_iters, rel_tol):
    """Row-wise cofactor updates; returns (A, objective trace per sweep)."""
    a = a0.copy()
    dims = a.shape[1]
    trace = [_hlda_objective(a, covs, total_cov, counts, m, n_rows)]
    for _ in range(max_iters):
        for j in range(dims):
            cof = np.linalg.inv(a).T[j]  # cofactor direction for row j
            row = a[j]
            # retained rows see every class model, nuisance rows the global
            # one; each model's variance along the row serves g and the gain
            stats = list(zip(covs, counts)) if j < m else [(total_cov, n_rows)]
            row_q = [float(row @ cov @ row) for cov, _ in stats]
            if j < m:
                g = np.zeros((dims, dims))
                for (cov, count), q in zip(stats, row_q):
                    g += (count / q) * cov
            else:
                g = (n_rows / row_q[0]) * total_cov
            direction = np.linalg.solve(g, cof)
            denom = float(cof @ direction)
            if denom <= 0:
                continue
            candidate = direction * np.sqrt(n_rows / denom)

            # change in objective if the candidate replaces row j
            gain = n_rows * (np.log(abs(float(candidate @ cof))) - np.log(abs(float(row @ cof))))
            for (cov, count), q in zip(stats, row_q):
                gain -= 0.5 * count * (np.log(float(candidate @ cov @ candidate)) - np.log(q))
            if np.isfinite(gain) and gain >= 0.0:
                a[j] = candidate
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
    gains = np.empty(rows.shape[0])
    for j, row in enumerate(rows):
        shared = np.log(float(row @ total_cov @ row))
        per_class = sum(
            (count / n_rows) * np.log(float(row @ cov @ row))
            for cov, count in zip(covs, counts)
        )
        gains[j] = shared - per_class
    order = np.argsort(-gains, kind="stable")
    return rows[order]


def hlda_fit(
    data: LabeledFeatures,
    m: int,
    max_iters: int = HLDA_MAX_ITERS,
    rel_tol: float = HLDA_REL_TOL,
) -> tuple[LinearTransform, list[float]]:
    """Maximum-likelihood heteroscedastic discriminant transform.

    The first m rows of the returned square basis model class-dependent
    variances; the rest share global statistics. Optimization starts from
    the full LDA eigenbasis with rows ordered by their class-dependence
    gain (row updates refine directions but cannot swap a retained row for
    a nuisance one, so the initial partition must already be the profitable
    one). A restart from the identity happens once if the transform
    degenerates. Stopping at max_iters without converging logs a warning.
    """
    if not 1 <= m < data.dims:
        raise ValueError(f"retained dims {m} must lie in 1..{data.dims - 1}")
    covs, total_cov, counts = _class_stats(data)
    covs = [_ensure_spd(c, "class covariance") for c in covs]
    total_cov = _ensure_spd(total_cov, "total covariance")

    start = _order_rows_by_class_gain(
        lda_fit(data, data.dims).matrix, covs, total_cov, counts, data.n_rows
    )
    try:
        a, trace = _hlda_optimize(start, covs, total_cov, counts, m, data.n_rows, max_iters, rel_tol)
    except np.linalg.LinAlgError:
        logger.warning("transform degenerated; restarting from identity")
        try:
            restart = _order_rows_by_class_gain(
                np.eye(data.dims), covs, total_cov, counts, data.n_rows
            )
            a, trace = _hlda_optimize(
                restart, covs, total_cov, counts, m, data.n_rows, max_iters, rel_tol
            )
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"optimization failed from both starts (dims={data.dims}, m={m}): {exc}"
            )
    if not hlda_converged(trace, rel_tol):
        step = (trace[-1] - trace[-2]) / abs(trace[-2]) if len(trace) >= 2 else float("nan")
        logger.warning(
            "HLDA stopped after %d sweeps without converging "
            "(last relative step %.1e, tolerance %.1e)",
            len(trace) - 1, step, rel_tol,
        )
    return LinearTransform("hlda", _fix_signs(a), m), trace


def project(t: LinearTransform, X):
    """Apply the retained rows of a transform to features (matrix or FeatureMatrix)."""
    rows = t.matrix[: t.retained]
    if isinstance(X, FeatureMatrix):
        if X.dims != t.input_dims:
            raise ValueError(f"feature dims {X.dims} do not match transform dims {t.input_dims}")
        return X.with_values(X.values @ rows.T)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != t.input_dims:
        raise ValueError(f"feature dims {X.shape[-1]} do not match transform dims {t.input_dims}")
    return X @ rows.T


TRANSFORM_MAGIC = "ACHLDA1"


def save_transform(path, t: LinearTransform) -> None:
    """Write 'ACHLDA1 kind rows cols retained' plus the row-major float64 matrix."""
    with open(path, "wb") as fh:
        rows, cols = t.matrix.shape
        fh.write(f"{TRANSFORM_MAGIC} {t.kind} {rows} {cols} {t.retained}\n".encode("utf-8"))
        fh.write(np.ascontiguousarray(t.matrix, dtype="<f8").tobytes())


def load_transform(path) -> LinearTransform:
    with open(path, "rb") as fh:
        parts = fh.readline().decode("utf-8").split()
        if len(parts) != 5 or parts[0] != TRANSFORM_MAGIC:
            raise DataError(f"{path}: not an ACHLDA1 file")
        _, kind, rows, cols, retained = parts
        rows, cols = int(rows), int(cols)
        payload = fh.read(8 * rows * cols)
    if len(payload) != 8 * rows * cols:
        raise DataError(f"{path}: truncated ACHLDA1 payload")
    matrix = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    return LinearTransform(kind, matrix, int(retained))
