"""Diagonal-covariance Gaussian mixture models trained by expectation-maximization.

Scoring runs in the log domain throughout. The per-frame mixture term sums
exponentials in ascending order after a max shift, which keeps results
independent of component ordering bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

LOG_2PI = float(np.log(2.0 * np.pi))

# Absolute lower bound applied on top of the relative variance floor.
MIN_VARIANCE = 1e-10


@dataclass
class GmmModel:
    """Mixture weights, means, and per-dimension variances (one row per component)."""

    weights: np.ndarray  # (n_components,)
    means: np.ndarray  # (n_components, dims)
    variances: np.ndarray  # (n_components, dims)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.shape != self.variances.shape or self.weights.ndim != 1:
            raise ValueError("inconsistent parameter shapes")
        if self.weights.size != self.means.shape[0]:
            raise ValueError("weight count does not match component count")
        if abs(float(self.weights.sum()) - 1.0) > 1e-10 or np.any(self.weights < 0):
            raise ValueError("weights must form a probability simplex")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        for arr in (self.weights, self.means, self.variances):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dims(self) -> int:
        return self.means.shape[1]


@dataclass
class EmOptions:
    max_iters: int = 50
    rel_tol: float = 1e-5
    variance_floor_factor: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


def as_values(x) -> np.ndarray:
    """The float64 array of a FeatureMatrix, or of any array-like."""
    return np.asarray(getattr(x, "values", x), dtype=np.float64)


def _as_matrix(x) -> np.ndarray:
    values = as_values(x)
    if values.ndim == 1:
        values = values[None, :]
    return values


def gaussian_log_density(x, mean, var) -> float:
    """Log density of a diagonal Gaussian at x (natural log)."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var <= 0):
        raise ValueError("variances must be positive")
    diff = x - mean
    return float(-0.5 * (x.size * LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var)))


def _component_log_densities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Per-frame, per-component Gaussian log densities, shape (K, N)."""
    if X.shape[1] != model.dims:
        raise ValueError(f"feature dims {X.shape[1]} do not match model dims {model.dims}")
    prec = 1.0 / model.variances  # (N, M)
    log_norm = -0.5 * (model.dims * LOG_2PI + np.sum(np.log(model.variances), axis=1))
    quad = (
        (X * X) @ prec.T
        - 2.0 * (X @ (model.means * prec).T)
        + np.sum(model.means * model.means * prec, axis=1)
    )
    return log_norm[None, :] - 0.5 * quad


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp; addends are sorted so the result is order-invariant."""
    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    e.sort(axis=1)
    return shift[:, 0] + np.log(e.sum(axis=1))


def frame_log_likelihoods(model: GmmModel, X) -> np.ndarray:
    """Per-frame log mixture densities, shape (K,)."""
    X = _as_matrix(X)
    logs = _component_log_densities(model, X) + np.log(model.weights)[None, :]
    return _logsumexp_rows(logs)


def mixture_log_likelihood(model: GmmModel, X) -> float:
    """Total log likelihood of a feature matrix under the mixture."""
    return float(np.sum(frame_log_likelihoods(model, X)))


def mean_log_likelihood(model: GmmModel, X) -> float:
    """Per-frame average log likelihood."""
    ll = frame_log_likelihoods(model, X)
    return float(np.mean(ll))


def component_posteriors(model: GmmModel, x) -> np.ndarray:
    """Posterior responsibility of each component, computed in the log domain.

    A single observation yields an (n_components,) vector; a matrix of
    observations yields one row of posteriors per frame.
    """
    arr = as_values(x)
    single = arr.ndim == 1
    X = arr[None, :] if single else arr
    logs = _component_log_densities(model, X) + np.log(model.weights)[None, :]
    logs -= _logsumexp_rows(logs)[:, None]
    post = np.exp(logs)
    return post[0] if single else post


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 10):
    """Seeded k-means++ with a fixed number of Lloyd iterations (at least one).

    Every non-empty cluster's returned center is the mean of its members
    under the returned labels.
    """
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers[i] = X[int(rng.integers(n))]
        else:
            centers[i] = X[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((X - centers[i]) ** 2, axis=1))

    labels = np.zeros(n, dtype=np.intp)
    for _ in range(iters):
        dists = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ centers.T)
            + np.sum(centers * centers, axis=1)[None, :]
        )
        labels = np.argmin(dists, axis=1)
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # revive empty clusters at the worst-covered points, one each;
            # a revived point can leave its old cluster empty, so recount
            order = np.argsort(-np.min(dists, axis=1), kind="stable")
            for i, worst in zip(empties, order):
                centers[i] = X[worst]
                labels[int(worst)] = i
            counts = np.bincount(labels, minlength=k)
        for i in np.flatnonzero(counts):
            centers[i] = X[labels == i].mean(axis=0)
    return centers, labels


def em_fit(X, n_components: int, opts: EmOptions | None = None) -> tuple[GmmModel, list[float]]:
    """Fit a diagonal GMM by EM with seeded k-means++ initialization.

    Returns the model and the log-likelihood trace; trace[0] is the
    likelihood of the initialization and each further entry follows one
    update, so the trace is non-decreasing up to round-off. Components whose
    total responsibility vanishes are re-seeded at the frame the current
    model explains worst.
    """
    opts = opts or EmOptions()
    X = _as_matrix(X)
    n_frames, dims = X.shape
    if n_frames < n_components:
        raise ValueError(f"{n_frames} frames cannot support {n_components} components")

    rng = np.random.default_rng(opts.seed)
    global_var = X.var(axis=0)
    floor = np.maximum(opts.variance_floor_factor * global_var, MIN_VARIANCE)
    global_var_floored = np.maximum(global_var, floor)

    # k-means already left each non-empty cluster's center at its member mean
    centers, labels = _kmeans(X, n_components, rng)
    counts = np.bincount(labels, minlength=n_components)
    means = centers.copy()
    variances = np.tile(global_var_floored, (n_components, 1))
    for i in np.flatnonzero(counts >= 2):
        variances[i] = np.maximum(X[labels == i].var(axis=0), floor)
    weights = np.maximum(counts / n_frames, 1.0 / (10.0 * n_frames))
    weights /= weights.sum()
    model = GmmModel(weights, means, variances)

    trace: list[float] = []
    x_sq = X * X
    for _ in range(opts.max_iters):
        log_joint = _component_log_densities(model, X) + np.log(model.weights)[None, :]
        frame_ll = _logsumexp_rows(log_joint)
        ll = float(frame_ll.sum())
        trace.append(ll)
        if len(trace) >= 2 and ll - trace[-2] < opts.rel_tol * abs(trace[-2]):
            return model, trace

        resp = np.exp(log_joint - frame_ll[:, None])
        nk = resp.sum(axis=0)
        empty = nk <= 0.0
        nk_safe = np.where(empty, 1.0, nk)
        new_means = (resp.T @ X) / nk_safe[:, None]
        new_sq = (resp.T @ x_sq) / nk_safe[:, None]
        new_vars = np.maximum(new_sq - new_means * new_means, floor)
        new_weights = nk / n_frames
        if np.any(empty):
            worst = int(np.argmin(frame_ll))
            new_means[empty] = X[worst]
            new_vars[empty] = global_var_floored
            new_weights[empty] = 1.0 / n_frames
        new_weights /= new_weights.sum()
        model = GmmModel(new_weights, new_means, new_vars)

    trace.append(mixture_log_likelihood(model, X))
    return model, trace


GMM_MAGIC = "ACGMM1"


def save_gmm(path, model: GmmModel) -> None:
    """Write a model as 'ACGMM1 N M' plus float64 LE weights, means, variances."""
    with open(path, "wb") as fh:
        fh.write(f"{GMM_MAGIC} {model.n_components} {model.dims}\n".encode("utf-8"))
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.means, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.variances, dtype="<f8").tobytes())


def load_gmm(path) -> GmmModel:
    """Read a model written by save_gmm; the round trip is bit-exact."""
    with open(path, "rb") as fh:
        parts = fh.readline().decode("utf-8").split()
        if len(parts) != 3 or parts[0] != GMM_MAGIC:
            raise DataError(f"{path}: not an ACGMM1 file")
        n, m = int(parts[1]), int(parts[2])
        payload = fh.read(8 * (n + 2 * n * m))
    if len(payload) != 8 * (n + 2 * n * m):
        raise DataError(f"{path}: truncated ACGMM1 payload")
    weights = np.frombuffer(payload[: 8 * n], dtype="<f8").copy()
    means = np.frombuffer(payload[8 * n: 8 * (n + n * m)], dtype="<f8").reshape(n, m).copy()
    variances = np.frombuffer(payload[8 * (n + n * m):], dtype="<f8").reshape(n, m).copy()
    return GmmModel(weights, means, variances)
