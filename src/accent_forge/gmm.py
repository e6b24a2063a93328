"""Diagonal-covariance Gaussian mixture models trained by expectation-maximization.

Each model derives its scoring terms once, when built: (prec/2)^T, (mu*prec)^T,
sum(mu^2*prec)/2, log_norm and log w. A ModelStack lays several models' terms
side by side, and one kernel scores frames against all of them: two GEMMs and
four passes, X^2 @ (prec/2)^T, minus X @ (mu*prec)^T, plus the halved sum,
log_norm minus all that, plus log w; then one sort of each (frame, model) row of
K values, so the sums do not depend on the order of the components, the max
shift, a clamp and exp. The exp sums, their logs and all totals are float64.

frame_log_likelihoods runs the kernel on a model's own float64 terms. That
equals the textbook form, which halves at the end, bit for bit: scaling by a
power of two commutes with every rounding, the GEMM's FMAs included, outside
the subnormal range. np.exp is about 150x slower below about -707, so shifted
arguments below EXP_CLAMP = -700 are raised to it: a row's maximum adds
exp(0) = 1, and an addend below e^-700 reaches a total of at least 1 only
through exact rounding ties.

The classifiers score float32 stacks: the log-joint and exp are float32, and
the clamp is EXP_CLAMP_FLOAT32 = -87.3, where float32 np.exp still gives a
normal number (subnormals run about 12x slower). A frame's float32 score is
within (d + 8) u M + 96 u of the float64 one, u = 2^-24, where M is the largest
x^2.prec/2 + |x|.|mu*prec| + sum(mu^2*prec)/2 + |log_norm| + |log w| of a
weighted component. On the benchmark's reference workload the largest errors
seen were 0.0011 on a frame and 0.0034 on an utterance's total. Float32 scores
are deterministic for one machine and BLAS thread count, not across BLAS kernels.

EM sums in its own order, to rounding of the scoring above, not bit for bit. It
stacks its own copy of the frames once as Y = [X^2, X]. An E-step takes the
log-joint from one GEMM subtracted from one constant per component, and makes
one clamped exp of it after the max shift. Its unsorted sums give the frame
likelihoods. Subtracting exp(EXP_CLAMP) flushes the clamped entries to +0.0 and
moves no other by more than that. One GEMM, resp @ Y, gives both M-step sums.
While each sum is at least EXACT_SUMS_ABOVE = 2^-900, terms below e^-700 lie
far below its last bit; otherwise the step is redone from exact
responsibilities. An all-zero column of frames, whose sums are exactly 0 either
way, is left out. k-means stops at an exact fixed point of its centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import records
from .errors import DataError

LOG_2PI = float(np.log(2.0 * np.pi))

# Absolute lower bound applied on top of the relative variance floor.
MIN_VARIANCE = 1e-10


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights, means, and per-dimension variances (one row per component),
    kept as read-only copies whose scoring terms are derived once."""

    weights: np.ndarray  # (n_components,)
    means: np.ndarray  # (n_components, dims)
    variances: np.ndarray  # (n_components, dims)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
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
        prec = 1.0 / self.variances
        with np.errstate(divide="ignore"):  # a zero weight scores as log 0 = -inf
            log_weights = np.log(self.weights)
        terms = (0.5 * prec, self.means * prec, 0.5 * (self.means * self.means * prec).sum(axis=1),
                 -0.5 * (self.dims * LOG_2PI + np.log(self.variances).sum(axis=1)), log_weights)
        for arr in (self.weights, self.means, self.variances, *terms):
            arr.flags.writeable = False
        object.__setattr__(self, "_terms", (terms[0].T, terms[1].T, *terms[2:]))

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
        if self.variance_floor_factor < 0:
            raise ValueError("variance_floor_factor must be >= 0")


def _as_matrix(x) -> np.ndarray:
    values = np.asarray(x, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    return values


# np.exp returns exactly +0.0 for every argument below this (its smallest
# non-zero result is exp(-745.13...)); tests pin that fact
EXP_ZERO_BELOW = -746.0

# np.exp leaves its fast path near -707; see the module docstring
EXP_CLAMP = -700.0
EXP_CLAMPED = float(np.exp(np.array([EXP_CLAMP]))[0])  # as np.exp gives it inside an array
EXACT_SUMS_ABOVE = 2.0 ** -900
EXP_CLAMP_FLOAT32 = -87.3  # above log(2^-126) = -87.34, where float32 np.exp turns subnormal


def _exp_in_place(a: np.ndarray) -> np.ndarray:
    """np.exp(a) into a, bit for bit: arguments below EXP_ZERO_BELOW, where
    np.exp gives +0.0, are raised to it, off np.exp's slow underflow path."""
    np.maximum(a, EXP_ZERO_BELOW, out=a)
    return np.exp(a, out=a)


class ModelStack(NamedTuple):
    """Scoring terms of models side by side: model a's K components are
    columns (or entries) a*K to a*K + K - 1 of each term."""

    half_prec_t: np.ndarray
    mu_prec_t: np.ndarray
    half_sq_sum: np.ndarray
    log_norm: np.ndarray
    log_weights: np.ndarray
    n_models: int = 1


def stack_models(models) -> ModelStack:
    """A float32 stack of models of one dimension, each term rounded once
    from float64. K is the largest component count; a model with fewer is
    padded with zero-weight components (log w = -inf). Components are laid
    out in the order of their parameters' bytes, so a permutation of them
    stacks the same terms: a GEMM need not round alike at every column."""
    if len({m.dims for m in models}) != 1:
        raise ValueError("stacked models must share dimensions")
    k, dims = max(m.n_components for m in models), models[0].dims
    matrices = np.zeros((2, len(models), k, dims))  # (prec/2) and mu*prec, a row per component
    vectors = np.zeros((3, len(models), k))  # sum(mu^2*prec)/2, log_norm, log w
    vectors[2] = -np.inf
    for a, m in enumerate(models):
        params = np.column_stack([m.weights, m.means, m.variances])
        order = np.argsort(params.view(f"V{params.itemsize * params.shape[1]}").ravel())  # by bytes
        half_prec_t, mu_prec_t, *rest = m._terms
        matrices[:, a, :m.n_components] = half_prec_t.T[order], mu_prec_t.T[order]
        vectors[:, a, :m.n_components] = np.stack(rest)[:, order]
    half_prec_t, mu_prec_t = (np.ascontiguousarray(t.reshape(-1, dims).T, dtype=np.float32) for t in matrices)
    return ModelStack(half_prec_t, mu_prec_t, *vectors.reshape(3, -1).astype(np.float32), n_models=len(models))


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis of z, overwriting z; the result is
    float64 whatever z's precision.

    Each row is sorted first, so its last entry is the shift and the sum
    does not depend on the order of the components; shift, clamp and exp
    are monotone, so the addends stay sorted."""
    z.sort(axis=-1)
    shift = z[..., -1:].copy()
    z -= shift
    np.maximum(z, EXP_CLAMP if z.dtype == np.float64 else EXP_CLAMP_FLOAT32, out=z)
    np.exp(z, out=z)
    total = z.sum(axis=-1, dtype=np.float64)
    np.log(total, out=total)
    total += shift[..., 0]
    return total


def stacked_frame_log_likelihoods(stack: ModelStack, X) -> np.ndarray:
    """Per-frame log mixture density of X under each stacked model, shape
    (N, models), in float64; the log-joint is made in the stack's precision.

    Two GEMMs and four passes, in the order the module docstring gives."""
    X, (dims, width) = _as_matrix(X), stack.half_prec_t.shape
    if X.shape[1] != dims:
        raise ValueError(f"feature dims {X.shape[1]} do not match model dims {dims}")
    X = X.astype(stack.half_prec_t.dtype, copy=False)
    z = np.matmul(X * X, stack.half_prec_t)
    z -= np.matmul(X, stack.mu_prec_t)
    z += stack.half_sq_sum
    np.subtract(stack.log_norm, z, out=z)
    z += stack.log_weights
    return _logsumexp_rows(z.reshape(X.shape[0], stack.n_models, width // stack.n_models))


def stacked_log_likelihoods(stack: ModelStack, X) -> np.ndarray:
    """Total log likelihood of X under each stacked model, shape (models,):
    each model's frame likelihoods are summed as one contiguous row, in
    numpy's pairwise order, as mixture_log_likelihood sums a lone model's."""
    return np.ascontiguousarray(stacked_frame_log_likelihoods(stack, X).T).sum(axis=1)


def frame_log_likelihoods(model: GmmModel, X) -> np.ndarray:
    """Per-frame log mixture densities, shape (N,): the stacked kernel on the
    one-model stack of the model's own float64 terms, in its own order."""
    return stacked_frame_log_likelihoods(ModelStack(*model._terms), X)[:, 0]


def mixture_log_likelihood(model: GmmModel, X) -> float:
    """Total log likelihood of a feature matrix under the mixture, in float64."""
    return float(frame_log_likelihoods(model, X).sum())


def _cluster_sums(V: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster column sums of V, bit-identical to V[labels == i].sum(axis=0).

    numpy sums a multi-column block row after row from +0.0, and one flat
    bincount adds each cluster's rows in that same order from +0.0. A single
    column is summed pairwise instead, so there each cluster's members are
    summed as one contiguous run.
    """
    d = V.shape[1]
    k = counts.size
    if d == 1:
        column = V[np.argsort(labels, kind="stable"), 0]
        ends = np.cumsum(counts)
        return np.array([column[e - c: e].sum() for e, c in zip(ends, counts)])[:, None]
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=V.ravel(), minlength=k * d).reshape(k, d)


def _draw_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """The index rng.choice(p.size, p=p) returns, drawn as that call draws it,
    so the generator ends in the same state."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 10):
    """Seeded k-means++ with up to iters Lloyd iterations (at least one),
    stopping early at an exact fixed point, which the rest would repeat.

    Each seeding step draws its point as rng.choice(n, p=d2 / d2.sum())
    would, consuming the generator exactly as that call does. A squared
    distance is |x|^2 - 2 x.c + |c|^2, from one matrix-vector product, and 0
    within that form's rounding bound of 0, so a frame equal to a chosen
    center is never drawn. Every non-empty cluster's returned center is the
    mean of its members under the returned labels, bit for bit as
    X[labels == i].mean(axis=0) computes it.
    """
    n, d = X.shape
    x_sq = np.sum(X * X, axis=1)
    if not np.all(np.isfinite(x_sq)):
        raise ValueError("squared distances between frames are not finite")
    centers = np.empty((k, d))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.full(n, np.inf)  # each frame's squared distance to its nearest center so far
    for i in range(1, k):
        c_sq = float(np.sum(centers[i - 1] * centers[i - 1]))
        dist = x_sq - 2.0 * (X @ centers[i - 1]) + c_sq
        np.putmask(dist, dist <= (3 * d + 4) * 2.0 ** -53 * (x_sq + c_sq), 0.0)
        np.minimum(d2, dist, out=d2)
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ValueError("squared distances between frames are not finite")
        if total <= 0.0:
            centers[i] = X[int(rng.integers(n))]
        else:
            centers[i] = X[_draw_index(rng, d2 / total)]

    labels = np.zeros(n, dtype=np.intp)
    dists = np.empty((n, k))
    for _ in range(iters):
        previous = centers.copy()
        # x_sq - 2.0 * (X @ centers.T) + |centers|^2, in that order, built in place
        np.matmul(X, 2.0 * centers.T, out=dists)
        np.subtract(x_sq[:, None], dists, out=dists)
        dists += np.sum(centers * centers, axis=1)[None, :]
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
        filled = counts > 0
        centers[filled] = _cluster_sums(X, labels, counts)[filled] / counts[filled, None]
        if centers.tobytes() == previous.tobytes():
            break  # a fixed point: every further iteration would repeat this one
    return centers, labels


def _e_step(model: GmmModel, Y: np.ndarray, log_joint: np.ndarray,
            resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame log-likelihoods of the frames stacked as Y = [X * X, X], and the
    reciprocals of their totals. Into the (K, N) buffers go each frame's
    log-joint minus its maximum and the responsibilities: the clamped exp of
    that, flushed to +0.0 below EXP_CLAMP, times 1 / the frame's total."""
    half_prec_t, mu_prec_t, half_sq_sum, log_norm, log_weights = model._terms
    np.matmul(np.hstack([half_prec_t.T, -mu_prec_t.T]), Y.T, out=log_joint)
    np.subtract((log_norm - half_sq_sum + log_weights)[:, None], log_joint, out=log_joint)
    shift = log_joint.max(axis=0)
    log_joint -= shift
    np.maximum(log_joint, EXP_CLAMP, out=resp)
    np.exp(resp, out=resp)
    resp -= EXP_CLAMPED  # +0.0 where clamped; see the module docstring
    total = resp.sum(axis=0)
    inv_total = 1.0 / total
    resp *= inv_total
    np.log(total, out=total)
    total += shift
    return total, inv_total


def em_fit(X, n_components: int, opts: EmOptions | None = None) -> tuple[GmmModel, list[float]]:
    """Fit a diagonal GMM by EM with seeded k-means++ initialization.

    Returns the model and the log-likelihood trace; trace[0] is the
    likelihood of the initialization and each further entry follows one
    update, so the trace is non-decreasing up to round-off. Components whose
    total responsibility vanishes are re-seeded at the frame the current
    model explains worst. NaN or infinite frames raise ValueError.
    """
    opts = opts or EmOptions()
    X = _as_matrix(X)
    n_frames, dims = X.shape
    if n_components < 1:
        raise ValueError(f"n_components must be at least 1, got {n_components}")
    if n_frames < n_components:
        raise ValueError(f"{n_frames} frames cannot support {n_components} components")
    if not np.all(np.isfinite(X)):
        raise ValueError("frames must be finite")

    rng = np.random.default_rng(opts.seed)
    global_var = X.var(axis=0)
    floor = np.maximum(opts.variance_floor_factor * global_var, MIN_VARIANCE)
    global_var_floored = np.maximum(global_var, floor)

    # k-means already left each non-empty cluster's center at its member
    # mean, so these are the members' variances as X[member].var computes them
    means, labels = _kmeans(X, n_components, rng)
    counts = np.bincount(labels, minlength=n_components)
    diff = X - means[labels]
    spread = counts >= 2
    variances = np.tile(global_var_floored, (n_components, 1))
    variances[spread] = np.maximum(
        _cluster_sums(diff * diff, labels, counts)[spread] / counts[spread, None], floor
    )
    weights = np.maximum(counts / n_frames, 1.0 / (10.0 * n_frames))
    weights /= weights.sum()
    model = GmmModel(weights, means, variances)

    trace: list[float] = []
    Y = np.empty((n_frames, 2 * dims))
    np.multiply(X, X, out=Y[:, :dims])
    Y[:, dims:] = X
    log_joint, resp = np.empty((n_components, n_frames)), np.empty((n_components, n_frames))
    stats = np.empty((n_components, 2 * dims))  # per component: sum r * x^2, then sum r * x
    live = np.tile(X.any(axis=0), 2)  # an all-zero column's sums are exactly 0 on both paths
    for iteration in range(opts.max_iters + 1):
        frame_ll, inv_total = _e_step(model, Y, log_joint, resp)
        trace.append(float(frame_ll.sum()))
        if iteration == opts.max_iters or (
                iteration and trace[-1] - trace[-2] < opts.rel_tol * abs(trace[-2])):
            return model, trace

        # the flushed responsibilities' sums, or the exact ones' if one is too small
        for exact in (False, True):
            if exact:
                np.copyto(resp, log_joint)
                _exp_in_place(resp)
                resp *= inv_total
            nk = resp.sum(axis=1)
            np.matmul(resp, Y, out=stats)
            if min(nk.min(), np.abs(stats[:, live]).min(initial=np.inf)) >= EXACT_SUMS_ABOVE:
                break
        empty = nk <= 0.0
        moments = stats / np.where(empty, 1.0, nk)[:, None]
        new_means = moments[:, dims:]
        new_vars = np.maximum(moments[:, :dims] - new_means * new_means, floor)
        new_weights = nk / n_frames
        if np.any(empty):
            worst = int(np.argmin(frame_ll))
            new_means[empty] = X[worst]
            new_vars[empty] = global_var_floored
            new_weights[empty] = 1.0 / n_frames
        new_weights /= new_weights.sum()
        model = GmmModel(new_weights, new_means, new_vars)


GMM_MAGIC = "ACGMM1"


def save_gmm(path, model: GmmModel) -> str:
    """Write a model as 'ACGMM1 N M' plus float64 LE weights, means, variances;
    returns the SHA-256 of the bytes written."""
    return records.save_record(path, GMM_MAGIC, [model.n_components, model.dims],
                               model.weights, model.means, model.variances)


def load_gmm(path, raw: bytes | None = None) -> GmmModel:
    """Read a model written by save_gmm, from raw if given (the bytes the
    caller read from path); the round trip is bit-exact, and any damage is
    a DataError naming the file."""
    with records.open_binary(path, raw) as fh:
        n, m = records.read_header(fh, path, GMM_MAGIC, int, int)
        if n < 1 or m < 1:
            raise DataError(f"{path}: an ACGMM1 model of {n} components in {m} dimensions")
        weights = records.read_floats(fh, path, GMM_MAGIC, n)
        means, variances = records.read_floats(fh, path, GMM_MAGIC, 2, n, m)
        records.read_end(fh, path, GMM_MAGIC)
    try:
        return GmmModel(weights, means, variances)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
