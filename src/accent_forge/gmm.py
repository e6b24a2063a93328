"""Diagonal-covariance Gaussian mixture models trained by expectation-maximization.

Scoring runs in the log domain throughout. The per-frame mixture term sums
exponentials in ascending order after a max shift, which keeps results
independent of component ordering bit for bit.

Each model derives its scoring terms once, when built: (prec/2)^T, (mu*prec)^T,
sum(mu^2*prec)/2, log_norm and log w. Scoring is two GEMMs and four passes:
X^2 @ (prec/2)^T, minus X @ (mu*prec)^T, plus the halved sum, log_norm minus all
that, plus log w. This equals the textbook form, which halves at the end, bit for bit:
scaling by a power of two commutes with every rounding, the GEMM's FMAs included,
outside the subnormal range.

np.exp is about 150x slower below about -707, so work that cannot change a bit
is skipped. The log-sum-exp raises shifted arguments below EXP_CLAMP = -700 to
it: a row's maximum adds exp(0) = 1, and an addend below e^-700 changes only
tiny partial sums, which reach a total of at least 1 only through a chain of
exact rounding ties. EM flushes responsibilities below exp(EXP_CLAMP) to +0.0;
the M-step sums keep their bits by the same argument while each is at least
EXACT_SUMS_ABOVE = 2^-900, and are redone from exact ones otherwise; an all-zero
column of frames, whose sums are exactly 0 either way, is left out. This is a
rounding argument, not a proof for every input; the tests fuzz it. k-means
stops at an exact fixed point of its centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
EXACT_SUMS_ABOVE = 2.0 ** -900


class PreparedFrames:
    """Frames scored against several models: X, X * X and the two (N, K)
    work buffers, made once and shared by every model with K components."""

    def __init__(self, X):
        self.values = _as_matrix(X)
        self.squares = self.values * self.values
        self._buffers = {}

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def buffers(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k not in self._buffers:
            shape = (self.values.shape[0], k)
            self._buffers[k] = (np.empty(shape), np.empty(shape))
        return self._buffers[k]


def _log_joint(model: GmmModel, X: np.ndarray, x_sq: np.ndarray, out: np.ndarray,
               work: np.ndarray) -> np.ndarray:
    """log w_k + log N(x_n; mu_k, var_k) into out, shape (N, K); x_sq is X * X.

    Evaluated in place from the model's terms, one pass at a time in the order
    the module docstring gives; work is an (N, K) scratch buffer.
    """
    if X.shape[1] != model.dims:
        raise ValueError(f"feature dims {X.shape[1]} do not match model dims {model.dims}")
    half_prec_t, mu_prec_t, half_sq_sum, log_norm, log_weights = model._terms
    np.matmul(x_sq, half_prec_t, out=out)
    out -= np.matmul(X, mu_prec_t, out=work)
    out += half_sq_sum
    np.subtract(log_norm, out, out=out)
    out += log_weights
    return out


def _exp_in_place(a: np.ndarray, below: np.ndarray, threshold: float = EXP_ZERO_BELOW) -> np.ndarray:
    """np.exp(a) into a, except that arguments below threshold give +0.0
    without reaching np.exp; below is a bool scratch array of a's shape. At
    the default threshold np.exp gives +0.0 there itself, so this is np.exp
    bit for bit, off numpy's slow underflow path. The masking passes run
    only when some argument is below threshold."""
    if not np.less(a, threshold, out=below).any():
        return np.exp(a, out=a)
    np.putmask(a, below, 0.0)
    np.exp(a, out=a)
    np.putmask(a, below, 0.0)
    return a


def _logsumexp_rows(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of z; addends are sorted so the result is
    order-invariant. work is a scratch array of z's shape.

    Each row is sorted before the shift, so its last entry is the shift;
    shift, clamp and exp are monotone, so the addends stay sorted."""
    np.copyto(work, z)
    work.sort(axis=1)
    shift = work[:, -1].copy()
    np.subtract(work, shift[:, None], out=work)
    np.maximum(work, EXP_CLAMP, out=work)
    np.exp(work, out=work)
    total = work.sum(axis=1)
    np.log(total, out=total)
    total += shift
    return total


def frame_log_likelihoods(model: GmmModel, X) -> np.ndarray:
    """Per-frame log mixture densities, shape (N,); X may be PreparedFrames."""
    frames = X if isinstance(X, PreparedFrames) else PreparedFrames(X)
    log_joint, work = frames.buffers(model.n_components)
    _log_joint(model, frames.values, frames.squares, log_joint, work)
    return _logsumexp_rows(log_joint, work)


def mixture_log_likelihood(model: GmmModel, X) -> float:
    """Total log likelihood of a feature matrix under the mixture."""
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


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (m, n) array, adding in the order numpy's pairwise
    sum adds m contiguous values: below 8 one by one, up to 128 in eight
    interleaved partial sums combined as a tree plus the tail, and above 128
    as two halves whose split is a multiple of 8."""
    m = rows.shape[0]
    if m < 8:
        total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
        return total
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    tail = m - m % 8
    acc = rows[:8].copy()
    for i in range(8, tail, 8):
        acc += rows[i: i + 8]
    pairs = acc[0::2] + acc[1::2]
    total = pairs[0] + pairs[1]
    total += pairs[2] + pairs[3]
    for row in rows[tail:]:
        total += row
    return total


def _sq_distances(XT: np.ndarray, center: np.ndarray, work: np.ndarray) -> np.ndarray:
    """np.sum((X - center) ** 2, axis=1), bit for bit, from XT = X.T in C order.

    numpy sums each short row of X as a pairwise sum from +0.0, one call per
    row; here each step is one operation over all frames. work is XT's shape.
    """
    np.subtract(XT, center[:, None], out=work)
    np.square(work, out=work)
    total = _pairwise_sum(work)
    total += 0.0
    return total


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 10):
    """Seeded k-means++ with up to iters Lloyd iterations (at least one),
    stopping early at an exact fixed point, which the rest would repeat.

    Each seeding step draws its point as rng.choice(n, p=d2 / d2.sum())
    would, consuming the generator exactly as that call does. Every
    non-empty cluster's returned center is the mean of its members under the
    returned labels, bit for bit as X[labels == i].mean(axis=0) computes it.
    """
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    work = np.empty_like(XT)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.full(n, np.inf)  # each frame's squared distance to its nearest center so far
    for i in range(1, k):
        np.minimum(d2, _sq_distances(XT, centers[i - 1], work), out=d2)
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ValueError("squared distances between frames are not finite")
        if total <= 0.0:
            centers[i] = X[int(rng.integers(n))]
        else:
            centers[i] = X[_draw_index(rng, d2 / total)]

    x_sq = np.sum(X * X, axis=1)[:, None]
    labels = np.zeros(n, dtype=np.intp)
    dists = np.empty((n, k))
    for _ in range(iters):
        previous = centers.copy()
        # x_sq - 2.0 * (X @ centers.T) + |centers|^2, in that order, built in place
        np.matmul(X, 2.0 * centers.T, out=dists)
        np.subtract(x_sq, dists, out=dists)
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

    # the E-step and the final score run in these buffers
    trace: list[float] = []
    frames = PreparedFrames(X)
    log_joint, resp = frames.buffers(n_components)
    below = np.empty(resp.shape, dtype=bool)
    sums = np.empty((n_components, dims))
    sq_sums = np.empty_like(sums)
    live = X.any(axis=0)  # an all-zero column's sums are exactly 0 on both paths
    for _ in range(opts.max_iters):
        _log_joint(model, X, frames.squares, log_joint, resp)
        frame_ll = _logsumexp_rows(log_joint, resp)
        ll = float(frame_ll.sum())
        trace.append(ll)
        if len(trace) >= 2 and ll - trace[-2] < opts.rel_tol * abs(trace[-2]):
            return model, trace

        # flushed responsibilities, or exact ones if a sum is too small
        for threshold in (EXP_CLAMP, EXP_ZERO_BELOW):
            np.subtract(log_joint, frame_ll[:, None], out=resp)
            _exp_in_place(resp, below, threshold)
            nk = resp.sum(axis=0)
            np.matmul(resp.T, X, out=sums)
            np.matmul(resp.T, frames.squares, out=sq_sums)
            smallest = min(np.abs(sums[:, live]).min(initial=np.inf), sq_sums[:, live].min(initial=np.inf))
            if min(np.abs(nk).min(), smallest) >= EXACT_SUMS_ABOVE:
                break
        empty = nk <= 0.0
        nk_safe = np.where(empty, 1.0, nk)
        new_means = sums / nk_safe[:, None]
        new_sq = sq_sums / nk_safe[:, None]
        new_vars = np.maximum(new_sq - new_means * new_means, floor)
        new_weights = nk / n_frames
        if np.any(empty):
            worst = int(np.argmin(frame_ll))
            new_means[empty] = X[worst]
            new_vars[empty] = global_var_floored
            new_weights[empty] = 1.0 / n_frames
        new_weights /= new_weights.sum()
        model = GmmModel(new_weights, new_means, new_vars)

    trace.append(mixture_log_likelihood(model, frames))
    return model, trace


GMM_MAGIC = "ACGMM1"


def save_gmm(path, model: GmmModel) -> None:
    """Write a model as 'ACGMM1 N M' plus float64 LE weights, means, variances."""
    with open(path, "wb") as fh:
        records.write_record(fh, GMM_MAGIC, [model.n_components, model.dims],
                             model.weights, model.means, model.variances)


def load_gmm(path) -> GmmModel:
    """Read a model written by save_gmm; the round trip is bit-exact, and
    any damage is a DataError naming the file."""
    with open(path, "rb") as fh:
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
