"""Naive reference formulas for the GMM tests: one Gaussian, one frame at a
time, and EM as first written, one fresh array per operation."""

import numpy as np

from accent_forge.gmm import LOG_2PI, MIN_VARIANCE, GmmModel, frame_log_likelihoods


def gaussian_log_density(x, mean, var) -> float:
    """Log density of a diagonal Gaussian at x (natural log)."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var <= 0):
        raise ValueError("variances must be positive")
    diff = x - mean
    return float(-0.5 * (x.size * LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var)))


def component_posteriors(model, x) -> np.ndarray:
    """Posterior of each component for one frame: weighted component density
    over the mixture density, in the log domain."""
    x = np.asarray(x, dtype=np.float64)
    total = frame_log_likelihoods(model, x)[0]
    return np.array([
        np.exp(np.log(w) + gaussian_log_density(x, mean, var) - total)
        for w, mean, var in zip(model.weights, model.means, model.variances)
    ])


def mean_log_likelihood(model, X) -> float:
    """Per-frame average log likelihood."""
    return float(np.mean(frame_log_likelihoods(model, X)))


def scan_kmeans(X, k, rng, iters=10):
    """Reference k-means: per-cluster membership scans, as first written."""
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
        empties = [i for i in range(k) if not np.any(labels == i)]
        if empties:
            order = np.argsort(-np.min(dists, axis=1), kind="stable")
            for i, worst in zip(empties, order):
                centers[i] = X[worst]
                labels[int(worst)] = i
        for i in range(k):
            member = labels == i
            if np.any(member):
                centers[i] = X[member].mean(axis=0)
    return centers, labels


def naive_em_init(X, k, opts):
    """EM's starting model as first written: boolean-mask means, counts and variances."""
    rng = np.random.default_rng(opts.seed)
    global_var = X.var(axis=0)
    floor = np.maximum(opts.variance_floor_factor * global_var, MIN_VARIANCE)
    centers, labels = scan_kmeans(X, k, rng)
    weights = np.zeros(k)
    means = centers.copy()
    variances = np.tile(np.maximum(global_var, floor), (k, 1))
    for i in range(k):
        member = labels == i
        count = int(np.count_nonzero(member))
        weights[i] = count / X.shape[0]
        if count:
            means[i] = X[member].mean(axis=0)
        if count >= 2:
            variances[i] = np.maximum(X[member].var(axis=0), floor)
    weights = np.maximum(weights, 1.0 / (10.0 * X.shape[0]))
    weights /= weights.sum()
    return GmmModel(weights, means, variances)


def component_log_densities(model, X) -> np.ndarray:
    """Per-frame, per-component Gaussian log densities, shape (frames, components)."""
    prec = 1.0 / model.variances
    log_norm = -0.5 * (model.dims * LOG_2PI + np.sum(np.log(model.variances), axis=1))
    quad = (
        (X * X) @ prec.T
        - 2.0 * (X @ (model.means * prec).T)
        + np.sum(model.means * model.means * prec, axis=1)
    )
    return log_norm[None, :] - 0.5 * quad


def logsumexp_rows(z) -> np.ndarray:
    """Row-wise log-sum-exp; addends are sorted so the result is order-invariant."""
    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    e.sort(axis=1)
    return shift[:, 0] + np.log(e.sum(axis=1))


def reference_frame_log_likelihoods(model, X) -> np.ndarray:
    """Per-frame log mixture densities."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return logsumexp_rows(component_log_densities(model, X) + np.log(model.weights)[None, :])


def reference_em_fit(X, n_components, opts):
    """EM from naive_em_init's start, each E-step and M-step written out."""
    X = np.asarray(X, dtype=np.float64)
    n_frames = X.shape[0]
    global_var = X.var(axis=0)
    floor = np.maximum(opts.variance_floor_factor * global_var, MIN_VARIANCE)
    global_var_floored = np.maximum(global_var, floor)
    model = naive_em_init(X, n_components, opts)
    trace = []
    x_sq = X * X
    for _ in range(opts.max_iters):
        log_joint = component_log_densities(model, X) + np.log(model.weights)[None, :]
        frame_ll = logsumexp_rows(log_joint)
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

    trace.append(float(np.sum(reference_frame_log_likelihoods(model, X))))
    return model, trace


def float32_frame_bounds(model, X) -> np.ndarray:
    """Per-frame bound on how far float32 scoring may move a frame's log
    mixture density (the bound the gmm module states): (d + 8) u times the
    largest term magnitude M of a weighted component, plus 96 u for the
    shifted exp and its sum, where M is x^2 . prec/2 + |x| . |mu*prec| +
    sum(mu^2 prec)/2 + |log_norm| + |log w|."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    prec = 1.0 / model.variances
    log_norm = -0.5 * (model.dims * LOG_2PI + np.sum(np.log(model.variances), axis=1))
    live = model.weights > 0
    magnitude = (
        (X * X) @ (0.5 * prec[live]).T
        + np.abs(X) @ np.abs(model.means * prec)[live].T
        + 0.5 * np.sum(model.means * model.means * prec, axis=1)[live]
        + np.abs(log_norm[live])
        + np.abs(np.log(model.weights[live]))
    )
    u = 2.0 ** -24  # float32 unit roundoff
    return u * ((model.dims + 8) * magnitude.max(axis=1) + 96.0)
