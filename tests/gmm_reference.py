"""Naive reference formulas for the GMM tests: one Gaussian, one frame at a time."""

import numpy as np

from accent_forge.gmm import LOG_2PI, frame_log_likelihoods


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
