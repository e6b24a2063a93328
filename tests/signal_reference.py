"""Naive reference formulas for the silence-removal tests: one frame at a
time, one spectrum at a time."""

from dataclasses import dataclass

import numpy as np


def short_time_energy(frame: np.ndarray) -> float:
    """Mean squared amplitude of one frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size < 1:
        raise ValueError("frame must contain at least one sample")
    return float(np.mean(frame * frame))


@dataclass
class Spectrum:
    """One-sided magnitude spectrum. magnitudes[0] is the DC bin."""

    magnitudes: np.ndarray
    bin_hz: float = 0.0

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.magnitudes.size and (
            not np.all(np.isfinite(self.magnitudes)) or np.any(self.magnitudes < 0)
        ):
            raise ValueError("magnitudes must be finite and non-negative")


def magnitude_spectrum(frame: np.ndarray, sample_rate: int | None = None) -> Spectrum:
    """One-sided DFT magnitude of a sample window (K = floor(N/2) + 1 bins)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size < 1:
        raise ValueError("frame must contain at least one sample")
    mags = np.abs(np.fft.rfft(frame))
    bin_hz = sample_rate / frame.size if sample_rate else 0.0
    return Spectrum(mags, bin_hz)


def spectral_centroid(spec: Spectrum) -> float:
    """Magnitude-weighted mean bin position, in 1-based bin units.

    Bin k (k = 1..K, with k=1 the DC bin) is weighted by k + 1, so a single
    active bin k0 yields k0 + 1. An all-zero spectrum returns 0 by convention.
    """
    mags = spec.magnitudes
    total = np.sum(mags)
    if total <= 0.0:
        return 0.0
    return float(np.sum(np.arange(2, mags.size + 2, dtype=np.float64) * mags) / total)
