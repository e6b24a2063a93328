"""Perceptual linear prediction features with per-utterance normalization and context expansion.

The static front end: pre-emphasis, Hamming-windowed framing, power spectrum,
critical-band (Bark) integration with trapezoidal filters, equal-loudness
weighting, cube-root amplitude compression, autoregressive modeling via
Levinson-Durbin, and an LP-to-cepstrum recursion. Dynamic features are
least-squares slope estimates over a symmetric window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import records
from .audio import AudioBuffer, frame_signal
from .errors import DataError

# Cepstra emitted for frames whose compressed band energy vanishes.
ENERGY_FLOOR = 1e-10

COMPRESSION_EXPONENT = 0.33


@dataclass
class PlpConfig:
    frame_len_ms: float = 25.0
    hop_ms: float = 10.0
    lp_order: int = 12
    num_cepstra: int = 13
    num_bark_bands: int | None = None  # None: one band per Bark up to Nyquist
    preemphasis: float = 0.97
    delta_window: int = 2

    def __post_init__(self):
        if self.frame_len_ms <= 0:
            raise ValueError("frame_len_ms must be positive")
        if self.hop_ms <= 0:
            raise ValueError("hop_ms must be positive")
        if self.lp_order < 2:
            raise ValueError("lp_order must be >= 2")
        if not 1 <= self.num_cepstra <= self.lp_order + 1:
            raise ValueError("num_cepstra must lie in 1..lp_order + 1")
        if self.num_bark_bands is not None and self.num_bark_bands < self.lp_order + 1:
            raise ValueError("num_bark_bands must be >= lp_order + 1")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must lie in [0, 1)")
        if self.delta_window < 1:
            raise ValueError("delta_window must be >= 1")


@dataclass
class FeatureMatrix:
    """Frames-by-dimensions feature values plus frame timing provenance.

    start_ms is the center time of frame 0 on the analyzed waveform;
    frame i is centered at start_ms + i * hop_ms.
    """

    values: np.ndarray
    utterance_id: str = ""
    start_ms: float = 0.0
    hop_ms: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D (frames x dims) array")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must all be finite")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def frame_centers_s(self) -> np.ndarray:
        return (self.start_ms + self.hop_ms * np.arange(self.n_frames)) / 1000.0

    def with_values(self, values: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(values, self.utterance_id, self.start_ms, self.hop_ms)


def hz_to_bark(f):
    return 6.0 * np.arcsinh(np.asarray(f, dtype=np.float64) / 600.0)


def bark_to_hz(z):
    return 600.0 * np.sinh(np.asarray(z, dtype=np.float64) / 6.0)


def equal_loudness(f):
    """Equal-loudness weight at frequency f (Hz), zero at DC."""
    fsq = np.asarray(f, dtype=np.float64) ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * ((fsq + 1.44e6) / (fsq + 9.61e6))


def bark_filterbank(n_fft: int, sample_rate: int, n_bands: int | None = None):
    """Trapezoidal critical-band filters over one-sided FFT bins.

    Band centers are evenly spaced on the Bark axis from 0 to the Nyquist
    Bark; each filter is flat within +-0.5 Bark of its center and falls off
    by a factor of 10 per Bark below and 10^2.5 per Bark above.

    Returns (weights, center_hz) with weights shaped (n_bands, n_fft//2 + 1).
    """
    nyquist_bark = float(hz_to_bark(sample_rate / 2.0))
    if n_bands is None:
        n_bands = int(np.ceil(nyquist_bark)) + 1
    if n_bands < 2:
        raise ValueError("need at least 2 critical bands")
    bin_bark = hz_to_bark(np.arange(n_fft // 2 + 1) * sample_rate / n_fft)
    centers_bark = np.linspace(0.0, nyquist_bark, n_bands)
    rel = bin_bark[None, :] - centers_bark[:, None]
    low = rel + 0.5
    high = -2.5 * (rel - 0.5)
    weights = 10.0 ** np.minimum(0.0, np.minimum(low, high))
    return weights, bark_to_hz(centers_bark)


def preemphasize(x: np.ndarray, coeff: float) -> np.ndarray:
    if coeff <= 0.0:
        return np.asarray(x, dtype=np.float64).copy()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    return np.concatenate(([x[0]], x[1:] - coeff * x[:-1]))


def _levinson_batch(r: np.ndarray, order: int):
    """Levinson-Durbin over rows of autocorrelations r (frames x (order+1)).

    Returns (a, err): AR polynomials with a[:, 0] == 1 and the final
    prediction error per frame. Rows with r[:,0] <= 0 come back as
    (identity polynomial, 0) and must be handled by the caller.
    """
    n = r.shape[0]
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    ok = err > 0.0
    for i in range(1, order + 1):
        acc = r[:, i] + np.einsum("fj,fj->f", a[:, 1:i], r[:, i - 1:0:-1])
        k = np.zeros(n)
        k[ok] = -acc[ok] / err[ok]
        np.clip(k, -1.0 + 1e-12, 1.0 - 1e-12, out=k)
        prev = a[:, 1:i][:, ::-1].copy()
        a[:, 1:i] += k[:, None] * prev
        a[:, i] = k
        err = err * (1.0 - k * k)
    return a, err


def _lpc_to_cepstra(a: np.ndarray, err: np.ndarray, n_ceps: int) -> np.ndarray:
    """Cepstra of the all-pole model; c0 carries the log prediction error."""
    n, _ = a.shape
    c = np.zeros((n, n_ceps))
    c[:, 0] = np.log(np.maximum(err, ENERGY_FLOOR))
    for q in range(1, n_ceps):
        acc = np.zeros(n)
        for p in range(1, q):
            acc += (q - p) * a[:, p] * c[:, q - p]
        c[:, q] = -(a[:, q] + acc / q)
    return c


def plp_static(audio: AudioBuffer, cfg: PlpConfig | None = None, utterance_id: str = "") -> FeatureMatrix:
    """Static cepstral features (num_cepstra dims, c0 first) for one utterance.

    Frames whose compressed band energy is at or below ENERGY_FLOOR produce
    the floor vector (log ENERGY_FLOOR, 0, ..., 0) instead of failing.
    """
    cfg = cfg or PlpConfig()
    if audio.sample_rate < 8000:
        raise ValueError("sample rate must be at least 8000 Hz")
    emphasized = AudioBuffer(preemphasize(audio.samples, cfg.preemphasis), audio.sample_rate)
    fs = frame_signal(emphasized, cfg.frame_len_ms, cfg.hop_ms)
    if fs.n_frames == 0:
        return FeatureMatrix(
            np.zeros((0, cfg.num_cepstra)), utterance_id, cfg.frame_len_ms / 2.0, cfg.hop_ms
        )

    n_fft = 1
    while n_fft < fs.frame_len:
        n_fft *= 2
    window = np.hamming(fs.frame_len)
    spectra = np.abs(np.fft.rfft(fs.frames * window, n=n_fft, axis=1)) ** 2

    fb, center_hz = bark_filterbank(n_fft, fs.sample_rate, cfg.num_bark_bands)
    if fb.shape[0] < cfg.lp_order + 1:
        raise ValueError(
            f"{fb.shape[0]} critical bands cannot support lp_order {cfg.lp_order}"
        )
    bands = spectra @ fb.T
    compressed = (bands * equal_loudness(center_hz)) ** COMPRESSION_EXPONENT
    # edge bands are unreliable as integrated; reuse their neighbors
    compressed[:, 0] = compressed[:, 1]
    compressed[:, -1] = compressed[:, -2]

    # even extension and inverse DFT turn the band spectrum into autocorrelation
    extension = np.concatenate([compressed, compressed[:, -2:0:-1]], axis=1)
    autocorr = np.fft.ifft(extension, axis=1).real[:, : cfg.lp_order + 1]

    degenerate = autocorr[:, 0] <= ENERGY_FLOOR
    a, err = _levinson_batch(autocorr, cfg.lp_order)
    ceps = _lpc_to_cepstra(a, err, cfg.num_cepstra)
    if np.any(degenerate):
        floor_vec = np.zeros(cfg.num_cepstra)
        floor_vec[0] = np.log(ENERGY_FLOOR)
        ceps[degenerate] = floor_vec
    return FeatureMatrix(ceps, utterance_id, cfg.frame_len_ms / 2.0, cfg.hop_ms)


def _delta(values: np.ndarray, window: int) -> np.ndarray:
    """Least-squares slope over +-window frames with edge replication."""
    top = np.repeat(values[:1], window, axis=0)
    bottom = np.repeat(values[-1:], window, axis=0)
    padded = np.concatenate([top, values, bottom], axis=0)
    t = values.shape[0]
    num = np.zeros_like(values)
    for d in range(1, window + 1):
        num += d * (padded[window + d: window + d + t] - padded[window - d: window - d + t])
    return num / (2.0 * sum(d * d for d in range(1, window + 1)))


def append_deltas(f: FeatureMatrix, delta_window: int = 2) -> FeatureMatrix:
    """Append slope and curvature features: [static | delta | delta-delta]."""
    if f.n_frames == 0:
        raise ValueError("cannot compute deltas of an empty feature matrix")
    if delta_window < 1:
        raise ValueError("delta_window must be >= 1")
    d1 = _delta(f.values, delta_window)
    d2 = _delta(d1, delta_window)
    return f.with_values(np.hstack([f.values, d1, d2]))


def mvn(f: FeatureMatrix) -> FeatureMatrix:
    """Per-dimension mean and variance normalization over the utterance.

    Zero-variance dimensions are mean-subtracted only; a single-frame input
    therefore comes back as all zeros.
    """
    std = f.values.std(axis=0)
    return f.with_values((f.values - f.values.mean(axis=0)) / np.where(std == 0.0, 1.0, std))


def context_expand(f: FeatureMatrix, context: int, out: np.ndarray | None = None) -> FeatureMatrix:
    """Concatenate each frame with its context left and right neighbors.

    Neighbors beyond the edges are replicated; context=0 is the identity.
    The expansion is written into out, an (n_frames, dims * (2 * context + 1))
    float64 array, when one is given, and into a new array otherwise.
    """
    if context < 0:
        raise ValueError("context must be >= 0")
    t, d = f.n_frames, f.dims
    if out is None:
        out = np.empty((t, d * (2 * context + 1)))
    for k, offset in enumerate(range(-context, context + 1)):
        # rows [lo, hi) read row + offset; the rows before and after repeat an edge row
        block = out[:, k * d:(k + 1) * d]
        lo, hi = min(max(-offset, 0), t), max(min(t - offset, t), 0)
        block[lo:hi] = f.values[lo + offset:hi + offset]
        block[:lo] = f.values[:1]
        block[hi:] = f.values[-1:]
    return f.with_values(out)


FEATURE_MAGIC = "ACFEAT1"


def write_feature_archive(path, f: FeatureMatrix) -> None:
    """Write one utterance's features as an ACFEAT1 record (UTF-8 header + float64 LE rows)."""
    with open(path, "wb") as fh:
        fields = [f.utterance_id, f.dims, f.n_frames, repr(f.start_ms), repr(f.hop_ms)]
        records.write_record(fh, FEATURE_MAGIC, fields, f.values)


def read_feature_archive(path) -> FeatureMatrix:
    """Read the one ACFEAT1 record of an archive file, which must end the file."""
    with open(path, "rb") as fh:
        utt, dims, frames, start_ms, hop_ms = records.read_header(
            fh, path, FEATURE_MAGIC, str, int, int, float, float)
        if dims < 0 or frames < 0 or not (math.isfinite(start_ms) and 0.0 < hop_ms < math.inf):
            raise DataError(f"{path}: bad ACFEAT1 header for {utt}: {dims} {frames} {start_ms} {hop_ms}")
        values = records.read_floats(fh, path, FEATURE_MAGIC, frames, dims)
        records.read_end(fh, path, FEATURE_MAGIC)
    try:
        return FeatureMatrix(values, utt, start_ms, hop_ms)
    except ValueError as exc:
        raise DataError(f"{path}: record {utt}: {exc}") from None
