"""Silence removal by thresholding short-time energy and spectral centroid.

Per-frame energy and centroid sequences are median-smoothed twice, a
threshold is estimated for each from the first two modes of its histogram,
and a frame survives only if both smoothed measures clear their thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, Spectrum, frame_signal
from .errors import DataError


@dataclass
class VadConfig:
    frame_len_ms: float = 50.0
    hop_ms: float = 25.0
    smooth_window: int = 5
    threshold_weight: float = 5.0
    min_segment_ms: float = 100.0

    def __post_init__(self):
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and >= 1")
        if min(self.frame_len_ms, self.hop_ms, self.min_segment_ms) <= 0:
            raise ValueError("durations must be positive")
        if self.threshold_weight < 0:
            raise ValueError("threshold_weight must be >= 0")


@dataclass
class SpeechMask:
    """Per-frame keep decision, with the framing that produced it."""

    keep: np.ndarray  # bool, one entry per frame
    frame_len: int  # samples
    hop: int  # samples
    sample_rate: int

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)

    @property
    def n_frames(self) -> int:
        return self.keep.size

    @property
    def hop_s(self) -> float:
        return self.hop / self.sample_rate


def short_time_energy(frame: np.ndarray) -> float:
    """Mean squared amplitude of one frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size < 1:
        raise ValueError("frame must contain at least one sample")
    return float(np.mean(frame * frame))


def spectral_centroid(spec: Spectrum) -> float:
    """Magnitude-weighted mean bin position, in 1-based bin units.

    Bin k (k = 1..K, with k=1 the DC bin) is weighted by k + 1, so a single
    active bin k0 yields k0 + 1. An all-zero spectrum returns 0 by convention.
    """
    return float(_centroids(spec.magnitudes[None, :])[0])


def _centroids(mags: np.ndarray) -> np.ndarray:
    """spectral_centroid of every row of an (n_frames, K) magnitude matrix."""
    totals = np.sum(mags, axis=1)
    weighted = np.sum(np.arange(2, mags.shape[1] + 2, dtype=np.float64) * mags, axis=1)
    out = np.zeros(mags.shape[0])
    live = totals > 0.0
    out[live] = weighted[live] / totals[live]
    return out


def median_smooth(values, window: int) -> np.ndarray:
    """Sliding median with truncated windows at the edges; window=1 is identity."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    values = np.asarray(values, dtype=np.float64)
    if window == 1 or values.size <= 1:
        return values.copy()
    half = window // 2
    n = values.size
    out = np.empty(n)
    # interior positions all share the full window; handle them in one shot
    if n >= window:
        interior = np.lib.stride_tricks.sliding_window_view(values, window)
        out[half:n - half] = np.median(interior, axis=1)
    for i in range(min(half, n)):
        out[i] = np.median(values[: i + half + 1])
    for i in range(max(n - half, 0), n):
        out[i] = np.median(values[i - half:])
    return out


def estimate_threshold(values, weight: float) -> float:
    """Histogram-based threshold between the first two modes of a sequence.

    Builds a histogram with max(10, ceil(sqrt(n))) bins, finds the first two
    local maxima by position (centers M1 < M2) and returns
    (weight*M1 + M2) / (weight + 1). With fewer than two local maxima the
    median of the values is returned instead.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 values to estimate a threshold")
    n_bins = max(10, math.ceil(math.sqrt(n)))
    counts, edges = np.histogram(values, bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])

    maxima = []
    for j in range(n_bins):
        left = counts[j - 1] if j > 0 else -1
        right = counts[j + 1] if j < n_bins - 1 else -1
        if counts[j] > left and counts[j] > right:
            maxima.append(j)
        if len(maxima) == 2:
            break
    if len(maxima) < 2:
        return float(np.median(values))
    m1 = centers[maxima[0]]
    m2 = centers[maxima[1]]
    return float((weight * m1 + m2) / (weight + 1.0))


def _drop_short_runs(keep: np.ndarray, min_frames: int) -> np.ndarray:
    """Zero out kept runs shorter than min_frames frames."""
    edges = np.diff(np.concatenate(([0], keep.astype(np.int8), [0])))
    lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    out = keep.copy()
    # the kept frames, in order, are exactly the runs laid end to end
    out[keep] = np.repeat(lengths >= min_frames, lengths)
    return out


def remove_silence(
    audio: AudioBuffer, cfg: VadConfig | None = None
) -> tuple[AudioBuffer, SpeechMask, float]:
    """Strip silence and non-speech noise from a waveform.

    Returns the retained speech (concatenated hop-length slices of kept
    frames), the per-frame keep mask, and the compression rate
    (kept frames / total frames). Audio shorter than two frames is returned
    unchanged with rate 1.0; all-zero audio yields empty speech and rate 0.0.
    """
    cfg = cfg or VadConfig()
    if audio.samples.size == 0:
        raise DataError("cannot remove silence from empty audio")

    fs = frame_signal(audio, cfg.frame_len_ms, cfg.hop_ms)
    x = audio.samples
    if x.size < fs.frame_len or fs.n_frames < 2:
        mask = SpeechMask(np.ones(max(fs.n_frames, 1), dtype=bool), fs.frame_len, fs.hop, fs.sample_rate)
        return audio, mask, 1.0

    energy = np.mean(fs.frames * fs.frames, axis=1)
    if float(np.max(energy)) == 0.0:
        mask = SpeechMask(np.zeros(fs.n_frames, dtype=bool), fs.frame_len, fs.hop, fs.sample_rate)
        return AudioBuffer(np.zeros(0), fs.sample_rate), mask, 0.0

    centroid = _centroids(np.abs(np.fft.rfft(fs.frames, axis=1)))

    energy_s = median_smooth(median_smooth(energy, cfg.smooth_window), cfg.smooth_window)
    centroid_s = median_smooth(median_smooth(centroid, cfg.smooth_window), cfg.smooth_window)
    t_energy = estimate_threshold(energy_s, cfg.threshold_weight)
    t_centroid = estimate_threshold(centroid_s, cfg.threshold_weight)

    keep = (energy_s >= t_energy) & (centroid_s >= t_centroid)
    min_frames = int(math.ceil(cfg.min_segment_ms / cfg.hop_ms))
    keep = _drop_short_runs(keep, min_frames)

    # frame i contributes its hop-length slice [i*hop, i*hop + hop), clipped to the signal
    covered = np.repeat(keep, fs.hop)[: x.size]
    speech = x[: covered.size][covered]
    rate = float(np.count_nonzero(keep)) / fs.n_frames
    mask = SpeechMask(keep, fs.frame_len, fs.hop, fs.sample_rate)
    return AudioBuffer(speech, fs.sample_rate), mask, rate


def save_mask(path, utterance_id: str, mask: SpeechMask) -> None:
    """Write a speech mask as 'ACMASK1' header plus a 0/1 line."""
    if any(ch.isspace() for ch in utterance_id) or not utterance_id:
        raise ValueError(f"utterance id must be non-empty and whitespace-free: {utterance_id!r}")
    bits = "".join("1" if k else "0" for k in mask.keep)
    header = f"ACMASK1 {utterance_id} {mask.frame_len} {mask.hop} {mask.sample_rate} {mask.n_frames}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write(bits + "\n")


def load_mask(path) -> tuple[str, SpeechMask]:
    """Read a speech mask written by save_mask."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        bits = fh.readline().strip()
    if len(header) != 6 or header[0] != "ACMASK1":
        raise DataError(f"{path}: not an ACMASK1 file")
    _, utt, frame_len, hop, sr, n = header
    if len(bits) != int(n):
        raise DataError(f"{path}: mask length {len(bits)} does not match header count {n}")
    keep = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    return utt, SpeechMask(keep, int(frame_len), int(hop), int(sr))
