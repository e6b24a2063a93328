"""Audio ingestion, framing, and spectral primitives.

All functions here are pure; parallel callers need no coordination.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class AudioBuffer:
    """Mono waveform with its sample rate; amplitudes normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must all be finite")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class FrameSequence:
    """Fixed-length analysis windows cut from a waveform.

    Frame i covers samples [i*hop, i*hop + frame_len); a signal shorter
    than one frame yields a single zero-padded frame.
    """

    frames: np.ndarray  # (n_frames, frame_len)
    frame_len: int
    hop: int
    sample_rate: int

    def __post_init__(self):
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if self.frames.ndim != 2 or self.frames.shape[1] != self.frame_len:
            raise ValueError("frames must be (n_frames, frame_len)")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


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


def load_audio(path) -> AudioBuffer:
    """Read a RIFF PCM waveform file (8- or 16-bit) as a mono AudioBuffer.

    Multichannel input is averaged to mono. 16-bit samples are scaled by
    1/32768, 8-bit (unsigned) by (x - 128)/128.
    """
    path = str(path)
    try:
        with wave.open(path, "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            sample_rate = wf.getframerate()
            n_frames = wf.getnframes()
            payload = wf.readframes(n_frames)
    except FileNotFoundError:
        raise DataError(f"{path}: file not found")
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable PCM waveform ({exc})")

    if sampwidth == 1:
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        samples = (raw - 128.0) / 128.0
    elif sampwidth == 2:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
    else:
        raise DataError(
            f"{path}: unsupported encoding ({8 * sampwidth}-bit); only 8/16-bit PCM is accepted"
        )

    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    return AudioBuffer(samples, sample_rate)


def save_audio(path, audio: AudioBuffer) -> None:
    """Write a mono 16-bit PCM waveform file."""
    clipped = np.clip(audio.samples, -1.0, 1.0)
    quantized = np.clip(np.rint(clipped * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(quantized.tobytes())


def frame_signal(audio: AudioBuffer, frame_len_ms: float, hop_ms: float) -> FrameSequence:
    """Cut a waveform into fixed-length frames.

    For len >= frame_len the count is floor((len - frame_len)/hop) + 1 and
    every frame is fully inside the signal; shorter non-empty signals give
    one zero-padded frame; an empty signal gives no frames. The frames are
    read-only; a signal at least one frame long shares its memory with them.
    """
    if frame_len_ms <= 0 or hop_ms <= 0:
        raise ValueError("frame_len_ms and hop_ms must be positive")
    sr = audio.sample_rate
    frame_len = int(round(frame_len_ms * sr / 1000.0))
    hop = max(1, int(round(hop_ms * sr / 1000.0)))
    x = audio.samples
    n = x.size

    if n == 0:
        frames = np.zeros((0, frame_len))
    elif n < frame_len:
        frames = np.zeros((1, frame_len))
        frames[0, :n] = x
    else:
        frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    frames.flags.writeable = False
    return FrameSequence(frames, frame_len, hop, sr)


def magnitude_spectrum(frame: np.ndarray, sample_rate: int | None = None) -> Spectrum:
    """One-sided DFT magnitude of a sample window (K = floor(N/2) + 1 bins)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size < 1:
        raise ValueError("frame must contain at least one sample")
    mags = np.abs(np.fft.rfft(frame))
    bin_hz = sample_rate / frame.size if sample_rate else 0.0
    return Spectrum(mags, bin_hz)
