"""Synthetic formant-style corpus generation for desk-scale end-to-end runs.

Each utterance is a sequence of synthesized vowel segments separated by
near-silent gaps. Every vowel of the inventory appears once per utterance,
so per-vowel models always have training material. Accents are simulated by
shifting the formants of a deterministic, accent-specific subset of vowels;
the reference accent (index 0) is unshifted. All randomness flows from
per-utterance generators seeded by (seed, accent index, utterance index),
so reruns are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import AudioBuffer, save_audio
from .config import SynthSpec
from .corpus import VOWELS, AlignmentSegment, write_alignment
from .errors import DataError

# Rough (F1, F2) centers in Hz for each inventory vowel.
VOWEL_FORMANTS = {
    "aa": (730, 1090), "ae": (660, 1720), "ah": (640, 1190), "ao": (570, 840),
    "aw": (700, 1200), "ay": (660, 1400), "eh": (530, 1840), "er": (490, 1350),
    "ey": (480, 2000), "ih": (390, 1990), "iy": (270, 2290), "ow": (450, 1000),
    "oy": (500, 1300), "uh": (440, 1020), "uw": (300, 870),
}

# Quiet but comfortably above one 16-bit step, so the rumble's low-frequency
# character survives quantization instead of degenerating into white noise.
GAP_AMPLITUDE = 2e-3


# (F1, F2) phase offsets of the shift pattern of accents 1, 2, ...: every
# pair of offsets over Z3, so no two accents share a pattern.
ACCENT_OFFSETS = ((2, 1), (1, 2), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2))
MAX_ACCENTS = len(ACCENT_OFFSETS) + 1


def accent_formant_factors(accent_idx: int, vowel_idx: int, shift: float) -> tuple[float, float]:
    """Multiplicative (F1, F2) factors for one accent and vowel.

    Accent 0 is the unshifted reference. Other accents raise, lower, or
    leave each formant alone following a pattern over the vowel index with
    period 3 and an accent-specific phase, so every accent pair differs on
    most vowels while some vowels stay shared. There are MAX_ACCENTS
    distinct patterns; a larger accent index raises ValueError.
    """
    if not 0 <= accent_idx < MAX_ACCENTS:
        raise ValueError(f"accent index must be in [0, {MAX_ACCENTS}), got {accent_idx}")
    if accent_idx == 0:
        return 1.0, 1.0
    p1, p2 = ACCENT_OFFSETS[accent_idx - 1]
    u1 = ((vowel_idx + p1) % 3) - 1
    u2 = ((vowel_idx + p2) % 3) - 1
    return 1.0 + shift * u1, 1.0 + shift * u2


def _resonator(x: np.ndarray, freq: float, bandwidth: float, sr: int) -> np.ndarray:
    import scipy.signal  # not at the top: it takes a second to import, and only synthcorpus uses it

    r = np.exp(-np.pi * bandwidth / sr)
    theta = 2.0 * np.pi * freq / sr
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    return scipy.signal.lfilter([1.0 - r], a, x)


def _vowel_segment(
    rng: np.random.Generator, vowel: str, factors: tuple[float, float],
    duration_s: float, f0: float, sr: int,
) -> np.ndarray:
    import scipy.signal

    n = int(round(duration_s * sr))
    period = max(2, int(round(sr / f0)))
    source = np.zeros(n)
    source[::period] = 1.0
    source += 0.02 * rng.standard_normal(n)
    # single-pole lowpass approximates the glottal rolloff
    source = scipy.signal.lfilter([1.0], [1.0, -0.9], source)

    f1, f2 = VOWEL_FORMANTS[vowel]
    out = _resonator(source, f1 * factors[0], 90.0, sr)
    out += 0.6 * _resonator(source, f2 * factors[1], 120.0, sr)

    rms = float(np.sqrt(np.mean(out * out)))
    out *= rng.uniform(0.28, 0.45) / max(rms, 1e-12)
    ramp = min(int(0.015 * sr), n // 2)
    if ramp > 0:
        env = np.ones(n)
        edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[:ramp] = edge
        env[-ramp:] = edge[::-1]
        out *= env
    return out


def _gap(rng: np.random.Generator, duration_s: float, sr: int) -> np.ndarray:
    n = int(round(duration_s * sr))
    if n == 0:
        return np.zeros(0)
    # Brownian rumble: the 1/f^2 spectrum keeps the gap's centroid far below
    # any vowel's, which is what the centroid threshold relies on
    noise = np.cumsum(rng.standard_normal(n))
    noise -= noise.mean()
    peak = float(np.max(np.abs(noise)))
    return GAP_AMPLITUDE * noise / max(peak, 1e-12)


def synthesize_utterance(
    spec: SynthSpec, accent_idx: int, utt_idx: int, seed: int
) -> tuple[AudioBuffer, list[AlignmentSegment]]:
    """One utterance plus its vowel alignment, fully determined by the seed."""
    rng = np.random.default_rng([seed, accent_idx, utt_idx])
    sr = spec.sample_rate
    f0 = rng.uniform(100.0, 150.0)

    vowel_order = rng.permutation(len(VOWELS))
    seg_durations = rng.uniform(0.22, 0.34, size=len(VOWELS))
    gap_budget = max(spec.duration_s - float(seg_durations.sum()), 0.5)
    gap_shares = rng.uniform(0.6, 1.4, size=len(VOWELS) + 1)
    gap_durations = gap_budget * gap_shares / gap_shares.sum()

    pieces = [_gap(rng, gap_durations[0], sr)]
    cursor = pieces[0].size
    segments: list[AlignmentSegment] = []
    for pos, vowel_idx in enumerate(vowel_order):
        vowel = VOWELS[vowel_idx]
        factors = accent_formant_factors(accent_idx, int(vowel_idx), spec.formant_shift)
        wave = _vowel_segment(rng, vowel, factors, seg_durations[pos], f0, sr)
        start = cursor / sr
        cursor += wave.size
        segments.append(
            AlignmentSegment(
                round(start, 6),
                round(cursor / sr, 6),
                vowel,
                round(float(rng.uniform(-5.0, -0.5)), 3),
            )
        )
        pieces.append(wave)
        gap = _gap(rng, gap_durations[pos + 1], sr)
        pieces.append(gap)
        cursor += gap.size

    samples = np.concatenate(pieces)
    peak = float(np.max(np.abs(samples)))
    if peak > 0.99:
        samples = samples * (0.99 / peak)
    return AudioBuffer(samples, sr), segments


def generate_corpus(spec: SynthSpec, seed: int, out_dir) -> Path:
    """Write audio, alignments, and a manifest; returns the manifest path."""
    if len(spec.accents) > MAX_ACCENTS:
        raise DataError(
            f"the synthetic generator has distinct formant patterns for at most "
            f"{MAX_ACCENTS} accents, got {len(spec.accents)}"
        )
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    align_dir = out_dir / "align"
    audio_dir.mkdir(parents=True, exist_ok=True)
    align_dir.mkdir(parents=True, exist_ok=True)

    lines = ["# synthetic corpus: id\taudio\taccent\talignment"]
    for accent_idx, accent in enumerate(spec.accents):
        for utt_idx in range(spec.utterances_per_accent):
            utt = f"{accent}{utt_idx:04d}"
            audio, segments = synthesize_utterance(spec, accent_idx, utt_idx, seed)
            wav_rel = f"audio/{utt}.wav"
            ali_rel = f"align/{utt}.ali"
            save_audio(out_dir / wav_rel, audio)
            write_alignment(out_dir / ali_rel, segments)
            lines.append(f"{utt}\t{wav_rel}\t{accent}\t{ali_rel}")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
