"""Formant-style corpus generator owned by the benchmark.

Each utterance is a run of synthesized vowels (a glottal pulse train through
two formant resonators) grouped into "words" of back-to-back vowels, with a
quiet Brownian rumble between words. Accents shift the first two formants
of each vowel by a per-accent pattern of -1/0/+1 steps times
``formant_shift``; accent 0 is unshifted. Speakers differ by a vocal-tract
scale factor, so the accent shift has to stand out against speaker spread.

The generator writes 16-bit PCM audio, ``start end phone confidence``
alignments and a manifest, and returns each utterance's ground-truth speech
intervals so that silence removal can be checked against them. It does not
use the program's own synthesis, audio or alignment writers, so a change to
those cannot move the benchmark's inputs.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.signal

VOWELS = (
    "aa", "ae", "ah", "ao", "aw", "ay", "eh", "er",
    "ey", "ih", "iy", "ow", "oy", "uh", "uw",
)

# Rough (F1, F2) centres in Hz.
VOWEL_FORMANTS = {
    "aa": (730, 1090), "ae": (660, 1720), "ah": (640, 1190), "ao": (570, 840),
    "aw": (700, 1200), "ay": (660, 1400), "eh": (530, 1840), "er": (490, 1350),
    "ey": (480, 2000), "ih": (390, 1990), "iy": (270, 2290), "ow": (450, 1000),
    "oy": (500, 1300), "uh": (440, 1020), "uw": (300, 870),
}

# The accent patterns are part of the workload definition, not of the run
# seed: every seed draws new utterances of the same accents.
PATTERN_SEED = 20160427
GAP_AMPLITUDE = 2e-3
SAMPLE_RATE = 8000


@dataclass(frozen=True)
class CorpusSpec:
    accents: tuple[str, ...]
    utterances_per_accent: int
    duration_s: float
    formant_shift: float
    speech_fraction: float  # share of each utterance filled with vowels
    word_vowels: tuple[int, int] = (1, 1)  # vowels per word, inclusive range
    speaker_spread: float = 0.0  # half-width of the vocal-tract scale factor


def accent_patterns(n_accents: int) -> np.ndarray:
    """(accents, vowels, 2) array of formant steps in {-1, 0, 1}.

    Raises ValueError if two accents would share a pattern, since such a
    corpus has fewer distinct accents than labels.
    """
    patterns = np.zeros((n_accents, len(VOWELS), 2), dtype=np.int64)
    for a in range(1, n_accents):
        patterns[a] = np.random.default_rng([PATTERN_SEED, a]).integers(-1, 2, size=(len(VOWELS), 2))
    for a in range(n_accents):
        for b in range(a + 1, n_accents):
            if np.array_equal(patterns[a], patterns[b]):
                raise ValueError(f"accents {a} and {b} would have identical formant patterns")
    return patterns


def _resonator(x: np.ndarray, freq: float, bandwidth: float, sr: int) -> np.ndarray:
    r = np.exp(-np.pi * bandwidth / sr)
    theta = 2.0 * np.pi * freq / sr
    return scipy.signal.lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def _vowel(rng, f1: float, f2: float, n: int, f0: float, sr: int) -> np.ndarray:
    period = max(2, int(round(sr / f0)))
    source = np.zeros(n)
    source[rng.integers(period)::period] = 1.0
    source += 0.02 * rng.standard_normal(n)
    source = scipy.signal.lfilter([1.0], [1.0, -0.9], source)
    out = _resonator(source, f1, 90.0, sr) + 0.6 * _resonator(source, f2, 120.0, sr)
    out *= rng.uniform(0.28, 0.45) / max(float(np.sqrt(np.mean(out * out))), 1e-12)
    ramp = min(int(0.015 * sr), n // 2)
    if ramp > 0:
        edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        out[:ramp] *= edge
        out[-ramp:] *= edge[::-1]
    return out


def _gap(rng, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    noise = np.cumsum(rng.standard_normal(n))
    noise -= noise.mean()
    return GAP_AMPLITUDE * noise / max(float(np.max(np.abs(noise))), 1e-12)


def synthesize(spec: CorpusSpec, patterns: np.ndarray, accent_idx: int, utt_idx: int, seed: int):
    """One utterance: (int16 samples, vowel segments, speech intervals), all in seconds."""
    rng = np.random.default_rng([seed, accent_idx, utt_idx])
    sr = SAMPLE_RATE
    f0 = rng.uniform(100.0, 150.0)
    tract = 1.0 + rng.uniform(-spec.speaker_spread, spec.speaker_spread)

    # vowel tokens: whole shuffled passes over the inventory (4.2 s of
    # speech each on average), so every vowel occurs in every utterance
    passes = max(1, round(spec.speech_fraction * spec.duration_s / (len(VOWELS) * 0.28)))
    tokens = [int(v) for _ in range(passes) for v in rng.permutation(len(VOWELS))]
    durations = list(rng.uniform(0.22, 0.34, size=len(tokens)))
    words = []
    i = 0
    while i < len(tokens):
        k = int(rng.integers(spec.word_vowels[0], spec.word_vowels[1] + 1))
        words.append(list(range(i, min(i + k, len(tokens)))))
        i += k
    gap_total = max(spec.duration_s - sum(durations), 0.1 * (len(words) + 1))
    shares = rng.uniform(0.6, 1.4, size=len(words) + 1)
    gaps = np.round(gap_total * shares / shares.sum() * sr).astype(int)

    pieces = [_gap(rng, gaps[0])]
    cursor = gaps[0]
    segments, speech = [], []
    for w, word in enumerate(words):
        word_start = cursor
        for t in word:
            v = VOWELS[tokens[t]]
            f1, f2 = VOWEL_FORMANTS[v]
            s1, s2 = patterns[accent_idx, tokens[t]]
            n = int(round(durations[t] * sr))
            wave_ = _vowel(
                rng,
                f1 * tract * (1.0 + spec.formant_shift * s1),
                f2 * tract * (1.0 + spec.formant_shift * s2),
                n, f0, sr,
            )
            conf = round(float(rng.uniform(-5.0, -0.5)), 3)
            segments.append((cursor / sr, (cursor + n) / sr, v, conf))
            pieces.append(wave_)
            cursor += n
        speech.append((word_start / sr, cursor / sr))
        pieces.append(_gap(rng, gaps[w + 1]))
        cursor += gaps[w + 1]

    samples = np.concatenate(pieces)
    peak = float(np.max(np.abs(samples)))
    if peak > 0.99:
        samples *= 0.99 / peak
    pcm = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
    return pcm, segments, speech


@dataclass
class Corpus:
    manifest: Path
    accents: tuple[str, ...]
    utterances: dict[str, str]  # utterance id -> accent
    speech_s: dict[str, float]  # utterance id -> ground-truth speech seconds


def generate(spec: CorpusSpec, seed: int, out_dir) -> Corpus:
    """Write audio, alignments and manifest under out_dir."""
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    (out_dir / "align").mkdir(parents=True, exist_ok=True)
    patterns = accent_patterns(len(spec.accents))
    lines = ["# benchmark corpus: id\taudio\taccent\talignment"]
    utterances, speech_s = {}, {}
    for a, accent in enumerate(spec.accents):
        for u in range(spec.utterances_per_accent):
            utt = f"{accent}{u:04d}"
            pcm, segments, speech = synthesize(spec, patterns, a, u, seed)
            with wave.open(str(out_dir / "audio" / f"{utt}.wav"), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(SAMPLE_RATE)
                wf.writeframes(pcm.tobytes())
            (out_dir / "align" / f"{utt}.ali").write_text(
                "".join(f"{s:.6f} {e:.6f} {v} {c}\n" for s, e, v, c in segments), encoding="utf-8"
            )
            lines.append(f"{utt}\taudio/{utt}.wav\t{accent}\talign/{utt}.ali")
            utterances[utt] = accent
            speech_s[utt] = sum(e - s for s, e in speech)
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Corpus(manifest, tuple(spec.accents), utterances, speech_s)
