"""Dataset manifests, deterministic splits, and phone-alignment handling.

Alignments are produced by external tooling and consumed here from plain
text files; nothing in this package performs phone recognition. An
utterance's alignment is remapped onto silence-removed time once and then
labels its feature frames once, as a vowel table: per frame and vowel, the
best confidence of the segments that cover the frame. extract_vowel_frames
writes the table and vowel_rows is its one reader: a vowel's rows, at any
confidence threshold, are a comparison on one of its columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import records
from .errors import DataError
from .features import FeatureMatrix
from .vad import SpeechMask

logger = logging.getLogger(__name__)

# Arpabet vowel inventory, fixed order.
VOWELS: tuple[str, ...] = (
    "aa", "ae", "ah", "ao", "aw", "ay", "eh", "er",
    "ey", "ih", "iy", "ow", "oy", "uh", "uw",
)


@dataclass
class ManifestEntry:
    utterance_id: str
    audio_path: str
    accent: str
    alignment_path: str | None = None


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    inventory: list[str]


@dataclass
class SplitAssignment:
    """Partition tag (train/dev/test) per utterance id."""

    tags: dict[str, str]
    seed: int
    warnings: list[str] = field(default_factory=list)


@dataclass
class AlignmentSegment:
    start: float  # seconds
    end: float  # seconds
    phone: str
    confidence: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"bad segment times: [{self.start}, {self.end})")
        if not self.phone:
            raise ValueError("phone must be non-empty")


def parse_manifest(path) -> Manifest:
    """Parse TAB-separated lines: id (no whitespace), audio path, accent, optional alignment path.

    Lines starting with '#' and blank lines are ignored. The inventory is
    the labels in order of first appearance.
    """
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    found: list[str] = []
    for lineno, raw in enumerate(records.read_text(path, "manifest").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4) or fields[0].split() != [fields[0]] or not all(fields[1:3]):
            raise DataError(f"{path}:{lineno}: malformed manifest line: {line!r}")
        utt, audio_path, accent = fields[:3]
        alignment = fields[3] if len(fields) == 4 and fields[3] else None
        if utt in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {utt!r}")
        seen.add(utt)
        if accent not in found:
            found.append(accent)
        entries.append(ManifestEntry(utt, audio_path, accent, alignment))
    return Manifest(entries, found)


def split_dataset(manifest: Manifest, seed: int = 0) -> SplitAssignment:
    """Seeded per-accent 70:15:15 shuffle into train/dev/test with largest-remainder rounding.

    Accents with fewer than 3 utterances go entirely to train, with a
    recorded warning.
    """
    tags: dict[str, str] = {}
    warnings: list[str] = []
    split_names = ("train", "dev", "test")
    for accent_idx, accent in enumerate(manifest.inventory):
        utts = [e.utterance_id for e in manifest.entries if e.accent == accent]
        n = len(utts)
        if n == 0:
            continue
        if n < 3:
            warnings.append(f"accent {accent!r} has only {n} utterances; all assigned to train")
            for utt in utts:
                tags[utt] = "train"
            continue
        rng = np.random.default_rng([seed, accent_idx])
        order = rng.permutation(n)
        quotas = np.array([0.70, 0.15, 0.15]) * n
        counts = np.floor(quotas).astype(int)
        leftover = n - counts.sum()
        # hand leftovers to the largest fractional parts; stable sort keeps
        # the train/dev/test precedence on ties
        for pos in np.argsort(-(quotas - counts), kind="stable")[:leftover]:
            counts[pos] += 1
        bounds = np.cumsum(counts)
        for rank, utt_pos in enumerate(order):
            split = int(np.searchsorted(bounds, rank, side="right"))
            tags[utts[utt_pos]] = split_names[split]
    assignment = SplitAssignment(tags, seed, warnings)
    for w in warnings:
        logger.warning("%s", w)
    return assignment


def _strip_stress(phone: str) -> str:
    return phone.rstrip("0123456789")


def parse_alignment(path) -> list[AlignmentSegment]:
    """Parse 'start end phone [confidence]' lines into segments sorted by start.

    Phones are lowercased with trailing stress digits stripped. '#' comments
    and blank lines are ignored. Overlapping segments are legal.
    """
    segments: list[AlignmentSegment] = []
    for lineno, raw in enumerate(records.read_text(path, "alignment file").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise DataError(f"{path}:{lineno}: malformed alignment line: {line!r}")
        try:
            start, end = float(fields[0]), float(fields[1])
            confidence = float(fields[3]) if len(fields) == 4 else None
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric field in: {line!r}")
        if not all(math.isfinite(x) for x in (start, end, confidence) if x is not None):
            raise DataError(f"{path}:{lineno}: non-finite field in: {line!r}")
        if end <= start or start < 0:
            raise DataError(f"{path}:{lineno}: segment end must exceed start: {line!r}")
        phone = _strip_stress(fields[2].lower())
        if not phone:
            raise DataError(f"{path}:{lineno}: empty phone label: {line!r}")
        segments.append(AlignmentSegment(start, end, phone, confidence))
    segments.sort(key=lambda s: (s.start, s.end))
    return segments


def write_alignment(path, segments) -> None:
    """Write segments in the canonical text form parse_alignment reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in segments:
            if s.confidence is None:
                fh.write(f"{s.start!r} {s.end!r} {s.phone}\n")
            else:
                fh.write(f"{s.start!r} {s.end!r} {s.phone} {s.confidence!r}\n")


def extract_vowel_frames(f: FeatureMatrix, segments) -> np.ndarray:
    """The vowel table of f: one row per frame, one column per vowel of VOWELS.

    Entry (i, j) is the highest confidence among the segments of vowel j
    whose half-open interval [start, end) holds the centre of frame i; an
    unscored segment counts as -inf, and a frame no such segment covers
    holds NaN. A frame inside two vowels' segments is in both columns;
    other phones are ignored. vowel_rows reads the table.
    """
    centers = f.frame_centers_s()
    table = np.full((f.n_frames, len(VOWELS)), np.nan)
    for s in segments:
        if s.phone in VOWELS:
            column = table[:, VOWELS.index(s.phone)]
            confidence = float("-inf") if s.confidence is None else s.confidence
            np.fmax(column, confidence, out=column, where=(centers >= s.start) & (centers < s.end))
    return table


def vowel_rows(rows: np.ndarray, table: np.ndarray, vowel: str, tau: float) -> np.ndarray:
    """The rows, one per frame of the table, that vowel's segments of confidence at least tau cover.

    A frame no segment of the vowel covers is never kept; tau = -inf keeps every covered frame.
    """
    return rows[table[:, VOWELS.index(vowel)] >= tau]


def remap_segments(mask: SpeechMask, segments) -> list[AlignmentSegment]:
    """Segments moved from original time onto the silence-removed time of mask.

    A time t maps to the kept duration strictly before it; a segment that
    keeps 1e-9 s or less (one inside removed audio) is left out.
    """
    hop_s = mask.hop_s
    kept = np.flatnonzero(mask.keep)
    if kept.size == 0:
        return []
    starts = kept * hop_s  # original start of each kept slice
    t = np.array([(s.start, s.end) for s in segments])
    idx = np.searchsorted(starts, t, side="right") - 1
    inside = np.minimum(np.maximum(t - starts[idx], 0.0), hop_s)
    new = np.where(idx < 0, 0.0, idx * hop_s + inside)  # idx * hop_s: the slice's new start
    return [
        AlignmentSegment(start, end, s.phone, s.confidence)
        for s, (start, end) in zip(segments, new.tolist())
        if end - start > 1e-9
    ]
