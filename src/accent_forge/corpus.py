"""Dataset manifests, deterministic splits, and phone-alignment handling.

Alignments are produced by external tooling and consumed here from plain
text files; nothing in this package performs phone recognition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

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


def parse_manifest(path, inventory: list[str] | None = None) -> Manifest:
    """Parse TAB-separated lines: id, audio path, accent, optional alignment path.

    Lines starting with '#' and blank lines are ignored. When inventory is
    given, labels outside it are rejected; otherwise the inventory is the
    labels in order of first appearance.
    """
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    found: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"{path}: manifest not found")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not UTF-8 text (byte {exc.start})") from None

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4) or any(not f for f in fields[:3]):
            raise DataError(f"{path}:{lineno}: malformed manifest line: {line!r}")
        utt, audio_path, accent = fields[:3]
        alignment = fields[3] if len(fields) == 4 and fields[3] else None
        if utt in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {utt!r}")
        if inventory is not None and accent not in inventory:
            raise DataError(f"{path}:{lineno}: unknown accent label {accent!r}")
        seen.add(utt)
        if accent not in found:
            found.append(accent)
        entries.append(ManifestEntry(utt, audio_path, accent, alignment))
    return Manifest(entries, list(inventory) if inventory is not None else found)


def split_dataset(
    manifest: Manifest,
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> SplitAssignment:
    """Seeded per-accent shuffle into train/dev/test with largest-remainder rounding.

    Accents with fewer than 3 utterances go entirely to train, with a
    recorded warning.
    """
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be positive and sum to 1")
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
        quotas = np.array(ratios) * n
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"{path}: alignment file not found")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: alignment file is not UTF-8 text (byte {exc.start})") from None

    for lineno, raw in enumerate(raw_lines, start=1):
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
        if not np.isfinite([start, end, 0.0 if confidence is None else confidence]).all():
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


def filter_by_confidence(segments, threshold: float) -> tuple[list[AlignmentSegment], int]:
    """Keep segments whose confidence clears the threshold.

    threshold == -inf keeps everything, including unscored segments;
    otherwise unscored segments are dropped. Returns (kept, dropped count).
    """
    if threshold == float("-inf"):
        return list(segments), 0
    kept = [s for s in segments if s.confidence is not None and s.confidence >= threshold]
    return kept, len(segments) - len(kept)


def extract_vowel_frames(
    f: FeatureMatrix, segments, vowel: str, inventory: tuple[str, ...] = VOWELS
) -> FeatureMatrix:
    """Rows of f whose frame center falls inside a segment of the given vowel.

    Membership uses half-open intervals [start, end); order is preserved and
    other phones are ignored. The result may be empty.
    """
    if vowel not in inventory:
        raise ValueError(f"vowel {vowel!r} is not in the inventory")
    centers = f.frame_centers_s()
    keep = np.zeros(f.n_frames, dtype=bool)
    for s in segments:
        if s.phone == vowel:
            keep |= (centers >= s.start) & (centers < s.end)
    return f.with_values(f.values[keep])


class TimeRemap:
    """Monotone map from original time to silence-removed (compacted) time."""

    def __init__(self, mask: SpeechMask):
        hop_s = mask.hop_s
        kept = np.flatnonzero(mask.keep)
        self._starts = kept * hop_s  # original start of each kept slice
        self._new_starts = np.arange(kept.size) * hop_s
        self._hop_s = hop_s

    def time(self, t: float) -> float:
        """Kept duration strictly before original time t."""
        if self._starts.size == 0:
            return 0.0
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        if idx < 0:
            return 0.0
        inside = min(max(t - self._starts[idx], 0.0), self._hop_s)
        return float(self._new_starts[idx] + inside)

    def segment(self, seg: AlignmentSegment) -> AlignmentSegment | None:
        """Remap a segment; returns None if it falls entirely in removed audio."""
        new_start = self.time(seg.start)
        new_end = self.time(seg.end)
        if new_end - new_start <= 1e-9:
            return None
        return AlignmentSegment(new_start, new_end, seg.phone, seg.confidence)


def vad_mask_to_alignment_time(mask: SpeechMask) -> TimeRemap:
    """Build the original-to-compacted time map implied by a speech mask."""
    return TimeRemap(mask)
