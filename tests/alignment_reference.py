"""Naive alignment handling that the tests hold the vowel table and the
segment remap against: one segment at a time, one vowel at a time."""

import numpy as np

from accent_forge.corpus import VOWELS, AlignmentSegment


def reference_time(mask, t: float) -> float:
    """Kept duration of mask strictly before original time t."""
    hop_s = mask.hop_s
    starts = np.flatnonzero(mask.keep) * hop_s  # original start of each kept slice
    if starts.size == 0:
        return 0.0
    idx = int(np.searchsorted(starts, t, side="right")) - 1
    if idx < 0:
        return 0.0
    inside = min(max(t - starts[idx], 0.0), hop_s)
    return float(idx * hop_s + inside)


def reference_remap_segments(mask, segments) -> list[AlignmentSegment]:
    """Each segment's ends mapped on their own; a segment that keeps 1e-9 s
    or less is left out."""
    out = []
    for s in segments:
        start, end = reference_time(mask, s.start), reference_time(mask, s.end)
        if end - start > 1e-9:
            out.append(AlignmentSegment(start, end, s.phone, s.confidence))
    return out


def reference_filter_by_confidence(segments, tau: float):
    """The segments whose confidence clears tau, and the dropped count;
    tau = -inf keeps unscored segments too."""
    if tau == float("-inf"):
        return list(segments), 0
    kept = [s for s in segments if s.confidence is not None and s.confidence >= tau]
    return kept, len(segments) - len(kept)


def reference_vowel_mask(f, segments, vowel: str) -> np.ndarray:
    """Frames of f whose centre lies in [start, end) of a segment of vowel."""
    if vowel not in VOWELS:
        raise ValueError(f"vowel {vowel!r} is not in the inventory")
    centers = f.frame_centers_s()
    keep = np.zeros(f.n_frames, dtype=bool)
    for s in segments:
        if s.phone == vowel:
            keep |= (centers >= s.start) & (centers < s.end)
    return keep


def reference_vowel_rows(f, segments, vowel: str, tau: float = float("-inf")) -> np.ndarray:
    """Rows of f under the segments of vowel whose confidence clears tau."""
    kept, _ = reference_filter_by_confidence(segments, tau)
    return f.values[reference_vowel_mask(f, kept, vowel)]
