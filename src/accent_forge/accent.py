"""Accent classifiers: whole-utterance scoring and the vowel-combined variant.

The baseline scores an utterance against one mixture model per accent and
takes the best total log likelihood. The vowel-combined classifier scores
each vowel's frames against per-accent, per-vowel models, divides each
total by the vowel's frame count, and fuses the vowel scores with
vowel-proportion weights;
train_vowel_set fits those models and picks their vowel subset and
confidence threshold on dev.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import records
from .corpus import VOWELS, vowel_rows
from .errors import ConsistencyError, DataError
from .gmm import EmOptions, GmmModel, PreparedFrames, em_fit, load_gmm, mixture_log_likelihood, save_gmm

logger = logging.getLogger(__name__)


def derive_seed(base: int, *parts: int) -> int:
    """Stable 32-bit seed derived from a base seed and index parts."""
    digest = hashlib.sha256(repr((base,) + parts).encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class AccentModelSet:
    """One mixture model per accent plus the front-end provenance."""

    labels: list[str]
    models: dict[str, GmmModel]
    fingerprint: str = ""
    transform_ref: str | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("accent labels must be unique")
        missing = [lab for lab in self.labels if lab not in self.models]
        if missing:
            raise ValueError(f"missing models for accents: {missing}")
        dims = {self.models[lab].dims for lab in self.labels}
        if len(dims) > 1:
            raise ValueError("all accent models must share dimensions")


@dataclass
class VowelModelSet:
    """Per (accent, vowel) mixture models with fusion weights over a vowel subset."""

    labels: list[str]
    subset: list[str]
    weights: dict[str, float]
    models: dict[tuple[str, str], GmmModel]
    fingerprint: str = ""
    transform_ref: str | None = None
    confidence_tau: float = float("-inf")

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("accent labels must be unique")
        for v in self.subset:
            if v not in VOWELS:
                raise ValueError(f"subset vowel {v!r} not in the vowel inventory")
        if math.isnan(self.confidence_tau):
            raise ValueError("the confidence threshold tau is NaN")
        weights = [self.weights.get(v, math.nan) for v in self.subset]  # a missing weight fails too
        if not all(0.0 <= w < math.inf for w in weights) or abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError("subset weights must form a probability simplex")
        for lab in self.labels:
            for v in self.subset:
                if (lab, v) not in self.models:
                    raise ValueError(f"missing model for accent {lab!r}, vowel {v!r}")


@dataclass
class ClassificationResult:
    predicted: str
    scores: dict[str, float]
    frames_per_vowel: dict[str, int] | None = None


def train_pools(
    pools: dict[tuple[str, ...], np.ndarray],
    labels: list[str],
    n_components: int,
    opts: EmOptions,
) -> dict[tuple[str, ...], GmmModel]:
    """Fit one mixture model by EM on each pool of frames.

    A pool's key is (accent,) or (accent, vowel). Its fit is seeded from the
    base seed, the accent's index in labels and the vowel's index in VOWELS,
    so results are reproducible and independent of the order of pools. A
    pool with fewer frames than n_components gets one component per frame,
    with a warning.
    """
    models = {}
    for key, X in pools.items():
        n = min(n_components, X.shape[0]) or n_components  # em_fit rejects an empty pool
        if n < n_components:
            logger.warning("pool %s: only %d frames; capping components at %d", " ".join(key), X.shape[0], n)
        parts = (labels.index(key[0]), *(VOWELS.index(v) for v in key[1:]))
        models[key], _ = em_fit(X, n, replace(opts, seed=derive_seed(opts.seed, *parts)))
    return models


def classify_baseline(models: AccentModelSet, X: np.ndarray) -> ClassificationResult:
    """Best accent under total log likelihood; ties go to the lowest accent index."""
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("cannot classify an empty feature matrix")
    frames = PreparedFrames(X)
    scores = {lab: mixture_log_likelihood(models.models[lab], frames) for lab in models.labels}
    return ClassificationResult(_best_label(models.labels, scores), scores)


def _best_label(labels: list[str], scores: dict[str, float]) -> str:
    """Highest-scoring label; ties go to the lowest label index."""
    return labels[int(np.argmax(np.array([scores[lab] for lab in labels])))]


def vowel_weights(frame_counts: dict[str, float], subset) -> dict[str, float]:
    """Vowel-proportion weights over a subset, from training frame counts."""
    subset = list(subset)
    counts = np.array([float(frame_counts.get(v, 0.0)) for v in subset])
    if np.any(counts < 0):
        raise ValueError("frame counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("at least one subset vowel needs a positive count")
    return {v: float(c / total) for v, c in zip(subset, counts)}


def _score_vowel(models: VowelModelSet, v: str, X: np.ndarray) -> tuple[int, dict[str, float]] | None:
    """Frame count and per-accent total log likelihood of one vowel's rows.

    None when the vowel has no frames, so it drops out of the fusion.
    """
    if X.ndim != 2 or X.shape[0] == 0:
        return None
    frames = PreparedFrames(X)
    totals = {lab: mixture_log_likelihood(models.models[(lab, v)], frames) for lab in models.labels}
    return X.shape[0], totals


def _fuse_vowel_scores(
    labels: list[str],
    weights: dict[str, float],
    present: list[tuple[str, int, dict[str, float]]],
) -> tuple[str, dict[str, float]]:
    """Predicted label and fused scores from (vowel, frame count, totals) triples.

    Each vowel's total is scaled by w / k: its weight w, renormalized over
    the vowels present (or made equal when they sum to zero), over its
    frame count k. The sums run in the order of present, so equal inputs
    give equal bits.
    """
    weight_total = sum(weights[v] for v, _, _ in present)
    scores = {lab: 0.0 for lab in labels}
    for v, k, totals in present:
        scale = (weights[v] / weight_total if weight_total > 0 else 1.0 / len(present)) / k
        for lab in labels:
            scores[lab] += scale * totals[lab]
    return _best_label(labels, scores), scores


def classify_vowel(models: VowelModelSet, per_vowel_X: dict[str, np.ndarray]) -> ClassificationResult:
    """Fuse per-vowel mixture scores with vowel-proportion weights.

    Vowels absent from the utterance contribute nothing and their weight is
    renormalized over the vowels present. Each vowel's total log likelihood
    is divided by its frame count, so the weights remain the only frequency
    channel.
    """
    present = []
    for v, X in per_vowel_X.items():
        if v not in models.subset:
            raise ValueError(f"vowel {v!r} is not in the selected subset")
        scored = _score_vowel(models, v, X)
        if scored is not None:
            present.append((v, *scored))
    if not present:
        raise DataError("no vowel frames available for classification")

    predicted, scores = _fuse_vowel_scores(models.labels, models.weights, present)
    frames = {v: k for v, k, _ in present}
    return ClassificationResult(predicted, scores, frames)


def _dev_accuracy(dev_scores, labels, weights, subset) -> int:
    """Dev utterances classify_vowel labels correctly from their scored vowels.

    dev_scores holds (true label, {vowel: (frames, per-accent totals)}) per
    utterance. The vowels fuse in subset order; an utterance with no frames
    for the subset counts as a miss.
    """
    correct = 0
    for true_label, scores in dev_scores:
        present = [(v, *scores[v]) for v in subset if v in scores]
        if present and _fuse_vowel_scores(labels, weights, present)[0] == true_label:
            correct += 1
    return correct


def select_vowel_subset(
    dev_scores: list[tuple[str, dict[str, tuple[int, dict[str, float]]]]],
    models: VowelModelSet,
    subset_size: int,
) -> list[str]:
    """Greedy forward selection of the vowels that maximize dev accuracy.

    dev_scores is the table _dev_scores builds against models.
    Candidates are tried in inventory order, which also breaks accuracy
    ties. Dev utterances with no vowel frames at all are skipped (with a
    logged count); an utterance with no frames for a candidate subset counts
    as misclassified for that subset.
    """
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    candidates = [v for v in VOWELS if v in models.subset]
    subset_size = min(subset_size, len(candidates))
    skipped = sum(1 for _, scores in dev_scores if not scores)
    if skipped:
        logger.warning("skipped %d dev utterances without any vowel frames", skipped)
    if skipped == len(dev_scores):
        raise DataError("no usable dev utterances for vowel selection")

    def correct(subset: list[str]) -> int:
        raw = [models.weights.get(v, 0.0) for v in subset]
        total = sum(raw)
        weights = {v: w / total if total > 0 else 1.0 / len(subset) for v, w in zip(subset, raw)}
        return _dev_accuracy(dev_scores, models.labels, weights, subset)

    chosen: list[str] = []
    for _ in range(subset_size):  # max keeps the first of equals: inventory order
        rest = [v for v in candidates if v not in chosen]
        chosen.append(max(rest, key=lambda v: correct(chosen + [v])))
    return chosen


def _dev_scores(dev, model_set: VowelModelSet, vowels, tau: float, memo: dict) -> list:
    """Each dev utterance's accent and {vowel: (frames, per-accent totals)}.

    dev holds (accent, model input rows, vowel table) per utterance. A
    vowel's rows are its vowel_rows at tau, and a vowel without such rows
    is left out. As tau rises, one utterance's rows of one vowel only lose
    members, so its row sets are nested and two of equal size are equal:
    memo, keyed by (utterance index, vowel, row count), scores each set once
    across every call that shares it.
    """
    table = []
    for ui, (accent, rows, vowel_table) in enumerate(dev):
        scores = {}
        for v in vowels:
            kept = vowel_rows(rows, vowel_table, v, tau)
            key = (ui, v, kept.shape[0])
            if key not in memo:
                memo[key] = _score_vowel(model_set, v, kept)
            if memo[key] is not None:
                scores[v] = memo[key]
        table.append((accent, scores))
    return table


def _tune_confidence_threshold(dev, segments, model_set, subset, weights, memo) -> float:
    """Grid search over dev-confidence percentiles for the best filter threshold.

    segments are the dev set's segments; the grid holds -inf and the deciles
    of the confidences of their scored subset-vowel segments. Every grid
    point scores the dev set through _dev_scores with the shared memo; max
    keeps the first of equals, so ties go to the lower threshold.
    """
    confidences = [s.confidence for s in segments if s.phone in subset and s.confidence is not None]
    if not confidences:
        return float("-inf")
    grid = [float("-inf")] + sorted(
        {float(np.percentile(confidences, p)) for p in range(0, 100, 10)}
    )
    return max(grid, key=lambda tau: _dev_accuracy(
        _dev_scores(dev, model_set, subset, tau, memo), model_set.labels, weights, subset
    ))


def train_vowel_set(
    pools: dict[tuple[str, str], np.ndarray],
    labels: list[str],
    dev: list,
    dev_segments: list,
    n_components: int,
    opts: EmOptions,
    subset_size: int,
) -> VowelModelSet:
    """Per-accent, per-vowel models with their vowel subset, weights and τ chosen on dev.

    pools holds the training rows of each (accent, vowel); a vowel without
    rows in every accent is left out, with a warning. dev holds (accent,
    model input rows, vowel table) per dev utterance and dev_segments their
    segments, whose confidences make the τ grid. Weights are the vowels'
    shares of the training frames. The subset is chosen at τ = -inf, then τ
    for that subset; both read one memo of dev scores. The returned set
    holds the subset's models only.
    """
    vowels = [v for v in VOWELS if all((lab, v) in pools for lab in labels)]
    dropped = [v for v in VOWELS if v not in vowels]
    if dropped:
        logger.warning("vowels without training frames in every accent: %s", " ".join(dropped))
    if not vowels:
        raise DataError("no vowel has training frames in every accent")
    models = train_pools({key: X for key, X in pools.items() if key[1] in vowels}, labels, n_components, opts)
    frame_counts = {v: sum(pools[(lab, v)].shape[0] for lab in labels) for v in vowels}
    all_vowels = VowelModelSet(labels, vowels, vowel_weights(frame_counts, vowels), models)

    memo: dict = {}  # shared by selection and every τ grid point
    dev_scores = _dev_scores(dev, all_vowels, vowels, float("-inf"), memo)
    subset = select_vowel_subset(dev_scores, all_vowels, subset_size)
    weights = vowel_weights(frame_counts, subset)
    tau = _tune_confidence_threshold(dev, dev_segments, all_vowels, subset, weights, memo)
    return replace(
        all_vowels, subset=subset, weights=weights, confidence_tau=tau,
        models={(lab, v): models[(lab, v)] for lab in labels for v in subset},
    )


MODELSET_MAGIC = "ACMSET1"


# the lines of each manifest kind, in file order: tag -> fields after the tag (0: one or more)
_MANIFEST_LINES = {
    "baseline": {"fingerprint": 1, "transform": 2, "gmm": 3},
    "vowel": {"fingerprint": 1, "transform": 2, "tau": 1, "subset": 0, "weight": 2, "gmm": 4},
}


def save_model_set(out_dir, model_set) -> Path:
    """Write a model set directory: manifest plus one ACGMM1 file per model.

    A model's key is (accent,) in a baseline set and (accent, vowel) in a
    vowel set; its file is models/<key joined by _>.gmm.
    """
    if not isinstance(model_set, (AccentModelSet, VowelModelSet)):
        raise TypeError(f"cannot serialize {type(model_set).__name__}")
    vowel = isinstance(model_set, VowelModelSet)
    out_dir = Path(out_dir)
    (out_dir / "models").mkdir(parents=True, exist_ok=True)
    lines = [f"{MODELSET_MAGIC} {'vowel' if vowel else 'baseline'}",
             f"fingerprint {model_set.fingerprint or '-'}"]
    if model_set.transform_ref:
        ref = model_set.transform_ref
        lines.append(f"transform {ref} {records.sha256(out_dir / ref)}")
    if vowel:
        lines += [f"tau {model_set.confidence_tau!r}", "subset " + " ".join(model_set.subset)]
        lines += [f"weight {v} {model_set.weights[v]!r}" for v in model_set.subset]
    for lab in model_set.labels:
        for key in [(lab, v) for v in model_set.subset] if vowel else [(lab,)]:
            rel = f"models/{'_'.join(key)}.gmm"
            save_gmm(out_dir / rel, model_set.models[key if vowel else lab])
            lines.append(f"gmm {' '.join(key)} {rel} {records.sha256(out_dir / rel)}")
    manifest = out_dir / "modelset.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_model_set(in_dir):
    """Read a model set directory, verifying each file's recorded SHA-256."""
    in_dir = Path(in_dir)
    manifest = in_dir / "modelset.txt"
    lines = records.read_text(manifest, "model set manifest").splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != MODELSET_MAGIC or header[1] not in _MANIFEST_LINES:
        raise DataError(f"{manifest}: not an {MODELSET_MAGIC} baseline or vowel manifest")
    kind = header[1]
    arity = _MANIFEST_LINES[kind]

    fingerprint = ""
    transform_ref = None
    tau = float("-inf")
    subset: list[str] = []
    weights: dict[str, float] = {}
    models: dict[tuple[str, ...], GmmModel] = {}
    seen: set[str] = set()  # save_model_set writes each line below once

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.split():
            continue
        tag, *fields = line.split()
        where = f"{manifest}, line {lineno}"
        if tag not in arity:
            raise DataError(f"{where}: unrecognized line in a {kind} manifest: {line!r}")
        if not fields or (arity[tag] and len(fields) != arity[tag]):
            raise DataError(f"{where}: wrong number of fields in {tag!r} line: {line!r}")
        once = (f"model for {' '.join(fields[:-2])}" if tag == "gmm"
                else f"weight for {fields[0]}" if tag == "weight" else f"{tag} line")
        if once in seen:
            raise DataError(f"{where}: a second {once}")
        seen.add(once)
        try:
            value = float(fields[-1]) if tag in ("tau", "weight") else None
        except ValueError:
            raise DataError(f"{where}: not a number in {tag!r} line: {line!r}") from None
        if tag in ("transform", "gmm"):
            path = in_dir / fields[-2]
            if not path.is_file():
                raise DataError(f"{path}: listed in {manifest} but missing")
            if records.sha256(path) != fields[-1]:
                raise ConsistencyError(f"{path}: SHA-256 mismatch (corrupt or substituted file)")

        if tag == "fingerprint":
            fingerprint = "" if fields[0] == "-" else fields[0]
        elif tag == "transform":
            transform_ref = fields[0]
        elif tag == "tau":
            tau = value
        elif tag == "subset":
            if len(set(fields)) != len(fields):
                raise DataError(f"{where}: a vowel listed twice in {line!r}")
            subset = fields
        elif tag == "weight":
            weights[fields[0]] = value
        else:
            models[tuple(fields[:-2])] = load_gmm(path)

    labels = list(dict.fromkeys(key[0] for key in models))  # in order of first appearance
    try:
        if kind == "baseline":
            return AccentModelSet(labels, {lab: m for (lab,), m in models.items()},
                                  fingerprint, transform_ref)
        return VowelModelSet(
            labels, subset, weights, models,
            fingerprint=fingerprint, transform_ref=transform_ref, confidence_tau=tau,
        )
    except ValueError as exc:
        raise DataError(f"{manifest}: {exc}") from None
