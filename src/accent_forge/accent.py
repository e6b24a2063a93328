"""Accent classifiers: whole-utterance scoring and the vowel-combined variant.

The baseline scores an utterance against one mixture model per accent and
takes the best total log likelihood. The vowel-combined classifier scores
each vowel's frames against per-accent, per-vowel models, averages per
frame, and fuses the vowel scores with vowel-proportion weights.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import VOWELS
from .errors import ConsistencyError, DataError
from .gmm import EmOptions, GmmModel, as_values, em_fit, load_gmm, mixture_log_likelihood, save_gmm

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

    @property
    def dims(self) -> int:
        return self.models[self.labels[0]].dims


@dataclass
class VowelModelSet:
    """Per (accent, vowel) mixture models with fusion weights over a vowel subset."""

    labels: list[str]
    subset: list[str]
    weights: dict[str, float]
    models: dict[tuple[str, str], GmmModel]
    inventory: tuple[str, ...] = VOWELS
    fingerprint: str = ""
    transform_ref: str | None = None
    confidence_tau: float = float("-inf")

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("accent labels must be unique")
        for v in self.subset:
            if v not in self.inventory:
                raise ValueError(f"subset vowel {v!r} not in inventory")
        total = sum(self.weights.get(v, 0.0) for v in self.subset)
        if abs(total - 1.0) > 1e-10 or any(self.weights[v] < 0 for v in self.subset):
            raise ValueError("subset weights must form a probability simplex")
        for lab in self.labels:
            for v in self.subset:
                if (lab, v) not in self.models:
                    raise ValueError(f"missing model for accent {lab!r}, vowel {v!r}")


@dataclass
class ClassificationResult:
    predicted: str
    scores: dict[str, float]
    n_frames: int
    frames_per_vowel: dict[str, int] | None = None


def train_baseline(
    train: dict[str, np.ndarray], n_components: int, opts: EmOptions | None = None
) -> AccentModelSet:
    """Fit one mixture model per accent on that accent's pooled frames.

    Each accent trains with a seed derived from the base seed and the accent
    index, so results are reproducible and independent of training order.
    """
    opts = opts or EmOptions()
    if not train:
        raise ValueError("no training accents supplied")
    labels = list(train.keys())
    models = {}
    for idx, lab in enumerate(labels):
        accent_opts = replace(opts, seed=derive_seed(opts.seed, idx))
        models[lab], _ = em_fit(train[lab], n_components, accent_opts)
    return AccentModelSet(labels, models)


def classify_baseline(models: AccentModelSet, X) -> ClassificationResult:
    """Best accent under total log likelihood; ties go to the lowest accent index."""
    values = as_values(X)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("cannot classify an empty feature matrix")
    scores = {lab: mixture_log_likelihood(models.models[lab], values) for lab in models.labels}
    return ClassificationResult(_best_label(models.labels, scores), scores, values.shape[0])


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


def _score_vowel(models: VowelModelSet, v: str, X) -> tuple[int, dict[str, float]] | None:
    """Frame count and per-accent total log likelihood of one vowel's rows.

    None when the vowel has no frames, so it drops out of the fusion.
    """
    values = as_values(X)
    if values.ndim != 2 or values.shape[0] == 0:
        return None
    totals = {lab: mixture_log_likelihood(models.models[(lab, v)], values) for lab in models.labels}
    return values.shape[0], totals


def _fuse_vowel_scores(
    labels: list[str],
    weights: dict[str, float],
    present: list[tuple[str, int, dict[str, float]]],
    frame_normalized: bool,
) -> tuple[str, dict[str, float]]:
    """Predicted label and fused scores from (vowel, frame count, totals) triples.

    The weights of the vowels present are renormalized to sum to one, or
    made equal when they sum to zero; the sums run in the order of present,
    so equal inputs give equal bits.
    """
    weight_total = sum(weights[v] for v, _, _ in present)
    scores = {lab: 0.0 for lab in labels}
    for v, k, totals in present:
        w = weights[v] / weight_total if weight_total > 0 else 1.0 / len(present)
        scale = w / k if frame_normalized else w
        for lab in labels:
            scores[lab] += scale * totals[lab]
    return _best_label(labels, scores), scores


def classify_vowel(
    models: VowelModelSet,
    per_vowel_X: dict[str, np.ndarray],
    frame_normalized: bool = True,
) -> ClassificationResult:
    """Fuse per-vowel mixture scores with vowel-proportion weights.

    Vowels absent from the utterance contribute nothing and their weight is
    renormalized over the vowels present. With frame_normalized=True
    (default) each vowel's total log likelihood is divided by its frame
    count so the weights remain the only frequency channel; False sums raw
    log likelihoods instead.
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

    predicted, scores = _fuse_vowel_scores(models.labels, models.weights, present, frame_normalized)
    frames = {v: k for v, k, _ in present}
    return ClassificationResult(predicted, scores, sum(frames.values()), frames)


def select_vowel_subset(
    dev: list[tuple[str, dict[str, np.ndarray]]],
    models: VowelModelSet,
    subset_size: int,
    frame_normalized: bool = True,
) -> list[str]:
    """Greedy forward selection of the vowels that maximize dev accuracy.

    Candidates are tried in inventory order, which also breaks accuracy
    ties. Dev utterances with no vowel frames at all are skipped (with a
    logged count); an utterance with no frames for a candidate subset counts
    as misclassified for that subset. Each dev vowel is scored against every
    accent once; the trials only fuse those totals, exactly as
    classify_vowel would.
    """
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    candidates = [v for v in models.inventory if v in models.subset]
    subset_size = min(subset_size, len(candidates))

    scored = []
    skipped = 0
    for true_label, per_vowel in dev:
        if any(as_values(X).shape[0] > 0 for X in per_vowel.values()):
            totals = {v: _score_vowel(models, v, per_vowel[v]) for v in candidates if v in per_vowel}
            scored.append((true_label, {v: t for v, t in totals.items() if t is not None}))
        else:
            skipped += 1
    if skipped:
        logger.warning("skipped %d dev utterances without any vowel frames", skipped)
    if not scored:
        raise DataError("no usable dev utterances for vowel selection")

    def accuracy(subset: list[str]) -> float:
        raw = {v: models.weights.get(v, 0.0) for v in subset}
        total = sum(raw.values())
        if total > 0:
            trial_weights = {v: w / total for v, w in raw.items()}
        else:
            trial_weights = {v: 1.0 / len(subset) for v in subset}
        correct = 0
        for true_label, totals in scored:
            present = [(v, *totals[v]) for v in subset if v in totals]
            if not present:
                continue  # counts as a miss
            predicted, _ = _fuse_vowel_scores(models.labels, trial_weights, present, frame_normalized)
            if predicted == true_label:
                correct += 1
        return correct / len(scored)

    chosen: list[str] = []
    while len(chosen) < subset_size:
        best_v, best_acc = None, -1.0
        for v in candidates:
            if v in chosen:
                continue
            acc = accuracy(chosen + [v])
            if acc > best_acc:
                best_v, best_acc = v, acc
        chosen.append(best_v)
    return chosen


MODELSET_MAGIC = "ACMSET1"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_model_set(out_dir, model_set) -> Path:
    """Write a model set directory: manifest plus one ACGMM1 file per model."""
    out_dir = Path(out_dir)
    (out_dir / "models").mkdir(parents=True, exist_ok=True)
    lines = []
    if isinstance(model_set, AccentModelSet):
        lines.append(f"{MODELSET_MAGIC} baseline")
        lines.append(f"fingerprint {model_set.fingerprint or '-'}")
        if model_set.transform_ref:
            lines.append(
                f"transform {model_set.transform_ref} {_sha256(out_dir / model_set.transform_ref)}"
            )
        for lab in model_set.labels:
            rel = f"models/{lab}.gmm"
            save_gmm(out_dir / rel, model_set.models[lab])
            lines.append(f"gmm {lab} {rel} {_sha256(out_dir / rel)}")
    elif isinstance(model_set, VowelModelSet):
        lines.append(f"{MODELSET_MAGIC} vowel")
        lines.append(f"fingerprint {model_set.fingerprint or '-'}")
        if model_set.transform_ref:
            lines.append(
                f"transform {model_set.transform_ref} {_sha256(out_dir / model_set.transform_ref)}"
            )
        lines.append(f"tau {model_set.confidence_tau!r}")
        lines.append("subset " + " ".join(model_set.subset))
        for v in model_set.subset:
            lines.append(f"weight {v} {model_set.weights[v]!r}")
        for lab in model_set.labels:
            for v in model_set.subset:
                rel = f"models/{lab}_{v}.gmm"
                save_gmm(out_dir / rel, model_set.models[(lab, v)])
                lines.append(f"gmm {lab} {v} {rel} {_sha256(out_dir / rel)}")
    else:
        raise TypeError(f"cannot serialize {type(model_set).__name__}")
    manifest = out_dir / "modelset.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_model_set(in_dir):
    """Read a model set directory, verifying each file's recorded SHA-256."""
    in_dir = Path(in_dir)
    manifest = in_dir / "modelset.txt"
    if not manifest.exists():
        raise DataError(f"{manifest}: model set manifest not found")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != MODELSET_MAGIC or header[1] not in ("baseline", "vowel"):
        raise DataError(f"{manifest}: not an {MODELSET_MAGIC} baseline or vowel manifest")
    kind = header[1]
    # fields per line, tag included; a subset line needs at least one vowel
    arity = {"fingerprint": 2, "transform": 3, "tau": 2, "weight": 3,
             "gmm": 4 if kind == "baseline" else 5}

    fingerprint = ""
    transform_ref = None
    tau = float("-inf")
    subset: list[str] = []
    weights: dict[str, float] = {}
    labels: list[str] = []
    models: dict = {}

    def checked(rel: str, recorded: str) -> Path:
        path = in_dir / rel
        if not path.is_file():
            raise DataError(f"{path}: listed in {manifest} but missing")
        actual = _sha256(path)
        if actual != recorded:
            raise ConsistencyError(f"{path}: SHA-256 mismatch (corrupt or substituted file)")
        return path

    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        where = f"{manifest}, line {lineno}"
        if len(parts) != arity.get(tag, len(parts)) or (tag == "subset" and len(parts) < 2):
            raise DataError(f"{where}: wrong number of fields in {tag!r} line: {line!r}")
        try:
            value = float(parts[-1]) if tag in ("tau", "weight") else None
        except ValueError:
            raise DataError(f"{where}: not a number in {tag!r} line: {line!r}") from None

        if tag == "fingerprint":
            fingerprint = "" if parts[1] == "-" else parts[1]
        elif tag == "transform":
            checked(parts[1], parts[2])
            transform_ref = parts[1]
        elif tag == "tau":
            tau = value
        elif tag == "subset":
            subset = parts[1:]
        elif tag == "weight":
            weights[parts[1]] = value
        elif tag == "gmm" and kind == "baseline":
            lab, rel, digest = parts[1:]
            models[lab] = load_gmm(checked(rel, digest))
            labels.append(lab)
        elif tag == "gmm" and kind == "vowel":
            lab, v, rel, digest = parts[1:]
            models[(lab, v)] = load_gmm(checked(rel, digest))
            if lab not in labels:
                labels.append(lab)
        else:
            raise DataError(f"{where}: unrecognized manifest line: {line!r}")

    try:
        if kind == "baseline":
            return AccentModelSet(labels, models, fingerprint, transform_ref)
        return VowelModelSet(
            labels, subset, weights, models,
            fingerprint=fingerprint, transform_ref=transform_ref, confidence_tau=tau,
        )
    except ValueError as exc:
        raise DataError(f"{manifest}: {exc}") from None
