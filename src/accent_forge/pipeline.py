"""Orchestration of the CLI commands over a workspace directory.

Every command takes the manifest, the parsed configuration, and a workspace
root. Stages write into fixed subdirectories of the workspace (vad/,
features/, transform/, models-<mode>/, reports/), so later stages find
earlier ones by convention. The configuration fingerprint is stored with
features and models; stages refuse to mix artifacts with mismatched
fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .accent import (
    VowelModelSet,
    _fuse_vowel_scores,
    _score_vowel,
    classify_baseline,
    classify_vowel,
    derive_seed,
    load_model_set,
    save_model_set,
    select_vowel_subset,
    train_baseline,
    vowel_weights,
)
from .audio import load_audio
from .config import PipelineConfig, config_fingerprint
from .corpus import (
    VOWELS,
    ManifestEntry,
    extract_vowel_frames,
    filter_by_confidence,
    parse_alignment,
    parse_manifest,
    split_dataset,
    vad_mask_to_alignment_time,
)
from .discriminant import (
    LabeledFeatures,
    LinearTransform,
    hlda_converged,
    hlda_fit,
    lda_fit,
    load_transform,
    project,
    save_transform,
)
from .errors import ConsistencyError, DataError, UsageError
from .features import (
    FeatureMatrix,
    append_deltas,
    apply_mvn,
    context_expand,
    mvn,
    mvn_stats,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from .gmm import EmOptions, em_fit
from .report import (
    EvaluationReport,
    VadReport,
    _canonical_json,
    format_eval_table,
    format_vad_table,
    write_eval_report,
    write_vad_report,
)
from .synth import generate_corpus
from .vad import load_mask, remove_silence, save_mask

logger = logging.getLogger(__name__)

MODES = ("baseline-plp", "baseline-hlda", "vowel-hlda")


def worker_count() -> int:
    env = os.environ.get("ACCENT_FORGE_WORKERS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"ACCENT_FORGE_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _map_ordered(fn, items):
    """Apply fn over items with the worker pool, preserving input order."""
    items = list(items)
    workers = min(worker_count(), max(len(items), 1))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


def _write_fingerprint(directory: Path, fingerprint: str) -> None:
    (directory / "fingerprint.txt").write_text(fingerprint + "\n", encoding="utf-8")


def _check_fingerprint(directory: Path, expected: str, what: str) -> None:
    path = directory / "fingerprint.txt"
    if not path.exists():
        raise ConsistencyError(f"{path}: missing fingerprint for {what}")
    actual = path.read_text(encoding="utf-8").strip()
    if actual != expected:
        raise ConsistencyError(
            f"{what} at {directory} was produced under a different configuration "
            f"(fingerprint {actual[:12]}.. != {expected[:12]}..)"
        )


def cmd_synthcorpus(cfg: PipelineConfig, out_dir) -> Path:
    """Generate the synthetic corpus described by the [synth] config section."""
    return generate_corpus(cfg.synth, cfg.seed, out_dir)


def cmd_vad(manifest_path, cfg: PipelineConfig, out_dir) -> VadReport:
    """Run silence removal over the manifest; write masks and the rate report."""
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = Path(out_dir)
    mask_dir = root / "vad"
    report_dir = root / "reports"
    mask_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)

    def process(entry: ManifestEntry) -> tuple[float, float, float]:
        audio = load_audio(_resolve(manifest_path.parent, entry.audio_path))
        speech, mask, rate = remove_silence(audio, cfg.vad)
        save_mask(mask_dir / f"{entry.utterance_id}.mask", entry.utterance_id, mask)
        return rate, audio.duration_s, speech.duration_s

    results = _map_ordered(process, manifest.entries)
    per_accent: dict[str, list] = {lab: [] for lab in manifest.inventory}
    for entry, result in zip(manifest.entries, results):
        per_accent[entry.accent].append(result)
    rows = []
    for lab in manifest.inventory:
        hits = per_accent[lab]
        rows.append(
            {
                "accent": lab,
                "utterances": len(hits),
                "total_duration_s": float(sum(r[1] for r in hits)),
                "retained_duration_s": float(sum(r[2] for r in hits)),
                "mean_compression_rate": float(np.mean([r[0] for r in hits])) if hits else 0.0,
            }
        )
    report = VadReport(rows=rows, fingerprint=config_fingerprint(cfg))
    write_vad_report(report_dir / "vad.json", report)
    (report_dir / "vad.txt").write_text(format_vad_table(report), encoding="utf-8")
    return report


def cmd_featurize(manifest_path, cfg: PipelineConfig, out_dir) -> int:
    """Silence-remove, extract normalized features, and archive them per utterance."""
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = Path(out_dir)
    feat_dir = root / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    def extract(entry: ManifestEntry):
        try:
            audio = load_audio(_resolve(manifest_path.parent, entry.audio_path))
        except DataError as exc:
            logger.warning("skipping %s: %s", entry.utterance_id, exc)
            return None
        speech, mask, _ = remove_silence(audio, cfg.vad)
        feats = plp_with_deltas(speech, cfg, entry.utterance_id)
        return feats, mask

    results = _map_ordered(extract, manifest.entries)
    produced = 0
    pending = []
    for entry, result in zip(manifest.entries, results):
        if result is None:
            continue
        feats, mask = result
        pending.append((entry, feats, mask))

    if cfg.mvn_scope == "global":
        usable = [f for _, f, _ in pending if f.n_frames > 0]
        if usable:
            mean, std = mvn_stats(usable)
            pending = [
                (entry, f.with_values(apply_mvn(f.values, mean, std)), mask)
                for entry, f, mask in pending
            ]
    else:
        pending = [
            (entry, mvn(f) if f.n_frames > 0 else f, mask) for entry, f, mask in pending
        ]

    for entry, feats, mask in pending:
        write_feature_archive(feat_dir / f"{entry.utterance_id}.feat", [feats])
        save_mask(feat_dir / f"{entry.utterance_id}.mask", entry.utterance_id, mask)
        produced += 1
    if manifest.entries and produced == 0:
        raise DataError("no utterance could be featurized")
    _write_fingerprint(feat_dir, config_fingerprint(cfg))
    return produced


def plp_with_deltas(speech, cfg: PipelineConfig, utterance_id: str) -> FeatureMatrix:
    """Static features plus dynamics, before any normalization."""
    static = plp_static(speech, cfg.plp, utterance_id)
    if static.n_frames == 0:
        return static.with_values(np.zeros((0, 3 * cfg.plp.num_cepstra)))
    return append_deltas(static, cfg.plp.delta_window)


def _load_features(feat_dir: Path, utterance_id: str) -> FeatureMatrix:
    path = feat_dir / f"{utterance_id}.feat"
    if not path.exists():
        raise DataError(f"{path}: features for {utterance_id} not found; run featurize first")
    records = read_feature_archive(path)
    if len(records) != 1:
        raise DataError(f"{path}: expected a single-utterance archive")
    return records[0]


def _fit_transform(
    cfg: PipelineConfig, train_feats: list[tuple[str, FeatureMatrix]], labels: list[str]
) -> tuple[LinearTransform, dict]:
    """Fit the configured reduction on context-expanded, accent-labeled frames.

    Returns the transform and the fit's record: its kind, and for HLDA the
    sweep count, the final objective and whether the last sweep converged.
    """
    label_index = {lab: i for i, lab in enumerate(labels)}
    blocks = []
    block_labels = []
    for accent, feats in train_feats:
        expanded = context_expand(feats, cfg.context_size)
        if expanded.n_frames == 0:
            continue
        blocks.append(expanded.values)
        block_labels.append(np.full(expanded.n_frames, label_index[accent], dtype=np.intp))
    data = LabeledFeatures(np.vstack(blocks), np.concatenate(block_labels))
    if cfg.transform == "lda":
        record = {"kind": "lda", "sweeps": None, "objective": None, "converged": None}
        return lda_fit(data, cfg.reduced_dim), record
    transform, trace = hlda_fit(data, cfg.reduced_dim)
    record = {
        "kind": "hlda",
        "sweeps": len(trace) - 1,
        "objective": float(trace[-1]),
        "converged": hlda_converged(trace),
    }
    return transform, record


TRANSFORM_CACHE_FORMAT = "ACFIT1"


def _replace_atomically(path: Path, write) -> None:
    """Call write(tmp) on a temporary sibling of path, then rename it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left behind only if write or replace failed


def _workspace_transform(
    root: Path,
    cfg: PipelineConfig,
    labels: list[str],
    train_ids: list[str],
    train_feats: list[tuple[str, FeatureMatrix]],
) -> LinearTransform:
    """The workspace's discriminant transform, fitted once and shared by every mode.

    transform/transform.lin holds the transform and transform/fit.json its
    record: a SHA-256 key over everything the fit reads (format tag, config
    fingerprint, accent order, the ordered train ids with their accents and
    the bytes of their feature matrices), the SHA-256 of transform.lin and
    the fit's convergence summary. The cached transform is reused only when
    the key and the file hash both match and the file loads; in any other
    state the transform is refitted and both files are rewritten.
    """
    if cfg.transform == "none":
        raise DataError("this training mode needs [model] transform = lda or hlda")
    digest = hashlib.sha256()
    head = [TRANSFORM_CACHE_FORMAT, config_fingerprint(cfg), list(labels)]
    digest.update(json.dumps(head).encode("utf-8") + b"\n")
    for utt, (accent, feats) in zip(train_ids, train_feats):
        values = np.ascontiguousarray(feats.values, dtype="<f8")
        digest.update(json.dumps([utt, accent, *values.shape]).encode("utf-8") + b"\n")
        digest.update(values.tobytes())
    key = digest.hexdigest()

    cache = root / "transform"
    lin_path, record_path = cache / "transform.lin", cache / "fit.json"
    try:
        stored = json.loads(record_path.read_text(encoding="utf-8"))
        lin_sha256 = hashlib.sha256(lin_path.read_bytes()).hexdigest()
        if (
            isinstance(stored, dict)
            and stored.get("key") == key
            and stored.get("transform_sha256") == lin_sha256
        ):
            transform = load_transform(lin_path)
            logger.info("reusing the %s transform in %s", transform.kind, cache)
            return transform
    except (OSError, ValueError, DataError):
        pass  # no usable cache: fit below

    transform, record = _fit_transform(cfg, train_feats, labels)
    cache.mkdir(parents=True, exist_ok=True)
    _replace_atomically(lin_path, lambda tmp: save_transform(tmp, transform))
    lin_sha256 = hashlib.sha256(lin_path.read_bytes()).hexdigest()
    record.update(format=TRANSFORM_CACHE_FORMAT, key=key, transform_sha256=lin_sha256)
    _replace_atomically(
        record_path, lambda tmp: tmp.write_text(_canonical_json(record), encoding="utf-8")
    )
    return transform


def _frontend(feats: FeatureMatrix, cfg: PipelineConfig, transform: LinearTransform | None) -> FeatureMatrix:
    expanded = context_expand(feats, cfg.context_size)
    return project(transform, expanded) if transform is not None else expanded


def _vowel_segments_for(
    entry: ManifestEntry, manifest_dir: Path, feat_dir: Path, tau: float
):
    """Confidence-filtered, silence-compacted vowel segments for one utterance."""
    if not entry.alignment_path:
        raise DataError(f"{entry.utterance_id}: manifest has no alignment path (vowel mode needs one)")
    segments = parse_alignment(_resolve(manifest_dir, entry.alignment_path))
    segments, _ = filter_by_confidence(segments, tau)
    _, mask = load_mask(feat_dir / f"{entry.utterance_id}.mask")
    remap = vad_mask_to_alignment_time(mask)
    remapped = [remap.segment(s) for s in segments]
    return [s for s in remapped if s is not None]


def _per_vowel_matrix(projected: FeatureMatrix, segments, vowels) -> dict[str, FeatureMatrix]:
    return {v: extract_vowel_frames(projected, segments, v) for v in vowels}


def cmd_train(manifest_path, cfg: PipelineConfig, out_dir, mode: str) -> Path:
    """Train one of the three model configurations and serialize it."""
    if mode not in MODES:
        raise DataError(f"unknown training mode {mode!r}; expected one of {MODES}")
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = Path(out_dir)
    feat_dir = root / "features"
    fingerprint = config_fingerprint(cfg)
    _check_fingerprint(feat_dir, fingerprint, "feature archive")

    labels = manifest.inventory
    split = split_dataset(manifest, seed=cfg.seed)
    entries = {e.utterance_id: e for e in manifest.entries}
    train_ids = [utt for utt in (e.utterance_id for e in manifest.entries) if split.tags.get(utt) == "train"]
    dev_ids = [utt for utt in (e.utterance_id for e in manifest.entries) if split.tags.get(utt) == "dev"]

    train_feats = [(entries[utt].accent, _load_features(feat_dir, utt)) for utt in train_ids]
    model_dir = root / f"models-{mode}"
    model_dir.mkdir(parents=True, exist_ok=True)

    if mode == "baseline-plp":
        pooled = _pool_by_accent(labels, train_feats, cfg, transform=None)
        model_set = train_baseline(pooled, cfg.n_components, cfg.em)
        model_set.fingerprint = fingerprint
        save_model_set(model_dir, model_set)
        return model_dir

    transform = _workspace_transform(root, cfg, labels, train_ids, train_feats)
    save_transform(model_dir / "transform.lin", transform)

    if mode == "baseline-hlda":
        pooled = _pool_by_accent(labels, train_feats, cfg, transform)
        model_set = train_baseline(pooled, cfg.n_components, cfg.em)
        model_set.fingerprint = fingerprint
        model_set.transform_ref = "transform.lin"
        save_model_set(model_dir, model_set)
        return model_dir

    # vowel mode: per-accent, per-vowel models on aligned vowel frames
    label_index = {lab: i for i, lab in enumerate(labels)}
    train_vowel_frames: dict[tuple[str, str], list[np.ndarray]] = {}
    for utt, (_, feats) in zip(train_ids, train_feats):
        entry = entries[utt]
        segments = _vowel_segments_for(entry, manifest_path.parent, feat_dir, float("-inf"))
        projected = _frontend(feats, cfg, transform)
        for v in VOWELS:
            rows = extract_vowel_frames(projected, segments, v)
            if rows.n_frames:
                train_vowel_frames.setdefault((entry.accent, v), []).append(rows.values)

    usable_vowels = [
        v for v in VOWELS
        if all((lab, v) in train_vowel_frames for lab in labels)
    ]
    dropped = [v for v in VOWELS if v not in usable_vowels]
    if dropped:
        logger.warning("vowels without training frames in every accent: %s", " ".join(dropped))
    if not usable_vowels:
        raise DataError("no vowel has training frames in every accent")

    models = {}
    frame_counts: dict[str, int] = {v: 0 for v in usable_vowels}
    for lab in labels:
        for v in usable_vowels:
            X = np.vstack(train_vowel_frames[(lab, v)])
            frame_counts[v] += X.shape[0]
            n = min(cfg.n_components, X.shape[0])
            if n < cfg.n_components:
                logger.warning(
                    "accent %s vowel %s: only %d frames; capping components at %d",
                    lab, v, X.shape[0], n,
                )
            opts = replace(cfg.em, seed=derive_seed(cfg.em.seed, label_index[lab], VOWELS.index(v)))
            models[(lab, v)], _ = em_fit(X, n, opts)

    all_vowel_set = VowelModelSet(
        labels=labels,
        subset=usable_vowels,
        weights=vowel_weights(frame_counts, usable_vowels),
        models=models,
        transform_ref="transform.lin",
    )

    dev_data = []
    dev_segment_lists = []
    for utt in dev_ids:
        entry = entries[utt]
        feats = _load_features(feat_dir, utt)
        segments = _vowel_segments_for(entry, manifest_path.parent, feat_dir, float("-inf"))
        projected = _frontend(feats, cfg, transform)
        dev_data.append((entry.accent, _per_vowel_matrix(projected, segments, usable_vowels)))
        dev_segment_lists.append((entry.accent, projected, segments))

    subset = select_vowel_subset(
        dev_data, all_vowel_set, cfg.vowel_subset_size, cfg.frame_normalized_vowel_scores
    )
    weights = vowel_weights(frame_counts, subset)
    tau = _tune_confidence_threshold(
        dev_segment_lists, all_vowel_set, subset, weights, cfg
    )

    final = VowelModelSet(
        labels=labels,
        subset=subset,
        weights=weights,
        models={(lab, v): models[(lab, v)] for lab in labels for v in subset},
        fingerprint=fingerprint,
        transform_ref="transform.lin",
        confidence_tau=tau,
    )
    save_model_set(model_dir, final)
    return model_dir


def _pool_by_accent(labels, train_feats, cfg, transform) -> dict[str, np.ndarray]:
    pooled: dict[str, list[np.ndarray]] = {lab: [] for lab in labels}
    for accent, feats in train_feats:
        processed = _frontend(feats, cfg, transform) if transform is not None else feats
        if processed.n_frames:
            pooled[accent].append(processed.values)
    empty = [lab for lab, blocks in pooled.items() if not blocks]
    if empty:
        raise DataError(f"no training frames for accents: {empty}")
    return {lab: np.vstack(blocks) for lab, blocks in pooled.items()}


def _tune_confidence_threshold(dev_segment_lists, model_set, subset, weights, cfg) -> float:
    """Grid search over dev-confidence percentiles for the best filter threshold.

    A vowel's rows depend only on the intervals of its kept segments, so its
    per-accent totals are scored once per distinct set of kept intervals and
    reused by every grid point that keeps the same set.
    """
    confidences = [
        s.confidence
        for _, _, segments in dev_segment_lists
        for s in segments
        if s.phone in subset and s.confidence is not None
    ]
    if not confidences:
        return float("-inf")
    grid = [float("-inf")] + sorted(
        {float(np.percentile(confidences, p)) for p in range(0, 100, 10)}
    )

    memo: dict[tuple, tuple[int, dict[str, float]] | None] = {}
    best_tau, best_acc = float("-inf"), -1.0
    for tau in grid:
        correct = 0
        for ui, (accent, projected, segments) in enumerate(dev_segment_lists):
            kept, _ = filter_by_confidence(segments, tau)
            present = []
            for v in subset:
                key = (ui, v, tuple((s.start, s.end) for s in kept if s.phone == v))
                if key not in memo:
                    memo[key] = _score_vowel(model_set, v, extract_vowel_frames(projected, kept, v))
                if memo[key] is not None:
                    present.append((v, *memo[key]))
            if not present:
                continue  # counts as a miss
            predicted, _ = _fuse_vowel_scores(
                model_set.labels, weights, present, cfg.frame_normalized_vowel_scores
            )
            if predicted == accent:
                correct += 1
        acc = correct / len(dev_segment_lists)
        if acc > best_acc:
            best_tau, best_acc = tau, acc
    return best_tau


def cmd_evaluate(manifest_path, cfg: PipelineConfig, out_dir, mode: str) -> EvaluationReport:
    """Classify the test split and write the accuracy/confusion report."""
    if mode not in MODES:
        raise DataError(f"unknown evaluation mode {mode!r}; expected one of {MODES}")
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = Path(out_dir)
    feat_dir = root / "features"
    model_dir = root / f"models-{mode}"
    fingerprint = config_fingerprint(cfg)
    _check_fingerprint(feat_dir, fingerprint, "feature archive")

    model_set = load_model_set(model_dir)
    if model_set.fingerprint != fingerprint:
        raise ConsistencyError(
            f"model set at {model_dir} was trained under a different configuration"
        )
    transform = None
    if model_set.transform_ref:
        transform = load_transform(model_dir / model_set.transform_ref)

    split = split_dataset(manifest, seed=cfg.seed)
    entries = {e.utterance_id: e for e in manifest.entries}
    test_ids = [e.utterance_id for e in manifest.entries if split.tags.get(e.utterance_id) == "test"]

    labels = model_set.labels
    index = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    skipped = 0
    for utt in test_ids:
        entry = entries[utt]
        if entry.accent not in index:
            raise DataError(
                f"{utt}: accent {entry.accent!r} is not covered by the model set {labels}"
            )
        feats = _load_features(feat_dir, utt)
        try:
            if isinstance(model_set, VowelModelSet):
                segments = _vowel_segments_for(
                    entry, manifest_path.parent, feat_dir, model_set.confidence_tau
                )
                projected = _frontend(feats, cfg, transform)
                per_vowel = _per_vowel_matrix(projected, segments, model_set.subset)
                result = classify_vowel(
                    model_set, per_vowel, cfg.frame_normalized_vowel_scores
                )
            else:
                processed = _frontend(feats, cfg, transform) if transform is not None else feats
                result = classify_baseline(model_set, processed)
        except (DataError, ValueError) as exc:
            logger.warning("skipping %s: %s", utt, exc)
            skipped += 1
            continue
        confusion[index[entry.accent], index[result.predicted]] += 1

    report = EvaluationReport(
        labels=labels,
        confusion=confusion,
        utterances=int(confusion.sum()),
        fingerprint=fingerprint,
        mode=mode,
        skipped=skipped,
    )
    report_dir = root / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_eval_report(report_dir / f"eval-{mode}.json", report)
    (report_dir / f"eval-{mode}.txt").write_text(format_eval_table(report), encoding="utf-8")
    return report
