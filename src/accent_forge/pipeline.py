"""Orchestration of the CLI commands over a workspace directory.

Every command takes the manifest, the parsed configuration, and a workspace
root. Stages write into fixed subdirectories of the workspace (vad/,
features/, transform/, models-<mode>/, reports/), so later stages find
earlier ones by convention. The run is one chain, vad -> featurize ->
train -> evaluate: vad is the only stage that removes silence, featurize
extracts features from the speech vad's masks keep, and train and evaluate
read both the features and the masks. The configuration fingerprint is
stored with masks, features and models; each stage refuses a missing
predecessor or one with a mismatched fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import records
from .accent import (
    AccentModelSet,
    VowelModelSet,
    classify_baseline,
    classify_vowel,
    load_model_set,
    save_model_set,
    train_pools,
    train_vowel_set,
)
from .audio import frame_signal, load_audio
from .config import PipelineConfig, config_fingerprint
from .corpus import (
    VOWELS,
    ManifestEntry,
    extract_vowel_frames,
    parse_alignment,
    parse_manifest,
    remap_segments,
    split_dataset,
    vowel_rows,
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
    context_expand,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
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
from .vad import load_mask, masked_speech, remove_silence, save_mask

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
    actual = records.read_text(path, "fingerprint").strip()
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
    _write_fingerprint(mask_dir, report.fingerprint)
    write_vad_report(report_dir / "vad.json", report)
    (report_dir / "vad.txt").write_text(format_vad_table(report), encoding="utf-8")
    return report


def cmd_featurize(manifest_path, cfg: PipelineConfig, out_dir) -> int:
    """Extract features from the speech vad kept, normalize each utterance's and archive them."""
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = Path(out_dir)
    fingerprint = config_fingerprint(cfg)
    _check_fingerprint(root / "vad", fingerprint, "speech masks")
    feat_dir = root / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    def extract(entry: ManifestEntry) -> FeatureMatrix:
        wav = _resolve(manifest_path.parent, entry.audio_path)
        audio = load_audio(wav)
        mask_path = root / "vad" / f"{entry.utterance_id}.mask"
        _, mask = load_mask(mask_path)
        fs = frame_signal(audio, cfg.vad.frame_len_ms, cfg.vad.hop_ms)
        if (mask.sample_rate, mask.frame_len, mask.hop, mask.n_frames) != (
            fs.sample_rate, fs.frame_len, fs.hop, fs.n_frames
        ):
            raise ConsistencyError(
                f"{mask_path} does not frame {wav} as the [vad] configuration does; run vad again"
            )
        try:  # a sample rate the front end cannot analyze, or one with too few critical bands for lp_order
            static = plp_static(masked_speech(audio, mask), cfg.plp, entry.utterance_id)
            if static.n_frames == 0:
                return static.with_values(np.zeros((0, 3 * cfg.plp.num_cepstra)))
            return mvn(append_deltas(static, cfg.plp.delta_window))
        except ValueError as exc:
            raise DataError(f"{wav}: {exc}") from None

    feats = _map_ordered(extract, manifest.entries)
    for entry, f in zip(manifest.entries, feats):
        write_feature_archive(feat_dir / f"{entry.utterance_id}.feat", f)
    _write_fingerprint(feat_dir, fingerprint)
    return len(feats)


@dataclass
class _Run:
    """What train and evaluate share: the workspace and the seeded split."""

    cfg: PipelineConfig
    root: Path
    manifest_dir: Path
    labels: list[str]  # the manifest's accent inventory
    parts: dict[str, list[ManifestEntry]]  # train/dev/test, each in manifest order
    fingerprint: str

    def features(self, entry: ManifestEntry) -> FeatureMatrix:
        path = self.root / "features" / f"{entry.utterance_id}.feat"
        if not path.exists():
            raise DataError(f"{path}: features for {entry.utterance_id} not found; run featurize first")
        return read_feature_archive(path)

    def vowel_segments(self, entry: ManifestEntry):
        """The alignment's segments, remapped onto silence-removed time."""
        utt = entry.utterance_id
        if not entry.alignment_path:
            raise DataError(f"{utt}: manifest has no alignment path (vowel mode needs one)")
        segments = parse_alignment(_resolve(self.manifest_dir, entry.alignment_path))
        _, mask = load_mask(self.root / "vad" / f"{utt}.mask")
        return remap_segments(mask, segments)

    def model_input(self, feats: FeatureMatrix, transform: LinearTransform | None, segments=None):
        """What the models see of an utterance, and its vowel table when segments are given.

        The rows are the archived features, or their context expansion
        projected by transform; one the transform cannot take is a ValueError.
        """
        rows = feats.values
        if transform is not None:
            rows = project(transform, context_expand(feats, self.cfg.context_size).values)
        return rows, None if segments is None else extract_vowel_frames(feats, segments)


def _open_run(manifest_path, cfg: PipelineConfig, out_dir, mode: str, action: str) -> _Run:
    """Check the mode, read the manifest, check the masks' and features' fingerprints and split."""
    if mode not in MODES:
        raise DataError(f"unknown {action} mode {mode!r}; expected one of {MODES}")
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    if not manifest.entries:
        raise DataError(f"{manifest_path}: the manifest lists no utterance")
    root = Path(out_dir)
    fingerprint = config_fingerprint(cfg)
    _check_fingerprint(root / "vad", fingerprint, "speech masks")
    _check_fingerprint(root / "features", fingerprint, "feature archive")
    tags = split_dataset(manifest, seed=cfg.seed).tags
    parts = {
        part: [e for e in manifest.entries if tags.get(e.utterance_id) == part]
        for part in ("train", "dev", "test")
    }
    return _Run(cfg, root, manifest_path.parent, manifest.inventory, parts, fingerprint)


def _fit_transform(run: _Run, train_feats: list[tuple[str, FeatureMatrix]]) -> tuple[LinearTransform, dict]:
    """Fit the configured reduction on context-expanded, accent-labeled frames.

    Returns the transform and the fit's record: its kind, and for HLDA the
    sweep count, the final objective and whether the last sweep converged.
    Each utterance is expanded into its rows of one matrix, which the fit centers in place.
    """
    cfg = run.cfg
    label_index = {lab: i for i, lab in enumerate(run.labels)}
    usable = [(label_index[accent], feats) for accent, feats in train_feats if feats.n_frames]
    bounds = np.cumsum([0] + [feats.n_frames for _, feats in usable])
    X = np.empty((bounds[-1], usable[0][1].dims * (2 * cfg.context_size + 1)))
    for (_, feats), lo, hi in zip(usable, bounds, bounds[1:]):
        context_expand(feats, cfg.context_size, out=X[lo:hi])
    data = LabeledFeatures(X, np.repeat([label for label, _ in usable], np.diff(bounds)))
    if cfg.transform == "lda":
        record = {"kind": "lda", "sweeps": None, "objective": None, "converged": None}
        return lda_fit(data, cfg.reduced_dim, overwrite_rows=True), record
    transform, trace = hlda_fit(data, cfg.reduced_dim, overwrite_rows=True)
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


def _workspace_transform(run: _Run, train_feats: list[tuple[str, FeatureMatrix]]) -> LinearTransform:
    """The workspace's discriminant transform, fitted once and shared by every mode.

    transform/transform.lin holds the transform and transform/fit.json its
    record: a SHA-256 key over everything the fit reads (format tag, config
    fingerprint, accent order, the ordered train ids with their accents and
    the bytes of their feature matrices), the SHA-256 of transform.lin and
    the fit's convergence summary. The cached transform is reused only when
    the key and the file hash both match and the file loads; in any other
    state the transform is refitted and both files are rewritten.
    """
    digest = hashlib.sha256()
    head = [TRANSFORM_CACHE_FORMAT, run.fingerprint, list(run.labels)]
    digest.update(json.dumps(head).encode("utf-8") + b"\n")
    for entry, (accent, feats) in zip(run.parts["train"], train_feats):
        values = np.ascontiguousarray(feats.values, dtype="<f8")
        digest.update(json.dumps([entry.utterance_id, accent, *values.shape]).encode("utf-8") + b"\n")
        digest.update(values)  # through the buffer protocol: no copy
    key = digest.hexdigest()

    cache = run.root / "transform"
    lin_path, record_path = cache / "transform.lin", cache / "fit.json"
    try:
        stored = json.loads(records.read_text(record_path, "transform fit record"))
        lin_sha256 = records.sha256(lin_path)
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

    transform, record = _fit_transform(run, train_feats)
    cache.mkdir(parents=True, exist_ok=True)
    _replace_atomically(lin_path, lambda tmp: save_transform(tmp, transform))
    lin_sha256 = records.sha256(lin_path)
    record.update(format=TRANSFORM_CACHE_FORMAT, key=key, transform_sha256=lin_sha256)
    _replace_atomically(
        record_path, lambda tmp: tmp.write_text(_canonical_json(record), encoding="utf-8")
    )
    return transform


def cmd_train(manifest_path, cfg: PipelineConfig, out_dir, mode: str) -> Path:
    """Train one of the three model configurations and serialize it.

    One pass over the train utterances splits each one's model input into
    row pools keyed (accent,), or (accent, vowel) in vowel-hlda mode, where
    a vowel's pool takes its vowel_rows at tau = -inf: every row it covers.
    """
    run = _open_run(manifest_path, cfg, out_dir, mode, "training")
    train_feats = [(e.accent, run.features(e)) for e in run.parts["train"]]
    frames = dict.fromkeys(run.labels, 0)
    for accent, feats in train_feats:
        frames[accent] += feats.n_frames
    least = 1 if mode == "baseline-plp" else 2  # the transform fit's class statistics need 2 rows
    thin = [f"{lab} ({n})" for lab, n in frames.items() if n < least]
    if thin:
        raise DataError(f"{mode} needs at least {least} training frames per accent; too few for: {thin}")
    model_dir = run.root / f"models-{mode}"
    model_dir.mkdir(parents=True, exist_ok=True)

    transform = None
    if mode != "baseline-plp":
        transform = _workspace_transform(run, train_feats)
        save_transform(model_dir / "transform.lin", transform)
    vowel = mode == "vowel-hlda"
    keys = [(lab, v) for lab in run.labels for v in VOWELS] if vowel else [(lab,) for lab in run.labels]
    blocks: dict[tuple[str, ...], list[np.ndarray]] = {key: [] for key in keys}  # pools fit in this order
    for entry, (accent, feats) in zip(run.parts["train"], train_feats):
        rows, table = run.model_input(feats, transform, run.vowel_segments(entry) if vowel else None)
        if vowel:
            parts = {(accent, v): vowel_rows(rows, table, v, float("-inf")) for v in VOWELS}
        else:
            parts = {(accent,): rows}
        for key, values in parts.items():
            if values.shape[0]:
                blocks[key].append(values)
    pools = {key: np.vstack(b) for key, b in blocks.items() if b}
    if vowel:
        dev, dev_segments = [], []
        for e in run.parts["dev"]:
            segments = run.vowel_segments(e)
            dev.append((e.accent, *run.model_input(run.features(e), transform, segments)))
            dev_segments += segments
        model_set = train_vowel_set(
            pools, run.labels, dev, dev_segments, cfg.n_components, cfg.em, cfg.vowel_subset_size
        )
    else:
        models = train_pools(pools, run.labels, cfg.n_components, cfg.em)
        model_set = AccentModelSet(run.labels, {lab: models[(lab,)] for lab in run.labels})
    model_set.fingerprint = run.fingerprint
    model_set.transform_ref = None if transform is None else "transform.lin"
    save_model_set(model_dir, model_set)
    return model_dir


def cmd_evaluate(manifest_path, cfg: PipelineConfig, out_dir, mode: str, allow_empty=True) -> EvaluationReport:
    """Classify the test split and write the accuracy/confusion report; unless allow_empty,
    a split with no classified utterance is a DataError and no report is written."""
    run = _open_run(manifest_path, cfg, out_dir, mode, "evaluation")
    model_dir = run.root / f"models-{mode}"
    model_set = load_model_set(model_dir)
    if model_set.fingerprint != run.fingerprint:
        raise ConsistencyError(
            f"model set at {model_dir} was trained under a different configuration"
        )
    transform = None
    if model_set.transform_ref:
        transform = load_transform(model_dir / model_set.transform_ref)

    labels = model_set.labels
    index = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    vowel = isinstance(model_set, VowelModelSet)
    skipped = 0
    for entry in run.parts["test"]:
        if entry.accent not in index:
            raise DataError(
                f"{entry.utterance_id}: accent {entry.accent!r} is not covered by the model set {labels}"
            )
        feats = run.features(entry)
        # a missing or damaged alignment or mask is a data error, as in training
        segments = run.vowel_segments(entry) if vowel else None
        try:
            rows, table = run.model_input(feats, transform, segments)
            if vowel:
                per_vowel = {v: vowel_rows(rows, table, v, model_set.confidence_tau) for v in model_set.subset}
                result = classify_vowel(model_set, per_vowel)
            else:
                result = classify_baseline(model_set, rows)
        except (DataError, ValueError) as exc:
            logger.warning("skipping %s: %s", entry.utterance_id, exc)
            skipped += 1
            continue
        confusion[index[entry.accent], index[result.predicted]] += 1
    if not (allow_empty or confusion.any()):
        n_test = len(run.parts["test"])
        raise DataError(f"no test utterance was classified ({n_test} in the test split, {skipped} skipped)")

    report = EvaluationReport(
        labels=labels,
        confusion=confusion,
        utterances=int(confusion.sum()),
        fingerprint=run.fingerprint,
        mode=mode,
        skipped=skipped,
    )
    report_dir = run.root / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_eval_report(report_dir / f"eval-{mode}.json", report)
    (report_dir / f"eval-{mode}.txt").write_text(format_eval_table(report), encoding="utf-8")
    return report
