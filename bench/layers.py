"""Per-layer metrics from a traced pipeline round.

Layers are the program's modules. Each wrapped function is one span kind;
busy times sum span durations, which can exceed a stage's wall time when
the front end runs in pool threads. Score metrics leave out the final
likelihood that em_fit computes on its own training frames, so that they
measure classification only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import numpy as np

import checks
from tracing import Tracer


def _shape(x):
    return np.shape(getattr(x, "values", x))


def _count_vad(counts, args, kwargs, result):
    mask = result[1]
    counts["kept"] = int(np.count_nonzero(mask.keep))
    counts["frames"] = int(mask.n_frames)


def _count_frames(counts, args, kwargs, result):
    counts["frames"] = int(result.n_frames)


def _count_hlda(counts, args, kwargs, result):
    counts["trace"] = list(result[1])
    counts["sweeps"] = len(result[1]) - 1


def _count_em(counts, args, kwargs, result):
    frames, dims = _shape(args[0])
    components = args[1] if len(args) > 1 else kwargs["n_components"]
    iters = len(result[1]) - 1
    counts["trace"] = list(result[1])
    counts["iters"] = iters
    counts["work"] = frames * components * dims * iters


def _count_score(counts, args, kwargs, result):
    counts["work"] = _shape(args[1])[0] * args[0].n_components


WRAPPED = (
    ("accent_forge.audio", "load_audio", "audio.load_audio", None),
    ("accent_forge.vad", "remove_silence", "vad.remove_silence", _count_vad),
    ("accent_forge.features", "plp_static", "features.plp_static", _count_frames),
    ("accent_forge.features", "read_feature_archive", "features.archive_read", None),
    ("accent_forge.corpus", "extract_vowel_frames", "corpus.extract_vowel_frames", None),
    ("accent_forge.corpus", "parse_alignment", "corpus.parse_alignment", None),
    ("accent_forge.discriminant", "hlda_fit", "discriminant.hlda_fit", _count_hlda),
    ("accent_forge.discriminant", "lda_fit", "discriminant.lda_fit", None),
    ("accent_forge.discriminant", "project", "discriminant.project", None),
    ("accent_forge.gmm", "em_fit", "gmm.em_fit", _count_em),
    ("accent_forge.gmm", "mixture_log_likelihood", "gmm.score", _count_score),
    ("accent_forge.accent", "select_vowel_subset", "accent.select_vowel_subset", None),
    ("accent_forge.accent", "classify_vowel", "accent.classify_vowel", None),
    ("accent_forge.accent", "save_model_set", "accent.model_set_io", None),
    ("accent_forge.accent", "load_model_set", "accent.model_set_io", None),
)

STAGES = (
    "vad", "featurize", "train_plp", "train_hlda", "train_vowel",
    "evaluate_plp", "evaluate_hlda", "evaluate_vowel",
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    for module, func, span_name, counter in WRAPPED:
        tracer.wrap(module, func, span_name, counter)
    return tracer


def layer_metrics(tracer: Tracer, rnd) -> dict:
    """name -> (value, unit) for one traced round."""
    tracer.link()
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    scores = [s for s in by_name["gmm.score"] if s.parent is None or s.parent.name != "gmm.em_fit"]
    frames = total("vad.remove_silence", "frames")
    m = {
        "audio.load_audio_s": (busy("audio.load_audio"), "s"),
        "vad.remove_silence_s": (busy("vad.remove_silence"), "s"),
        "vad.remove_silence_calls": (len(by_name["vad.remove_silence"]), "count"),
        "vad.kept_fraction": (total("vad.remove_silence", "kept") / frames if frames else 0.0, "fraction"),
        "features.plp_static_s": (busy("features.plp_static"), "s"),
        "features.frames_out": (total("features.plp_static", "frames"), "count"),
        "features.archive_reads": (len(by_name["features.archive_read"]), "count"),
        "features.archive_read_s": (busy("features.archive_read"), "s"),
        "corpus.extract_vowel_frames_s": (busy("corpus.extract_vowel_frames"), "s"),
        "corpus.parse_alignment_calls": (len(by_name["corpus.parse_alignment"]), "count"),
        "discriminant.hlda_fit_s": (busy("discriminant.hlda_fit"), "s"),
        "discriminant.hlda_fit_calls": (len(by_name["discriminant.hlda_fit"]), "count"),
        "discriminant.hlda_sweeps": (total("discriminant.hlda_fit", "sweeps"), "count"),
        "discriminant.lda_fit_s": (busy("discriminant.lda_fit"), "s"),
        "discriminant.project_s": (busy("discriminant.project"), "s"),
        "gmm.em_fit_s": (busy("gmm.em_fit"), "s"),
        "gmm.em_fit_calls": (len(by_name["gmm.em_fit"]), "count"),
        "gmm.em_iters": (total("gmm.em_fit", "iters"), "count"),
        "gmm.em_work": (total("gmm.em_fit", "work"), "count"),
        "gmm.score_s": (sum(s.duration for s in scores), "s"),
        "gmm.score_calls": (len(scores), "count"),
        "gmm.score_work": (sum(s.counts["work"] for s in scores), "count"),
        "accent.select_vowel_subset_s": (busy("accent.select_vowel_subset"), "s"),
        "accent.classify_vowel_calls": (len(by_name["accent.classify_vowel"]), "count"),
        "accent.model_set_io_s": (busy("accent.model_set_io"), "s"),
    }
    for stage in STAGES:
        spans = by_name[f"pipeline.{stage}"]
        m[f"pipeline.{stage}_self_s"] = (sum(s.self_time() for s in spans), "s")
    m["trace.traced_pipeline_s"] = (rnd.pipeline_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def layer_shares(tracer: Tracer) -> dict:
    """Share of all busy self time spent in each module (pool threads included)."""
    tracer.link()
    per_layer = defaultdict(float)
    for span in tracer.spans:
        per_layer[span.name.split(".")[0]] += span.self_time()
    total = sum(per_layer.values())
    return {layer: t / total for layer, t in sorted(per_layer.items(), key=lambda kv: -kv[1])}


def median_metrics(per_round: list[dict]) -> dict:
    return {
        name: (statistics.median(r[name][0] for r in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }


def monotone_failures(tracer: Tracer) -> list[str]:
    em = [s.counts["trace"] for s in tracer.spans if s.name == "gmm.em_fit"]
    hlda = [s.counts["trace"] for s in tracer.spans if s.name == "discriminant.hlda_fit"]
    return checks.check_monotone("em_fit", em) + checks.check_monotone("hlda_fit", hlda)


def write_trace(tracer: Tracer, path, metrics: dict) -> None:
    """Write the last traced round's spans, layer shares and metrics as JSON."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    origin = tracer.spans[0].start if tracer.spans else 0.0
    spans = [
        {
            "name": s.name,
            "start": s.start - origin,
            "end": s.end - origin,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "thread": s.thread,
        }
        for s in tracer.spans
    ]
    payload = {
        "layer_shares": layer_shares(tracer),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
