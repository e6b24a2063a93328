#!/usr/bin/env python3
"""End-to-end benchmark of the accent-forge pipeline.

    python3 bench/run.py --workload reference --seed 1 --seconds 30 --trace 0

For the chosen workload the benchmark generates a corpus from --seed with
its own generator, then runs the CLI stages in-process through
accent_forge.pipeline: vad, featurize, and train + evaluate for each of the
three modes. It repeats whole rounds of that pipeline until --seconds have
passed (at least one round), checks every round's outputs, and prints each
metric by name and unit, then one JSON object as the last line.

--trace 0 reports the end-to-end metrics: stage timings from the fastest
round, the evaluate rate from the median evaluate pass.
--trace 1 runs one untraced round, then traced rounds in which the
program's functions are wrapped to record spans, and reports the per-layer
metrics (medians over traced rounds) plus the tracing overhead. Spans of
the last traced round are written to .bench_work/trace-<workload>-<seed>.json.

The program is imported from the src/ directory next to this one; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One compute thread, set before numpy loads. With two BLAS threads a fixed
# hlda_fit varied by 2x in wall time. Silence removal holds the interpreter
# lock in a per-frame loop, so two pool workers made vad + featurize slower
# and less steady than one (see README).
for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "ACCENT_FORGE_WORKERS",
):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MODES = ("baseline-plp", "baseline-hlda", "vowel-hlda")
SHORT = {"baseline-plp": "plp", "baseline-hlda": "hlda", "vowel-hlda": "vowel"}
SETUP_REPEATS = 3
# Each mode's evaluate is repeated until its passes add up to this long;
# one pass takes 0.01-0.2 s, too short to time once on a shared host.
EVAL_MIN_S = 1.0
EVAL_MIN_PASSES = 5


def _fail(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "accent_forge" / "pipeline.py").is_file():
        _fail(f"program sources not found at {SRC}/accent_forge", 2)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import scipy.signal  # noqa: F401
    import accent_forge
    import accent_forge.pipeline  # noqa: F401
    import synthesis  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(accent_forge.__file__).resolve().parent != SRC / "accent_forge":
        _fail(f"imported accent_forge from {accent_forge.__file__}, not from {SRC}", 2)
    logging.disable(logging.WARNING)  # capped-component and skip notices

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", 1)
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, workload, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Round:
    stage_s: dict
    pipeline_s: float
    accuracy: dict  # mode -> overall test accuracy
    eval_passes: dict  # mode -> list of evaluate pass times
    test_utterances: int


def load_workload(workload, seed: int, out: Path):
    """Config load and corpus generation: the repeated part of set-up."""
    from accent_forge.config import load_config
    import synthesis

    cfg = load_config(BENCH_DIR / "workloads" / workload.config, seed_override=seed)
    return cfg, synthesis.generate(workload.corpus, seed, out)


def run_round(pipeline, manifest, cfg, workspace: Path, tracer=None) -> Round:
    """vad, featurize, 3x train, 3x evaluate, each once; optionally traced."""
    stages = [("vad", lambda: pipeline.cmd_vad(manifest, cfg, workspace)),
              ("featurize", lambda: pipeline.cmd_featurize(manifest, cfg, workspace))]
    stages += [(f"train_{SHORT[m]}", lambda m=m: pipeline.cmd_train(manifest, cfg, workspace, m))
               for m in MODES]
    stages += [(f"evaluate_{SHORT[m]}", lambda m=m: pipeline.cmd_evaluate(manifest, cfg, workspace, m))
               for m in MODES]
    stage_s, accuracy, test_utts = {}, {}, 0
    start = time.perf_counter()
    for name, call in stages:
        span = tracer.begin_stage(f"pipeline.{name}") if tracer else None
        t = time.perf_counter()
        result = call()
        stage_s[name] = time.perf_counter() - t
        if span is not None:
            tracer.finish_stage(span)
        if name.startswith("evaluate_"):
            accuracy[result.mode] = result.overall_accuracy
            test_utts = result.utterances
    pipeline_s = time.perf_counter() - start
    passes = {m: [stage_s[f"evaluate_{SHORT[m]}"]] for m in MODES}
    return Round(stage_s, pipeline_s, accuracy, passes, test_utts)


def repeat_evaluate(pipeline, manifest, cfg, workspace: Path, rnd: Round) -> int:
    """Time further evaluate passes per mode; returns how many were run."""
    extra = 0
    for mode in MODES:
        times = rnd.eval_passes[mode]
        while sum(times) < EVAL_MIN_S or len(times) < EVAL_MIN_PASSES:
            t = time.perf_counter()
            pipeline.cmd_evaluate(manifest, cfg, workspace, mode)
            times.append(time.perf_counter() - t)
            extra += 1
    return extra


def end_to_end_metrics(setup_s: float, rounds: list[Round]) -> dict:
    """name -> (value, unit). Interference from other tenants only ever slows
    a stage down, so stage timings keep the fastest round. The fastest of
    many short evaluate passes varied more between runs than their median,
    so the evaluate rate uses the median pass of each mode."""
    fastest = lambda stage: min(r.stage_s[stage] for r in rounds)  # noqa: E731
    median_pass = {m: statistics.median(t for r in rounds for t in r.eval_passes[m]) for m in MODES}
    first = rounds[0].accuracy
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (min(r.pipeline_s for r in rounds), "s"),
        "frontend_s": (min(r.stage_s["vad"] + r.stage_s["featurize"] for r in rounds), "s"),
        "train_plp_s": (fastest("train_plp"), "s"),
        "train_hlda_s": (fastest("train_hlda"), "s"),
        "train_vowel_s": (fastest("train_vowel"), "s"),
        "evaluate_utt_per_s": (
            len(MODES) * rounds[0].test_utterances / sum(median_pass.values()),
            "utt/s",
        ),
        "accuracy_plp": (first["baseline-plp"], "fraction"),
        "accuracy_hlda": (first["baseline-hlda"], "fraction"),
        "accuracy_vowel": (first["vowel-hlda"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def run(args, workload, work: Path, import_s: float) -> int:
    from accent_forge import pipeline
    from accent_forge.corpus import parse_manifest, split_dataset

    import checks
    import layers
    from workloads import WARMUP

    setup_times = []
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        cfg, corpus = load_workload(workload, args.seed, work / f"corpus{k}")
        setup_times.append(time.perf_counter() - t)
        if k:
            shutil.rmtree(work / f"corpus{k - 1}")
    setup_s = import_s + statistics.median(setup_times)
    manifest = corpus.manifest
    split = split_dataset(parse_manifest(manifest), seed=cfg.seed)
    test_ids = [u for u in corpus.utterances if split.tags.get(u) == "test"]

    # untimed pass so lazy imports, BLAS and the worker pool start first
    warm_cfg, warm_corpus = load_workload(WARMUP, 0, work / "warmup-corpus")
    run_round(pipeline, warm_corpus.manifest, warm_cfg, work / "warmup-ws")

    failures: list[str] = []
    rounds: list[Round] = []
    traced_rounds: list[tuple[Round, dict]] = []
    attempted = 0
    tracer = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(rounds)
        workspace = work / f"ws{len(rounds) + len(traced_rounds)}"
        if traced:
            tracer = layers.make_tracer()
            try:
                rnd = run_round(pipeline, manifest, cfg, workspace, tracer)
            finally:
                tracer.restore()
            traced_rounds.append((rnd, layers.layer_metrics(tracer, rnd)))
            failures += layers.monotone_failures(tracer)
        else:
            rnd = run_round(pipeline, manifest, cfg, workspace)
            if not args.trace:
                attempted += repeat_evaluate(pipeline, manifest, cfg, workspace, rnd)
            rounds.append(rnd)
        attempted += len(rnd.stage_s)
        failures += checks.check_round(corpus, workspace, cfg, rnd.accuracy, test_ids)
        if rnd.accuracy != rounds[0].accuracy:
            failures.append(f"(g) accuracies {rnd.accuracy} differ from the first round's")
        shutil.rmtree(workspace)
        print(
            f"round {len(rounds) + len(traced_rounds)}{' traced' if traced else ''}: "
            f"pipeline {rnd.pipeline_s:.3f} s ("
            + ", ".join(f"{k} {v:.3f}" for k, v in rnd.stage_s.items())
            + f"), accuracies {rnd.accuracy}",
            file=sys.stderr,
        )
        if time.perf_counter() - start >= args.seconds and (traced_rounds or not args.trace):
            break

    for message in failures:
        print(f"CHECK FAILED {message}", file=sys.stderr)

    if args.trace:
        metrics = layers.median_metrics([m for _, m in traced_rounds])
        traced_pipeline = statistics.median(r.pipeline_s for r, _ in traced_rounds)
        metrics["trace.overhead_s"] = (traced_pipeline - rounds[0].pipeline_s, "s")
        layers.write_trace(
            tracer, ROOT / ".bench_work" / f"trace-{workload.name}-{args.seed}.json", metrics
        )
    else:
        metrics = end_to_end_metrics(setup_s, rounds)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
