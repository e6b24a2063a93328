"""Command-line entry point.

    accent-forge <vad|featurize|train|evaluate|synthcorpus>
                 --manifest PATH --config PATH --out DIR [--mode MODE] [--seed N]

Exit codes: 0 success, 1 usage error, 2 data error, 3 consistency error.

Matrix products round differently at different BLAS thread counts, so main
sets each of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS that
is unset to 1 before numpy loads; a value set in the environment still wins.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConsistencyError, DataError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    from .pipeline import MODES

    parser = _Parser(prog="accent-forge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_manifest, needs_mode in (
        ("vad", True, False),
        ("featurize", True, False),
        ("train", True, True),
        ("evaluate", True, True),
        ("synthcorpus", False, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=needs_manifest, help="dataset manifest (TSV)")
        p.add_argument("--config", help="pipeline configuration file")
        p.add_argument("--out", required=True, help="workspace directory")
        if needs_mode:
            p.add_argument("--mode", required=True, choices=MODES)
        p.add_argument("--seed", type=int, help="override the [run] seed")
    return parser


def main(argv=None) -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # before anything imports numpy
    from . import pipeline
    from .config import PipelineConfig, load_config

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config, seed_override=args.seed)
        else:
            cfg = PipelineConfig(seed=args.seed or 0)

        if args.command == "synthcorpus":
            manifest = pipeline.cmd_synthcorpus(cfg, args.out)
            print(f"wrote corpus manifest: {manifest}")
        elif args.command == "vad":
            report = pipeline.cmd_vad(args.manifest, cfg, args.out)
            for row in report.rows:
                print(
                    f"{row['accent']}\t{row['utterances']}\t"
                    f"{row['mean_compression_rate']:.4f}"
                )
        elif args.command == "featurize":
            count = pipeline.cmd_featurize(args.manifest, cfg, args.out)
            print(f"featurized {count} utterances")
        elif args.command == "train":
            model_dir = pipeline.cmd_train(args.manifest, cfg, args.out, args.mode)
            print(f"wrote model set: {model_dir}")
        elif args.command == "evaluate":
            report = pipeline.cmd_evaluate(args.manifest, cfg, args.out, args.mode, allow_empty=False)
            print(f"overall accuracy: {report.overall_accuracy:.4f}")
    except UsageError as exc:
        print(f"accent-forge: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"accent-forge: data error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"accent-forge: consistency error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
