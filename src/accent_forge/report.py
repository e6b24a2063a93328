"""Evaluation and silence-removal reports, in human and machine forms.

The machine form is canonical JSON (sorted keys, two-space indent, trailing
newline), so equal reports are written as equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class EvaluationReport:
    labels: list[str]
    confusion: np.ndarray  # rows = truth, cols = predicted
    utterances: int
    fingerprint: str = ""
    mode: str = ""
    skipped: int = 0

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=np.int64)
        s = len(self.labels)
        if self.confusion.shape != (s, s):
            raise ValueError("confusion matrix must be S x S")
        if int(self.confusion.sum()) != self.utterances:
            raise ValueError("confusion total must equal the utterance count")

    @property
    def overall_accuracy(self) -> float:
        total = int(self.confusion.sum())
        return float(np.trace(self.confusion)) / total if total else 0.0

    @property
    def per_accent_accuracy(self) -> dict[str, float]:
        out = {}
        for i, lab in enumerate(self.labels):
            row = int(self.confusion[i].sum())
            out[lab] = float(self.confusion[i, i]) / row if row else 0.0
        return out


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_eval_report(path, report: EvaluationReport) -> None:
    payload = {
        "kind": "evaluation",
        "mode": report.mode,
        "fingerprint": report.fingerprint,
        "labels": report.labels,
        "confusion": report.confusion.tolist(),
        "utterances": report.utterances,
        "skipped": report.skipped,
        "overall_accuracy": report.overall_accuracy,
        "per_accent_accuracy": report.per_accent_accuracy,
    }
    Path(path).write_text(_canonical_json(payload), encoding="utf-8")


def format_eval_table(report: EvaluationReport) -> str:
    """Human-readable accuracy table plus the confusion matrix."""
    lines = [
        f"mode: {report.mode}",
        f"utterances evaluated: {report.utterances} (skipped: {report.skipped})",
        f"overall accuracy: {report.overall_accuracy:.4f}",
        "",
        "accent  accuracy",
    ]
    for lab, acc in report.per_accent_accuracy.items():
        lines.append(f"{lab:<7} {acc:.4f}")
    lines.append("")
    width = max(len(lab) for lab in report.labels) + 2
    header = " " * width + "".join(f"{lab:>{width}}" for lab in report.labels)
    lines.append("confusion (rows = truth):")
    lines.append(header)
    for i, lab in enumerate(report.labels):
        row = "".join(f"{int(n):>{width}}" for n in report.confusion[i])
        lines.append(f"{lab:<{width}}{row}")
    return "\n".join(lines) + "\n"


@dataclass
class VadReport:
    """Per-accent silence-removal summary."""

    rows: list[dict] = field(default_factory=list)  # accent, utterances, mean_compression_rate
    fingerprint: str = ""


def write_vad_report(path, report: VadReport) -> None:
    payload = {
        "kind": "vad",
        "fingerprint": report.fingerprint,
        "rows": report.rows,
    }
    Path(path).write_text(_canonical_json(payload), encoding="utf-8")


def format_vad_table(report: VadReport) -> str:
    lines = ["accent  utterances  duration(s)  retained(s)  mean compression rate"]
    for row in report.rows:
        lines.append(
            f"{row['accent']:<7} {row['utterances']:>10}  {row.get('total_duration_s', 0.0):>11.1f}"
            f"  {row.get('retained_duration_s', 0.0):>11.1f}  {row['mean_compression_rate']:.4f}"
        )
    return "\n".join(lines) + "\n"
