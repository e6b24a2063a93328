"""Output checks made apart from the program.

The readers and the scorer here are written from the documented file
formats with numpy and scipy only; none of them calls the program's own
readers or scoring code. Each check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

SPLIT_RATIOS = (0.70, 0.15, 0.15)
# Relative tolerance of VAD-kept speech time against the generator's truth.
VAD_TOLERANCE = 0.15
# Round-off allowed in a log-likelihood or objective step, relative to its size.
MONOTONE_TOLERANCE = 1e-9


def _header_and_payload(path: Path, magic: str) -> tuple[list[str], bytes]:
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = raw[:newline].decode("utf-8").split()
    if not header or header[0] != magic:
        raise ValueError(f"{path}: not an {magic} file")
    return header, raw[newline + 1:]


def read_features(path: Path) -> np.ndarray:
    """Single-record ACFEAT1 archive: header line, then float64 LE rows."""
    header, payload = _header_and_payload(path, "ACFEAT1")
    dims, frames = int(header[2]), int(header[3])
    return np.frombuffer(payload, dtype="<f8", count=dims * frames).reshape(frames, dims)


def read_gmm(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    header, payload = _header_and_payload(path, "ACGMM1")
    n, m = int(header[1]), int(header[2])
    values = np.frombuffer(payload, dtype="<f8", count=n + 2 * n * m)
    return values[:n], values[n:n + n * m].reshape(n, m), values[n + n * m:].reshape(n, m)


def read_transform(path: Path) -> np.ndarray:
    """Retained rows of an ACHLDA1 matrix."""
    header, payload = _header_and_payload(path, "ACHLDA1")
    rows, cols, retained = int(header[2]), int(header[3]), int(header[4])
    return np.frombuffer(payload, dtype="<f8", count=rows * cols).reshape(rows, cols)[:retained]


def read_mask_bits(path: Path) -> tuple[int, int, np.ndarray]:
    """(hop samples, sample rate, 0/1 frame array) of an ACMASK1 file."""
    header, payload = _header_and_payload(path, "ACMASK1")
    bits = np.frombuffer(payload.strip(), dtype=np.uint8) == ord("1")
    return int(header[3]), int(header[4]), bits


def split_counts(n: int) -> tuple[int, int, int]:
    """Largest-remainder 70/15/15 split of n utterances; fewer than 3 all train."""
    if n < 3:
        return n, 0, 0
    quotas = [r * n for r in SPLIT_RATIOS]
    counts = [math.floor(q) for q in quotas]
    order = sorted(range(3), key=lambda i: -(quotas[i] - counts[i]))  # stable on ties
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


def _context(X: np.ndarray, c: int) -> np.ndarray:
    idx = np.clip(np.arange(X.shape[0])[:, None] + np.arange(-c, c + 1)[None, :], 0, X.shape[0] - 1)
    return X[idx].reshape(X.shape[0], -1)


def _gmm_total_log_likelihood(X: np.ndarray, weights, means, variances) -> float:
    """Sum over frames of log sum_k w_k N(x; mu_k, diag(var_k))."""
    diff = X[:, None, :] - means[None, :, :]
    log_dens = -0.5 * (np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
                       + np.sum(diff * diff / variances[None, :, :], axis=2))
    return float(np.sum(logsumexp(log_dens + np.log(weights)[None, :], axis=1)))


def rescore_baseline(workspace: Path, mode: str, test_ids, truth, context: int) -> tuple[list, np.ndarray]:
    """Rebuild a baseline mode's confusion matrix from its saved files."""
    model_dir = workspace / f"models-{mode}"
    models, labels, rows = {}, [], None
    for line in (model_dir / "modelset.txt").read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if parts and parts[0] == "gmm":
            labels.append(parts[1])
            models[parts[1]] = read_gmm(model_dir / parts[2])
        elif parts and parts[0] == "transform":
            rows = read_transform(model_dir / parts[1])
    index = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for utt in test_ids:
        X = read_features(workspace / "features" / f"{utt}.feat")
        if rows is not None:
            X = _context(X, context) @ rows.T
        scores = [_gmm_total_log_likelihood(X, *models[lab]) for lab in labels]
        confusion[index[truth[utt]], int(np.argmax(scores))] += 1
    return labels, confusion


def check_round(corpus, workspace: Path, cfg, accuracy: dict, test_ids) -> list[str]:
    """Checks (a)-(e) on one round's workspace and evaluation reports."""
    failures = []
    n_accents = len(corpus.accents)
    per_accent = {a: sum(1 for acc in corpus.utterances.values() if acc == a) for a in corpus.accents}
    expected_test = sum(split_counts(n)[2] for n in per_accent.values())
    if len(test_ids) != expected_test:
        failures.append(f"(b) split gives {len(test_ids)} test utterances, rule gives {expected_test}")

    for mode in accuracy:
        payload = json.loads((workspace / "reports" / f"eval-{mode}.json").read_text(encoding="utf-8"))
        if payload["skipped"] != 0:
            failures.append(f"(b) {mode}: {payload['skipped']} test utterances skipped")
        if payload["utterances"] != expected_test:
            failures.append(f"(b) {mode}: {payload['utterances']} utterances scored, expected {expected_test}")
        if not payload["overall_accuracy"] > 1.0 / n_accents:
            failures.append(f"(c) {mode}: accuracy {payload['overall_accuracy']:.3f} not above chance")
        if mode in ("baseline-plp", "baseline-hlda"):
            labels, confusion = rescore_baseline(
                workspace, mode, test_ids, corpus.utterances, cfg.context_size
            )
            if labels != payload["labels"] or confusion.tolist() != payload["confusion"]:
                failures.append(
                    f"(a) {mode}: rescored confusion {confusion.tolist()} != report {payload['confusion']}"
                )

    kept = 0.0
    for utt in corpus.utterances:
        hop, rate, bits = read_mask_bits(workspace / "vad" / f"{utt}.mask")
        if not bits.any():
            failures.append(f"(d) {utt}: VAD kept no speech")
        kept += np.count_nonzero(bits) * hop / rate
    truth_s = sum(corpus.speech_s.values())
    if abs(kept - truth_s) > VAD_TOLERANCE * truth_s:
        failures.append(
            f"(d) VAD kept {kept:.1f} s of speech, generator truth {truth_s:.1f} s "
            f"(tolerance {VAD_TOLERANCE:.0%})"
        )

    for utt in corpus.utterances:
        X = read_features(workspace / "features" / f"{utt}.feat")
        if X.shape[1] != 39 or X.shape[0] < 2:
            failures.append(f"(e) {utt}: feature shape {X.shape}")
            continue
        if np.max(np.abs(X.mean(axis=0))) > 1e-6 or np.max(np.abs(X.std(axis=0) - 1.0)) > 1e-6:
            failures.append(f"(e) {utt}: features are not mean 0 / std 1 per dimension")
    return failures


def check_monotone(name: str, traces) -> list[str]:
    """(f) every trace is non-decreasing up to round-off."""
    failures = []
    for i, trace in enumerate(traces):
        t = np.asarray(trace, dtype=np.float64)
        steps = np.diff(t)
        allowed = -MONOTONE_TOLERANCE * np.maximum(1.0, np.abs(t[:-1]))
        if np.any(steps < allowed):
            failures.append(f"(f) {name} trace {i}: worst step {steps.min():.3g}")
    return failures
