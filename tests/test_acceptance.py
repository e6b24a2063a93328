"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a full run reads as a checklist.

The end-to-end criterion builds a three-accent synthetic corpus and drives
the CLI pipeline exactly as an operator would; the licensed-corpus
procedure is documentation-only (criterion 10) and is asserted as such.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from accent_forge import pipeline
from accent_forge.accent import (
    ModelSet,
    classify_baseline,
    classify_vowel,
)
from accent_forge.audio import AudioBuffer
from accent_forge.config import PipelineConfig, SynthSpec
from accent_forge.discriminant import LabeledFeatures, _scatter_stats, hlda_fit, lda_fit, project
from accent_forge.features import read_feature_archive
from accent_forge.gmm import (
    EmOptions,
    GmmModel,
    em_fit,
    load_gmm,
    mixture_log_likelihood,
    save_gmm,
)
from accent_forge.vad import VadConfig, _centroids, remove_silence
from gmm_reference import component_posteriors, gaussian_log_density
from signal_reference import Spectrum, short_time_energy, spectral_centroid


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - start:.1f}s]")
        return wrapper
    return decorate


def naive_density(x, mean, var):
    m = len(x)
    det = 1.0
    quad = 0.0
    for d in range(m):
        det *= var[d]
        quad += (x[d] - mean[d]) ** 2 / var[d]
    return math.exp(-0.5 * quad) / ((2 * math.pi) ** (m / 2) * math.sqrt(det))


@criterion(1, "EM monotonicity")
def test_em_monotonic_over_100_instances():
    deadline = time.time() + 30
    for seed in range(100):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(8, 201))
        M = int(rng.integers(1, 6))
        N = int(rng.integers(1, 5))
        K = max(K, N)
        X = rng.standard_normal((K, M)) * rng.uniform(0.5, 2.0) + rng.uniform(-3, 3)
        _, trace = em_fit(X, N, EmOptions(seed=seed))
        steps = np.diff(trace)
        assert np.all(steps >= -1e-8), f"seed {seed}: worst step {steps.min()}"
    assert time.time() < deadline


@criterion(2, "GMM oracle equivalence")
def test_gmm_matches_naive_formulas():
    deadline = time.time() + 10
    rng = np.random.default_rng(202)
    for _ in range(1000):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 6))
        w = rng.uniform(0.2, 1.0, N)
        model = GmmModel(w / w.sum(), rng.uniform(-2, 2, (N, M)), rng.uniform(0.3, 2.0, (N, M)))
        x = rng.uniform(-3, 3, M)

        log_b = gaussian_log_density(x, model.means[0], model.variances[0])
        assert abs(log_b - math.log(naive_density(x, model.means[0], model.variances[0]))) < 1e-9

        p = sum(
            model.weights[i] * naive_density(x, model.means[i], model.variances[i])
            for i in range(N)
        )
        assert abs(mixture_log_likelihood(model, x[None, :]) - math.log(p)) < 1e-9

        raw = np.array(
            [model.weights[i] * naive_density(x, model.means[i], model.variances[i]) for i in range(N)]
        )
        np.testing.assert_allclose(component_posteriors(model, x), raw / raw.sum(), atol=1e-9)
    assert time.time() < deadline


@criterion(3, "scatter matrix oracle")
def test_scatter_matches_double_loop():
    deadline = time.time() + 5
    rng = np.random.default_rng(303)
    for _ in range(50):
        K = int(rng.integers(8, 61))
        M = int(rng.integers(1, 7))
        S = int(rng.integers(1, 5))
        labels = np.concatenate([np.repeat(np.arange(S), 2), rng.integers(0, S, K - 2 * S)])
        X = rng.standard_normal((K, M)) * rng.uniform(0.5, 3.0)
        _, s_b, s_w = _scatter_stats(LabeledFeatures(X, labels))

        phi = X.mean(axis=0)
        ob = np.zeros((M, M))
        for k in range(K):
            d = (X[k] - phi)[:, None]
            ob += d @ d.T
        ob /= K
        ow = np.zeros((M, M))
        for c in np.unique(labels):
            rows = X[labels == c]
            mu = rows.mean(axis=0)
            for x in rows:
                d = (x - mu)[:, None]
                ow += d @ d.T
        ow /= np.unique(labels).size
        np.testing.assert_allclose(s_b, ob, atol=1e-12)
        np.testing.assert_allclose(s_w, ow, atol=1e-12)
    assert time.time() < deadline


@criterion(4, "heteroscedastic construction")
def test_hlda_beats_lda_on_variance_coded_classes():
    deadline = time.time() + 60
    rng = np.random.default_rng(404)
    n = 5000
    c0 = np.column_stack([rng.normal(-0.1, 1, n), rng.normal(0, 1, n)])
    c1 = np.column_stack([rng.normal(+0.1, 1, n), rng.normal(0, 3, n)])
    data = LabeledFeatures(np.vstack([c0, c1]), np.repeat([0, 1], n))

    lda = lda_fit(data, 1)
    hlda, _ = hlda_fit(data, 1)
    lda_dir = lda.matrix[0] / np.linalg.norm(lda.matrix[0])
    hlda_dir = hlda.matrix[0] / np.linalg.norm(hlda.matrix[0])
    assert abs(lda_dir[0]) > 0.9, "expected the mean-coded dimension from the eigen solution"
    assert abs(hlda_dir[1]) > 0.9, "expected the variance-coded dimension from the ML solution"

    test0 = np.column_stack([rng.normal(-0.1, 1, 2000), rng.normal(0, 1, 2000)])
    test1 = np.column_stack([rng.normal(+0.1, 1, 2000), rng.normal(0, 3, 2000)])

    def accuracy(transform):
        m0, _ = em_fit(project(transform, c0), 2, EmOptions(seed=1))
        m1, _ = em_fit(project(transform, c1), 2, EmOptions(seed=2))
        models = ModelSet(["c0", "c1"], {("c0",): m0, ("c1",): m1})
        correct = 0
        for block, truth in ((test0, "c0"), (test1, "c1")):
            projected = project(transform, block)
            for row in projected:
                correct += classify_baseline(models, row[None, :]).predicted == truth
        return correct / 4000.0

    gap = accuracy(hlda) - accuracy(lda)
    assert gap >= 0.10, f"accuracy gap {gap:.3f}"
    assert time.time() < deadline


@criterion(5, "HLDA objective behavior")
def test_hlda_monotone_and_homoscedastic_agreement():
    deadline = time.time() + 60
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        S = int(rng.integers(2, 4))
        M = int(rng.integers(3, 7))
        per = int(rng.integers(30, 80))
        blocks = [
            rng.standard_normal((per, M)) * rng.uniform(0.5, 2.0, M) + rng.uniform(-2, 2, M)
            for _ in range(S)
        ]
        data = LabeledFeatures(np.vstack(blocks), np.repeat(np.arange(S), per))
        _, trace = hlda_fit(data, M - 1, max_iters=40)
        steps = np.diff(trace)
        assert np.all(steps >= -1e-8), f"seed {seed}: worst step {steps.min()}"

    rng = np.random.default_rng(555)
    base = rng.standard_normal((3000, 5)) @ rng.standard_normal((5, 5))
    means = rng.uniform(-2, 2, (3, 5))
    X = np.vstack([base + mu for mu in means])
    data = LabeledFeatures(X, np.repeat(np.arange(3), 3000))
    lda = lda_fit(data, 2)
    hlda, _ = hlda_fit(data, 2)
    angles = scipy.linalg.subspace_angles(lda.matrix.T, hlda.matrix[:2].T)
    assert np.max(angles) < 1e-3, f"principal angles {angles}"
    assert time.time() < deadline


@criterion(6, "vowel score collapse to baseline")
def test_single_vowel_classifier_equals_baseline():
    deadline = time.time() + 10
    rng = np.random.default_rng(606)
    for case in range(100):
        S = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        labels = [f"acc{i}" for i in range(S)]
        per_accent = {}
        for lab in labels:
            w = rng.uniform(0.2, 1.0, N)
            per_accent[lab] = GmmModel(
                w / w.sum(), rng.uniform(-3, 3, (N, M)), rng.uniform(0.3, 2.0, (N, M))
            )
        baseline = ModelSet(labels, {(lab,): per_accent[lab] for lab in labels})
        vowel_set = ModelSet(
            labels, {(lab, "aa"): per_accent[lab] for lab in labels}, subset=["aa"], weights={"aa": 1.0}
        )
        X = rng.uniform(-3, 3, (int(rng.integers(1, 30)), M))
        assert (
            classify_vowel(vowel_set, {"aa": X}).predicted
            == classify_baseline(baseline, X).predicted
        ), f"case {case}"
    assert time.time() < deadline


@criterion(8, "silence removal sanity")
def test_vad_rate_and_unit_examples():
    deadline = time.time() + 5
    sr = 8000
    rng = np.random.default_rng(808)
    b, a = scipy.signal.butter(4, [300 / (sr / 2), 3400 / (sr / 2)], "bandpass")
    speech = scipy.signal.lfilter(b, a, rng.standard_normal(7 * sr))
    speech *= 0.3 / np.sqrt(np.mean(speech**2))
    rumble = np.cumsum(rng.standard_normal(3 * sr))
    rumble -= rumble.mean()
    rumble *= 1e-4 / np.max(np.abs(rumble))
    audio = AudioBuffer(np.concatenate([speech, rumble]), sr)
    _, _, rate = remove_silence(audio, VadConfig())
    assert abs(rate - 0.70) <= 0.05, f"rate {rate}"

    assert short_time_energy(np.ones(123)) == 1.0
    mags = np.zeros(80)
    mags[11] = 4.0  # 1-based bin 12
    assert spectral_centroid(Spectrum(mags)) == 13.0
    assert _centroids(mags[None, :])[0] == 13.0
    assert time.time() < deadline


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    """Full three-accent pipeline run shared by the end-to-end criteria."""
    root = tmp_path_factory.mktemp("accept")
    cfg = PipelineConfig(
        synth=SynthSpec(accents=["A", "B", "C"], utterances_per_accent=30, duration_s=10.0),
        n_components=32,
        context_size=1,
        reduced_dim=20,
        transform="hlda",
        vowel_subset_size=7,
        em=EmOptions(max_iters=25, seed=17),
        seed=17,
    )
    manifest = pipeline.cmd_synthcorpus(cfg, root / "corpus")
    pipeline.cmd_vad(manifest, cfg, root)
    pipeline.cmd_featurize(manifest, cfg, root)
    reports = {}
    for mode in pipeline.MODES:
        pipeline.cmd_train(manifest, cfg, root, mode)
        reports[mode] = pipeline.cmd_evaluate(manifest, cfg, root, mode)
    return root, cfg, manifest, reports


@criterion(7, "synthetic end-to-end ordering")
def test_full_pipeline_on_synthetic_corpus(synth_pipeline):
    deadline = time.time() + 600
    root, cfg, manifest, reports = synth_pipeline
    base = reports["baseline-plp"].overall_accuracy
    hlda = reports["baseline-hlda"].overall_accuracy
    vowel = reports["vowel-hlda"].overall_accuracy
    print(f"  accuracies: plp={base:.3f} hlda={hlda:.3f} vowel={vowel:.3f}")
    assert base >= 0.80, f"baseline accuracy {base}"
    assert vowel >= base, f"vowel {vowel} < baseline {base}"
    for mode in pipeline.MODES:
        assert reports[mode].skipped == 0
        stored = json.loads((root / "reports" / f"eval-{mode}.json").read_text(encoding="utf-8"))
        assert stored["overall_accuracy"] == reports[mode].overall_accuracy
    assert time.time() < deadline


@criterion(9, "determinism and round trips")
def test_artifact_round_trips_and_rerun_equality(tmp_path):
    deadline = time.time() + 120
    cfg = PipelineConfig(
        # 5 per accent split 3/1/1, so each evaluation classifies test utterances
        synth=SynthSpec(accents=["A", "B"], utterances_per_accent=5, duration_s=4.0),
        n_components=4,
        reduced_dim=8,
        vowel_subset_size=2,
        em=EmOptions(max_iters=8, seed=5),
        seed=5,
    )
    m1 = pipeline.cmd_synthcorpus(cfg, tmp_path / "c1")
    m2 = pipeline.cmd_synthcorpus(cfg, tmp_path / "c2")
    for rel in ("manifest.tsv", "audio/A0000.wav", "align/B0002.ali"):
        assert (tmp_path / "c1" / rel).read_bytes() == (tmp_path / "c2" / rel).read_bytes()

    for m, w in ((m1, tmp_path / "w1"), (m2, tmp_path / "w2")):
        pipeline.cmd_vad(m, cfg, w)
        pipeline.cmd_featurize(m, cfg, w)
    for rel in ("vad/B0001.mask", "vad/fingerprint.txt", "features/A0000.feat", "features/fingerprint.txt"):
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes()

    for mode in ("baseline-plp", "baseline-hlda", "vowel-hlda"):
        pipeline.cmd_train(m1, cfg, tmp_path / "w1", mode)
        pipeline.cmd_train(m2, cfg, tmp_path / "w2", mode)
        d1 = tmp_path / "w1" / f"models-{mode}"
        d2 = tmp_path / "w2" / f"models-{mode}"
        for path in sorted(p for p in d1.rglob("*") if p.is_file()):
            other = d2 / path.relative_to(d1)
            assert other.read_bytes() == path.read_bytes(), f"differs: {path.name}"
        r1 = pipeline.cmd_evaluate(m1, cfg, tmp_path / "w1", mode)
        r2 = pipeline.cmd_evaluate(m2, cfg, tmp_path / "w2", mode)
        assert r1.utterances >= 1 and r2.utterances >= 1
        rel = f"reports/eval-{mode}.json"
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes()

    # the shared transform fit: the same two files, byte for byte
    t1, t2 = tmp_path / "w1" / "transform", tmp_path / "w2" / "transform"
    assert sorted(p.name for p in t1.iterdir()) == ["fit.json", "transform.lin"]
    assert sorted(p.name for p in t2.iterdir()) == ["fit.json", "transform.lin"]
    for name in ("fit.json", "transform.lin"):
        assert (t1 / name).read_bytes() == (t2 / name).read_bytes()
    for mode in ("baseline-hlda", "vowel-hlda"):
        assert (tmp_path / "w1" / f"models-{mode}" / "transform.lin").read_bytes() == (
            t1 / "transform.lin"
        ).read_bytes()

    # save -> load -> save byte equality for each artifact type
    feat_path = tmp_path / "w1" / "features" / "A0000.feat"
    from accent_forge.features import write_feature_archive
    blob = feat_path.read_bytes()
    write_feature_archive(feat_path, read_feature_archive(feat_path))
    assert feat_path.read_bytes() == blob

    gmm_path = tmp_path / "w1" / "models-baseline-plp" / "models" / "A.gmm"
    blob = gmm_path.read_bytes()
    save_gmm(gmm_path, load_gmm(gmm_path))
    assert gmm_path.read_bytes() == blob

    from accent_forge.accent import load_model_set, save_model_set
    from accent_forge.discriminant import load_transform, save_transform

    t_path = tmp_path / "w1" / "models-vowel-hlda" / "transform.lin"
    blob = t_path.read_bytes()
    save_transform(t_path, load_transform(t_path))
    assert t_path.read_bytes() == blob

    set_dir = tmp_path / "w1" / "models-vowel-hlda"
    blob = (set_dir / "modelset.txt").read_bytes()
    save_model_set(set_dir, load_model_set(set_dir))
    assert (set_dir / "modelset.txt").read_bytes() == blob

    from accent_forge.report import EvaluationReport, write_eval_report
    rep_path = tmp_path / "w1" / "reports" / "eval-baseline-plp.json"
    blob = rep_path.read_bytes()
    stored = json.loads(blob)
    fields = ("labels", "confusion", "utterances", "fingerprint", "mode", "skipped")
    write_eval_report(rep_path, EvaluationReport(*(stored[name] for name in fields)))
    assert rep_path.read_bytes() == blob
    assert time.time() < deadline


@criterion(10, "licensed-corpus operator procedure")
def test_real_corpus_path_is_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "FAE" in text, "operator procedure for the licensed corpus must be documented"
    for needle in ("manifest", "featurize", "train", "evaluate"):
        assert needle in text
