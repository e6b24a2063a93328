import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from accent_forge.audio import AudioBuffer, save_audio
from accent_forge.cli import main
from accent_forge.config import (
    SynthSpec,
    config_fingerprint,
    default_config,
    load_config,
)
from accent_forge.corpus import VOWELS, parse_alignment, parse_manifest, split_dataset
from accent_forge.discriminant import LabeledFeatures, hlda_converged, hlda_fit, save_transform
from accent_forge.errors import DataError, UsageError
from accent_forge.features import context_expand, read_feature_archive, write_feature_archive
from accent_forge.report import (
    EvaluationReport,
    format_eval_table,
    read_eval_report,
    write_eval_report,
)
from accent_forge.synth import generate_corpus, synthesize_utterance
from accent_forge import pipeline

FULL_CONFIG = """\
[vad]
frame_len_ms = 50
hop_ms = 25
smooth_window = 5
threshold_weight = 5.0
min_segment_ms = 100

[plp]
frame_len_ms = 25
hop_ms = 10
lp_order = 12
num_cepstra = 13
preemphasis = 0.97
delta_window = 2

[model]
context_size = 1
reduced_dim = 8
transform = hlda
n_components = 4
vowel_subset_size = 3
mvn_scope = utterance
frame_normalized_vowel_scores = true

[em]
max_iters = 10
rel_tol = 1e-4
variance_floor_factor = 1e-3

[run]
seed = 11

[synth]
accents = A B
utterances_per_accent = 6
duration_s = 5.0
sample_rate = 8000
formant_shift = 0.18
"""


class TestConfig:
    def test_load_full_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(FULL_CONFIG)
        cfg = load_config(path)
        assert cfg.vad.hop_ms == 25
        assert cfg.plp.lp_order == 12
        assert cfg.reduced_dim == 8
        assert cfg.n_components == 4
        assert cfg.seed == 11
        assert cfg.em.seed == 11
        assert cfg.synth.accents == ["A", "B"]

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[vad]\nbogus_key = 3\n")
        with pytest.raises(DataError, match="bogus_key"):
            load_config(path)

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(DataError, match="nonsense"):
            load_config(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[em]\nmax_iters = soon\n")
        with pytest.raises(DataError, match="max_iters"):
            load_config(path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[model]\ncontext_size = 0\nreduced_dim = 40\n")
        with pytest.raises(DataError, match="reduced_dim"):
            load_config(path)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(FULL_CONFIG)
        cfg = load_config(path, seed_override=99)
        assert cfg.seed == 99 and cfg.em.seed == 99

    def test_fingerprint_sensitivity(self):
        base = default_config(seed=1)
        other = default_config(seed=1)
        assert config_fingerprint(base) == config_fingerprint(other)
        other.reduced_dim = 21
        assert config_fingerprint(base) != config_fingerprint(other)
        reseeded = default_config(seed=2)
        assert config_fingerprint(base) != config_fingerprint(reseeded)


class TestEvaluationReport:
    def test_hand_counted_accuracies(self):
        confusion = np.array([[3, 1], [0, 4]])
        report = EvaluationReport(["A", "B"], confusion, 8, mode="baseline-plp")
        assert report.overall_accuracy == pytest.approx(7 / 8)
        assert report.per_accent_accuracy == {"A": 0.75, "B": 1.0}

    def test_balanced_degenerate_prediction(self):
        s = 7
        confusion = np.zeros((s, s), dtype=int)
        confusion[:, 0] = 2  # every utterance predicted as the first accent
        report = EvaluationReport([f"L{i}" for i in range(s)], confusion, 14)
        assert report.overall_accuracy == pytest.approx(1 / 7)

    def test_row_sum_invariant(self):
        with pytest.raises(ValueError):
            EvaluationReport(["A"], np.array([[3]]), 5)

    def test_round_trip_byte_identical(self, tmp_path):
        report = EvaluationReport(
            ["A", "B"], np.array([[3, 1], [0, 4]]), 8,
            fingerprint="ab" * 32, mode="vowel-hlda", skipped=1,
        )
        path = tmp_path / "r.json"
        write_eval_report(path, report)
        loaded = read_eval_report(path)
        blob = path.read_bytes()
        write_eval_report(path, loaded)
        assert path.read_bytes() == blob
        assert loaded.overall_accuracy == report.overall_accuracy

    def test_table_renders(self):
        report = EvaluationReport(["A", "B"], np.array([[2, 0], [1, 1]]), 4)
        table = format_eval_table(report)
        assert "overall accuracy" in table and "A" in table


class TestSynth:
    def test_counts_and_determinism(self, tmp_path):
        spec = SynthSpec(accents=["A", "B"], utterances_per_accent=2, duration_s=3.0)
        m1 = generate_corpus(spec, 5, tmp_path / "c1")
        m2 = generate_corpus(spec, 5, tmp_path / "c2")
        manifest = parse_manifest(m1)
        assert len(manifest.entries) == 4
        assert sorted((tmp_path / "c1" / "audio").iterdir()) != []
        for rel in ["manifest.tsv", "audio/A0000.wav", "align/B0001.ali"]:
            assert (tmp_path / "c1" / rel).read_bytes() == (tmp_path / "c2" / rel).read_bytes()

    def test_alignments_cover_all_vowels(self, tmp_path):
        spec = SynthSpec(accents=["A"], utterances_per_accent=1, duration_s=8.0)
        manifest_path = generate_corpus(spec, 3, tmp_path)
        manifest = parse_manifest(manifest_path)
        segments = parse_alignment(tmp_path / manifest.entries[0].alignment_path)
        assert len({s.phone for s in segments}) == 15
        assert all(s.confidence is not None for s in segments)

    def test_reference_accent_unshifted(self):
        spec = SynthSpec()
        a0, _ = synthesize_utterance(spec, 0, 0, 1)
        assert a0.duration_s > 5.0
        from accent_forge.synth import accent_formant_factors
        assert accent_formant_factors(0, 7, 0.15) == (1.0, 1.0)
        f1, f2 = accent_formant_factors(1, 0, 0.15)
        assert (f1, f2) != (1.0, 1.0)

    def test_accent_patterns_distinct(self, tmp_path):
        from accent_forge.synth import MAX_ACCENTS, accent_formant_factors
        shift = 0.15
        tables = [
            tuple(accent_formant_factors(a, v, shift) for v in range(len(VOWELS)))
            for a in range(7)
        ]
        assert len(set(tables)) == 7
        # accents 0-2 keep the factors every existing corpus was generated with
        for a in (1, 2):
            for v in range(len(VOWELS)):
                u1 = ((v + 2 * a) % 3) - 1
                u2 = ((v + a) % 3) - 1
                assert tables[a][v] == (1.0 + shift * u1, 1.0 + shift * u2)
        assert set(tables[0]) == {(1.0, 1.0)}
        with pytest.raises(ValueError):
            accent_formant_factors(MAX_ACCENTS, 0, shift)
        spec = SynthSpec(accents=[f"X{i}" for i in range(MAX_ACCENTS + 1)])
        with pytest.raises(DataError, match="at most"):
            generate_corpus(spec, 1, tmp_path)
        assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    """Corpus, features, and a trained baseline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("ws")
    cfg_path = root / "cfg.ini"
    cfg_path.write_text(FULL_CONFIG)
    assert main(["synthcorpus", "--config", str(cfg_path), "--out", str(root / "corpus")]) == 0
    manifest = root / "corpus" / "manifest.tsv"
    assert main([
        "featurize", "--manifest", str(manifest), "--config", str(cfg_path),
        "--out", str(root / "work"),
    ]) == 0
    return root, cfg_path, manifest


class TestCliCommands:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "somewhere"])  # missing required args
        assert err.value.code == 1

    def test_data_error_exit_code(self, tmp_path):
        rc = main([
            "vad", "--manifest", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_vad_command(self, tiny_workspace, capsys):
        root, cfg_path, manifest = tiny_workspace
        rc = main([
            "vad", "--manifest", str(manifest), "--config", str(cfg_path),
            "--out", str(root / "work"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A\t" in out and "B\t" in out
        report = json.loads((root / "work" / "reports" / "vad.json").read_text())
        rates = [row["mean_compression_rate"] for row in report["rows"]]
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_featurize_wrote_39_dims(self, tiny_workspace):
        root, _, _ = tiny_workspace
        from accent_forge.features import read_feature_archive

        feats = read_feature_archive(root / "work" / "features" / "A0000.feat")[0]
        assert feats.dims == 39

    def test_featurize_rerun_is_byte_identical(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        assert main([
            "featurize", "--manifest", str(manifest), "--config", str(cfg_path),
            "--out", str(tmp_path / "again"),
        ]) == 0
        for name in ("A0000.feat", "B0003.feat", "A0001.mask", "fingerprint.txt"):
            assert (
                (tmp_path / "again" / "features" / name).read_bytes()
                == (root / "work" / "features" / name).read_bytes()
            )

    def test_train_evaluate_all_modes(self, tiny_workspace, capsys):
        root, cfg_path, manifest = tiny_workspace
        accuracies = {}
        for mode in pipeline.MODES:
            rc = main([
                "train", "--manifest", str(manifest), "--config", str(cfg_path),
                "--out", str(root / "work"), "--mode", mode,
            ])
            assert rc == 0
            rc = main([
                "evaluate", "--manifest", str(manifest), "--config", str(cfg_path),
                "--out", str(root / "work"), "--mode", mode,
            ])
            assert rc == 0
            report = read_eval_report(root / "work" / "reports" / f"eval-{mode}.json")
            accuracies[mode] = report.overall_accuracy
            assert report.confusion.sum() == report.utterances
        assert all(0.0 <= acc <= 1.0 for acc in accuracies.values())

    def test_vowel_model_round_trips_after_training(self, tiny_workspace):
        root, _, _ = tiny_workspace
        from accent_forge.accent import load_model_set, save_model_set, VowelModelSet

        model_dir = root / "work" / "models-vowel-hlda"
        loaded = load_model_set(model_dir)
        assert isinstance(loaded, VowelModelSet)
        assert len(loaded.subset) <= 3
        manifest_blob = (model_dir / "modelset.txt").read_bytes()
        save_model_set(model_dir, loaded)
        assert (model_dir / "modelset.txt").read_bytes() == manifest_blob

    def test_fingerprint_mismatch_exit_code(self, tiny_workspace):
        root, cfg_path, manifest = tiny_workspace
        rc = main([
            "evaluate", "--manifest", str(manifest), "--config", str(cfg_path),
            "--out", str(root / "work"), "--mode", "baseline-plp", "--seed", "999",
        ])
        assert rc == 3

    def test_train_without_features_fails_consistently(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        rc = main([
            "train", "--manifest", str(manifest), "--config", str(cfg_path),
            "--out", str(tmp_path / "fresh"), "--mode", "baseline-plp",
        ])
        assert rc == 3

    def test_lda_transform_variant(self, tiny_workspace, tmp_path, monkeypatch):
        root, cfg_path, manifest = tiny_workspace
        lda_cfg = tmp_path / "lda.ini"
        lda_cfg.write_text(FULL_CONFIG.replace("transform = hlda", "transform = lda"))
        out = tmp_path / "ldaw"
        assert main([
            "featurize", "--manifest", str(manifest), "--config", str(lda_cfg),
            "--out", str(out),
        ]) == 0
        calls = count_calls(monkeypatch, "lda_fit")
        assert main([
            "train", "--manifest", str(manifest), "--config", str(lda_cfg),
            "--out", str(out), "--mode", "baseline-hlda",
        ]) == 0
        from accent_forge.discriminant import load_transform

        transform = load_transform(out / "models-baseline-hlda" / "transform.lin")
        assert transform.kind == "lda"
        assert transform.matrix.shape == (8, 117)  # reduced_dim x expanded dims
        assert main([
            "evaluate", "--manifest", str(manifest), "--config", str(lda_cfg),
            "--out", str(out), "--mode", "baseline-hlda",
        ]) == 0
        # the vowel mode shares the one LDA fit
        assert main([
            "train", "--manifest", str(manifest), "--config", str(lda_cfg),
            "--out", str(out), "--mode", "vowel-hlda",
        ]) == 0
        assert len(calls) == 1
        blob = (out / "models-baseline-hlda" / "transform.lin").read_bytes()
        assert (out / "models-vowel-hlda" / "transform.lin").read_bytes() == blob
        assert (out / "transform" / "transform.lin").read_bytes() == blob
        record = json.loads((out / "transform" / "fit.json").read_text())
        assert record["kind"] == "lda"
        assert record["sweeps"] is None and record["converged"] is None

    def test_transform_none_rejected_for_hlda_mode(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        bad_cfg = tmp_path / "bad.ini"
        bad_cfg.write_text(FULL_CONFIG.replace("transform = hlda", "transform = none"))
        out = tmp_path / "w2"
        assert main([
            "featurize", "--manifest", str(manifest), "--config", str(bad_cfg),
            "--out", str(out),
        ]) == 0
        rc = main([
            "train", "--manifest", str(manifest), "--config", str(bad_cfg),
            "--out", str(out), "--mode", "baseline-hlda",
        ])
        assert rc == 2


class TestFeaturizeVariants:
    def test_global_mvn_scope(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        cfg2 = tmp_path / "g.ini"
        cfg2.write_text(FULL_CONFIG.replace("mvn_scope = utterance", "mvn_scope = global"))
        out = tmp_path / "gw"
        assert main([
            "featurize", "--manifest", str(manifest), "--config", str(cfg2),
            "--out", str(out),
        ]) == 0
        from accent_forge.features import read_feature_archive

        stacked = np.vstack([
            read_feature_archive(p)[0].values for p in sorted((out / "features").glob("*.feat"))
        ])
        assert np.max(np.abs(stacked.mean(axis=0))) < 1e-8
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) < 1e-6

    def test_unreadable_audio_skipped(self, tiny_workspace, tmp_path):
        root, cfg_path, _ = tiny_workspace
        bad_manifest = tmp_path / "m.tsv"
        good_wav = root / "corpus" / "audio" / "A0000.wav"
        bad_manifest.write_text(
            f"good\t{good_wav}\tA\n"
            f"broken\t{tmp_path / 'missing.wav'}\tA\n"
        )
        out = tmp_path / "w"
        assert main([
            "featurize", "--manifest", str(bad_manifest), "--config", str(cfg_path),
            "--out", str(out),
        ]) == 0
        assert (out / "features" / "good.feat").exists()
        assert not (out / "features" / "broken.feat").exists()

    def test_all_unreadable_is_an_error(self, tiny_workspace, tmp_path):
        root, cfg_path, _ = tiny_workspace
        bad_manifest = tmp_path / "m.tsv"
        bad_manifest.write_text(f"broken\t{tmp_path / 'missing.wav'}\tA\n")
        rc = main([
            "featurize", "--manifest", str(bad_manifest), "--config", str(cfg_path),
            "--out", str(tmp_path / "w2"),
        ])
        assert rc == 2

    def test_vad_report_has_durations(self, tiny_workspace):
        root, _, _ = tiny_workspace
        report = json.loads((root / "work" / "reports" / "vad.json").read_text())
        for row in report["rows"]:
            assert row["retained_duration_s"] <= row["total_duration_s"]


def count_calls(monkeypatch, name):
    """Record each call of the pipeline's fitting function `name`."""
    calls = []
    real = getattr(pipeline, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


@pytest.fixture(scope="module")
def shared_ws(tiny_workspace):
    """Features of the tiny corpus without context expansion, so HLDA fits are quick."""
    root, _, manifest = tiny_workspace
    cfg_path = root / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
    cfg = load_config(cfg_path)
    pipeline.cmd_featurize(manifest, cfg, root / "ctx0")
    return manifest, cfg, root / "ctx0" / "features"


def fresh_workspace(features, tmp_path):
    ws = tmp_path / "w"
    shutil.copytree(features, ws / "features")
    return ws


def split_ids(manifest, cfg, tag):
    parsed = parse_manifest(manifest)
    split = split_dataset(parsed, seed=cfg.seed)
    return parsed, [e for e in parsed.entries if split.tags.get(e.utterance_id) == tag]


def fresh_fit(manifest, cfg, ws):
    """hlda_fit called directly on the train split, as the pipeline should feed it."""
    parsed, train = split_ids(manifest, cfg, "train")
    blocks, labels = [], []
    for entry in train:
        feats = read_feature_archive(ws / "features" / f"{entry.utterance_id}.feat")[0]
        expanded = context_expand(feats, cfg.context_size)
        blocks.append(expanded.values)
        labels.append(np.full(expanded.n_frames, parsed.inventory.index(entry.accent)))
    return hlda_fit(LabeledFeatures(np.vstack(blocks), np.concatenate(labels)), cfg.reduced_dim)


class TestSharedTransform:
    @pytest.mark.parametrize(
        "order", [("baseline-hlda", "vowel-hlda"), ("vowel-hlda", "baseline-hlda")]
    )
    def test_one_fit_serves_both_modes(self, shared_ws, tmp_path, monkeypatch, order):
        manifest, cfg, features = shared_ws
        ws = fresh_workspace(features, tmp_path)
        calls = count_calls(monkeypatch, "hlda_fit")
        for mode in order:
            pipeline.cmd_train(manifest, cfg, ws, mode)
        assert len(calls) == 1

        transform, trace = fresh_fit(manifest, cfg, ws)
        save_transform(tmp_path / "fresh.lin", transform)
        expected = (tmp_path / "fresh.lin").read_bytes()
        for mode in order:
            assert (ws / f"models-{mode}" / "transform.lin").read_bytes() == expected
        cache = ws / "transform"
        assert sorted(p.name for p in cache.iterdir()) == ["fit.json", "transform.lin"]
        assert (cache / "transform.lin").read_bytes() == expected

        record = json.loads((cache / "fit.json").read_text())
        assert record["format"] == pipeline.TRANSFORM_CACHE_FORMAT
        assert record["kind"] == "hlda"
        assert record["sweeps"] == len(trace) - 1
        assert record["objective"] == trace[-1]
        assert record["converged"] is hlda_converged(trace)
        assert record["transform_sha256"] == hashlib.sha256(expected).hexdigest()
        assert len(record["key"]) == 64

    @pytest.mark.parametrize(
        "change",
        [
            "train_features", "config", "truncated_transform", "edited_transform",
            "malformed_record", "record_not_an_object", "edited_key", "missing_record",
        ],
    )
    def test_changed_or_damaged_cache_refits(self, shared_ws, tmp_path, monkeypatch, change):
        manifest, cfg, features = shared_ws
        ws = fresh_workspace(features, tmp_path)
        calls = count_calls(monkeypatch, "hlda_fit")
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        first = (ws / "models-baseline-hlda" / "transform.lin").read_bytes()
        lin, record = ws / "transform" / "transform.lin", ws / "transform" / "fit.json"

        if change == "train_features":
            _, train = split_ids(manifest, cfg, "train")
            path = ws / "features" / f"{train[-1].utterance_id}.feat"
            (feats,) = read_feature_archive(path)
            write_feature_archive(path, [feats.with_values(feats.values * 1.001)])
        elif change == "config":
            cfg = replace(cfg, em=replace(cfg.em, max_iters=cfg.em.max_iters + 1))
            pipeline.cmd_featurize(manifest, cfg, ws)
        elif change == "truncated_transform":
            lin.write_bytes(lin.read_bytes()[:-8])
        elif change == "edited_transform":
            blob = bytearray(lin.read_bytes())
            blob[-1] ^= 0x01
            lin.write_bytes(bytes(blob))
        elif change == "malformed_record":
            record.write_text('{"key": ')
        elif change == "record_not_an_object":
            record.write_text("[]\n")
        elif change == "edited_key":
            fields = json.loads(record.read_text())
            fields["key"] = "0" * 64
            record.write_text(json.dumps(fields))
        else:
            record.unlink()

        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        assert len(calls) == 2
        if change not in ("train_features", "config"):
            assert (ws / "models-baseline-hlda" / "transform.lin").read_bytes() == first
        # the refit left a whole cache behind, which the next mode reuses
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        assert len(calls) == 2
        assert json.loads(record.read_text())["transform_sha256"] == (
            hashlib.sha256(lin.read_bytes()).hexdigest()
        )

    def test_test_split_features_do_not_invalidate(self, shared_ws, tmp_path, monkeypatch):
        manifest, cfg, features = shared_ws
        ws = fresh_workspace(features, tmp_path)
        calls = count_calls(monkeypatch, "hlda_fit")
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        _, test = split_ids(manifest, cfg, "test")
        path = ws / "features" / f"{test[0].utterance_id}.feat"
        (feats,) = read_feature_archive(path)
        write_feature_archive(path, [feats.with_values(feats.values * 1.001)])
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        assert len(calls) == 1

    def test_damaged_cache_through_cli(self, shared_ws, tmp_path, capsys):
        manifest, cfg, features = shared_ws
        ws = fresh_workspace(features, tmp_path)
        cfg_path = tmp_path / "ctx0.ini"
        cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
        args = ["train", "--manifest", str(manifest), "--config", str(cfg_path),
                "--out", str(ws), "--mode", "baseline-hlda"]
        assert main(args) == 0
        (ws / "transform" / "fit.json").write_bytes(b"\xff\xfe not json")
        (ws / "transform" / "transform.lin").write_bytes(b"ACHLDA1 hlda -1 x\n")
        assert main(args) == 0
        assert "Traceback" not in capsys.readouterr().err


def test_workers_env_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("ACCENT_FORGE_WORKERS", "2")
    assert pipeline.worker_count() == 2
    monkeypatch.setenv("ACCENT_FORGE_WORKERS", "")
    assert pipeline.worker_count() >= 1
    monkeypatch.setenv("ACCENT_FORGE_WORKERS", "abc")
    with pytest.raises(UsageError, match="ACCENT_FORGE_WORKERS"):
        pipeline.worker_count()

    save_audio(tmp_path / "u.wav", AudioBuffer(0.1 * np.ones(4000), 8000))
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"u\t{tmp_path / 'u.wav'}\tA\n")
    capsys.readouterr()
    assert main(["vad", "--manifest", str(manifest), "--out", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert "accent-forge: usage error: ACCENT_FORGE_WORKERS" in err
    assert "Traceback" not in err
