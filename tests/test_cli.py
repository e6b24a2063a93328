import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accent_forge.audio import AudioBuffer, load_audio, save_audio
from accent_forge.cli import main
from accent_forge.config import (
    SynthSpec,
    config_fingerprint,
    default_config,
    load_config,
)
from accent_forge.corpus import (
    VOWELS,
    parse_alignment,
    parse_manifest,
    split_dataset,
)
from accent_forge.discriminant import (
    LabeledFeatures,
    hlda_converged,
    hlda_fit,
    load_transform,
    save_transform,
)
from accent_forge.errors import ConsistencyError, DataError, UsageError
from accent_forge.features import context_expand, read_feature_archive, write_feature_archive
from accent_forge.gmm import em_fit
from accent_forge.report import (
    EvaluationReport,
    format_eval_table,
    read_eval_report,
    write_eval_report,
)
from accent_forge.synth import generate_corpus, synthesize_utterance
from accent_forge import accent, discriminant, pipeline, vad
from alignment_reference import (
    reference_filter_by_confidence,
    reference_remap_segments,
    reference_vowel_mask,
    reference_vowel_rows,
)
from test_readers import MUTATION, mutate

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

    def test_fingerprints_are_pinned(self, tmp_path):
        # Every artifact stores its config's fingerprint, so a new value here
        # orphans every existing workspace. The last file sets every key.
        full = tmp_path / "full.ini"
        full.write_text(FULL_CONFIG.replace("delta_window = 2", "delta_window = 2\nnum_bark_bands = 15"))
        pinned = {
            "d74cbff28fe1c111e66dc79bd8d5daf605d577ba4c2db425d9831a491d10e413": default_config(),
            "13ebb01fa45d05d37e1c255df3c5b6d4c3da7dc9c5aa0c651441fcf653261f26": default_config(7),
            "c85f7c12479530b54ff7c5694097324fe770c89ed188f6ebb775d28512ed3e89":
                load_config(Path(__file__).resolve().parents[1] / "example-config.ini"),
            "682c111f719716823bc37257c09453f649d06fd114dfc31c70500da3c4344d3d": load_config(full),
        }
        for expected, cfg in pinned.items():
            assert config_fingerprint(cfg) == expected

    def test_every_shipped_config_loads(self):
        # each sets the two one-value [model] keys; the digests are the benchmark's workspaces' too
        repo = Path(__file__).resolve().parents[1]
        paths = [repo / "example-config.ini", *sorted(repo.glob("bench/workloads/*.ini"))]
        assert {path.name: config_fingerprint(load_config(path)) for path in paths} == {
            "example-config.ini": "c85f7c12479530b54ff7c5694097324fe770c89ed188f6ebb775d28512ed3e89",
            "frontend.ini": "edd6e8012671addef48a940664d5dcbb0759c1b6fdae3089ef2b697530fb5c4b",
            "reference.ini": "04f6ed07bb7a3f60b6e95e9e59f7153f42e430edfb5636864a6a95a5491aebf2",
            "warmup.ini": "162f6be963bf57a612242955640d6195f7306ffdf50e957605b29dd8d35cee7e",
        }


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
    for stage in ("vad", "featurize"):
        assert main([
            stage, "--manifest", str(manifest), "--config", str(cfg_path), "--out", str(root / "work"),
        ]) == 0
    return root, cfg_path, manifest


def front_end(manifest, cfg_path, out):
    """Run vad and featurize through the CLI; return featurize's exit code."""
    args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(out)]
    assert main(["vad", *args]) == 0
    return main(["featurize", *args])


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

        feats = read_feature_archive(root / "work" / "features" / "A0000.feat")
        assert feats.dims == 39

    def test_featurize_rerun_is_byte_identical(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        assert front_end(manifest, cfg_path, tmp_path / "again") == 0
        for rel in (
            "features/A0000.feat", "features/B0003.feat", "features/fingerprint.txt",
            "vad/A0001.mask", "vad/fingerprint.txt",
        ):
            assert (tmp_path / "again" / rel).read_bytes() == (root / "work" / rel).read_bytes()
        # vad/ holds the only copy of each mask
        assert not list((tmp_path / "again" / "features").glob("*.mask"))

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

    def test_damaged_gmm_exit_code(self, tiny_workspace, tmp_path, capsys):
        root, cfg_path, manifest = tiny_workspace
        ws = tmp_path / "w"
        for stage in ("vad", "features"):
            shutil.copytree(root / "work" / stage, ws / stage)
        args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(ws),
                "--mode", "baseline-plp"]
        assert main(["train", *args]) == 0
        model_dir = ws / "models-baseline-plp"
        gmm = model_dir / "models" / "A.gmm"
        blob = bytearray(gmm.read_bytes())
        start = blob.index(b"\n") + 1
        n = int(blob[:start].split()[1])
        blob[start: start + 8 * n] = bytes(8 * n)  # every weight zero
        # record the damaged file's digest, so it passes the SHA-256 check
        listing = model_dir / "modelset.txt"
        listing.write_text(listing.read_text().replace(
            hashlib.sha256(gmm.read_bytes()).hexdigest(), hashlib.sha256(blob).hexdigest()
        ))
        gmm.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["evaluate", *args]) == 2
        err = capsys.readouterr().err
        assert "accent-forge: data error:" in err and "A.gmm" in err
        assert "Traceback" not in err

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
        assert front_end(manifest, lda_cfg, out) == 0
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

    @staticmethod
    def train_exits_2_at_config_load(manifest, config_text, tmp_path, capsys) -> str:
        bad_cfg = tmp_path / "bad.ini"
        bad_cfg.write_text(config_text)
        capsys.readouterr()
        rc = main([
            "train", "--manifest", str(manifest), "--config", str(bad_cfg),
            "--out", str(tmp_path / "w2"), "--mode", "baseline-hlda",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"accent-forge: data error: {bad_cfg}: invalid configuration:" in err and "Traceback" not in err
        return err

    def test_transform_none_rejected_for_hlda_mode(self, tiny_workspace, tmp_path, capsys):
        # the transform is lda or hlda; any other value is refused as the config loads
        root, cfg_path, manifest = tiny_workspace
        err = self.train_exits_2_at_config_load(
            manifest, FULL_CONFIG.replace("transform = hlda", "transform = none"), tmp_path, capsys
        )
        assert "transform must be lda|hlda, got 'none'" in err

    def test_hlda_keeping_every_dim_exits_2_at_config_load(self, tiny_workspace, tmp_path, capsys):
        # HLDA keeps at least one nuisance row, so it retains at most expanded - 1 dims; LDA may keep all
        root, cfg_path, manifest = tiny_workspace
        config_text = FULL_CONFIG.replace("context_size = 1", "context_size = 0").replace(
            "reduced_dim = 8", "reduced_dim = 39")
        err = self.train_exits_2_at_config_load(manifest, config_text, tmp_path, capsys)
        assert "reduced_dim 39 must lie in 1..38 for hlda" in err
        lda_cfg = tmp_path / "lda.ini"
        lda_cfg.write_text(config_text.replace("transform = hlda", "transform = lda"))
        assert load_config(lda_cfg).reduced_dim == 39

    @pytest.mark.parametrize("line, message", [
        ("mvn_scope = global", "[model] mvn_scope must be utterance, got 'global'"),
        ("frame_normalized_vowel_scores = false", "[model] frame_normalized_vowel_scores must be true"),
    ])
    def test_one_value_model_keys_exit_2_at_config_load(self, tiny_workspace, tmp_path, capsys, line, message):
        root, cfg_path, manifest = tiny_workspace
        key = line.split()[0]
        config_text = "\n".join(line if text.startswith(key) else text for text in FULL_CONFIG.splitlines())
        assert message in self.train_exits_2_at_config_load(manifest, config_text, tmp_path, capsys)


class TestFeaturizeVariants:
    def test_unreadable_audio_exits_2_naming_the_file(self, tiny_workspace, tmp_path, capsys):
        # vad and featurize share one policy: an unreadable WAV stops the stage
        root, cfg_path, _ = tiny_workspace
        good_wav = root / "corpus" / "audio" / "A0000.wav"
        lost_wav = tmp_path / "lost.wav"
        shutil.copy(good_wav, lost_wav)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"good\t{good_wav}\tA\nlost\t{lost_wav}\tA\n")
        args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(tmp_path / "w")]
        assert main(["vad", *args]) == 0
        lost_wav.unlink()
        for stage in ("featurize", "vad"):
            capsys.readouterr()
            assert main([stage, *args]) == 2
            err = capsys.readouterr().err
            assert "accent-forge: data error:" in err and "lost.wav" in err
            assert "Traceback" not in err
        assert not list((tmp_path / "w" / "features").glob("*.feat"))

    def test_partial_sample_frame_is_a_data_error(self, tiny_workspace, tmp_path, capsys):
        root, cfg_path, _ = tiny_workspace
        good_wav = root / "corpus" / "audio" / "A0000.wav"
        cut_wav = tmp_path / "cut.wav"
        shutil.copy(good_wav, cut_wav)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"good\t{good_wav}\tA\ncut\t{cut_wav}\tA\n")
        args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(tmp_path / "w")]
        assert main(["vad", *args]) == 0
        cut_wav.write_bytes(good_wav.read_bytes()[:-1])  # 16-bit mono: ends inside a sample
        for stage in ("vad", "featurize"):
            capsys.readouterr()
            assert main([stage, *args]) == 2
            err = capsys.readouterr().err
            assert "accent-forge: data error:" in err and "cut.wav" in err
            assert "Traceback" not in err

    def test_all_unreadable_is_an_error(self, tiny_workspace, tmp_path):
        root, cfg_path, _ = tiny_workspace
        broken_wav = tmp_path / "broken.wav"
        shutil.copy(root / "corpus" / "audio" / "A0000.wav", broken_wav)
        bad_manifest = tmp_path / "m.tsv"
        bad_manifest.write_text(f"broken\t{broken_wav}\tA\n")
        args = ["--manifest", str(bad_manifest), "--config", str(cfg_path), "--out", str(tmp_path / "w2")]
        assert main(["vad", *args]) == 0
        broken_wav.unlink()
        assert main(["featurize", *args]) == 2
        assert main(["vad", *args]) == 2

    def test_vad_report_has_durations(self, tiny_workspace):
        root, _, _ = tiny_workspace
        report = json.loads((root / "work" / "reports" / "vad.json").read_text())
        for row in report["rows"]:
            assert row["retained_duration_s"] <= row["total_duration_s"]


OTHER_VAD_CONFIG = FULL_CONFIG.replace("threshold_weight = 5.0", "threshold_weight = 4.0")


class TestStageOrder:
    """vad -> featurize -> train: each stage refuses a missing or stale predecessor."""

    def test_remove_silence_runs_once_per_utterance(self, tiny_workspace, tmp_path, monkeypatch):
        root, cfg_path, manifest = tiny_workspace
        calls = []
        real = vad.remove_silence

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for module in (vad, pipeline):
            monkeypatch.setattr(module, "remove_silence", counting)
        assert front_end(manifest, cfg_path, tmp_path / "w") == 0
        assert len(calls) == len(parse_manifest(manifest).entries)

    def test_featurize_without_vad_exits_3(self, tiny_workspace, tmp_path, capsys):
        root, cfg_path, manifest = tiny_workspace
        capsys.readouterr()
        assert main(["featurize", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(tmp_path / "w")]) == 3
        err = capsys.readouterr().err
        assert "accent-forge: consistency error:" in err and "vad" in err
        assert "Traceback" not in err

    def test_featurize_after_vad_under_another_config_exits_3(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        other = tmp_path / "other.ini"
        other.write_text(OTHER_VAD_CONFIG)
        ws = tmp_path / "w"
        assert main(["vad", "--manifest", str(manifest), "--config", str(other), "--out", str(ws)]) == 0
        assert main(["featurize", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(ws)]) == 3
        assert not (ws / "features" / "fingerprint.txt").exists()

    def test_train_with_vad_from_another_config_exits_3(self, tiny_workspace, tmp_path):
        root, cfg_path, manifest = tiny_workspace
        other = tmp_path / "other.ini"
        other.write_text(OTHER_VAD_CONFIG)
        ws = tmp_path / "w"
        shutil.copytree(root / "work" / "features", ws / "features")
        assert main(["vad", "--manifest", str(manifest), "--config", str(other), "--out", str(ws)]) == 0
        assert main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(ws), "--mode", "baseline-plp"]) == 3

    @pytest.mark.parametrize("change", ["shorter_audio", "frame_len", "hop", "sample_rate"])
    def test_mask_that_does_not_frame_its_audio_exits_3(self, tiny_workspace, tmp_path, capsys, change):
        root, cfg_path, _ = tiny_workspace
        wav = tmp_path / "u.wav"
        shutil.copy(root / "corpus" / "audio" / "A0000.wav", wav)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"u\t{wav}\tA\n")
        args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(tmp_path / "w")]
        assert main(["vad", *args]) == 0
        mask = tmp_path / "w" / "vad" / "u.mask"
        if change == "shorter_audio":  # the WAV was replaced after vad
            audio = load_audio(wav)
            save_audio(wav, AudioBuffer(audio.samples[: audio.samples.size // 2], audio.sample_rate))
        else:  # a well-formed mask header with one framing field doubled
            header, bits = mask.read_text().split("\n", 1)
            fields = header.split()
            field = {"frame_len": 2, "hop": 3, "sample_rate": 4}[change]
            fields[field] = str(2 * int(fields[field]))
            mask.write_text(" ".join(fields) + "\n" + bits)
        capsys.readouterr()
        assert main(["featurize", *args]) == 3
        err = capsys.readouterr().err
        assert "accent-forge: consistency error:" in err and "u.mask" in err and "u.wav" in err
        assert "Traceback" not in err


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
    """Masks and features of the tiny corpus without context expansion, so HLDA fits are quick."""
    root, _, manifest = tiny_workspace
    cfg_path = root / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
    cfg = load_config(cfg_path)
    pipeline.cmd_vad(manifest, cfg, root / "ctx0")
    pipeline.cmd_featurize(manifest, cfg, root / "ctx0")
    return manifest, cfg, root / "ctx0"


def fresh_workspace(prepared, parent):
    """A new workspace under parent holding copies of prepared's vad/ and features/."""
    ws = parent / "w"
    for stage in ("vad", "features"):
        shutil.copytree(prepared / stage, ws / stage)
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
        feats = read_feature_archive(ws / "features" / f"{entry.utterance_id}.feat")
        expanded = context_expand(feats, cfg.context_size)
        blocks.append(expanded.values)
        labels.append(np.full(expanded.n_frames, parsed.inventory.index(entry.accent)))
    return hlda_fit(LabeledFeatures(np.vstack(blocks), np.concatenate(labels)), cfg.reduced_dim)


class TestSharedTransform:
    @pytest.mark.parametrize(
        "order", [("baseline-hlda", "vowel-hlda"), ("vowel-hlda", "baseline-hlda")]
    )
    def test_one_fit_serves_both_modes(self, shared_ws, tmp_path, monkeypatch, order):
        manifest, cfg, prepared = shared_ws
        ws = fresh_workspace(prepared, tmp_path)
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
        # the key as first defined, hashing a byte copy of each train matrix
        parsed, train = split_ids(manifest, cfg, "train")
        head = [pipeline.TRANSFORM_CACHE_FORMAT, config_fingerprint(cfg), parsed.inventory]
        digest = hashlib.sha256(json.dumps(head).encode("utf-8") + b"\n")
        for entry in train:
            values = read_feature_archive(ws / "features" / f"{entry.utterance_id}.feat").values
            digest.update(json.dumps([entry.utterance_id, entry.accent, *values.shape]).encode("utf-8") + b"\n")
            digest.update(values.astype("<f8").tobytes())
        assert record["key"] == digest.hexdigest()

    @pytest.mark.parametrize(
        "change",
        [
            "train_features", "config", "truncated_transform", "edited_transform",
            "malformed_record", "record_not_an_object", "edited_key", "missing_record",
        ],
    )
    def test_changed_or_damaged_cache_refits(self, shared_ws, tmp_path, monkeypatch, change):
        manifest, cfg, prepared = shared_ws
        ws = fresh_workspace(prepared, tmp_path)
        calls = count_calls(monkeypatch, "hlda_fit")
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        first = (ws / "models-baseline-hlda" / "transform.lin").read_bytes()
        lin, record = ws / "transform" / "transform.lin", ws / "transform" / "fit.json"

        if change == "train_features":
            _, train = split_ids(manifest, cfg, "train")
            path = ws / "features" / f"{train[-1].utterance_id}.feat"
            feats = read_feature_archive(path)
            write_feature_archive(path, feats.with_values(feats.values * 1.001))
        elif change == "config":
            cfg = replace(cfg, em=replace(cfg.em, max_iters=cfg.em.max_iters + 1))
            pipeline.cmd_vad(manifest, cfg, ws)
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
        manifest, cfg, prepared = shared_ws
        ws = fresh_workspace(prepared, tmp_path)
        calls = count_calls(monkeypatch, "hlda_fit")
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        _, test = split_ids(manifest, cfg, "test")
        path = ws / "features" / f"{test[0].utterance_id}.feat"
        feats = read_feature_archive(path)
        write_feature_archive(path, feats.with_values(feats.values * 1.001))
        pipeline.cmd_train(manifest, cfg, ws, "baseline-hlda")
        assert len(calls) == 1

    def test_damaged_cache_through_cli(self, shared_ws, tmp_path, capsys):
        manifest, cfg, prepared = shared_ws
        ws = fresh_workspace(prepared, tmp_path)
        cfg_path = tmp_path / "ctx0.ini"
        cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
        args = ["train", "--manifest", str(manifest), "--config", str(cfg_path),
                "--out", str(ws), "--mode", "baseline-hlda"]
        assert main(args) == 0
        (ws / "transform" / "fit.json").write_bytes(b"\xff\xfe not json")
        (ws / "transform" / "transform.lin").write_bytes(b"ACHLDA1 hlda -1 x\n")
        assert main(args) == 0
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def cached_transform(shared_ws, tmp_path_factory):
    """A workspace whose transform cache is whole, and the bytes of a fresh fit."""
    manifest, cfg, prepared = shared_ws
    root = tmp_path_factory.mktemp("cached")
    ws = fresh_workspace(prepared, root)
    transform, _ = fresh_fit(manifest, cfg, ws)
    save_transform(root / "fresh.lin", transform)
    run = pipeline._open_run(manifest, cfg, ws, "baseline-hlda", "training")
    pipeline._workspace_transform(run, [(e.accent, run.features(e)) for e in run.parts["train"]])
    return manifest, cfg, ws, (root / "fresh.lin").read_bytes()


# A byte mutation of either cache file, or one fit.json field set to a new value
CACHE_DAMAGE = st.one_of(
    st.tuples(st.sampled_from(["fit.json", "transform.lin"]), st.lists(MUTATION, min_size=1, max_size=3)),
    st.tuples(st.just("field"), st.sampled_from(
        ["converged", "format", "key", "kind", "objective", "sweeps", "transform_sha256"]
    ), st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))),
)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(damage=CACHE_DAMAGE)
def test_mutated_transform_cache_reuses_or_refits(cached_transform, damage):
    # whatever the damage, training goes on with a fresh fit's transform and
    # leaves a whole cache behind: a reuse leaves transform.lin as it was, a
    # refit rewrites both files
    manifest, cfg, trained, fresh = cached_transform
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(trained, ws)
        if damage[0] == "field":
            record = json.loads((ws / "transform" / "fit.json").read_text(encoding="utf-8"))
            record[damage[1]] = damage[2]
            (ws / "transform" / "fit.json").write_text(json.dumps(record), encoding="utf-8")
        else:
            path = ws / "transform" / damage[0]
            path.write_bytes(mutate(path.read_bytes(), damage[1]))
        run = pipeline._open_run(manifest, cfg, ws, "baseline-hlda", "training")
        train_feats = [(e.accent, run.features(e)) for e in run.parts["train"]]
        save_transform(Path(tmp) / "used.lin", pipeline._workspace_transform(run, train_feats))
        assert (Path(tmp) / "used.lin").read_bytes() == fresh
        lin = (ws / "transform" / "transform.lin").read_bytes()
        assert lin == fresh
        record = json.loads((ws / "transform" / "fit.json").read_text(encoding="utf-8"))
        assert record["transform_sha256"] == hashlib.sha256(lin).hexdigest()


def reference_segments(manifest, ws, entry):
    """entry's alignment moved onto silence-removed time one segment at a time."""
    mask = vad.load_mask(ws / "vad" / f"{entry.utterance_id}.mask")[1]
    return reference_remap_segments(mask, parse_alignment(manifest.parent / entry.alignment_path))


def reference_projection(ws, cfg, entry):
    """entry's archived features, context-expanded and projected by the vowel models' transform."""
    feats = read_feature_archive(ws / "features" / f"{entry.utterance_id}.feat")
    transform = load_transform(ws / "models-vowel-hlda" / "transform.lin")
    expanded = context_expand(feats, cfg.context_size).values
    return feats, feats.with_values(discriminant.project(transform, expanded))


def test_vowel_training_scores_each_dev_key_once(shared_ws, tmp_path, monkeypatch):
    """Over all of vowel-hlda training, the vowel models score each distinct
    (dev utterance, vowel, kept rows) once per accent: subset selection and
    every τ grid point read one shared table."""
    manifest, cfg, prepared = shared_ws
    ws = fresh_workspace(prepared, tmp_path)
    tables = []
    real_table, real_score = accent._dev_scores, accent.mixture_log_likelihood

    def recording(dev, model_set, vowels, tau, memo):
        tables.append((dev, vowels, tau))
        return real_table(dev, model_set, vowels, tau, memo)

    calls = []
    monkeypatch.setattr(accent, "_dev_scores", recording)
    monkeypatch.setattr(accent, "mixture_log_likelihood", lambda m, X: calls.append(1) or real_score(m, X))
    pipeline.cmd_train(manifest, cfg, ws, "vowel-hlda")

    _, dev_entries = split_ids(manifest, cfg, "dev")
    utterances = [(reference_projection(ws, cfg, e)[1], reference_segments(manifest, ws, e)) for e in dev_entries]
    keys = set()
    for dev, vowels, tau in tables:
        assert len(dev) == len(utterances)
        for ui, ((_, rows, _), (projected, segments)) in enumerate(zip(dev, utterances)):
            assert np.array_equal(rows, projected.values)
            kept, _ = reference_filter_by_confidence(segments, tau)
            for v in vowels:
                frames = np.flatnonzero(reference_vowel_mask(projected, kept, v))
                if frames.size:
                    keys.add((ui, v, tuple(frames)))
    assert len(tables) > 2  # the selection table and at least two τ grid points
    assert tables[0][2] == float("-inf") and tables[1][2] == float("-inf")
    assert len(calls) == len(keys) * len(parse_manifest(manifest).inventory)


def loaded_after(statement: str, package: str) -> str:
    """The modules of package that a fresh interpreter holds after statement."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy takes over a second to import; only synthcorpus and LDA fits load it
    assert loaded_after("import accent_forge.cli", "scipy") == "[]"


def test_package_and_cli_import_leave_numpy_unloaded():
    # cli.main pins the BLAS thread count, which numpy reads when it loads
    assert loaded_after("import accent_forge, accent_forge.cli", "numpy") == "[]"


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_pins_one_blas_thread_unless_set(monkeypatch, tmp_path, preset):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert main(["vad", "--manifest", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "w")]) == 2
    assert [os.environ[name] for name in names] == [preset or "1", "1", "1"]


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


@pytest.fixture(scope="module")
def hlda_trained(shared_ws, tmp_path_factory):
    """The context-0 workspace after training baseline-hlda through the CLI."""
    manifest, cfg, prepared = shared_ws
    root = tmp_path_factory.mktemp("hlda")
    cfg_path = root / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
    ws = fresh_workspace(prepared, root)
    assert main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                 "--out", str(ws), "--mode", "baseline-hlda"]) == 0
    return manifest, cfg, cfg_path, ws


@pytest.mark.parametrize(
    "damaged",
    ["config", "manifest", "fingerprint", "features", "mask", "mask_rate", "alignment", "alignment_nan",
     "transform"],
)
def test_damaged_input_exits_2_without_traceback(hlda_trained, tmp_path, capsys, damaged):
    manifest, cfg, cfg_path, trained = hlda_trained
    ws = tmp_path / "w"
    shutil.copytree(trained, ws)
    corpus = tmp_path / "corpus"
    shutil.copytree(manifest.parent, corpus)
    manifest = corpus / manifest.name
    config = tmp_path / "c.ini"
    shutil.copy(cfg_path, config)
    _, train = split_ids(manifest, cfg, "train")
    command, mode, blob = "train", "vowel-hlda", b"\xff\xfe\n"
    target = {
        "config": config,
        "manifest": manifest,
        "fingerprint": ws / "features" / "fingerprint.txt",
        "features": ws / "features" / f"{train[0].utterance_id}.feat",
        "mask": ws / "vad" / f"{train[0].utterance_id}.mask",
        "mask_rate": ws / "vad" / f"{train[0].utterance_id}.mask",
        "alignment": corpus / str(train[0].alignment_path),
        "alignment_nan": corpus / str(train[0].alignment_path),
        "transform": ws / "models-baseline-hlda" / "transform.lin",
    }[damaged]
    if damaged == "mask_rate":  # well formed but for a zero sample rate
        header, bits = target.read_text().split("\n", 1)
        fields = header.split()
        blob = (" ".join(fields[:4] + ["0"] + fields[5:]) + "\n" + bits).encode("ascii")
    if damaged == "alignment_nan":  # valid UTF-8 text with a NaN start time
        blob = b"nan 0.5 aa\n"
    if damaged == "transform":  # evaluate reads the model set's copy
        command, mode, blob = "evaluate", "baseline-hlda", b"ACHLDA1 hlda a 2 1\n"
        listing = ws / "models-baseline-hlda" / "modelset.txt"
        listing.write_text(listing.read_text().replace(
            hashlib.sha256(target.read_bytes()).hexdigest(), hashlib.sha256(blob).hexdigest()
        ))
    target.write_bytes(blob)
    capsys.readouterr()
    rc = main([command, "--manifest", str(manifest), "--config", str(config),
               "--out", str(ws), "--mode", mode])
    err = capsys.readouterr().err
    assert rc == 2
    assert "accent-forge: data error:" in err and target.name in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def vowel_trained(hlda_trained, tmp_path_factory):
    """The context-0 workspace after training vowel-hlda as well."""
    manifest, cfg, cfg_path, trained = hlda_trained
    ws = tmp_path_factory.mktemp("vowel") / "ws"
    shutil.copytree(trained, ws)
    assert main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                 "--out", str(ws), "--mode", "vowel-hlda"]) == 0
    return manifest, cfg, cfg_path, ws


@pytest.mark.parametrize("command", ["featurize", "train", "evaluate"])
def test_missing_mask_exits_2_naming_it(vowel_trained, tmp_path, capsys, command):
    manifest, cfg, cfg_path, trained = vowel_trained
    ws = tmp_path / "w"
    shutil.copytree(trained, ws)
    # evaluate reads the masks of the test split, the others those of the train split
    _, entries = split_ids(manifest, cfg, "test" if command == "evaluate" else "train")
    mask = ws / "vad" / f"{entries[0].utterance_id}.mask"
    mask.unlink()
    args = [command, "--manifest", str(manifest), "--config", str(cfg_path), "--out", str(ws)]
    if command != "featurize":
        args += ["--mode", "vowel-hlda"]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "accent-forge: data error:" in err and mask.name in err and "run vad" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case, message", [
    ("sample_rate", "sample rate must be at least 8000 Hz"),
    ("lp_order", "17 critical bands cannot support lp_order 30"),
])
def test_featurize_setting_the_front_end_rejects_exits_2(tmp_path, capsys, case, message):
    # both pass vad; the front end's ValueError must not escape featurize
    audio, _ = synthesize_utterance(SynthSpec(accents=["A"], duration_s=3.0), 0, 0, 1)
    if case == "sample_rate":
        audio = AudioBuffer(audio.samples[::4], audio.sample_rate // 4)
    wav = tmp_path / "u.wav"
    save_audio(wav, audio)
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"u\t{wav}\tA\n")
    config = tmp_path / "c.ini"
    config.write_text("[plp]\nlp_order = 30\n" if case == "lp_order" else "[run]\nseed = 1\n")
    args = ["--manifest", str(manifest), "--config", str(config), "--out", str(tmp_path / "w")]
    assert main(["vad", *args]) == 0
    capsys.readouterr()
    assert main(["featurize", *args]) == 2
    err = capsys.readouterr().err
    assert f"accent-forge: data error: {wav}: {message}" in err
    assert "Traceback" not in err


def test_hlda_failure_exits_2_without_traceback(shared_ws, tmp_path, monkeypatch, capsys):
    manifest, _, prepared = shared_ws
    ws = fresh_workspace(prepared, tmp_path)
    cfg_path = tmp_path / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))

    def failing(*args):
        raise np.linalg.LinAlgError("transform became singular")

    monkeypatch.setattr(discriminant, "_hlda_optimize", failing)
    capsys.readouterr()
    rc = main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
               "--out", str(ws), "--mode", "baseline-hlda"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "accent-forge: data error: HLDA failed from both starts (dims=39, m=8)" in err
    assert "Traceback" not in err


def test_accent_with_one_training_frame_exits_2_naming_it(shared_ws, tmp_path, capsys):
    # the transform's class statistics need two rows per accent
    manifest, cfg, prepared = shared_ws
    ws = fresh_workspace(prepared, tmp_path)
    cfg_path = tmp_path / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
    _, train = split_ids(manifest, cfg, "train")
    thin = [e for e in train if e.accent == "B"]
    for k, entry in enumerate(thin):
        path = ws / "features" / f"{entry.utterance_id}.feat"
        feats = read_feature_archive(path)
        write_feature_archive(path, feats.with_values(feats.values[: 1 if k == 0 else 0]))
    capsys.readouterr()
    rc = main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
               "--out", str(ws), "--mode", "baseline-hlda"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "accent-forge: data error: baseline-hlda needs at least 2 training frames per accent" in err
    assert "['B (1)']" in err and "Traceback" not in err


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_train_with_blas_variables_unset_equals_one_thread(shared_ws, tmp_path):
    """The CLI pins one BLAS thread when the variables are unset, so every
    model set it trains equals the one trained at OPENBLAS_NUM_THREADS=1."""
    manifest, _, prepared = shared_ws
    cfg_path = tmp_path / "ctx0.ini"
    cfg_path.write_text(FULL_CONFIG.replace("context_size = 1", "context_size = 0"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trees = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        ws = fresh_workspace(prepared, tmp_path / name)
        for mode in pipeline.MODES:
            subprocess.run(
                [sys.executable, "-m", "accent_forge.cli", "train", "--manifest", str(manifest),
                 "--config", str(cfg_path), "--out", str(ws), "--mode", mode],
                env={**base, **extra}, capture_output=True, check=True,
            )
        trees.append({
            str(p.relative_to(ws)): p.read_bytes() for p in sorted(ws.glob("models-*/**/*")) if p.is_file()
        })
    assert len(trees[0]) > 3 * len(pipeline.MODES)
    assert trees[0] == trees[1]


# What `evaluate --mode baseline-hlda` reads, each file with the readers that
# take it on its own: model-set files are read through the model set
EVALUATE_INPUTS = {
    "config": lambda run: load_config(run["config"]),
    "manifest": lambda run: parse_manifest(run["manifest"]),
    "fingerprint": lambda run: pipeline._check_fingerprint(
        run["fingerprint"].parent, config_fingerprint(run["cfg"]), "feature archive"
    ),
    "features": lambda run: read_feature_archive(run["features"]),
    "modelset": lambda run: accent.load_model_set(run["modelset"].parent),
    "gmm": lambda run: accent.load_model_set(run["gmm"].parent.parent),
    "transform": lambda run: (
        accent.load_model_set(run["transform"].parent), load_transform(run["transform"])
    ),
}


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    target=st.sampled_from(sorted(EVALUATE_INPUTS)),
    record_digest=st.booleans(),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
)
def test_mutated_input_exits_2_or_3(hlda_trained, target, record_digest, mutations):
    # A file whose own reader rejects it gives that error's exit code: 2 for
    # damage, 3 for a mismatch. One that still reads may run or fail with
    # either code, but never escapes as an exception.
    manifest, cfg, cfg_path, trained = hlda_trained
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(trained, ws)
        models = ws / "models-baseline-hlda"
        _, test = split_ids(manifest, cfg, "test")
        run = {
            "cfg": cfg,
            "config": Path(tmp) / "c.ini",
            "manifest": Path(tmp) / "m.tsv",
            "fingerprint": ws / "features" / "fingerprint.txt",
            "features": ws / "features" / f"{test[0].utterance_id}.feat",
            "modelset": models / "modelset.txt",
            "gmm": models / "models" / "A.gmm",
            "transform": models / "transform.lin",
        }
        shutil.copy(cfg_path, run["config"])
        shutil.copy(manifest, run["manifest"])
        path = run[target]
        before = path.read_bytes()
        path.write_bytes(mutate(before, mutations))
        if target in ("gmm", "transform") and record_digest:
            listing = models / "modelset.txt"
            listing.write_text(listing.read_text().replace(
                hashlib.sha256(before).hexdigest(), hashlib.sha256(path.read_bytes()).hexdigest()
            ))
        try:
            EVALUATE_INPUTS[target](run)
            expected = (0, 2, 3)
        except DataError:
            expected = (2,)
        except ConsistencyError:
            expected = (3,)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["evaluate", "--manifest", str(run["manifest"]), "--config", str(run["config"]),
                       "--out", str(ws), "--mode", "baseline-hlda"])
        assert rc in expected, f"{target}: exit {rc}, expected {expected}: {err.getvalue()}"
        assert "Traceback" not in err.getvalue()


def test_every_model_is_seeded_by_inventory_and_vowel_index(shared_ws, tmp_path):
    """Each saved model is em_fit on its pool, seeded from the accent's index in
    the manifest inventory and the vowel's index in VOWELS. The manifest puts
    every B utterance before the first train utterance of A, the inventory's
    first accent, so pools fill B first."""
    manifest, cfg, prepared = shared_ws
    parsed = parse_manifest(manifest)
    first = [e for e in parsed.entries if e.accent == parsed.inventory[0]]
    rest = [e for e in parsed.entries if e.accent != parsed.inventory[0]]
    reordered = tmp_path / "manifest.tsv"
    for r in range(len(first)):
        rotated = first[r:] + first[:r]
        entries = [rotated[0], *rest, *rotated[1:]]
        reordered.write_text("".join(
            f"{e.utterance_id}\t{manifest.parent / e.audio_path}\t{e.accent}\t"
            f"{manifest.parent / e.alignment_path}\n" for e in entries
        ))
        _, train = split_ids(reordered, cfg, "train")
        if train[0].accent != parsed.inventory[0]:
            break
    else:
        pytest.fail("no ordering puts another accent's utterance first in the train split")
    inventory = parse_manifest(reordered).inventory
    assert inventory == parsed.inventory

    ws = fresh_workspace(prepared, tmp_path)
    for mode in ("baseline-plp", "vowel-hlda"):
        pipeline.cmd_train(reordered, cfg, ws, mode)
    blocks = {}
    for entry in train:
        feats, projected = reference_projection(ws, cfg, entry)
        blocks.setdefault((entry.accent,), []).append(feats.values)
        segments = reference_segments(reordered, ws, entry)
        for v in VOWELS:
            blocks.setdefault((entry.accent, v), []).append(reference_vowel_rows(projected, segments, v))

    checked = 0
    for mode in ("baseline-plp", "vowel-hlda"):
        model_set = accent.load_model_set(ws / f"models-{mode}")
        for key, model in model_set.models.items():
            key = key if isinstance(key, tuple) else (key,)
            pool = np.vstack(blocks[key])
            parts = (inventory.index(key[0]), *(VOWELS.index(v) for v in key[1:]))
            opts = replace(cfg.em, seed=accent.derive_seed(cfg.em.seed, *parts))
            expected, _ = em_fit(pool, min(cfg.n_components, pool.shape[0]), opts)
            for field in ("weights", "means", "variances"):
                assert np.array_equal(getattr(model, field), getattr(expected, field)), (mode, key)
            checked += 1
    assert checked == len(inventory) * (1 + len(model_set.subset))


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """Masks and features of 3 utterances per accent under 4096 components:
    more than either accent's train split has frames."""
    root = tmp_path_factory.mktemp("short")
    cfg_path = root / "cfg.ini"
    cfg_path.write_text(
        FULL_CONFIG.replace("n_components = 4", "n_components = 4096")
        .replace("utterances_per_accent = 6", "utterances_per_accent = 3")
        .replace("duration_s = 5.0", "duration_s = 2.0")
    )
    assert main(["synthcorpus", "--config", str(cfg_path), "--out", str(root / "corpus")]) == 0
    manifest = root / "corpus" / "manifest.tsv"
    assert front_end(manifest, cfg_path, root / "work") == 0
    return manifest, cfg_path, root / "work"


def test_baseline_caps_components_at_pool_frames(short_corpus, caplog):
    manifest, cfg_path, ws = short_corpus
    caplog.clear()
    assert main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                 "--out", str(ws), "--mode", "baseline-plp"]) == 0
    capped = [r for r in caplog.records if r.levelname == "WARNING" and "capping" in r.getMessage()]
    parsed, train = split_ids(manifest, load_config(cfg_path), "train")
    assert len(capped) == len(parsed.inventory)
    for lab in parsed.inventory:
        frames = sum(
            read_feature_archive(ws / "features" / f"{e.utterance_id}.feat").n_frames
            for e in train if e.accent == lab
        )
        assert 0 < frames < 4096
        header = (ws / "models-baseline-plp" / "models" / f"{lab}.gmm").read_bytes().split(b"\n", 1)[0]
        assert header.split()[1] == str(frames).encode("ascii")


def test_empty_manifest_train_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FULL_CONFIG)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# id\taudio\taccent\talignment\n")
    assert front_end(manifest, cfg_path, tmp_path / "w") == 0
    for mode in pipeline.MODES:
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(tmp_path / "w"), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "accent-forge: data error:" in err and "lists no utterance" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def no_test_split(tmp_path_factory):
    """Masks and features of 4 utterances for each of 3 accents, which
    split_dataset splits 3/1/0: the test split is empty."""
    root = tmp_path_factory.mktemp("notest")
    cfg_path = root / "cfg.ini"
    cfg_path.write_text(
        FULL_CONFIG.replace("accents = A B", "accents = A B C")
        .replace("utterances_per_accent = 6", "utterances_per_accent = 4")
        .replace("duration_s = 5.0", "duration_s = 2.0")
    )
    assert main(["synthcorpus", "--config", str(cfg_path), "--out", str(root / "corpus")]) == 0
    manifest = root / "corpus" / "manifest.tsv"
    assert front_end(manifest, cfg_path, root / "work") == 0
    return manifest, cfg_path, root / "work"


def evaluate_exits_2_without_report(manifest, cfg_path, ws, capsys):
    args = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(ws), "--mode", "baseline-plp"]
    assert main(["train", *args]) == 0
    capsys.readouterr()
    assert main(["evaluate", *args]) == 2
    err = capsys.readouterr().err
    assert "accent-forge: data error:" in err and "no test utterance was classified" in err
    assert "Traceback" not in err
    assert not list((ws / "reports").glob("eval-*"))
    return err


def test_evaluate_on_empty_test_split_exits_2(no_test_split, capsys):
    manifest, cfg_path, ws = no_test_split
    cfg = load_config(cfg_path)
    parsed = parse_manifest(manifest)
    counts = [len(split_ids(manifest, cfg, tag)[1]) for tag in ("train", "dev", "test")]
    assert len(parsed.inventory) == 3 and counts == [9, 3, 0]
    assert "(0 in the test split, 0 skipped)" in evaluate_exits_2_without_report(manifest, cfg_path, ws, capsys)
    # in process, by default, the empty split still gives a 0-utterance report
    assert pipeline.cmd_evaluate(manifest, cfg, ws, "baseline-plp").utterances == 0
    with pytest.raises(DataError, match="no test utterance was classified"):
        pipeline.cmd_evaluate(manifest, cfg, ws, "baseline-plp", allow_empty=False)


def test_evaluate_with_every_test_utterance_skipped_exits_2(shared_ws, tmp_path, monkeypatch, capsys):
    manifest, cfg, prepared = shared_ws
    ws = fresh_workspace(prepared, tmp_path)

    def unclassifiable(model_set, X):
        raise DataError("no frames")

    monkeypatch.setattr(pipeline, "classify_baseline", unclassifiable)
    n_test = len(split_ids(manifest, cfg, "test")[1])
    assert n_test > 0
    err = evaluate_exits_2_without_report(manifest, prepared.parent / "ctx0.ini", ws, capsys)
    assert f"({n_test} in the test split, {n_test} skipped)" in err
