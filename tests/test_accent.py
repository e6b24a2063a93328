import numpy as np
import pytest

from accent_forge.accent import (
    AccentModelSet,
    VowelModelSet,
    classify_baseline,
    classify_vowel,
    derive_seed,
    load_model_set,
    save_model_set,
    select_vowel_subset,
    train_baseline,
    vowel_weights,
)
from accent_forge.corpus import VOWELS
from accent_forge.errors import ConsistencyError, DataError
from accent_forge.gmm import EmOptions, GmmModel, em_fit


def single_gaussian(mean, var=1.0, dims=2):
    return GmmModel(
        np.array([1.0]),
        np.full((1, dims), float(mean)),
        np.full((1, dims), float(var)),
    )


def two_accent_set(sep=6.0):
    return AccentModelSet(
        ["A", "B"], {"A": single_gaussian(0.0), "B": single_gaussian(sep)}
    )


class TestTrainBaseline:
    def test_single_accent_equals_em_fit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 3))
        opts = EmOptions(seed=5)
        model_set = train_baseline({"A": X}, 2, opts)
        direct, _ = em_fit(X, 2, EmOptions(seed=derive_seed(5, 0)))
        assert np.array_equal(model_set.models["A"].means, direct.means)

    def test_disjoint_accents_separate(self):
        rng = np.random.default_rng(1)
        train = {
            "A": rng.standard_normal((300, 2)),
            "B": rng.standard_normal((300, 2)) + 20.0,
        }
        model_set = train_baseline(train, 2, EmOptions(seed=2))
        gap = np.linalg.norm(
            model_set.models["A"].means.mean(axis=0)
            - model_set.models["B"].means.mean(axis=0)
        )
        assert gap > 5.0

    def test_many_components_high_dims(self):
        # large component count on wide features: floors hold, weights stay a simplex
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2000, 117))
        opts = EmOptions(seed=3, max_iters=3)
        model_set = train_baseline({"A": X}, 256, opts)
        model = model_set.models["A"]
        floor = np.maximum(1e-3 * X.var(axis=0), 1e-10)
        assert np.all(model.variances >= floor - 1e-15)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(model.weights > 0)


class TestClassifyBaseline:
    def test_single_accent_always_wins(self):
        models = AccentModelSet(["only"], {"only": single_gaussian(0.0)})
        rng = np.random.default_rng(3)
        result = classify_baseline(models, rng.standard_normal((5, 2)))
        assert result.predicted == "only"

    def test_own_model_wins_in_monte_carlo(self):
        models = two_accent_set()
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 2))  # matches accent A's model
            result = classify_baseline(models, X)
            margin = result.scores["A"] - result.scores["B"]
            wins += result.predicted == "A" and margin > 0
        assert wins >= 99

    def test_identical_models_tie_to_first(self):
        models = AccentModelSet(
            ["one", "two"], {"one": single_gaussian(0.0), "two": single_gaussian(0.0)}
        )
        rng = np.random.default_rng(4)
        result = classify_baseline(models, rng.standard_normal((10, 2)))
        assert result.predicted == "one"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            classify_baseline(two_accent_set(), np.zeros((0, 2)))

    def test_score_additivity(self):
        models = two_accent_set()
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal((7, 2))
        x2 = rng.standard_normal((9, 2))
        both = classify_baseline(models, np.vstack([x1, x2]))
        s1 = classify_baseline(models, x1)
        s2 = classify_baseline(models, x2)
        for lab in models.labels:
            assert both.scores[lab] == pytest.approx(
                s1.scores[lab] + s2.scores[lab], abs=1e-9
            )

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 2))
        models = two_accent_set()
        swapped = AccentModelSet(["B", "A"], models.models)
        r1 = classify_baseline(models, X)
        r2 = classify_baseline(swapped, X)
        assert r1.scores == r2.scores
        assert r1.predicted == r2.predicted

    def test_duplicating_frames_doubles_scores(self):
        models = two_accent_set()
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 2))
        once = classify_baseline(models, X)
        twice = classify_baseline(models, np.vstack([X, X]))
        for lab in models.labels:
            assert twice.scores[lab] == 2.0 * once.scores[lab]
        assert twice.predicted == once.predicted


class TestVowelWeights:
    def test_single_vowel(self):
        assert vowel_weights({"aa": 42}, ["aa"]) == {"aa": 1.0}

    def test_proportions(self):
        w = vowel_weights({"aa": 300, "iy": 100}, ["aa", "iy"])
        assert w == {"aa": 0.75, "iy": 0.25}

    def test_equal_counts(self):
        subset = list(VOWELS[:7])
        w = vowel_weights({v: 10 for v in subset}, subset)
        for v in subset:
            assert w[v] == pytest.approx(1 / 7)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            vowel_weights({"aa": 0}, ["aa"])


def vowel_set_for(labels, vowels, model_fn, weights=None):
    models = {(lab, v): model_fn(lab, v) for lab in labels for v in vowels}
    weights = weights or {v: 1.0 / len(vowels) for v in vowels}
    return VowelModelSet(list(labels), list(vowels), weights, models)


class TestClassifyVowel:
    def test_single_vowel_collapses_to_baseline(self):
        rng = np.random.default_rng(8)
        mA, mB = single_gaussian(0.0), single_gaussian(4.0)
        vset = vowel_set_for(["A", "B"], ["aa"], lambda lab, v: mA if lab == "A" else mB)
        base = AccentModelSet(["A", "B"], {"A": mA, "B": mB})
        for seed in range(25):
            X = np.random.default_rng(seed).normal(seed % 5, 1.0, (6, 2))
            assert (
                classify_vowel(vset, {"aa": X}).predicted
                == classify_baseline(base, X).predicted
            )

    def test_discriminative_vowel_dominates(self):
        # accents differ only on "aa"; "iy" is identically distributed
        def model_fn(lab, v):
            if v == "aa":
                return single_gaussian(0.0 if lab == "A" else 6.0)
            return single_gaussian(0.0)

        vset = vowel_set_for(["A", "B"], ["aa", "iy"], model_fn)
        rng = np.random.default_rng(9)
        per_vowel = {
            "aa": rng.normal(0.0, 1.0, (20, 2)),  # matches accent A
            "iy": rng.normal(0.0, 1.0, (20, 2)),
        }
        result = classify_vowel(vset, per_vowel)
        assert result.predicted == "A"
        only_aa = classify_vowel(vset, {"aa": per_vowel["aa"]})
        assert only_aa.scores["A"] - only_aa.scores["B"] > 0

    def test_missing_vowels_renormalized(self):
        vset = vowel_set_for(
            ["A", "B"],
            list(VOWELS[:7]),
            lambda lab, v: single_gaussian(0.0 if lab == "A" else 3.0),
        )
        rng = np.random.default_rng(10)
        present = {v: rng.standard_normal((4, 2)) for v in VOWELS[:4]}  # 3 of 7 missing
        result = classify_vowel(vset, present)
        assert np.isfinite(list(result.scores.values())).all()
        assert result.frames_per_vowel is not None
        assert set(result.frames_per_vowel) == set(VOWELS[:4])

    def test_vowel_outside_subset_rejected(self):
        vset = vowel_set_for(["A"], ["aa"], lambda lab, v: single_gaussian(0.0))
        with pytest.raises(ValueError):
            classify_vowel(vset, {"iy": np.zeros((2, 2))})

    def test_no_frames_at_all_rejected(self):
        vset = vowel_set_for(["A"], ["aa"], lambda lab, v: single_gaussian(0.0))
        with pytest.raises(DataError):
            classify_vowel(vset, {"aa": np.zeros((0, 2))})

    def test_strict_literal_mode_scales_by_frames(self):
        vset = vowel_set_for(["A", "B"], ["aa"], lambda lab, v: single_gaussian(0.0 if lab == "A" else 2.0))
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 2))
        normalized = classify_vowel(vset, {"aa": X}, frame_normalized=True)
        literal = classify_vowel(vset, {"aa": X}, frame_normalized=False)
        for lab in ("A", "B"):
            assert literal.scores[lab] == pytest.approx(10 * normalized.scores[lab], rel=1e-12)


class TestSelectVowelSubset:
    def make_dev(self, rng, vowels, discriminative="aa"):
        dev = []
        for true in ("A", "B"):
            for _ in range(6):
                per_vowel = {}
                for v in vowels:
                    center = (0.0 if true == "A" else 5.0) if v == discriminative else 0.0
                    per_vowel[v] = rng.normal(center, 1.0, (5, 2))
                dev.append((true, per_vowel))
        return dev

    def model_fn(self, lab, v):
        if v == "aa":
            return single_gaussian(0.0 if lab == "A" else 5.0)
        return single_gaussian(0.0)

    def test_signal_vowel_chosen_first(self):
        rng = np.random.default_rng(12)
        vowels = ["aa", "iy", "uw"]
        vset = vowel_set_for(["A", "B"], vowels, self.model_fn)
        dev = self.make_dev(rng, vowels)
        chosen = select_vowel_subset(dev, vset, 1)
        assert chosen == ["aa"]

    def test_full_size_includes_everything(self):
        rng = np.random.default_rng(13)
        vowels = ["aa", "iy", "uw"]
        vset = vowel_set_for(["A", "B"], vowels, self.model_fn)
        dev = self.make_dev(rng, vowels)
        chosen = select_vowel_subset(dev, vset, 15)
        assert sorted(chosen) == sorted(vowels)

    def test_tie_break_prefers_inventory_order(self):
        # all vowels equally useless: selection must walk the inventory order
        rng = np.random.default_rng(14)
        vowels = ["aa", "eh", "iy"]
        vset = vowel_set_for(["A", "B"], vowels, lambda lab, v: single_gaussian(0.0))
        dev = [
            ("A", {v: rng.standard_normal((3, 2)) for v in vowels}),
            ("B", {v: rng.standard_normal((3, 2)) for v in vowels}),
        ]
        chosen = select_vowel_subset(dev, vset, 2)
        assert chosen == ["aa", "eh"]


def test_derive_seed_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestModelSetSerialization:
    def test_baseline_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        models = {
            lab: GmmModel(
                np.array([0.4, 0.6]), rng.standard_normal((2, 3)), rng.uniform(0.5, 2, (2, 3))
            )
            for lab in ("A", "B")
        }
        original = AccentModelSet(["A", "B"], models, fingerprint="f" * 64)
        out = tmp_path / "set"
        save_model_set(out, original)
        loaded = load_model_set(out)
        assert loaded.labels == ["A", "B"]
        assert loaded.fingerprint == "f" * 64
        for lab in ("A", "B"):
            assert np.array_equal(loaded.models[lab].means, models[lab].means)
        manifest_before = (out / "modelset.txt").read_bytes()
        save_model_set(out, loaded)
        assert (out / "modelset.txt").read_bytes() == manifest_before

    def test_vowel_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        vowels = ["aa", "iy"]
        models = {
            (lab, v): GmmModel(
                np.array([1.0]), rng.standard_normal((1, 2)), rng.uniform(0.5, 1.5, (1, 2))
            )
            for lab in ("A", "B")
            for v in vowels
        }
        original = VowelModelSet(
            ["A", "B"], vowels, {"aa": 0.7, "iy": 0.3}, models,
            fingerprint="0" * 64, confidence_tau=-2.5,
        )
        out = tmp_path / "vset"
        save_model_set(out, original)
        loaded = load_model_set(out)
        assert isinstance(loaded, VowelModelSet)
        assert loaded.subset == vowels
        assert loaded.weights == {"aa": 0.7, "iy": 0.3}
        assert loaded.confidence_tau == -2.5
        manifest_before = (out / "modelset.txt").read_bytes()
        save_model_set(out, loaded)
        assert (out / "modelset.txt").read_bytes() == manifest_before

    def test_hash_mismatch_detected(self, tmp_path):
        models = {"A": single_gaussian(0.0)}
        out = tmp_path / "set"
        save_model_set(out, AccentModelSet(["A"], models))
        target = out / "models" / "A.gmm"
        target.write_bytes(target.read_bytes()[:-8] + b"\x00" * 8)
        with pytest.raises(ConsistencyError, match="SHA-256"):
            load_model_set(out)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_model_set(tmp_path / "nothing")

    @pytest.mark.parametrize("bad", [
        "fingerprint",
        "transform models/t.hlda",
        "tau",
        "tau abc",
        "subset",
        "weight aa",
        "weight aa heavy",
        "gmm A aa models/A_aa.gmm",
    ])
    def test_malformed_line_is_data_error(self, tmp_path, bad):
        out = tmp_path / "vset"
        save_model_set(out, VowelModelSet(
            ["A"], ["aa"], {"aa": 1.0}, {("A", "aa"): single_gaussian(0.0)},
        ))
        manifest = out / "modelset.txt"
        lines = manifest.read_text().splitlines()
        tag = bad.split()[0]
        # replace the first line with this tag, or append one if there is none
        at = next((i for i, line in enumerate(lines) if line.split()[0] == tag), len(lines))
        lines[at: at + 1] = [bad]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"modelset.txt, line {at + 1}: .*{tag}"):
            load_model_set(out)

    @pytest.mark.parametrize("text", [
        "ACMSET1 vowel\nfingerprint -\ntau\n",
        "ACMSET1\nfingerprint -\n",
        "",
        "ACMSET1 vowel\nsubset aa\nweight aa 0.5\n",  # weights not a simplex
        "ACMSET1 baseline\ngmm A models/A.gmm 0000\n",  # listed file missing
    ])
    def test_unusable_manifest_is_data_error(self, tmp_path, text):
        (tmp_path / "modelset.txt").write_text(text)
        with pytest.raises(DataError, match="modelset.txt"):
            load_model_set(tmp_path)


def test_vowel_model_set_validation():
    with pytest.raises(ValueError):
        VowelModelSet(["A"], ["zz"], {"zz": 1.0}, {("A", "zz"): single_gaussian(0)})
    with pytest.raises(ValueError):
        VowelModelSet(["A"], ["aa"], {"aa": 0.5}, {("A", "aa"): single_gaussian(0)})
    with pytest.raises(ValueError):
        VowelModelSet(["A"], ["aa"], {"aa": 1.0}, {})
