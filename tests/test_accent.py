from dataclasses import replace

import numpy as np
import pytest

from accent_forge import accent
from accent_forge.accent import (
    AccentModelSet,
    VowelModelSet,
    classify_baseline,
    classify_vowel,
    derive_seed,
    load_model_set,
    save_model_set,
    select_vowel_subset,
    train_pools,
    vowel_weights,
)
from accent_forge.corpus import VOWELS, AlignmentSegment, extract_vowel_frames
from accent_forge.errors import ConsistencyError, DataError
from accent_forge.features import FeatureMatrix
from accent_forge.gmm import EmOptions, GmmModel, em_fit, mixture_log_likelihood
from alignment_reference import reference_filter_by_confidence, reference_vowel_rows
from gmm_reference import reference_frame_log_likelihoods


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
        models = train_pools({("A",): X}, ["A"], 2, opts)
        direct, _ = em_fit(X, 2, EmOptions(seed=derive_seed(5, 0)))
        assert np.array_equal(models[("A",)].means, direct.means)

    def test_disjoint_accents_separate(self):
        rng = np.random.default_rng(1)
        train = {
            ("A",): rng.standard_normal((300, 2)),
            ("B",): rng.standard_normal((300, 2)) + 20.0,
        }
        models = train_pools(train, ["A", "B"], 2, EmOptions(seed=2))
        gap = np.linalg.norm(models[("A",)].means.mean(axis=0) - models[("B",)].means.mean(axis=0))
        assert gap > 5.0

    def test_pools_seed_by_label_and_vowel_index_in_any_order(self, caplog):
        rng = np.random.default_rng(4)
        pools = {("A", "iy"): rng.standard_normal((50, 2)), ("B", "aa"): rng.standard_normal((3, 2))}
        with caplog.at_level("WARNING", logger="accent_forge.accent"):
            models = train_pools(dict(reversed(pools.items())), ["A", "B"], 4, EmOptions(seed=9))
        assert "B aa: only 3 frames; capping components at 3" in caplog.text
        for (lab, v), X in pools.items():
            seed = derive_seed(9, ["A", "B"].index(lab), VOWELS.index(v))
            direct, _ = em_fit(X, min(4, len(X)), EmOptions(seed=seed))
            assert np.array_equal(models[(lab, v)].means, direct.means)

    def test_many_components_high_dims(self):
        # large component count on wide features: floors hold, weights stay a simplex
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2000, 117))
        opts = EmOptions(seed=3, max_iters=3)
        model = train_pools({("A",): X}, ["A"], 256, opts)[("A",)]
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


def reference_total(model, X) -> float:
    return float(np.sum(reference_frame_log_likelihoods(model, X)))


def test_classifiers_score_ragged_capped_pools_like_the_reference():
    """Pools below n_components get fewer components, so one vowel's models
    differ in K; each accent's score still equals the reference bit for bit."""
    rng = np.random.default_rng(41)
    sizes = {"A": 300, "B": 5, "C": 60, "D": 3}
    pools = {(lab, "aa"): rng.standard_normal((n, 4)) + i for i, (lab, n) in enumerate(sizes.items())}
    labels = list(sizes)
    models = accent.train_pools(pools, labels, 8, EmOptions(max_iters=5))
    assert [models[(lab, "aa")].n_components for lab in labels] == [8, 5, 8, 3]
    vset = VowelModelSet(labels, ["aa"], {"aa": 1.0}, models)
    bset = AccentModelSet(labels, {lab: models[(lab, "aa")] for lab in labels})
    for n in (1, 20, 400):
        X = rng.standard_normal((n, 4)) * 2.0 + 1.0
        expected = {lab: reference_total(models[(lab, "aa")], X) for lab in labels}
        assert accent._score_vowel(vset, "aa", X) == (n, expected)
        assert classify_baseline(bset, X).scores == expected


def vowel_set_for(labels, vowels, model_fn, weights=None):
    models = {(lab, v): model_fn(lab, v) for lab in labels for v in vowels}
    weights = weights or {v: 1.0 / len(vowels) for v in vowels}
    return VowelModelSet(list(labels), list(vowels), weights, models)


@pytest.mark.parametrize("weights, tau", [
    ({"aa": float("nan"), "iy": 1.0}, float("-inf")),
    ({"aa": float("inf"), "iy": 1.0}, float("-inf")),
    ({"aa": -0.5, "iy": 1.5}, float("-inf")),
    ({"iy": 1.0}, float("-inf")),  # no weight for aa
    ({"aa": 0.5, "iy": 0.5}, float("nan")),
])
def test_vowel_set_rejects_non_finite_or_missing_weights_and_nan_tau(weights, tau):
    models = {(lab, v): single_gaussian(0.0) for lab in "AB" for v in ("aa", "iy")}
    VowelModelSet(["A", "B"], ["aa", "iy"], {"aa": 0.0, "iy": 1.0}, models, confidence_tau=float("-inf"))
    with pytest.raises(ValueError):
        VowelModelSet(["A", "B"], ["aa", "iy"], weights, models, confidence_tau=tau)


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

    @pytest.mark.parametrize("zero", [0.0, np.float64(0.0)], ids=["float", "numpy"])
    def test_zero_weight_present_vowels_weighted_equally(self, zero):
        totals = {"b": {"A": -6.0, "B": -3.0}, "c": {"A": -2.0, "B": -8.0}}
        weights = {"a": 1.0, "b": zero, "c": zero}
        present = [("b", 3, totals["b"]), ("c", 2, totals["c"])]
        predicted, scores = accent._fuse_vowel_scores(["A", "B"], weights, present)
        expected = {lab: sum(0.5 / k * t[lab] for _, k, t in present) for lab in ("A", "B")}
        assert scores == pytest.approx(expected, rel=1e-15)
        assert predicted == max(expected, key=expected.get)
        predicted, scores = accent._fuse_vowel_scores(["A", "B"], weights, [("b", 3, totals["b"])])
        assert predicted == "B" and scores == {"A": -2.0, "B": -1.0}

    def test_score_is_the_total_log_likelihood_over_the_frame_count(self):
        vset = vowel_set_for(["A", "B"], ["aa"], lambda lab, v: single_gaussian(0.0 if lab == "A" else 2.0))
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 2))
        result = classify_vowel(vset, {"aa": X})
        for lab in ("A", "B"):
            total = mixture_log_likelihood(vset.models[(lab, "aa")], X)
            assert result.scores[lab] == pytest.approx(total / 10, rel=1e-15)


def segment_dev(dev):
    """(accent, projected, segments) per utterance: the vowel rows laid end to
    end at a 10 ms hop, one unscored segment per vowel with rows."""
    out = []
    for true, per_vowel in dev:
        blocks, segments, t = [], [], 0
        for v, X in per_vowel.items():
            n = np.asarray(X).shape[0]
            blocks.append(X)
            if n:
                segments.append(AlignmentSegment(t / 100, (t + n) / 100, v))
            t += n
        out.append((true, FeatureMatrix(np.vstack(blocks), "u", start_ms=5.0, hop_ms=10.0), segments))
    return out


def table_dev(segment_lists):
    """(accent, projected rows, vowel table) per utterance, as vowel training
    holds its dev split."""
    return [(true, f.values, extract_vowel_frames(f, segments)) for true, f, segments in segment_lists]


def all_segments(segment_lists):
    return [s for _, _, segments in segment_lists for s in segments]


def dev_table(dev, models):
    """select_vowel_subset's input, built the way vowel training builds it."""
    return accent._dev_scores(table_dev(segment_dev(dev)), models, models.subset, float("-inf"), {})


def interval_keyed_dev_scores(segment_lists, model_set, vowels, tau, memo):
    """_dev_scores from segments: a vowel's rows are extracted per vowel from
    the segments that clear tau, and memo is keyed by their intervals."""
    table = []
    for ui, (true, projected, segments) in enumerate(segment_lists):
        kept, _ = reference_filter_by_confidence(segments, tau)
        scores = {}
        for v in vowels:
            key = (ui, v, tuple((s.start, s.end) for s in kept if s.phone == v))
            if key not in memo:
                memo[key] = accent._score_vowel(model_set, v, reference_vowel_rows(projected, kept, v))
            if memo[key] is not None:
                scores[v] = memo[key]
        table.append((true, scores))
    return table


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
        chosen = select_vowel_subset(dev_table(dev, vset), vset, 1)
        assert chosen == ["aa"]

    def test_full_size_includes_everything(self):
        rng = np.random.default_rng(13)
        vowels = ["aa", "iy", "uw"]
        vset = vowel_set_for(["A", "B"], vowels, self.model_fn)
        dev = self.make_dev(rng, vowels)
        chosen = select_vowel_subset(dev_table(dev, vset), vset, 15)
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
        chosen = select_vowel_subset(dev_table(dev, vset), vset, 2)
        assert chosen == ["aa", "eh"]

    def test_dev_without_vowel_frames_is_a_data_error(self):
        vset = vowel_set_for(["A", "B"], ["aa", "iy"], self.model_fn)
        dev = [("A", {"aa": np.zeros((0, 2))}), ("B", {"iy": np.zeros((0, 2))})]
        with pytest.raises(DataError, match="no usable dev utterances"):
            select_vowel_subset(dev_table(dev, vset), vset, 1)


def naive_select_vowel_subset(dev, models, subset_size):
    """Reference greedy selection: one classify_vowel call per trial and utterance."""
    candidates = [v for v in VOWELS if v in models.subset]
    subset_size = min(subset_size, len(candidates))
    usable = [
        (true, per_vowel) for true, per_vowel in dev
        if any(np.asarray(X).shape[0] > 0 for X in per_vowel.values())
    ]

    def accuracy(subset):
        raw = {v: models.weights.get(v, 0.0) for v in subset}
        total = sum(raw.values())
        if total > 0:
            trial_weights = {v: w / total for v, w in raw.items()}
        else:
            trial_weights = {v: 1.0 / len(subset) for v in subset}
        trial = replace(models, subset=subset, weights=trial_weights)
        correct = 0
        for true, per_vowel in usable:
            restricted = {v: per_vowel[v] for v in subset if v in per_vowel}
            try:
                correct += classify_vowel(trial, restricted).predicted == true
            except DataError:
                pass
        return correct / len(usable)

    chosen = []
    while len(chosen) < subset_size:
        best_v, best_acc = None, -1.0
        for v in candidates:
            if v not in chosen:
                acc = accuracy(chosen + [v])
                if acc > best_acc:
                    best_v, best_acc = v, acc
        chosen.append(best_v)
    return chosen


def naive_tune_confidence_threshold(dev_segment_lists, model_set, subset, weights):
    """Reference τ search: re-extract and re-classify every utterance at every grid point."""
    confidences = [
        s.confidence for _, _, segments in dev_segment_lists for s in segments
        if s.phone in subset and s.confidence is not None
    ]
    if not confidences:
        return float("-inf")
    grid = [float("-inf")] + sorted({float(np.percentile(confidences, p)) for p in range(0, 100, 10)})
    trial = replace(model_set, subset=subset, weights=weights)
    best_tau, best_acc = float("-inf"), -1.0
    for tau in grid:
        correct = 0
        for true, projected, segments in dev_segment_lists:
            per_vowel = {v: reference_vowel_rows(projected, segments, v, tau) for v in subset}
            try:
                correct += classify_vowel(trial, per_vowel).predicted == true
            except DataError:
                pass
        acc = correct / len(dev_segment_lists)
        if acc > best_acc:
            best_tau, best_acc = tau, acc
    return best_tau


def random_gmm(rng, center, dims=2):
    n = int(rng.integers(1, 3))
    weights = rng.uniform(0.2, 1.0, n)
    return GmmModel(
        weights / weights.sum(),
        rng.normal(center, 0.7, (n, dims)),
        rng.uniform(0.5, 2.0, (n, dims)),
    )


def random_vowel_set(rng, labels, vowels):
    centers = {(lab, v): rng.normal(0.0, 0.8, 2) for lab in labels for v in vowels}
    weights = vowel_weights(dict(zip(vowels, rng.uniform(0.1, 1.0, len(vowels)))), vowels)
    models = {key: random_gmm(rng, centers[key]) for key in centers}
    return VowelModelSet(list(labels), list(vowels), weights, models), centers


def random_dev(rng, labels, vowels, centers, n_utts):
    """Dev utterances with absent vowels, zero-frame vowels and vowels outside the set."""
    dev = []
    for _ in range(n_utts):
        true = labels[int(rng.integers(len(labels)))]
        per_vowel = {}
        for v in vowels:
            kind = rng.random()
            if kind < 0.25:
                continue  # absent
            if kind < 0.4:
                per_vowel[v] = np.zeros((0, 2))
            else:
                per_vowel[v] = rng.normal(centers[(true, v)], 1.5, (int(rng.integers(1, 7)), 2))
        if rng.random() < 0.2:
            per_vowel["uw"] = rng.standard_normal((3, 2))  # not a candidate
        dev.append((true, per_vowel))
    dev.append((labels[0], {vowels[0]: np.zeros((0, 2))}))  # no frames at all: skipped
    return dev


class TestCachedVowelScoring:
    @pytest.mark.parametrize("seed", range(8))
    def test_selection_matches_naive_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        labels = ["A", "B", "C"][: 2 + seed % 2]
        vowels = sorted(rng.choice(VOWELS[:12], 5, replace=False), key=VOWELS.index)
        vset, centers = random_vowel_set(rng, labels, vowels)
        dev = random_dev(rng, labels, vowels, centers, 14)
        for size in (1, 3, 5):
            expected = naive_select_vowel_subset(dev, vset, size)
            assert select_vowel_subset(dev_table(dev, vset), vset, size) == expected

    def test_selection_all_ties_matches_naive_reference(self):
        # identical models for every accent: every utterance ties and goes to "A",
        # so only the frames each subset covers separate the trials
        rng = np.random.default_rng(7)
        vowels = ["aa", "eh", "ih", "ow"]
        model = single_gaussian(0.0)
        vset = vowel_set_for(["A", "B", "C"], vowels, lambda lab, v: model)
        centers = {(lab, v): np.zeros(2) for lab in "ABC" for v in vowels}
        dev = random_dev(rng, ["A", "B", "C"], vowels, centers, 10)
        for size in (1, 2, 4):
            expected = naive_select_vowel_subset(dev, vset, size)
            assert select_vowel_subset(dev_table(dev, vset), vset, size) == expected

    def test_fused_scores_follow_the_weighting_formula(self):
        rng = np.random.default_rng(21)
        vset, centers = random_vowel_set(rng, ["A", "B"], ["aa", "iy", "uw"])
        per_vowel = {"aa": rng.standard_normal((4, 2)), "iy": np.zeros((0, 2)), "uw": rng.standard_normal((2, 2))}
        result = classify_vowel(vset, per_vowel)
        weight_total = 0
        for v in ("aa", "uw"):
            weight_total += vset.weights[v]
        for lab in ("A", "B"):
            expected = 0.0
            for v in ("aa", "uw"):
                X = per_vowel[v]
                w = vset.weights[v] / weight_total
                expected += w / X.shape[0] * mixture_log_likelihood(vset.models[(lab, v)], X)
            assert result.scores[lab] == expected
        assert result.frames_per_vowel == {"aa": 4, "uw": 2}

    def test_selection_scores_each_dev_vowel_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        labels = ["A", "B", "C"]
        vowels = ["aa", "ae", "eh", "iy", "ow"]
        vset, centers = random_vowel_set(rng, labels, vowels)
        dev = random_dev(rng, labels, vowels, centers, 12)
        calls = {}
        real = accent.mixture_log_likelihood

        def counting(model, X):
            key = (id(model), np.asarray(X).tobytes())
            calls[key] = calls.get(key, 0) + 1
            return real(model, X)

        monkeypatch.setattr(accent, "mixture_log_likelihood", counting)
        present = sum(
            1 for _, per_vowel in dev for v, X in per_vowel.items()
            if v in vowels and np.asarray(X).shape[0] > 0
        )
        dev, memo = table_dev(segment_dev(dev)), {}
        table = accent._dev_scores(dev, vset, vset.subset, float("-inf"), memo)
        assert sum(calls.values()) == present * len(labels)
        # selection only fuses the table, and a rebuild from the same memo scores nothing
        select_vowel_subset(table, vset, len(vowels))
        assert accent._dev_scores(dev, vset, vset.subset, float("-inf"), memo) == table
        assert max(calls.values()) == 1
        assert sum(calls.values()) == present * len(labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_tau_tuning_matches_naive_reference(self, seed):
        dev_segment_lists, vset, subset, weights = tau_case(seed)
        dev, memo = table_dev(dev_segment_lists), {}  # memo filled by the selection table first
        accent._dev_scores(dev, vset, vset.subset, float("-inf"), memo)
        tau = accent._tune_confidence_threshold(dev, all_segments(dev_segment_lists), vset, subset, weights, memo)
        assert tau == naive_tune_confidence_threshold(dev_segment_lists, vset, subset, weights)

    def test_tau_cases_reach_several_grid_points(self):
        # the equivalence cases only tell something if they pick different τ
        picked = set()
        for seed in range(10):
            lists, vset, subset, weights = tau_case(seed)
            picked.add(accent._tune_confidence_threshold(table_dev(lists), all_segments(lists), vset, subset,
                                                         weights, {}))
        assert len(picked) >= 3
        assert float("-inf") in picked

    @pytest.mark.parametrize("seed", range(10))
    def test_row_count_memo_keys_match_interval_keys(self, seed):
        # one utterance's kept rows of one vowel are nested in τ, so a row
        # count names a row set as well as the kept intervals do
        dev_segment_lists, vset, _, _ = tau_case(seed)
        dev = table_dev(dev_segment_lists)
        confidences = sorted({s.confidence for s in all_segments(dev_segment_lists) if s.confidence is not None})
        grid = [float("-inf"), *confidences, 0.5]
        by_count, by_interval = {}, {}
        for tau in grid + grid[::-1]:
            assert accent._dev_scores(dev, vset, vset.subset, tau, by_count) == interval_keyed_dev_scores(
                dev_segment_lists, vset, vset.subset, tau, by_interval
            )
        assert len(by_count) <= len(by_interval)


def tau_case(seed):
    """Dev utterances whose confident vowel segments sound like the true accent
    and whose doubtful or unscored ones sound like a random accent."""
    rng = np.random.default_rng(200 + seed)
    labels = ["A", "B", "C"]
    vowels = ["aa", "eh", "iy", "ow"]
    vset, centers = random_vowel_set(rng, labels, vowels)
    dev_segment_lists = []
    for u in range(12):
        true = labels[u % 3]
        blocks, segments, t = [], [], 0.0
        for _ in range(int(rng.integers(2, 9))):
            phone = (vowels + ["t"])[int(rng.integers(len(vowels) + 1))]
            n = int(rng.integers(1, 5))
            confidence = None if rng.random() < 0.15 else float(np.round(rng.uniform(-4, 0), 1))
            source = true if confidence is not None and confidence > -2 else labels[int(rng.integers(3))]
            center = centers[(source, phone)] if phone in vowels else np.zeros(2)
            blocks.append(rng.normal(center, 1.0, (n, 2)))
            segments.append(AlignmentSegment(t, t + n * 0.01, phone, confidence))
            t += n * 0.01
        projected = FeatureMatrix(np.vstack(blocks), "u", start_ms=5.0, hop_ms=10.0)
        dev_segment_lists.append((true, projected, segments))
    subset = vowels[: 2 + seed % 3]
    weights = vowel_weights({v: 1.0 + i for i, v in enumerate(vowels)}, subset)
    return dev_segment_lists, vset, subset, weights


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

    @pytest.mark.parametrize("kind", ["baseline", "vowel"])
    def test_second_model_for_a_key_is_data_error(self, tmp_path, kind):
        out = tmp_path / "set"
        if kind == "baseline":
            save_model_set(out, AccentModelSet(["A"], {"A": single_gaussian(0.0)}))
        else:
            save_model_set(out, VowelModelSet(
                ["A"], ["aa"], {"aa": 1.0}, {("A", "aa"): single_gaussian(0.0)},
            ))
        manifest = out / "modelset.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(DataError, match=f"line {len(lines) + 1}: a second model"):
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
