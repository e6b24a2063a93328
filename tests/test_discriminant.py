import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from accent_forge import discriminant, pipeline
from accent_forge.config import PipelineConfig
from accent_forge.discriminant import (
    LabeledFeatures,
    LinearTransform,
    hlda_converged,
    hlda_fit,
    lda_fit,
    load_transform,
    project,
    save_transform,
)
from accent_forge.errors import DataError
from accent_forge.features import FeatureMatrix


def brute_force_scatters(X, labels):
    """Double-loop evaluation of the scatter definitions."""
    K, M = X.shape
    phi = X.mean(axis=0)
    s_b = np.zeros((M, M))
    for k in range(K):
        d = (X[k] - phi)[:, None]
        s_b += d @ d.T
    s_b /= K
    classes = np.unique(labels)
    s_w = np.zeros((M, M))
    for c in classes:
        rows = X[labels == c]
        local = rows.mean(axis=0)
        for x in rows:
            d = (x - local)[:, None]
            s_w += d @ d.T
    s_w /= classes.size
    return s_b, s_w


def subspace_angles(A, B):
    return scipy.linalg.subspace_angles(np.asarray(A, dtype=float).T, np.asarray(B, dtype=float).T)


def heteroscedastic_classes(n=5000, seed=11):
    """Dim 1: means +-0.1, unit variance. Dim 2: zero mean, variance 1 vs 9."""
    rng = np.random.default_rng(seed)
    c0 = np.column_stack([rng.normal(-0.1, 1, n), rng.normal(0, 1, n)])
    c1 = np.column_stack([rng.normal(+0.1, 1, n), rng.normal(0, 3, n)])
    return LabeledFeatures(np.vstack([c0, c1]), np.repeat([0, 1], n))


class TestScatterMatrices:
    def test_identical_rows(self):
        X = np.tile([1.0, 2.0, 3.0], (6, 1))
        data = LabeledFeatures(X, np.array([0, 0, 0, 1, 1, 1]))
        _, s_b, s_w = discriminant._scatter_stats(data)
        assert np.allclose(s_b, 0) and np.allclose(s_w, 0)

    def test_single_class_relation(self):
        # with one class the within sum is unnormalized by rows, so it is
        # exactly K times the between (population covariance) matrix
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        data = LabeledFeatures(X, np.zeros(40, dtype=int))
        _, s_b, s_w = discriminant._scatter_stats(data)
        cov = np.cov(X.T, bias=True)
        np.testing.assert_allclose(s_b, cov, atol=1e-12)
        np.testing.assert_allclose(s_w, 40 * s_b, atol=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            K = int(rng.integers(8, 61))
            M = int(rng.integers(2, 7))
            S = int(rng.integers(2, 5))
            labels = np.repeat(np.arange(S), 2)
            labels = np.concatenate([labels, rng.integers(0, S, K - labels.size)])
            X = rng.standard_normal((K, M))
            _, s_b, s_w = discriminant._scatter_stats(LabeledFeatures(X, labels))
            ob, ow = brute_force_scatters(X, labels)
            np.testing.assert_allclose(s_b, ob, atol=1e-12)
            np.testing.assert_allclose(s_w, ow, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        labels = rng.integers(0, 2, 30)
        labels[:4] = [0, 0, 1, 1]
        _, s_b, s_w = discriminant._scatter_stats(LabeledFeatures(X, labels))
        for s in (s_b, s_w):
            assert np.array_equal(s, s.T)
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-10


class TestLdaFit:
    def test_two_class_axis(self):
        rng = np.random.default_rng(3)
        c0 = rng.standard_normal((400, 2)) + [-1, 0]
        c1 = rng.standard_normal((400, 2)) + [+1, 0]
        data = LabeledFeatures(np.vstack([c0, c1]), np.repeat([0, 1], 400))
        t = lda_fit(data, 1)
        direction = t.matrix[0] / np.linalg.norm(t.matrix[0])
        assert abs(direction[0]) > 0.99

    def test_full_rank_is_invertible(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 4))
        labels = np.repeat(np.arange(3), 20)
        t = lda_fit(LabeledFeatures(X, labels), 4)
        assert abs(np.linalg.det(t.matrix)) > 1e-12

    def test_matches_generalized_eigensolver(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4)) @ rng.standard_normal((4, 4))
        labels = np.repeat(np.arange(3), [30, 30, 20])
        data = LabeledFeatures(X, labels)
        _, s_b, s_w = discriminant._scatter_stats(data)
        dense_vals = np.sort(scipy.linalg.eig(s_b, s_w)[0].real)[::-1]
        t = lda_fit(data, 4)
        fitted_vals = [
            float(row @ s_b @ row) / float(row @ s_w @ row) for row in t.matrix
        ]
        np.testing.assert_allclose(fitted_vals, dense_vals, atol=1e-8)

    def test_fisher_normalization(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 3))
        labels = np.repeat(np.arange(2), 25)
        data = LabeledFeatures(X, labels)
        *_, s_w = discriminant._scatter_stats(data)
        t = lda_fit(data, 2)
        for row in t.matrix:
            assert float(row @ s_w @ row) == pytest.approx(1.0, abs=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        labels = np.repeat(np.arange(2), 20)
        a = lda_fit(LabeledFeatures(X, labels), 2)
        b = lda_fit(LabeledFeatures(X.copy(), labels.copy()), 2)
        assert np.array_equal(a.matrix, b.matrix)
        for row in a.matrix:
            lead = np.flatnonzero(np.abs(row) > 1e-12 * np.max(np.abs(row)))[0]
            assert row[lead] > 0

    def test_ridge_fires_on_singular_within(self, caplog):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((40, 2))
        X = np.column_stack([base, base[:, 0]])  # duplicated dimension
        labels = np.repeat(np.arange(2), 20)
        with caplog.at_level(logging.WARNING):
            t = lda_fit(LabeledFeatures(X, labels), 2)
        assert "ridge" in caplog.text
        assert np.all(np.isfinite(t.matrix))

    def test_invariance_under_translation_and_label_recoding(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 4))
        labels = np.repeat(np.arange(3), 20)
        t1 = lda_fit(LabeledFeatures(X, labels), 2)
        t2 = lda_fit(LabeledFeatures(X + 7.5, labels), 2)
        relabeled = np.array([10, 20, 30])[labels]  # affine recoding of ids
        t3 = lda_fit(LabeledFeatures(X, relabeled), 2)
        assert np.max(subspace_angles(t1.matrix, t2.matrix)) < 1e-8
        assert np.max(subspace_angles(t1.matrix, t3.matrix)) < 1e-8

    def test_total_scatter_equals_classic_between_subspace(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((90, 5))
        labels = np.repeat(np.arange(3), 30)
        data = LabeledFeatures(X, labels)
        m = 2  # S - 1
        t_total = lda_fit(data, m)

        # classic formulation: weighted scatter of class means about the global mean
        phi = X.mean(axis=0)
        s_b_classic = np.zeros((5, 5))
        for c in range(3):
            rows = X[labels == c]
            d = (rows.mean(axis=0) - phi)[:, None]
            s_b_classic += rows.shape[0] * (d @ d.T)
        *_, s_w = discriminant._scatter_stats(data)
        vals, vecs = scipy.linalg.eigh(s_b_classic, s_w)
        classic = vecs[:, np.argsort(-vals)[:m]].T
        assert np.max(subspace_angles(t_total.matrix, classic)) < 1e-6


class TestHldaFit:
    def test_heteroscedastic_selects_variance_dimension(self):
        data = heteroscedastic_classes()
        lda = lda_fit(data, 1)
        hlda, trace = hlda_fit(data, 1)
        lda_dir = lda.matrix[0] / np.linalg.norm(lda.matrix[0])
        hlda_dir = hlda.matrix[0] / np.linalg.norm(hlda.matrix[0])
        assert abs(lda_dir[0]) > 0.9
        assert abs(hlda_dir[1]) > 0.9
        assert np.all(np.diff(trace) >= -1e-8)

    def test_homoscedastic_agrees_with_lda(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((2000, 5)) @ rng.standard_normal((5, 5))
        means = rng.uniform(-2, 2, (3, 5))
        X = np.vstack([base + mu for mu in means])  # identical in-class covariances
        data = LabeledFeatures(X, np.repeat(np.arange(3), 2000))
        lda = lda_fit(data, 2)
        hlda, _ = hlda_fit(data, 2)
        assert np.max(subspace_angles(lda.matrix, hlda.matrix[:2])) < 1e-3

    def test_monotone_objective_on_random_instances(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            S = int(rng.integers(2, 4))
            M = int(rng.integers(3, 7))
            per = int(rng.integers(30, 80))
            blocks = [
                rng.standard_normal((per, M)) * rng.uniform(0.5, 2.0, M) + rng.uniform(-2, 2, M)
                for _ in range(S)
            ]
            data = LabeledFeatures(np.vstack(blocks), np.repeat(np.arange(S), per))
            _, trace = hlda_fit(data, M - 1, max_iters=40)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-8), f"seed {seed}: min step {diffs.min()}"
            assert trace[-1] >= trace[0] - 1e-8

    def test_retained_rows_and_square_matrix(self):
        data = heteroscedastic_classes(n=500, seed=13)
        t, _ = hlda_fit(data, 1)
        assert t.matrix.shape == (2, 2)
        assert t.retained == 1
        assert t.kind == "hlda"

    def test_m_bounds(self):
        data = heteroscedastic_classes(n=100, seed=14)
        with pytest.raises(ValueError):
            hlda_fit(data, 2)  # must be < dims


def reference_hlda_optimize(a0, covs, total_cov, counts, m, n_rows, max_iters, rel_tol):
    """Row-wise cofactor updates as first written: every quadratic form recomputed."""
    a = a0.copy()
    dims = a.shape[1]
    objective = discriminant._hlda_objective
    trace = [objective(a, covs, total_cov, counts, m, n_rows)]
    for _ in range(max_iters):
        for j in range(dims):
            cof = np.linalg.inv(a).T[j]
            row = a[j]
            if j < m:
                g = np.zeros((dims, dims))
                for cov, count in zip(covs, counts):
                    g += (count / float(row @ cov @ row)) * cov
            else:
                g = (n_rows / float(row @ total_cov @ row)) * total_cov
            direction = np.linalg.solve(g, cof)
            denom = float(cof @ direction)
            if denom <= 0:
                continue
            candidate = direction * np.sqrt(n_rows / denom)
            gain = n_rows * (np.log(abs(float(candidate @ cof))) - np.log(abs(float(row @ cof))))
            if j < m:
                for cov, count in zip(covs, counts):
                    gain -= 0.5 * count * (
                        np.log(float(candidate @ cov @ candidate)) - np.log(float(row @ cov @ row))
                    )
            else:
                gain -= 0.5 * n_rows * (
                    np.log(float(candidate @ total_cov @ candidate))
                    - np.log(float(row @ total_cov @ row))
                )
            if np.isfinite(gain) and gain >= 0.0:
                a[j] = candidate
        trace.append(objective(a, covs, total_cov, counts, m, n_rows))
        if trace[-1] - trace[-2] < rel_tol * abs(trace[-2]):
            break
    return a, trace


def random_labeled(seed):
    rng = np.random.default_rng(seed)
    S = int(rng.integers(2, 5))
    M = int(rng.integers(3, 9))
    per = int(rng.integers(30, 90))
    blocks = [
        rng.standard_normal((per, M)) @ rng.standard_normal((M, M)) * rng.uniform(0.5, 2.0)
        + rng.uniform(-2, 2, M)
        for _ in range(S)
    ]
    return LabeledFeatures(np.vstack(blocks), np.repeat(np.arange(S), per)), M


def hlda_inputs(data):
    """The covariances, counts and gain-ordered LDA start that hlda_fit builds."""
    covs, total_cov, _ = discriminant._scatter_stats(data)
    counts = data.class_counts
    start = discriminant._order_rows_by_class_gain(
        lda_fit(data, data.dims).matrix, covs, total_cov, counts, data.n_rows
    )
    return covs, total_cov, counts, start


class TestHldaSweepAndConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_reference_bitwise(self, seed, monkeypatch):
        """A tolerance, not bits: the same sweep count as the naive reference,
        rows within 1e-7 and the objective trace within 1e-9, both relative.
        The rank-one inverse update and the nuisance shortcut round
        differently from the reference's dense inverse and solve per row."""
        data, M = random_labeled(300 + seed)
        m = max(1, M // 2)
        t, trace = hlda_fit(data, m, max_iters=15)
        monkeypatch.setattr(discriminant, "_hlda_optimize", reference_hlda_optimize)
        ref, ref_trace = hlda_fit(data, m, max_iters=15)
        assert len(trace) == len(ref_trace)
        row_error = np.abs(t.matrix - ref.matrix).max(axis=1) / np.abs(ref.matrix).max(axis=1)
        assert np.max(row_error) < 1e-7
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-9, atol=0)

    def test_maintained_inverse_matches_dense_inverse(self):
        # a 117-dimensional instance, the README's context-1 front end
        rng = np.random.default_rng(117)
        M = 117
        blocks = [
            rng.standard_normal((400, M)) @ rng.standard_normal((M, M)) * rng.uniform(0.5, 2.0)
            + rng.uniform(-1, 1, M)
            for _ in range(3)
        ]
        data = LabeledFeatures(np.vstack(blocks), np.repeat(np.arange(3), 400))
        covs, total_cov, counts, a = hlda_inputs(data)
        total_inv = np.linalg.inv(total_cov)
        for _ in range(3):
            before = a.copy()
            cofs = discriminant._hlda_sweep(a, covs, total_cov, total_inv, counts, 20, data.n_rows)
            assert np.all(np.any(a != before, axis=1))  # every row was replaced
            dense = np.linalg.inv(a)
            assert np.max(np.abs(cofs.T - dense)) < 1e-10 * np.max(np.abs(dense))

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_forms_match_per_class_loops(self, seed):
        data, M = random_labeled(320 + seed)
        covs, total_cov, counts, _ = hlda_inputs(data)
        n, m = data.n_rows, max(1, M // 2)
        a = np.random.default_rng(seed).standard_normal((M, M))

        def var(row, cov):
            return float(row @ cov @ row)

        naive = n * np.linalg.slogdet(a)[1] - 0.5 * n * (
            sum((c / n) * np.log(var(row, cov)) for cov, c in zip(covs, counts) for row in a[:m])
            + sum(np.log(var(row, total_cov)) for row in a[m:])
        )
        objective = discriminant._hlda_objective(a, covs, total_cov, counts, m, n)
        assert objective == pytest.approx(naive, rel=1e-12)

        gains = [
            np.log(var(row, total_cov))
            - sum((c / n) * np.log(var(row, cov)) for cov, c in zip(covs, counts))
            for row in a
        ]
        ordered = discriminant._order_rows_by_class_gain(a, covs, total_cov, counts, n)
        assert np.array_equal(ordered, a[np.argsort(-np.array(gains), kind="stable")])

    def test_repeated_fit_is_identical(self):
        data, M = random_labeled(312)
        t1, trace1 = hlda_fit(data, M // 2, max_iters=15)
        t2, trace2 = hlda_fit(data, M // 2, max_iters=15)
        assert np.array_equal(t1.matrix, t2.matrix)
        assert trace1 == trace2

    def test_identity_restart_after_degenerate_start(self, monkeypatch, caplog):
        data, M = random_labeled(313)
        real = discriminant._hlda_optimize
        starts = []

        def failing_first(a0, *args):
            starts.append(a0)
            if len(starts) == 1:
                raise np.linalg.LinAlgError("transform became singular")
            return real(a0, *args)

        monkeypatch.setattr(discriminant, "_hlda_optimize", failing_first)
        with caplog.at_level(logging.WARNING, logger="accent_forge.discriminant"):
            t, trace = hlda_fit(data, M // 2, max_iters=15)
        notes = [r for r in caplog.records if "restarting from identity" in r.getMessage()]
        assert len(notes) == 1
        assert len(starts) == 2
        # the restart is the identity with its rows reordered
        order = starts[1].argmax(axis=1)
        assert sorted(order) == list(range(M))
        assert np.array_equal(starts[1], np.eye(M)[order])
        assert np.all(np.diff(trace) >= -1e-8)
        assert np.all(np.isfinite(t.matrix))

    def test_failure_from_both_starts_is_a_data_error(self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("transform became singular")

        monkeypatch.setattr(discriminant, "_hlda_optimize", failing)
        data, M = random_labeled(314)
        with pytest.raises(DataError, match=rf"dims={M}, m={M // 2}\b"):
            hlda_fit(data, M // 2)

    def test_converged_flag(self):
        assert not hlda_converged([5.0])
        assert hlda_converged([100.0, 100.00001])
        assert not hlda_converged([100.0, 101.0])
        assert hlda_converged([-100.0, -100.00001])  # a drop always ends the fit
        assert not hlda_converged([100.0, 100.5], rel_tol=1e-3)

    def test_unconverged_fit_warns_once(self, caplog):
        data, M = random_labeled(311)
        with caplog.at_level(logging.WARNING, logger="accent_forge.discriminant"):
            _, trace = hlda_fit(data, M // 2, max_iters=1)
        assert len(trace) == 2 and not hlda_converged(trace)
        notes = [r for r in caplog.records if "without converging" in r.getMessage()]
        assert len(notes) == 1
        assert "after 1 sweeps" in notes[0].getMessage()

    def test_converged_fit_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="accent_forge.discriminant"):
            _, trace = hlda_fit(heteroscedastic_classes(n=500, seed=13), 1)
        assert hlda_converged(trace) and len(trace) - 1 < 100
        assert "without converging" not in caplog.text


class TestProject:
    def test_identity(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 3))
        t = LinearTransform("lda", np.eye(3), 3)
        assert np.array_equal(project(t, X), X)

    def test_single_row_picks_column(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((6, 4))
        t = LinearTransform("lda", np.array([[1.0, 0.0, 0.0, 0.0]]), 1)
        assert np.array_equal(project(t, X)[:, 0], X[:, 0])

    def test_dimension_check(self):
        t = LinearTransform("lda", np.eye(3), 2)
        with pytest.raises(ValueError):
            project(t, np.zeros((4, 5)))

    def test_117_to_20(self):
        rng = np.random.default_rng(18)
        t = LinearTransform("hlda", rng.standard_normal((117, 117)), 20)
        out = project(t, rng.standard_normal((10, 117)))
        assert out.shape == (10, 20)


def test_transform_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    t = LinearTransform("hlda", rng.standard_normal((5, 5)), 3)
    path = tmp_path / "t.lin"
    save_transform(path, t)
    loaded = load_transform(path)
    assert loaded.kind == "hlda"
    assert loaded.retained == 3
    assert np.array_equal(loaded.matrix, t.matrix)
    first = path.read_bytes()
    save_transform(path, loaded)
    assert path.read_bytes() == first


def test_labeled_features_validation():
    with pytest.raises(ValueError):
        LabeledFeatures(np.zeros((3, 2)), np.array([0, 0, 1]))  # class 1 has one row


# The stacking and scatter formulas as first written: per-utterance blocks
# joined by np.vstack, deviations as X - mean, two copies per class, and an
# HLDA that recomputes every product for its LDA start. The fit now builds
# one preallocated matrix, centers it in place and shares one scatter pass;
# every byte must agree.


def first_context_expand(values, context):
    if context == 0:
        return values.copy()
    t = values.shape[0]
    if t == 0:
        return np.zeros((0, values.shape[1] * (2 * context + 1)))
    base = np.arange(t)
    return np.hstack([values[np.clip(base + o, 0, t - 1)] for o in range(-context, context + 1)])


def first_stack(train_feats, inventory, context):
    blocks, labels = [], []
    for accent, feats in train_feats:
        expanded = first_context_expand(feats.values, context)
        if expanded.shape[0] == 0:
            continue
        blocks.append(expanded)
        labels.append(np.full(expanded.shape[0], inventory.index(accent), dtype=np.intp))
    return np.vstack(blocks), np.concatenate(labels)


def first_scatter_matrices(data):
    X = data.X
    centered = X - X.mean(axis=0)
    s_b = (centered.T @ centered) / data.n_rows
    s_w = np.zeros((data.dims, data.dims))
    for cls in data.classes:
        rows = X[data.labels == cls]
        d = rows - rows.mean(axis=0)
        s_w += d.T @ d
    s_w /= data.classes.size
    return 0.5 * (s_b + s_b.T), 0.5 * (s_w + s_w.T)


def first_class_stats(data):
    covs = []
    for cls in data.classes:
        rows = data.X[data.labels == cls]
        d = rows - rows.mean(axis=0)
        cov = (d.T @ d) / rows.shape[0]
        covs.append(0.5 * (cov + cov.T))
    d = data.X - data.X.mean(axis=0)
    total = (d.T @ d) / data.n_rows
    return covs, 0.5 * (total + total.T), data.class_counts


def first_lda_fit(data, m):
    s_b, s_w = first_scatter_matrices(data)
    s_w = discriminant._ensure_spd(s_w, "within-class scatter")
    eigvals, eigvecs = scipy.linalg.eigh(s_b, s_w)
    order = np.argsort(-eigvals, kind="stable")[:m]
    return discriminant._fix_signs(eigvecs[:, order].T)


def first_hlda_fit(data, m, max_iters):
    covs, total_cov, counts = first_class_stats(data)
    covs = np.stack([discriminant._ensure_spd(c, "class covariance") for c in covs])
    total_cov = discriminant._ensure_spd(total_cov, "total covariance")
    start = discriminant._order_rows_by_class_gain(
        first_lda_fit(data, data.dims), covs, total_cov, counts, data.n_rows
    )
    a, trace = discriminant._hlda_optimize(
        start, covs, total_cov, counts, m, data.n_rows, max_iters, discriminant.HLDA_REL_TOL
    )
    return discriminant._fix_signs(a), trace


def accent_utterances(seed, dims=6):
    """Seven utterances over three accents, one of them without frames."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, (3, dims))
    offsets = rng.uniform(-1.0, 1.0, (3, dims))
    out = []
    for i, accent in enumerate("BACABCA"):
        k = "ABC".index(accent)
        frames = 0 if i == 3 else int(rng.integers(60, 90))
        values = rng.standard_normal((frames, dims)) @ rng.standard_normal((dims, dims)) * scales[k]
        out.append((accent, FeatureMatrix(values + offsets[k], f"u{i}")))
    return out


def capture_fit_input(monkeypatch, name):
    """Wrap pipeline.<name> so each call's data and a copy of its rows are recorded."""
    seen = []
    real = getattr(pipeline, name)

    def recording(data, *args, **kwargs):
        seen.append((data, data.X.copy()))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(pipeline, name, recording)
    return seen


class TestOnePassFit:
    @pytest.mark.parametrize("context", [0, 2])
    @pytest.mark.parametrize("kind", ["lda", "hlda"])
    def test_fit_matches_first_formulas_bytewise(self, monkeypatch, context, kind):
        train_feats = accent_utterances(40 + context)
        cfg = replace(PipelineConfig(), context_size=context, transform=kind, reduced_dim=3)
        run = pipeline._Run(cfg, None, None, ["A", "B", "C"], {}, "")
        seen = capture_fit_input(monkeypatch, f"{kind}_fit")
        transform, record = pipeline._fit_transform(run, train_feats)

        X, labels = first_stack(train_feats, run.labels, context)
        [(data, rows)] = seen
        assert rows.tobytes() == X.tobytes() and rows.shape == X.shape
        assert data.labels.tobytes() == labels.tobytes()
        assert np.array_equal(data.X, rows - rows.mean(axis=0))  # centered in place
        data = LabeledFeatures(rows, data.labels)
        first = LabeledFeatures(X, labels)
        for new, old in zip(discriminant._scatter_stats(data)[1:], first_scatter_matrices(first)):
            assert new.tobytes() == old.tobytes()
        covs, total_cov, _ = discriminant._scatter_stats(data)
        old_covs, old_total, _ = first_class_stats(first)
        assert covs.tobytes() == np.stack(old_covs).tobytes()
        assert total_cov.tobytes() == old_total.tobytes()
        if kind == "lda":
            assert transform.matrix.tobytes() == first_lda_fit(first, 3).tobytes()
        else:
            matrix, trace = first_hlda_fit(first, 3, discriminant.HLDA_MAX_ITERS)
            assert transform.matrix.tobytes() == matrix.tobytes()
            assert record["objective"] == trace[-1] and record["sweeps"] == len(trace) - 1

    @pytest.mark.parametrize("kind", ["lda", "hlda"])
    def test_rows_are_overwritten_only_when_given_up(self, kind):
        data, M = random_labeled(78)
        rows = data.X.copy()
        fit = lda_fit if kind == "lda" else hlda_fit
        kept = fit(data, max(1, M // 2))
        assert data.X.tobytes() == rows.tobytes()
        given_up = fit(data, max(1, M // 2), overwrite_rows=True)
        assert np.array_equal(data.X, rows - rows.mean(axis=0))
        if kind == "hlda":
            (kept, kept_trace), (given_up, trace) = kept, given_up
            assert kept_trace == trace
        assert kept.matrix.tobytes() == given_up.matrix.tobytes()

    def test_hlda_makes_one_data_pass(self, monkeypatch):
        data, M = random_labeled(77)
        passes = []
        real = discriminant._scatter_stats

        def counting(d, *args):
            passes.append(d)
            return real(d, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("hlda_fit read the rows a second time")

        monkeypatch.setattr(discriminant, "_scatter_stats", counting)
        monkeypatch.setattr(discriminant, "lda_fit", forbidden)
        hlda_fit(data, max(1, M // 2), max_iters=3)
        assert passes == [data]

    @pytest.mark.parametrize("kind", ["lda", "hlda"])
    def test_fit_holds_no_full_size_temporary_beside_the_rows(self, monkeypatch, kind):
        """3 x 8,000 frames of 39 dims, context 1: the 117-dim rows, centered
        in place, plus one class's copy of its rows, and little else."""
        rng = np.random.default_rng(8000)
        train_feats = [
            (accent, FeatureMatrix(rng.standard_normal((8000, 39)) * rng.uniform(0.5, 2.0, 39), accent))
            for accent in "ABC"
        ]
        cfg = replace(PipelineConfig(), context_size=1, transform=kind, reduced_dim=20)
        run = pipeline._Run(cfg, None, None, ["A", "B", "C"], {}, "")
        # two sweeps keep the test short; the sweeps never touch the rows
        monkeypatch.setattr(pipeline, "hlda_fit", lambda *a, **kw: hlda_fit(*a, **kw, max_iters=2))
        stacked_bytes = 3 * 8000 * 117 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pipeline._fit_transform(run, train_feats)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert stacked_bytes <= peak <= 1.5 * stacked_bytes
