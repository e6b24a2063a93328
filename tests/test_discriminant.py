import logging

import numpy as np
import pytest
import scipy.linalg

from accent_forge import discriminant
from accent_forge.discriminant import (
    LabeledFeatures,
    LinearTransform,
    hlda_converged,
    hlda_fit,
    lda_fit,
    load_transform,
    project,
    save_transform,
    scatter_matrices,
)
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
        s_b, s_w = scatter_matrices(data)
        assert np.allclose(s_b, 0) and np.allclose(s_w, 0)

    def test_single_class_relation(self):
        # with one class the within sum is unnormalized by rows, so it is
        # exactly K times the between (population covariance) matrix
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        data = LabeledFeatures(X, np.zeros(40, dtype=int))
        s_b, s_w = scatter_matrices(data)
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
            s_b, s_w = scatter_matrices(LabeledFeatures(X, labels))
            ob, ow = brute_force_scatters(X, labels)
            np.testing.assert_allclose(s_b, ob, atol=1e-12)
            np.testing.assert_allclose(s_w, ow, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        labels = rng.integers(0, 2, 30)
        labels[:4] = [0, 0, 1, 1]
        s_b, s_w = scatter_matrices(LabeledFeatures(X, labels))
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
        s_b, s_w = scatter_matrices(data)
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
        _, s_w = scatter_matrices(data)
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
        _, s_w = scatter_matrices(data)
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


class TestHldaSweepAndConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_reference_bitwise(self, seed, monkeypatch):
        data, M = random_labeled(300 + seed)
        m = max(1, M // 2)
        t, trace = hlda_fit(data, m, max_iters=15)
        monkeypatch.setattr(discriminant, "_hlda_optimize", reference_hlda_optimize)
        ref, ref_trace = hlda_fit(data, m, max_iters=15)
        assert np.array_equal(t.matrix, ref.matrix)
        assert trace == ref_trace

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

    def test_feature_matrix_metadata_preserved(self):
        rng = np.random.default_rng(17)
        f = FeatureMatrix(rng.standard_normal((5, 4)), "u", 12.5, 10.0)
        t = LinearTransform("hlda", rng.standard_normal((4, 4)), 2)
        out = project(t, f)
        assert out.dims == 2
        assert (out.utterance_id, out.start_ms, out.hop_ms) == ("u", 12.5, 10.0)

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
