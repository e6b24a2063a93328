import math

import numpy as np
import pytest

from accent_forge.errors import DataError
from accent_forge.gmm import (
    _kmeans,
    MIN_VARIANCE,
    EmOptions,
    GmmModel,
    component_posteriors,
    em_fit,
    frame_log_likelihoods,
    gaussian_log_density,
    load_gmm,
    mean_log_likelihood,
    mixture_log_likelihood,
    save_gmm,
)


def naive_density(x, mean, var):
    """Direct product-of-Gaussians evaluation, no log tricks."""
    m = len(x)
    det = 1.0
    quad = 0.0
    for d in range(m):
        det *= var[d]
        quad += (x[d] - mean[d]) ** 2 / var[d]
    return math.exp(-0.5 * quad) / ((2 * math.pi) ** (m / 2) * math.sqrt(det))


def random_model(rng, n, m):
    w = rng.uniform(0.2, 1.0, n)
    return GmmModel(w / w.sum(), rng.uniform(-2, 2, (n, m)), rng.uniform(0.3, 2.0, (n, m)))


class TestGaussianLogDensity:
    def test_standard_normal_peak(self):
        assert gaussian_log_density([0.0], [0.0], [1.0]) == pytest.approx(-0.9189385, abs=1e-6)

    def test_two_dim_peak(self):
        val = gaussian_log_density([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert val == pytest.approx(-math.log(2 * math.pi), abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            x = rng.uniform(-3, 3, m)
            mean = rng.uniform(-2, 2, m)
            var = rng.uniform(0.2, 3.0, m)
            expected = math.log(naive_density(x, mean, var))
            assert gaussian_log_density(x, mean, var) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_log_density([0.0], [0.0], [0.0])


class TestMixtureLogLikelihood:
    def test_single_component_collapse(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 1, 3)
        X = rng.standard_normal((10, 3))
        expected = sum(
            gaussian_log_density(x, model.means[0], model.variances[0]) for x in X
        )
        assert mixture_log_likelihood(model, X) == pytest.approx(expected, abs=1e-9)

    def test_duplicated_components(self):
        mean = np.array([[0.5, -0.5]])
        var = np.array([[1.0, 2.0]])
        single = GmmModel(np.array([1.0]), mean, var)
        doubled = GmmModel(
            np.array([0.5, 0.5]), np.vstack([mean, mean]), np.vstack([var, var])
        )
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 2))
        assert mixture_log_likelihood(doubled, X) == pytest.approx(
            mixture_log_likelihood(single, X), abs=1e-12
        )

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 4)
        X = rng.uniform(-2, 2, (10, 4))
        expected = 0.0
        for x in X:
            p = sum(
                model.weights[i] * naive_density(x, model.means[i], model.variances[i])
                for i in range(3)
            )
            expected += math.log(p)
        assert mixture_log_likelihood(model, X) == pytest.approx(expected, abs=1e-9)

    def test_component_permutation_exact(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 5, 3)
        X = rng.standard_normal((30, 3))
        perm = rng.permutation(5)
        permuted = GmmModel(model.weights[perm], model.means[perm], model.variances[perm])
        assert mixture_log_likelihood(permuted, X) == mixture_log_likelihood(model, X)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 3)
        with pytest.raises(ValueError):
            mixture_log_likelihood(model, rng.standard_normal((5, 4)))

    def test_mean_log_likelihood(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 2)
        X = rng.standard_normal((8, 2))
        assert mean_log_likelihood(model, X) == pytest.approx(
            mixture_log_likelihood(model, X) / 8, abs=1e-12
        )


class TestComponentPosteriors:
    def test_single_component(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        assert np.array_equal(component_posteriors(model, np.zeros(2)), [1.0])

    def test_identical_components_split(self):
        model = GmmModel(
            np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1))
        )
        np.testing.assert_allclose(component_posteriors(model, [0.3]), [0.5, 0.5], atol=1e-15)

    def test_symmetric_pair(self):
        model = GmmModel(
            np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]), np.ones((2, 1))
        )
        np.testing.assert_allclose(component_posteriors(model, [0.0]), [0.5, 0.5], atol=1e-15)
        post = component_posteriors(model, [1.0])
        assert post[0] == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)

    def test_normalization_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng, int(rng.integers(1, 6)), 3)
            x = rng.uniform(-5, 5, 3)
            post = component_posteriors(model, x)
            assert abs(post.sum() - 1.0) < 1e-12
            assert np.all(post >= 0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 2)
        x = rng.uniform(-2, 2, 2)
        raw = np.array(
            [
                model.weights[i] * naive_density(x, model.means[i], model.variances[i])
                for i in range(4)
            ]
        )
        np.testing.assert_allclose(component_posteriors(model, x), raw / raw.sum(), atol=1e-12)


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((100, 3)) * 2 + 5
        model, trace = em_fit(X, 1, EmOptions(seed=0))
        np.testing.assert_allclose(model.means[0], X.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(model.variances[0], X.var(axis=0), atol=1e-8)
        assert model.weights[0] == 1.0

    def test_two_separated_gaussians_recovered(self):
        rng = np.random.default_rng(42)
        X = np.concatenate([rng.normal(0, 1, 500), rng.normal(10, 1, 500)])[:, None]
        model, _ = em_fit(X, 2, EmOptions(seed=7))
        means = np.sort(model.means[:, 0])
        assert abs(means[0] - 0.0) < 0.15
        assert abs(means[1] - 10.0) < 0.15
        assert np.all(np.abs(model.weights - 0.5) < 0.05)

    def test_monotone_trace_over_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            K = int(rng.integers(20, 201))
            M = int(rng.integers(1, 6))
            N = int(rng.integers(1, 5))
            X = rng.standard_normal((K, M)) * rng.uniform(0.5, 2.0) + rng.uniform(-3, 3)
            _, trace = em_fit(X, N, EmOptions(seed=seed))
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-8), f"seed {seed}: min step {diffs.min()}"

    def test_variance_floor_enforced(self):
        rng = np.random.default_rng(10)
        X = np.repeat(rng.standard_normal((5, 2)), 20, axis=0)  # heavy duplication
        opts = EmOptions(seed=1, variance_floor_factor=1e-3)
        model, _ = em_fit(X, 3, opts)
        floor = np.maximum(1e-3 * X.var(axis=0), 1e-10)
        assert np.all(model.variances >= floor - 1e-18)

    def test_seeded_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((80, 4))
        a, ta = em_fit(X, 3, EmOptions(seed=5))
        b, tb = em_fit(X, 3, EmOptions(seed=5))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert ta == tb

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            em_fit(np.zeros((3, 2)), 4, EmOptions())

    def test_trace_matches_final_model(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 2))
        model, trace = em_fit(X, 2, EmOptions(seed=3))
        assert mixture_log_likelihood(model, X) == pytest.approx(trace[-1], abs=1e-9)


def scan_kmeans(X, k, rng, iters=10):
    """Reference k-means: per-cluster membership scans, as first written."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers[i] = X[int(rng.integers(n))]
        else:
            centers[i] = X[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((X - centers[i]) ** 2, axis=1))
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(iters):
        dists = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ centers.T)
            + np.sum(centers * centers, axis=1)[None, :]
        )
        labels = np.argmin(dists, axis=1)
        empties = [i for i in range(k) if not np.any(labels == i)]
        if empties:
            order = np.argsort(-np.min(dists, axis=1), kind="stable")
            for i, worst in zip(empties, order):
                centers[i] = X[worst]
                labels[int(worst)] = i
        for i in range(k):
            member = labels == i
            if np.any(member):
                centers[i] = X[member].mean(axis=0)
    return centers, labels


@pytest.mark.parametrize("case", ["spread", "duplicates", "few_distinct"])
def test_kmeans_matches_scan_reference(case):
    rng = np.random.default_rng(3)
    if case == "spread":
        X, k = rng.standard_normal((300, 4)), 16
    elif case == "duplicates":
        # repeated points leave clusters empty, and reviving one can empty another
        X, k = np.repeat(rng.standard_normal((5, 3)), 8, axis=0), 9
    else:
        X, k = np.repeat(rng.standard_normal((3, 2)), [1, 1, 30], axis=0), 6
    for seed in range(5):
        centers, labels = _kmeans(X, k, np.random.default_rng(seed))
        ref_centers, ref_labels = scan_kmeans(X, k, np.random.default_rng(seed))
        assert np.array_equal(centers, ref_centers)
        assert np.array_equal(labels, ref_labels)


def naive_em_init(X, k, opts):
    """EM's starting model as first written: boolean-mask means, counts and variances."""
    rng = np.random.default_rng(opts.seed)
    global_var = X.var(axis=0)
    floor = np.maximum(opts.variance_floor_factor * global_var, MIN_VARIANCE)
    centers, labels = scan_kmeans(X, k, rng)
    weights = np.zeros(k)
    means = centers.copy()
    variances = np.tile(np.maximum(global_var, floor), (k, 1))
    for i in range(k):
        member = labels == i
        count = int(np.count_nonzero(member))
        weights[i] = count / X.shape[0]
        if count:
            means[i] = X[member].mean(axis=0)
        if count >= 2:
            variances[i] = np.maximum(X[member].var(axis=0), floor)
    weights = np.maximum(weights, 1.0 / (10.0 * X.shape[0]))
    weights /= weights.sum()
    return GmmModel(weights, means, variances)


@pytest.mark.parametrize("case", ["spread", "duplicates", "few_distinct"])
def test_em_starts_from_naive_initialization(case):
    # trace[0] is the log likelihood of the starting model, summed exactly as
    # mixture_log_likelihood sums it
    rng = np.random.default_rng(4)
    if case == "spread":
        X, k = rng.standard_normal((300, 4)), 16
    elif case == "duplicates":
        X, k = np.repeat(rng.standard_normal((5, 3)), 8, axis=0), 9
    else:  # clusters of one member keep the global variance
        X, k = np.repeat(rng.standard_normal((3, 2)), [1, 1, 30], axis=0), 6
    for seed in range(5):
        opts = EmOptions(max_iters=1, seed=seed)
        _, trace = em_fit(X, k, opts)
        assert trace[0] == mixture_log_likelihood(naive_em_init(X, k, opts), X)


def test_model_validation():
    with pytest.raises(ValueError):
        GmmModel(np.array([0.5, 0.6]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        GmmModel(np.array([1.0]), np.zeros((1, 2)), np.zeros((1, 2)))


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    model = random_model(rng, 4, 6)
    path = tmp_path / "m.gmm"
    save_gmm(path, model)
    loaded = load_gmm(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.means, model.means)
    assert np.array_equal(loaded.variances, model.variances)
    first = path.read_bytes()
    save_gmm(path, loaded)
    assert path.read_bytes() == first


def test_serialization_errors(tmp_path):
    path = tmp_path / "bad.gmm"
    path.write_bytes(b"WRONG 1 1\n" + b"\x00" * 24)
    with pytest.raises(DataError):
        load_gmm(path)
    path2 = tmp_path / "trunc.gmm"
    path2.write_bytes(b"ACGMM1 2 3\n" + b"\x00" * 10)
    with pytest.raises(DataError):
        load_gmm(path2)


def test_frame_log_likelihoods_shape():
    rng = np.random.default_rng(14)
    model = random_model(rng, 3, 2)
    X = rng.standard_normal((7, 2))
    ll = frame_log_likelihoods(model, X)
    assert ll.shape == (7,)
    assert np.isfinite(ll).all()
