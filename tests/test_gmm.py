import math
import warnings

import numpy as np
import pytest

from accent_forge.errors import DataError
from accent_forge import gmm
from accent_forge.gmm import (
    _draw_index,
    _exp_in_place,
    _kmeans,
    EXP_CLAMP,
    EXP_CLAMPED,
    EXP_CLAMP_FLOAT32,
    EXP_ZERO_BELOW,
    EmOptions,
    GmmModel,
    MIN_VARIANCE,
    em_fit,
    frame_log_likelihoods,
    load_gmm,
    mixture_log_likelihood,
    save_gmm,
    stack_models,
    stacked_frame_log_likelihoods,
    stacked_log_likelihoods,
)
from gmm_reference import (
    component_log_densities,
    component_posteriors,
    float32_frame_bounds,
    gaussian_log_density,
    logsumexp_rows,
    mean_log_likelihood,
    naive_em_init,
    reference_em_fit,
    reference_frame_log_likelihoods,
    scan_kmeans,
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

    @pytest.mark.parametrize("n_components", [0, -1])
    def test_component_count_below_one_rejected(self, n_components):
        X = np.random.default_rng(5).standard_normal((5, 2))
        with pytest.raises(ValueError, match=f"n_components must be at least 1, got {n_components}"):
            em_fit(X, n_components, EmOptions())

    def test_trace_matches_final_model(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 2))
        model, trace = em_fit(X, 2, EmOptions(seed=3))
        assert mixture_log_likelihood(model, X) == pytest.approx(trace[-1], abs=1e-9)


START_CASES = [
    "spread", "duplicates", "few_distinct", "negative_zero", "one_column", "vowel", "baseline",
]


def start_case(case, rng):
    """Frames and a component count for the k-means and EM-start comparisons."""
    if case == "spread":
        return rng.standard_normal((300, 4)), 16
    if case == "duplicates":
        # repeated points leave clusters empty, and reviving one can empty another
        return np.repeat(rng.standard_normal((5, 3)), 8, axis=0), 9
    if case == "few_distinct":  # clusters of one member keep the global variance
        return np.repeat(rng.standard_normal((3, 2)), [1, 1, 30], axis=0), 6
    if case == "negative_zero":  # numpy sums a column of -0.0 to +0.0, as bincount does
        X = rng.standard_normal((200, 3))
        X[:, 1] = -0.0
        return X, 12
    if case == "one_column":  # numpy sums a single column pairwise, not row by row
        return rng.standard_normal((600, 1)) * 3.0, 5
    # pipeline shapes on the bench reference workload: one vowel model's
    # frames and one accent's frames, 20 HLDA dimensions and 64 components
    n = 380 if case == "vowel" else 5000
    blobs = rng.standard_normal((8, 20)) * 3.0
    return blobs[rng.integers(0, 8, n)] + rng.standard_normal((n, 20)), 64


ROW_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 20, 39, 64, 117, 127, 128, 129, 136, 255, 300]


@pytest.mark.parametrize("d", ROW_LENGTHS)
def test_pairwise_sum_matches_numpy_row_sums(d):
    # a single column's cluster sums are numpy's pairwise sums of each
    # cluster's members in frame order: lay each row of A out as one cluster,
    # its members interleaved with the other rows'; signed zeros,
    # cancellation and wide magnitudes make every other order differ
    rng = np.random.default_rng(d)
    A = rng.standard_normal((400, d)) * np.exp(rng.uniform(-20.0, 20.0, (400, d)))
    A[rng.uniform(size=A.shape) < 0.1] = -0.0
    A[5] = -0.0
    A[6] = 0.0
    labels = np.tile(np.arange(400), d)
    counts = np.full(400, d)
    total = gmm._cluster_sums(A.T.reshape(-1, 1), labels, counts)[:, 0]
    assert total.tobytes() == np.sum(A, axis=1).tobytes()


def spy_on_seeding_draws(monkeypatch):
    """Record the probabilities of every k-means++ seeding draw."""
    seen = []
    real = gmm._draw_index
    monkeypatch.setattr(gmm, "_draw_index", lambda rng, p: seen.append(p.copy()) or real(rng, p))
    return seen


@pytest.mark.parametrize("d", ROW_LENGTHS)
def test_sq_distances_match_numpy(monkeypatch, d):
    # each seeding step takes |x|^2 - 2 x.c + |c|^2 from one matrix-vector
    # product; its draw probabilities stay within rounding of those of
    # numpy's sum((x - c)^2), and a frame repeating a chosen center, one in
    # six here, gets exactly 0 as there, so the same frames are drawn
    rng = np.random.default_rng(100 + d)
    base = rng.standard_normal((60, d)) * np.exp(rng.uniform(-5.0, 5.0, d))
    X = np.vstack([base, base[:12]])
    seen = spy_on_seeding_draws(monkeypatch)
    centers, labels = _kmeans(X, 8, np.random.default_rng(d))
    monkeypatch.undo()
    ref_centers, ref_labels = scan_kmeans(X, 8, np.random.default_rng(d))
    assert centers.tobytes() == ref_centers.tobytes() and np.array_equal(labels, ref_labels)
    ref = np.random.default_rng(d)  # the draws as scan_kmeans makes them
    d2 = np.full(X.shape[0], np.inf)
    chosen = int(ref.integers(X.shape[0]))
    assert len(seen) == 7
    for p in seen:
        d2 = np.minimum(d2, np.sum((X - X[chosen]) ** 2, axis=1))
        expected = d2 / d2.sum()
        chosen = int(ref.choice(X.shape[0], p=expected))
        assert np.array_equal(p == 0.0, expected == 0.0)
        np.testing.assert_allclose(p, expected, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("case", START_CASES)
def test_kmeans_matches_scan_reference(case):
    X, k = start_case(case, np.random.default_rng(3))
    for seed in range(2 if case == "baseline" else 5):
        centers, labels = _kmeans(X, k, np.random.default_rng(seed))
        ref_centers, ref_labels = scan_kmeans(X, k, np.random.default_rng(seed))
        assert centers.tobytes() == ref_centers.tobytes()  # bit for bit, signs of zero too
        assert np.array_equal(labels, ref_labels)


def spy_on_models(monkeypatch):
    """Record every GmmModel that em_fit builds, its start first."""
    built = []
    monkeypatch.setattr(gmm, "GmmModel", lambda *args: built.append(GmmModel(*args)) or built[-1])
    return built


@pytest.mark.parametrize("case", START_CASES)
def test_em_starts_from_naive_initialization(monkeypatch, case):
    # the starting model equals the naive one bit for bit, and trace[0] is
    # its log likelihood, summed in the E-step's order
    X, k = start_case(case, np.random.default_rng(4))
    for seed in range(2 if case == "baseline" else 5):
        opts = EmOptions(max_iters=1, seed=seed)
        built = spy_on_models(monkeypatch)
        _, trace = em_fit(X, k, opts)
        monkeypatch.undo()
        start = naive_em_init(X, k, opts)
        assert_same_bytes(built[0], [], start, [])
        assert trace[0] == pytest.approx(mixture_log_likelihood(start, X), rel=TRACE_RTOL, abs=0.0)


# exp(x) is subnormal for x in (-745.14, -708.4) and rounds to 0 below that
SUBNORMAL_BAND = (-745.14, -708.4)

EM_CASES = [
    "random", "far_outliers", "starved_component", "one_column", "one_component",
    "vowel", "baseline",
]


def em_case(case, rng):
    """Frames, a component count and EM options for the reference comparisons."""
    if case == "random":
        return rng.standard_normal((300, 4)) * 2.0 + 1.0, 8, {}
    if case == "far_outliers":  # log-responsibilities below -746 and in the subnormal band
        X = rng.standard_normal((400, 3))
        far = rng.uniform(size=400) < 0.05
        X[far] *= rng.uniform(20.0, 80.0, (int(far.sum()), 1))
        return X, 6, {}
    if case == "starved_component":
        # single-member clusters keep the global variance and lose their own
        # frame to a duplicate cluster floored at MIN_VARIANCE by about 722
        # nats: their whole responsibility is subnormal, not zero, so they
        # are not re-seeded
        X = np.repeat(rng.standard_normal((5, 64)), 8, axis=0)
        return X, 9, {"variance_floor_factor": 1e-12}
    if case == "one_column":
        return rng.standard_normal((600, 1)) * 3.0, 5, {}
    if case == "one_component":
        return rng.standard_normal((200, 5)) + 4.0, 1, {}
    # bench shapes: on reference, one vowel model's frames (20 HLDA dims) and
    # one accent's PLP frames (39 dims), 64 components each; on frontend, one
    # accent's pool of PLP frames, 8 components and 5 iterations
    n, d, k, extra = {"vowel": (380, 20, 64, {}), "baseline": (5500, 39, 64, {}),
                      "frontend": (28000, 39, 8, {"max_iters": 5})}[case]
    blobs = rng.standard_normal((8, d)) * 3.0
    return blobs[rng.integers(0, 8, n)] + rng.standard_normal((n, d)), k, extra


def log_responsibilities(model, X):
    log_joint = component_log_densities(model, X) + np.log(model.weights)[None, :]
    return log_joint - logsumexp_rows(log_joint)[:, None]


def assert_same_bytes(model, trace, ref_model, ref_trace):
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.means.tobytes() == ref_model.means.tobytes()
    assert model.variances.tobytes() == ref_model.variances.tobytes()
    assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()


# EM sums in its own order (one product for the log-joint, unsorted frame
# sums, one product for both M-step sums), so its fits agree with the
# reference to a tolerance. Parameters are compared elementwise, relative to
# the largest magnitude in their array; the largest gaps measured over these
# tests were 2.9e-12 on the parameters and 2.6e-13 on a trace.
PARAM_RTOL = 1e-9
TRACE_RTOL = 1e-11
# variances floored at MIN_VARIANCE = 1e-10 scale a mean's rounding by 1e10
# in the log-densities: measured 4.6e-12 on the means, 4.6e-8 on the trace
STARVED_RTOL = {"trace_rtol": 1e-6}


def assert_close(model, trace, ref_model, ref_trace, param_rtol=PARAM_RTOL, trace_rtol=TRACE_RTOL):
    for name in ("weights", "means", "variances"):
        got, expected = getattr(model, name), getattr(ref_model, name)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=param_rtol * np.abs(expected).max(), err_msg=name)
    assert len(trace) == len(ref_trace)
    np.testing.assert_allclose(trace, ref_trace, rtol=trace_rtol, atol=0.0)


def case_tolerances(case):
    return STARVED_RTOL if case == "starved_component" else {}


@pytest.mark.parametrize("case", EM_CASES)
def test_em_fit_matches_reference(case):
    rng = np.random.default_rng(5)
    X, k, extra = em_case(case, rng)
    probes = np.vstack([X[:50], X[:50] * 5.0 + 3.0, rng.standard_normal((20, X.shape[1])) * 40.0])
    for seed in range(1 if case == "baseline" else 3):
        opts = EmOptions(seed=seed, **extra)
        model, trace = em_fit(X, k, opts)
        ref_model, ref_trace = reference_em_fit(X, k, opts)
        assert_close(model, trace, ref_model, ref_trace, **case_tolerances(case))
        for frames in (X, probes):
            expected = reference_frame_log_likelihoods(model, frames)
            assert frame_log_likelihoods(model, frames).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["far_outliers", "starved_component"])
def test_em_cases_reach_the_underflow_bands(case):
    X, k, extra = em_case(case, np.random.default_rng(5))
    args = log_responsibilities(naive_em_init(X, k, EmOptions(seed=0, **extra)), X)
    assert np.any(args < EXP_ZERO_BELOW)
    in_band = (args > SUBNORMAL_BAND[0]) & (args < SUBNORMAL_BAND[1])
    if case == "far_outliers":
        assert np.any(in_band)
    else:  # some component's largest responsibility is subnormal
        best = args.max(axis=0)
        assert np.any((best > SUBNORMAL_BAND[0]) & (best < SUBNORMAL_BAND[1]))


@pytest.mark.parametrize("case", ["random", "far_outliers", "one_column", "vowel"])
def test_e_step_matches_reference(case):
    # frame log-likelihoods to rounding; responsibilities to rounding, or to
    # 1e-15 where tiny, where their argument is at least EXP_CLAMP and exactly
    # +0.0 below it, and each frame's responsibilities sum to 1
    X, k, extra = em_case(case, np.random.default_rng(8))
    model = naive_em_init(X, k, EmOptions(seed=1, **extra))
    Y = np.hstack([X * X, X])
    log_joint, resp = np.empty((k, X.shape[0])), np.empty((k, X.shape[0]))
    frame_ll, inv_total = gmm._e_step(model, Y, log_joint, resp)
    np.testing.assert_allclose(frame_ll, reference_frame_log_likelihoods(model, X), rtol=1e-12, atol=0.0)
    args = log_responsibilities(model, X).T
    flushed = args - args.max(axis=0) < EXP_CLAMP
    assert np.array_equal(log_joint < EXP_CLAMP, flushed)
    assert resp[flushed].tobytes() == np.zeros(np.count_nonzero(flushed)).tobytes()  # +0.0
    np.testing.assert_allclose(resp[~flushed], np.exp(args[~flushed]), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(inv_total, 1.0 / np.exp(log_joint).sum(axis=0), rtol=1e-14, atol=0.0)
    assert flushed.any() or case != "far_outliers"


# the bound of the benchmark's check (f), in bench/checks.py
MONOTONE_TOLERANCE = 1e-9


@pytest.mark.parametrize("case", ["vowel", "baseline", "far_outliers", "frontend"])
def test_traces_pass_the_benchmark_monotone_check(case):
    # every step of an EM trace is at least -1e-9 * max(1, |t|), as the
    # traced benchmark requires of every fit it runs
    runs = 2 if case in ("baseline", "frontend") else 4
    for data_seed in range(runs):
        X, k, extra = em_case(case, np.random.default_rng(30 + data_seed))
        for seed in range(runs):
            _, trace = em_fit(X, k, EmOptions(seed=seed, **extra))
            t = np.array(trace)
            allowed = -MONOTONE_TOLERANCE * np.maximum(1.0, np.abs(t[:-1]))
            assert np.all(np.diff(t) >= allowed), f"data {data_seed}, seed {seed}: worst step {np.diff(t).min()}"


def test_frame_log_likelihoods_with_a_zero_weight_match_reference():
    # log 0 = -inf, so the zero-weight component's exp argument is -inf
    rng = np.random.default_rng(18)
    base = random_model(rng, 4, 3)
    model = GmmModel(np.array([0.0, 0.5, 0.25, 0.25]), base.means, base.variances)
    X = rng.standard_normal((30, 3)) * 10.0
    with np.errstate(divide="ignore"):
        expected = reference_frame_log_likelihoods(model, X)
        assert frame_log_likelihoods(model, X).tobytes() == expected.tobytes()


def test_exp_in_place_matches_np_exp():
    rng = np.random.default_rng(19)
    edges = np.array([-746.0, np.nextafter(-746.0, 0.0), -745.14, -745.13, -708.4, -708.39,
                      -np.inf, np.nan, 0.0, -0.0, 1.0, 700.0])
    args = np.concatenate([
        rng.uniform(-800.0, 5.0, 5000), rng.uniform(-746.5, -708.0, 5000), edges,
    ])
    rng.shuffle(args)
    for shape in ((args.size,), (args.size // 4, 4)):
        a = args[: np.prod(shape)].reshape(shape).copy()
        expected = np.exp(a)
        got = _exp_in_place(a)
        assert got is a
        assert got.tobytes() == expected.tobytes()


def test_exp_in_place_without_underflow_matches_np_exp():
    # no argument below EXP_ZERO_BELOW (NaN compares as not below): raising
    # to it changes no argument, NaN included
    rng = np.random.default_rng(22)
    for args in (rng.uniform(-746.0, 5.0, 3000), np.array([-746.0, -745.13, 0.0, -0.0]),
                 np.array([np.nan, -3.0, 1.0]), np.empty(0)):
        for shape in ((args.size,), (args.size // 2, 2) if args.size % 2 == 0 else (1, args.size)):
            a = args.reshape(shape).copy()
            expected = np.exp(a)
            got = _exp_in_place(a)
            assert got is a and got.tobytes() == expected.tobytes()


def kernel_model(rng, k, d, floored):
    """A model whose components sit on a few blobs; with floored, some
    variances sit at MIN_VARIANCE and others at a relative floor of 1e-3."""
    w = rng.uniform(0.2, 1.0, k)
    variances = rng.uniform(0.3, 2.0, (k, d))
    if floored:
        variances[rng.uniform(size=(k, d)) < 0.2] = 1e-3
        variances[rng.uniform(size=(k, d)) < 0.05] = MIN_VARIANCE
    return GmmModel(w / w.sum(), rng.uniform(-2.0, 2.0, (k, d)), variances)


@pytest.mark.parametrize("n", [1, 20, 400])
@pytest.mark.parametrize("d", [1, 20, 39])
def test_kernel_scores_match_reference(n, d):
    """Frame likelihoods and totals equal the reference bit for bit, for
    models of K = 1, 8, 64 and back, on frames with and without arguments
    below EXP_ZERO_BELOW."""
    rng = np.random.default_rng(100 * n + d)
    branches = set()
    for far in (False, True):
        X = rng.standard_normal((n, d))
        if far:
            X[rng.uniform(size=n) < 0.3] *= 40.0
        for k, floored in ((1, False), (8, False), (64, True), (8, True), (64, False)):
            model = kernel_model(rng, k, d, floored)
            expected = reference_frame_log_likelihoods(model, X)
            log_joint = component_log_densities(model, X) + np.log(model.weights)[None, :]
            branches.add(bool(np.any(log_joint - log_joint.max(axis=1, keepdims=True) < EXP_ZERO_BELOW)))
            assert frame_log_likelihoods(model, X).tobytes() == expected.tobytes()
            assert mixture_log_likelihood(model, X) == float(np.sum(expected))
    assert branches == {False, True}


@pytest.mark.parametrize("n, k", [(20, 1), (20, 8), (400, 1), (400, 8), (400, 64)])
@pytest.mark.parametrize("d", [1, 20, 39])
def test_kernel_em_fit_matches_reference(n, k, d):
    rng = np.random.default_rng(10 * n + k + d)
    X = rng.standard_normal((3, d))[rng.integers(0, 3, n)] * 3.0 + rng.standard_normal((n, d))
    opts = EmOptions(seed=k)
    model, trace = em_fit(X, k, opts)
    ref_model, ref_trace = reference_em_fit(X, k, opts)
    assert_close(model, trace, ref_model, ref_trace)


def float32_set(rng, case, d):
    """Models scored together as one float32 stack: some components
    floored (narrow), two of eight with zero weight, or a capped set of
    unequal component counts, padded to the largest."""
    if case == "floored":
        return [kernel_model(rng, 64, d, True) for _ in range(3)]
    if case == "zero_weight":
        base = kernel_model(rng, 8, d, False)
        weights = base.weights.copy()
        weights[[0, 5]] = 0.0
        return [GmmModel(weights / weights.sum(), base.means, base.variances), kernel_model(rng, 8, d, False)]
    return [kernel_model(rng, k, d, False) for k in (64, 5, 1, 17)]


@pytest.mark.parametrize("n", [1, 20, 400])
@pytest.mark.parametrize("case", ["floored", "zero_weight", "capped"])
def test_float32_stack_scores_within_the_stated_bound(n, case):
    # every frame within float32_frame_bounds of the float64 reference, and
    # every total, a float64 sum of its frames, within the sum of their bounds
    rng = np.random.default_rng(900 + n)
    for d in (1, 20, 39):
        models = float32_set(rng, case, d)
        X = rng.standard_normal((n, d)) * 1.5
        stack = stack_models(models)
        frame_ll = stacked_frame_log_likelihoods(stack, X)
        totals = stacked_log_likelihoods(stack, X)
        assert frame_ll.shape == (n, len(models)) and frame_ll.dtype == totals.dtype == np.float64
        for a, model in enumerate(models):
            with np.errstate(divide="ignore"):  # the reference takes log 0 for a zero weight
                expected = reference_frame_log_likelihoods(model, X)
            bound = float32_frame_bounds(model, X)
            assert np.all(np.abs(frame_ll[:, a] - expected) <= bound)
            assert totals[a] == frame_ll[:, a].sum()
            assert abs(totals[a] - expected.sum()) <= bound.sum()


@pytest.mark.parametrize("d", [2, 20, 39])
def test_float32_stack_scores_ignore_the_order_of_components(d):
    rng = np.random.default_rng(950 + d)
    models = float32_set(rng, "capped", d)
    X = rng.standard_normal((400, d)) * 1.5
    permuted = []
    for m in models:
        p = rng.permutation(m.n_components)
        permuted.append(GmmModel(m.weights[p], m.means[p], m.variances[p]))
    expected = stacked_frame_log_likelihoods(stack_models(models), X)
    assert stacked_frame_log_likelihoods(stack_models(permuted), X).tobytes() == expected.tobytes()


def test_stacked_scoring_refuses_other_dims():
    # the ValueError that evaluate skips an utterance on
    rng = np.random.default_rng(960)
    stack = stack_models([random_model(rng, 2, 3), random_model(rng, 4, 3)])
    with pytest.raises(ValueError, match="feature dims 4 do not match model dims 3"):
        stacked_log_likelihoods(stack, rng.standard_normal((5, 4)))
    with pytest.raises(ValueError, match="share dimensions"):
        stack_models([random_model(rng, 2, 3), random_model(rng, 2, 4)])


def test_float32_exp_stays_normal_at_the_clamp():
    # float32 np.exp gives subnormals below log(2^-126) = -87.34, and those
    # take a slow path; the clamp keeps every argument above that, at any
    # array length and position
    assert EXP_CLAMP_FLOAT32 >= -87.3 and np.float32(EXP_CLAMP_FLOAT32) > np.log(np.finfo(np.float32).tiny)
    for n in (1, 7, 8, 15, 16, 17, 64, 1001):
        out = np.exp(np.full(n, EXP_CLAMP_FLOAT32, dtype=np.float32))
        assert out.dtype == np.float32 and np.all(out >= np.finfo(np.float32).tiny)
        assert np.all(out == out[0])


# row widths around numpy's pairwise-sum blocks (8 and 128) and the
# component counts in use
LSE_WIDTHS = [1, 2, 3, 7, 8, 9, 16, 63, 64, 65, 100, 128, 200, 256, 512]


def lse_rows(rng, k, kind, rows=400):
    """Log-joint rows of width k whose shifted arguments are uniform on
    [-800, 0], uniform on the band [-760, -690] around EXP_CLAMP, or a slow
    ladder: steps down through the subnormal band in runs of four equal
    values. One argument per row is 0, and each row gets a random shift."""
    if kind == "uniform":
        args = rng.uniform(-800.0, 0.0, (rows, k))
    elif kind == "band":
        args = rng.uniform(-760.0, -690.0, (rows, k))
    else:
        steps = rng.uniform(0.01, 1.0, (rows, 1)) * 60.0 / max(k // 4, 1)
        args = rng.uniform(-712.0, -698.0, (rows, 1)) - (np.arange(k) // 4) * steps
    args[np.arange(rows), rng.integers(0, k, rows)] = 0.0
    return args + rng.uniform(-50.0, 50.0, (rows, 1))


@pytest.mark.parametrize("k", LSE_WIDTHS)
def test_clamped_logsumexp_matches_exact_exp(k):
    # arguments below EXP_CLAMP are raised to it before exp; the totals keep
    # the bits of the exact exp, which the masked exp at -746 reproduces
    rng = np.random.default_rng(700 + k)
    for kind in ("uniform", "band", "ladder"):
        z = lse_rows(rng, k, kind)
        if k > 1:
            assert np.any(z - z.max(axis=1, keepdims=True) < EXP_CLAMP)
        expected = logsumexp_rows(z)
        assert gmm._logsumexp_rows(z.copy()).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", LSE_WIDTHS)
def test_frame_log_likelihoods_across_the_clamp_match_reference(k):
    # one- and two-dimensional models whose components sit far apart, so
    # that the shifted arguments spread over [-900, 0], across EXP_CLAMP
    rng = np.random.default_rng(800 + k)
    for d in (1, 2):
        X = rng.uniform(0.0, 30.0, (300, d))
        w = rng.uniform(0.2, 1.0, k)
        means = rng.uniform(0.0, 30.0, (k, d))
        means[:, 0] = rng.permutation(np.linspace(0.0, 30.0, k))
        model = GmmModel(w / w.sum(), means, rng.uniform(0.4, 0.6, (k, d)))
        if k > 1:
            args = log_responsibilities(model, X)
            assert np.any(args < EXP_CLAMP) and np.any((args > SUBNORMAL_BAND[0]) & (args < EXP_CLAMP))
        expected = reference_frame_log_likelihoods(model, X)
        assert frame_log_likelihoods(model, X).tobytes() == expected.tobytes()


def spy_on_exact_redo(monkeypatch):
    """Record each call of _exp_in_place, which only EM's exact redo makes."""
    calls = []
    real = gmm._exp_in_place
    monkeypatch.setattr(gmm, "_exp_in_place", lambda a: calls.append(1) or real(a))
    return calls


@pytest.mark.parametrize("case, taken", [
    ("starved_component", True), ("far_outliers", False), ("vowel", False),
])
def test_m_step_falls_back_to_exact_responsibilities(monkeypatch, case, taken):
    # responsibilities below exp(EXP_CLAMP) are flushed to +0.0; a starved
    # component's whole responsibility is flushed, so its M-step is redone
    # with the exact responsibilities
    X, k, extra = em_case(case, np.random.default_rng(5))
    opts = EmOptions(seed=0, **extra)
    redone = spy_on_exact_redo(monkeypatch)
    model, trace = em_fit(X, k, opts)
    monkeypatch.undo()
    assert_close(model, trace, *reference_em_fit(X, k, opts), **case_tolerances(case))
    assert bool(redone) == taken


@pytest.mark.parametrize("column", [2, -1])
def test_all_zero_column_takes_no_exact_redo(monkeypatch, column):
    # a column of zeros (here +0.0 or -0.0) gives sums of exactly 0 on the
    # flushed and the exact path alike, so it must not send every M-step
    # down the exact path
    X = np.random.default_rng(25).standard_normal((2000, 5))
    X[:, 2] = 0.0 if column > 0 else -0.0
    opts = EmOptions(seed=0, max_iters=50, rel_tol=1e-300)
    redone = spy_on_exact_redo(monkeypatch)
    model, trace = em_fit(X, 16, opts)
    monkeypatch.undo()
    assert len(trace) == 51 and not redone
    assert_close(model, trace, *reference_em_fit(X, 16, opts))


def count_lloyd_iterations(monkeypatch):
    """Count the member-mean updates of _kmeans, one per Lloyd iteration."""
    calls = []
    real = gmm._cluster_sums
    monkeypatch.setattr(gmm, "_cluster_sums", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("case, iters, ran", [
    ("vowel", 10, 5), ("duplicates", 10, 2), ("baseline", 10, 10), ("spread", 1, 1),
])
def test_kmeans_stops_at_its_fixed_point(monkeypatch, case, iters, ran):
    # an iteration that leaves the centers unchanged, byte for byte, is
    # repeated by every later one, so stopping there returns the same result
    X, k = start_case(case, np.random.default_rng(3))
    calls = count_lloyd_iterations(monkeypatch)
    centers, labels = _kmeans(X, k, np.random.default_rng(0), iters)
    monkeypatch.undo()
    assert len(calls) == ran
    ref_centers, ref_labels = scan_kmeans(X, k, np.random.default_rng(0), iters)
    assert centers.tobytes() == ref_centers.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()


def test_model_arrays_and_terms_cannot_change():
    rng = np.random.default_rng(23)
    weights, means, variances = np.array([0.25, 0.75]), rng.standard_normal((2, 3)), np.ones((2, 3))
    model = GmmModel(weights, means, variances)
    X = rng.standard_normal((10, 3))
    before = frame_log_likelihoods(model, X)
    for arr in (model.weights, model.means, model.variances, *model._terms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for name in ("weights", "means", "variances", "_terms"):
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name))
    # the caller's arrays stay writable, and writing them leaves the model alone
    means[:] = 5.0
    variances[:] = 9.0
    assert frame_log_likelihoods(model, X).tobytes() == before.tobytes()


class _RecordingNumpy:
    """numpy, with every array made by empty or empty_like remembered."""

    def __init__(self):
        self.made = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.made.append(np.empty(*args, **kwargs))
        return self.made[-1]

    def empty_like(self, *args, **kwargs):
        self.made.append(np.empty_like(*args, **kwargs))
        return self.made[-1]


def test_em_fit_returns_fresh_arrays(monkeypatch):
    X, k, _ = em_case("random", np.random.default_rng(6))
    opts = EmOptions(seed=2)
    first, first_trace = em_fit(X, k, opts)
    recording = _RecordingNumpy()
    monkeypatch.setattr(gmm, "np", recording)
    second, second_trace = em_fit(X, k, opts)
    monkeypatch.undo()
    assert_same_bytes(second, second_trace, first, first_trace)
    assert len(recording.made) >= 5  # the E-step and M-step work buffers
    returned = (second.weights, second.means, second.variances)
    for arr in returned:
        assert not any(np.shares_memory(arr, buf) for buf in recording.made)
        assert not any(np.shares_memory(arr, old) for old in (first.weights, first.means, first.variances))


def test_np_exp_is_positive_zero_below_threshold():
    # EM's exact redo raises arguments below EXP_ZERO_BELOW to it, which is
    # bit-identical only while numpy's exp returns +0.0 at and below it
    rng = np.random.default_rng(20)
    args = np.concatenate([
        np.linspace(-1000.0, EXP_ZERO_BELOW, 200_001),
        -np.geomspace(1000.0, 1e300, 200_001),
        -rng.uniform(-EXP_ZERO_BELOW, 1e4, 100_000),
        [EXP_ZERO_BELOW, -np.inf, -1e300, -np.finfo(np.float64).max],
    ])
    assert np.all(args <= EXP_ZERO_BELOW)
    result = np.exp(args)
    assert result.tobytes() == np.zeros_like(args).tobytes()  # +0.0, sign bit clear
    for x in (EXP_ZERO_BELOW, -1e300, -np.inf):
        assert np.exp(np.float64(x)) == 0.0 and not np.signbit(np.exp(np.float64(x)))


def test_clamped_exp_minus_its_value_is_positive_zero():
    # the E-step flushes clamped entries by subtracting EXP_CLAMPED, which
    # gives +0.0 only while np.exp returns that value at EXP_CLAMP in every
    # position of an array
    clamped = np.exp(np.full(1001, EXP_CLAMP))
    assert (clamped - EXP_CLAMPED).tobytes() == np.zeros(1001).tobytes()
    assert EXP_CLAMPED == math.exp(EXP_CLAMP) and EXP_CLAMPED > 2.0 ** -1022  # a normal number


def test_np_exp_ignores_neighbours():
    # each element's exp is the same whatever surrounds it in the array
    rng = np.random.default_rng(21)
    args = np.concatenate([
        rng.uniform(-800.0, 0.0, 3000), rng.uniform(-746.5, -708.0, 3000),
        rng.uniform(-50.0, 50.0, 1000), [-np.inf, -746.0, -745.13, 0.0, -0.0, np.nan],
    ])
    rng.shuffle(args)
    whole = np.exp(args)
    one_by_one = np.array([np.exp(args[i: i + 1])[0] for i in range(args.size)])
    strided = np.exp(args[::3])
    assert whole.tobytes() == one_by_one.tobytes()
    assert strided.tobytes() == whole[::3].tobytes()
    for block in (7, 64, 1000):
        pieces = np.concatenate([np.exp(args[i: i + block]) for i in range(0, args.size, block)])
        assert pieces.tobytes() == whole.tobytes()


def draw_vectors(rng):
    """Weight vectors for the seeding draw: squared distances of many scales,
    zero entries, and a single non-zero entry."""
    vectors = []
    for _ in range(400):
        w = rng.standard_normal(int(rng.integers(1, 60))) ** 2 * 10.0 ** rng.uniform(-8, 8)
        w[rng.uniform(size=w.size) < 0.3] = 0.0
        vectors.append(w)
    for n in (1, 2, 9):
        for j in range(n):
            w = np.zeros(n)
            w[j] = rng.uniform(0.1, 5.0)
            vectors.append(w)
    return [w for w in vectors if w.any()]


def test_seeding_draw_matches_rng_choice():
    gen = np.random.default_rng(15)
    a, b = np.random.default_rng(16), np.random.default_rng(16)
    for w in draw_vectors(gen):
        p = w / float(w.sum())
        assert _draw_index(a, p) == b.choice(p.size, p=p)
        assert a.bit_generator.state == b.bit_generator.state


def test_seeding_draw_renormalizes_like_rng_choice():
    # p sums to 1 - 1e-8, which rng.choice accepts; seed 0 draws
    # 1 - 1.6e-9 at this position, past the last entry of p's own cumsum
    p = np.array([0.5, 0.5 - 1e-8])
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    a.bit_generator.advance(14_817_372)
    b.bit_generator.advance(14_817_372)
    assert b.choice(2, p=p) == 1
    assert _draw_index(a, p) == 1
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_rejected_up_front(bad):
    X = np.random.default_rng(17).standard_normal((40, 3))
    X[7, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            em_fit(X, 4, EmOptions(seed=0))


def test_overflowing_distances_rejected():
    X = np.array([[1e200], [-1e200], [0.0], [1.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        _kmeans(X, 3, np.random.default_rng(0))


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


def gmm_file(header, weights, means, variances):
    values = np.concatenate([np.ravel(weights), np.ravel(means), np.ravel(variances)])
    return header + b"\n" + values.astype("<f8").tobytes()


ONE_COMPONENT = gmm_file(b"ACGMM1 1 2", [1.0], [0.0, 1.0], [1.0, 2.0])


DAMAGED_GMM = {
    "empty": b"",
    "non_utf8_header": b"ACGMM1 \xff\xfe 2\n" + ONE_COMPONENT[11:],
    "non_numeric_count": b"ACGMM1 x 2\n" + ONE_COMPONENT[11:],
    "negative_count": b"ACGMM1 -1 2\n" + ONE_COMPONENT[11:],
    "zero_dims": b"ACGMM1 1 0\n" + b"\x00" * 8,
    "extra_field": b"ACGMM1 1 2 3\n" + ONE_COMPONENT[11:],
    "trailing_bytes": ONE_COMPONENT + b"\x00",
    "zero_weights": gmm_file(b"ACGMM1 2 1", [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]),
    "nan_mean": gmm_file(b"ACGMM1 1 2", [1.0], [np.nan, 1.0], [1.0, 2.0]),
    "nan_weight": gmm_file(b"ACGMM1 1 2", [np.nan], [0.0, 1.0], [1.0, 2.0]),
    "zero_variance": gmm_file(b"ACGMM1 1 2", [1.0], [0.0, 1.0], [0.0, 2.0]),
}


@pytest.mark.parametrize("name", DAMAGED_GMM)
def test_load_gmm_rejects_damaged_files(tmp_path, name):
    path = tmp_path / f"{name}.gmm"
    path.write_bytes(DAMAGED_GMM[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"{name}.gmm"):
            load_gmm(path)


def test_well_formed_file_loads(tmp_path):
    path = tmp_path / "m.gmm"
    path.write_bytes(ONE_COMPONENT)
    model = load_gmm(path)
    assert model.means.tolist() == [[0.0, 1.0]] and model.variances.tolist() == [[1.0, 2.0]]


def test_frame_log_likelihoods_shape():
    rng = np.random.default_rng(14)
    model = random_model(rng, 3, 2)
    X = rng.standard_normal((7, 2))
    ll = frame_log_likelihoods(model, X)
    assert ll.shape == (7,)
    assert np.isfinite(ll).all()
