import math

import numpy as np
import pytest
import scipy.signal

from accent_forge.audio import AudioBuffer
from accent_forge.errors import DataError
from accent_forge.features import (
    ENERGY_FLOOR,
    FeatureMatrix,
    PlpConfig,
    append_deltas,
    bark_filterbank,
    context_expand,
    equal_loudness,
    hz_to_bark,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)


# ---------------------------------------------------------------------------
# reference implementation of the static recipe, written with scalar loops
# and direct summations so it shares no code path with the production one
# ---------------------------------------------------------------------------

def naive_plp_frame(frame, sr, cfg: PlpConfig):
    n = len(frame)
    n_fft = 1
    while n_fft < n:
        n_fft *= 2
    windowed = [
        frame[i] * (0.54 - 0.46 * math.cos(2 * math.pi * i / (n - 1))) for i in range(n)
    ]
    padded = list(windowed) + [0.0] * (n_fft - n)
    power = []
    for k in range(n_fft // 2 + 1):
        re = sum(padded[t] * math.cos(2 * math.pi * k * t / n_fft) for t in range(n_fft))
        im = -sum(padded[t] * math.sin(2 * math.pi * k * t / n_fft) for t in range(n_fft))
        power.append(re * re + im * im)

    nyq_bark = 6 * math.asinh(sr / 2 / 600)
    n_bands = cfg.num_bark_bands or (math.ceil(nyq_bark) + 1)
    centers = [i * nyq_bark / (n_bands - 1) for i in range(n_bands)]
    bands = []
    for c in centers:
        total = 0.0
        for k in range(n_fft // 2 + 1):
            bk = 6 * math.asinh(k * sr / n_fft / 600)
            rel = bk - c
            w = 10 ** min(0.0, min(rel + 0.5, -2.5 * (rel - 0.5)))
            total += w * power[k]
        bands.append(total)

    comp = []
    for c, b in zip(centers, bands):
        hz = 600 * math.sinh(c / 6)
        fsq = hz * hz
        eql = (fsq / (fsq + 1.6e5)) ** 2 * ((fsq + 1.44e6) / (fsq + 9.61e6))
        comp.append((b * eql) ** 0.33)
    comp[0] = comp[1]
    comp[-1] = comp[-2]

    # autocorrelation from the even spectral extension, by direct cosine sums
    ext = comp + comp[-2:0:-1]
    L = len(ext)
    r = [
        sum(ext[j] * math.cos(2 * math.pi * q * j / L) for j in range(L)) / L
        for q in range(cfg.lp_order + 1)
    ]
    if r[0] <= ENERGY_FLOOR:
        return [math.log(ENERGY_FLOOR)] + [0.0] * (cfg.num_cepstra - 1)

    # textbook Levinson-Durbin
    a = [1.0] + [0.0] * cfg.lp_order
    err = r[0]
    for i in range(1, cfg.lp_order + 1):
        acc = r[i] + sum(a[j] * r[i - j] for j in range(1, i))
        k = -acc / err
        new_a = a[:]
        for j in range(1, i):
            new_a[j] = a[j] + k * a[i - j]
        new_a[i] = k
        a = new_a
        err *= 1 - k * k

    ceps = [math.log(max(err, ENERGY_FLOOR))] + [0.0] * (cfg.num_cepstra - 1)
    for q in range(1, cfg.num_cepstra):
        acc = sum((q - p) * a[p] * ceps[q - p] for p in range(1, q))
        ceps[q] = -(a[q] + acc / q)
    return ceps


def two_formant_tone(f1, f2, sr=8000, seconds=0.5, seed=0):
    rng = np.random.default_rng(seed)
    n = int(sr * seconds)
    source = np.zeros(n)
    source[:: sr // 120] = 1.0
    source += 0.01 * rng.standard_normal(n)
    out = np.zeros(n)
    for freq in (f1, f2):
        r = np.exp(-np.pi * 100 / sr)
        theta = 2 * np.pi * freq / sr
        out += scipy.signal.lfilter([1 - r], [1, -2 * r * np.cos(theta), r * r], source)
    return AudioBuffer(0.3 * out / np.max(np.abs(out)), sr)


class TestPlpStatic:
    def test_matches_naive_recipe(self):
        cfg = PlpConfig()
        rng = np.random.default_rng(4)
        audio = AudioBuffer(0.2 * rng.standard_normal(1600), 8000)  # a few frames
        feats = plp_static(audio, cfg)
        emphasized = np.concatenate(
            ([audio.samples[0]], audio.samples[1:] - cfg.preemphasis * audio.samples[:-1])
        )
        frame_len = int(round(cfg.frame_len_ms * 8000 / 1000))
        hop = int(round(cfg.hop_ms * 8000 / 1000))
        for i in range(feats.n_frames):
            frame = emphasized[i * hop: i * hop + frame_len]
            oracle = naive_plp_frame(list(frame), 8000, cfg)
            np.testing.assert_allclose(feats.values[i], oracle, atol=1e-8)

    def test_silence_floor_vector(self):
        feats = plp_static(AudioBuffer(np.zeros(4000), 8000), PlpConfig())
        expected = np.zeros(13)
        expected[0] = np.log(ENERGY_FLOOR)
        assert np.all(feats.values == expected)

    def test_white_noise_sane(self):
        rng = np.random.default_rng(5)
        feats = plp_static(AudioBuffer(0.1 * rng.standard_normal(8000), 8000), PlpConfig())
        assert np.all(np.isfinite(feats.values))
        assert np.max(np.abs(feats.values)) < 100.0

    def test_formant_pairs_separate(self):
        cfg = PlpConfig()
        low_a = plp_static(two_formant_tone(500, 1500, seed=1), cfg).values.mean(axis=0)
        low_b = plp_static(two_formant_tone(500, 1500, seed=2), cfg).values.mean(axis=0)
        high = plp_static(two_formant_tone(2000, 3000, seed=3), cfg).values.mean(axis=0)
        across = np.linalg.norm(low_a - high)
        within = np.linalg.norm(low_a - low_b)
        assert across > within

    def test_gain_covariance_c0_only(self):
        rng = np.random.default_rng(6)
        x = 0.1 * rng.standard_normal(4000)
        base = plp_static(AudioBuffer(x, 8000), PlpConfig()).values
        scaled = plp_static(AudioBuffer(3 * x, 8000), PlpConfig()).values
        offsets = scaled[:, 0] - base[:, 0]
        assert np.ptp(offsets) < 1e-9  # constant shift per frame
        np.testing.assert_allclose(scaled[:, 1:], base[:, 1:], atol=1e-6)

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError):
            plp_static(AudioBuffer(np.zeros(1000), 4000), PlpConfig())

    def test_timing_metadata(self):
        feats = plp_static(AudioBuffer(np.zeros(4000), 8000), PlpConfig(), "u1")
        assert feats.utterance_id == "u1"
        assert feats.start_ms == 12.5
        assert feats.hop_ms == 10.0


def test_bark_filterbank_shapes():
    weights, centers = bark_filterbank(256, 8000)
    assert weights.shape[1] == 129
    assert weights.shape[0] == math.ceil(hz_to_bark(4000)) + 1 == len(centers)
    assert np.all(weights >= 0) and np.all(weights <= 1.0 + 1e-12)
    assert equal_loudness(0.0) == 0.0


class TestDeltas:
    def test_constant_sequence(self):
        f = FeatureMatrix(np.ones((10, 3)))
        out = append_deltas(f, 2)
        assert out.dims == 9
        assert np.all(out.values[:, 3:] == 0.0)

    def test_linear_ramp(self):
        t = np.arange(12, dtype=float)[:, None]
        out = append_deltas(FeatureMatrix(t), 2).values
        interior = slice(2, -2)
        np.testing.assert_allclose(out[interior, 1], 1.0)
        np.testing.assert_allclose(out[4:-4, 2], 0.0, atol=1e-12)

    def test_matches_regression_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((10, 4))
        window = 2
        out = append_deltas(FeatureMatrix(values), window).values
        padded = np.vstack([values[:1]] * window + [values] + [values[-1:]] * window)
        denom = 2 * sum(d * d for d in range(1, window + 1))
        for t in range(10):
            delta = sum(
                d * (padded[window + t + d] - padded[window + t - d])
                for d in range(1, window + 1)
            ) / denom
            np.testing.assert_allclose(out[t, 4:8], delta, atol=1e-12)

    def test_reversal_antisymmetry_exact(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((14, 3))
        fwd = append_deltas(FeatureMatrix(values), 2).values
        rev = append_deltas(FeatureMatrix(values[::-1]), 2).values
        assert np.array_equal(rev[:, 3:6], -fwd[::-1, 3:6])
        assert np.array_equal(rev[:, 6:9], fwd[::-1, 6:9])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            append_deltas(FeatureMatrix(np.zeros((0, 3))), 2)


class TestMvn:
    def test_moments(self):
        rng = np.random.default_rng(10)
        out = mvn(FeatureMatrix(rng.standard_normal((50, 6)) * 3 + 1)).values
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.var(axis=0) - 1)) < 1e-8

    def test_constant_dimension_zeroed(self):
        values = np.column_stack([np.full(5, 7.0), np.arange(5, dtype=float)])
        out = mvn(FeatureMatrix(values)).values
        assert np.all(out[:, 0] == 0.0)

    def test_three_frame_hand_case(self):
        out = mvn(FeatureMatrix(np.array([[1.0], [2.0], [3.0]]))).values[:, 0]
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        f = FeatureMatrix(rng.standard_normal((30, 5)))
        once = mvn(f).values
        twice = mvn(mvn(f)).values
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_single_frame(self):
        out = mvn(FeatureMatrix(np.array([[3.0, -1.0]]))).values
        assert np.all(out == 0.0)


class TestContextExpand:
    def test_identity(self):
        rng = np.random.default_rng(13)
        f = FeatureMatrix(rng.standard_normal((5, 4)))
        assert np.array_equal(context_expand(f, 0).values, f.values)

    def test_dims_39_to_117(self):
        f = FeatureMatrix(np.zeros((6, 39)))
        assert context_expand(f, 1).dims == 117

    def test_two_frame_edge_replication(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        out = context_expand(FeatureMatrix(np.vstack([a, b])), 1).values
        assert np.array_equal(out[0], np.concatenate([a, a, b]))
        assert np.array_equal(out[1], np.concatenate([a, b, b]))

    @pytest.mark.parametrize("context", range(4))
    @pytest.mark.parametrize("t", range(7))
    def test_matches_the_clipped_gather(self, t, context):
        values = np.random.default_rng(100 + t).standard_normal((t, 3))
        index = np.arange(t)
        expected = np.hstack([values[np.clip(index + offset, 0, t - 1)] if t else np.empty((0, 3))
                              for offset in range(-context, context + 1)])
        f = FeatureMatrix(values)
        assert context_expand(f, context).values.tobytes() == expected.tobytes()
        out = np.full((t, 3 * (2 * context + 1)), np.nan)
        result = context_expand(f, context, out=out)
        assert result.values is out and out.tobytes() == expected.tobytes()


def test_full_chain_dimensions():
    rng = np.random.default_rng(14)
    audio = AudioBuffer(0.1 * rng.standard_normal(8000), 8000)
    static = plp_static(audio, PlpConfig())
    assert static.dims == 13
    full = mvn(append_deltas(static, 2))
    assert full.dims == 39
    assert context_expand(full, 1).dims == 117


def test_archive_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    orig = FeatureMatrix(rng.standard_normal((7, 5)), "utt1", 12.5, 10.0)
    path = tmp_path / "a.feat"
    write_feature_archive(path, orig)
    back = read_feature_archive(path)
    assert back.utterance_id == "utt1"
    assert np.array_equal(orig.values, back.values)
    assert (back.start_ms, back.hop_ms) == (orig.start_ms, orig.hop_ms)
    first = path.read_bytes()
    write_feature_archive(path, back)
    assert path.read_bytes() == first


def test_archive_errors(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOTMAGIC x 1 1 0 0\n" + b"\x00" * 8)
    with pytest.raises(DataError):
        read_feature_archive(path)
    with pytest.raises(ValueError):
        write_feature_archive(tmp_path / "x.feat", FeatureMatrix(np.zeros((1, 1)), "has space"))
