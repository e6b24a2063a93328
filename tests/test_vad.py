import numpy as np
import pytest
import scipy.signal

from accent_forge.audio import AudioBuffer, frame_signal
from accent_forge.errors import DataError
from accent_forge.vad import (
    SpeechMask,
    VadConfig,
    _centroids,
    _drop_short_runs,
    estimate_threshold,
    load_mask,
    masked_speech,
    median_smooth,
    remove_silence,
    save_mask,
)
from signal_reference import Spectrum, magnitude_spectrum, short_time_energy, spectral_centroid


def speech_plus_silence(speech_s=7, silence_s=3, sr=8000, seed=3):
    """Band-limited noise followed by low-frequency near-silence."""
    rng = np.random.default_rng(seed)
    b, a = scipy.signal.butter(4, [300 / (sr / 2), 3400 / (sr / 2)], "bandpass")
    speech = scipy.signal.lfilter(b, a, rng.standard_normal(speech_s * sr))
    speech *= 0.3 / np.sqrt(np.mean(speech**2))
    rumble = np.cumsum(rng.standard_normal(silence_s * sr))
    rumble -= rumble.mean()
    rumble *= 1e-4 / np.max(np.abs(rumble))
    return AudioBuffer(np.concatenate([speech, rumble]), sr)


class TestShortTimeEnergy:
    def test_zeros(self):
        assert short_time_energy(np.zeros(100)) == 0.0

    def test_ones(self):
        assert short_time_energy(np.ones(57)) == 1.0

    def test_sine(self):
        n = 400
        frame = 0.8 * np.sin(2 * np.pi * np.arange(n) / n)
        oracle = sum(abs(v) ** 2 for v in frame) / n
        assert short_time_energy(frame) == pytest.approx(0.32, abs=1e-3)
        assert short_time_energy(frame) == pytest.approx(oracle, abs=1e-12)

    def test_quadratic_scaling_exact(self):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(80)
        assert short_time_energy(2 * frame) == 4.0 * short_time_energy(frame)


def centroid(mags) -> float:
    """vad's centroid of one spectrum, checked against the naive formula."""
    spec = Spectrum(mags)
    batched = float(_centroids(spec.magnitudes[None, :])[0])
    assert batched == spectral_centroid(spec)
    return batched


class TestSpectralCentroid:
    def test_single_bin(self):
        mags = np.zeros(64)
        mags[9] = 5.0  # 1-based bin 10
        assert centroid(mags) == 11.0

    def test_flat(self):
        k = 33
        assert centroid(np.ones(k)) == pytest.approx((k + 3) / 2)

    def test_two_equal_bins(self):
        mags = np.zeros(16)
        mags[1] = mags[7] = 2.0  # 1-based bins 2 and 8
        assert centroid(mags) == 6.0

    def test_all_zero_convention(self):
        assert centroid(np.zeros(10)) == 0.0

    def test_gain_invariance(self):
        rng = np.random.default_rng(1)
        x = 0.05 * rng.standard_normal(8000)
        fs1 = frame_signal(AudioBuffer(x, 8000), 50, 25)
        fs10 = frame_signal(AudioBuffer(10 * x, 8000), 50, 25)
        c1 = [centroid(magnitude_spectrum(f).magnitudes) for f in fs1.frames]
        c10 = [centroid(magnitude_spectrum(f).magnitudes) for f in fs10.frames]
        np.testing.assert_allclose(c10, c1, rtol=1e-12)


class TestMedianSmooth:
    def test_window_one_identity(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(median_smooth(values, 1), values)

    def test_spike_removed(self):
        assert np.array_equal(median_smooth([0, 0, 9, 0, 0], 3), np.zeros(5))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(50)
        window = 5
        half = window // 2
        oracle = [
            np.median(values[max(0, i - half): min(50, i + half + 1)]) for i in range(50)
        ]
        assert np.allclose(median_smooth(values, window), oracle)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            median_smooth([1.0, 2.0], 2)

    def test_short_sequence_right_edge(self):
        assert median_smooth([3.0, 7.0, 1.0], 5).tolist() == [3.0, 3.0, 3.0]

    @pytest.mark.parametrize("window", [3, 5, 7, 9])
    def test_every_length_matches_window_medians(self, window):
        # lengths below the window give every position a truncated window
        rng = np.random.default_rng(window)
        half = window // 2
        for n in range(2 * window + 1):
            values = rng.standard_normal(n)
            oracle = np.array([
                np.median(values[max(0, i - half): min(n, i + half + 1)]) for i in range(n)
            ])
            assert median_smooth(values, window).tobytes() == oracle.tobytes(), n


class TestEstimateThreshold:
    def test_bimodal(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            0.1 + 0.005 * rng.standard_normal(300),
            0.9 + 0.005 * rng.standard_normal(200),
        ])
        n_bins = max(10, int(np.ceil(np.sqrt(values.size))))
        bin_width = (values.max() - values.min()) / n_bins
        expected = (5 * 0.1 + 0.9) / 6
        assert estimate_threshold(values, 5.0) == pytest.approx(expected, abs=bin_width)

    def test_constant_fallback(self):
        assert estimate_threshold(np.full(40, 2.5), 5.0) == 2.5

    def test_weight_zero_gives_second_mode(self):
        rng = np.random.default_rng(6)
        values = np.concatenate([
            0.1 + 0.004 * rng.standard_normal(400),
            0.9 + 0.004 * rng.standard_normal(300),
        ])
        n_bins = max(10, int(np.ceil(np.sqrt(values.size))))
        bin_width = (values.max() - values.min()) / n_bins
        assert estimate_threshold(values, 0.0) == pytest.approx(0.9, abs=bin_width)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            estimate_threshold([1.0], 5.0)


class TestRemoveSilence:
    def test_all_zero_input(self):
        speech, mask, rate = remove_silence(AudioBuffer(np.zeros(8000), 8000), VadConfig())
        assert rate == 0.0
        assert speech.samples.size == 0
        assert not mask.keep.any()

    def test_speech_silence_rate_and_boundary(self):
        audio = speech_plus_silence()
        speech, mask, rate = remove_silence(audio, VadConfig())
        assert 0.65 <= rate <= 0.78
        kept = np.flatnonzero(mask.keep)
        boundary = int(7 * 1000 / 25)  # expected last kept frame index + 1
        assert abs(kept[0] - 0) <= 2
        assert abs((kept[-1] + 1) - boundary) <= 2
        assert rate == mask.keep.sum() / mask.n_frames
        assert speech.samples.size == mask.keep.sum() * mask.hop

    def test_short_audio_unchanged(self):
        audio = AudioBuffer(0.1 * np.ones(100), 8000)  # shorter than one 50 ms frame
        out, mask, rate = remove_silence(audio, VadConfig())
        assert rate == 1.0
        assert np.array_equal(out.samples, audio.samples)

    def test_rate_bounds_and_energy_doubling(self):
        audio = speech_plus_silence(seed=11)
        _, _, rate = remove_silence(audio, VadConfig())
        assert 0.0 <= rate <= 1.0

    def test_empty_audio_rejected(self):
        with pytest.raises(DataError):
            remove_silence(AudioBuffer(np.zeros(0), 8000), VadConfig())

    def test_min_segment_drops_blips(self):
        # a 75 ms burst survives smoothing (3 frames) but not the run-length rule
        sr = 8000
        audio = speech_plus_silence(speech_s=2, silence_s=4, seed=2)
        x = audio.samples.copy()
        blip_start = 4 * sr  # the middle of the silent tail
        rng = np.random.default_rng(9)
        b, a = scipy.signal.butter(4, [300 / (sr / 2), 3400 / (sr / 2)], "bandpass")
        burst = scipy.signal.lfilter(b, a, rng.standard_normal(600))
        x[blip_start: blip_start + 600] = 0.4 * burst / np.max(np.abs(burst))
        _, mask, _ = remove_silence(AudioBuffer(x, sr), VadConfig())
        frame_at = lambda t_s: int(t_s * 1000 / 25)
        assert mask.keep[: frame_at(1.8)].mean() > 0.8  # speech largely kept
        assert not mask.keep[frame_at(3.8): frame_at(4.3)].any()  # blip removed


    def test_energy_rule_alone_when_joint_rule_keeps_nothing(self):
        # a loud low tone and quiet white noise: the tone's frames clear the
        # energy threshold but sit below the centroid threshold, the noise's
        # frames the other way round, so no frame clears both
        sr, cfg = 8000, VadConfig()
        rng = np.random.default_rng(5)
        tone = 0.5 * np.sin(2 * np.pi * 300 * np.arange(2 * sr) / sr)
        noise = lambda: 1e-3 * rng.standard_normal(sr)
        audio = AudioBuffer(np.concatenate([noise(), tone, noise(), tone, noise()]), sr)

        fs = frame_signal(audio, cfg.frame_len_ms, cfg.hop_ms)
        smooth = lambda v: median_smooth(median_smooth(v, cfg.smooth_window), cfg.smooth_window)
        energy_s = smooth(np.mean(fs.frames * fs.frames, axis=1))
        centroid_s = smooth(_centroids(np.abs(np.fft.rfft(fs.frames, axis=1))))
        loud = energy_s >= estimate_threshold(energy_s, cfg.threshold_weight)
        bright = centroid_s >= estimate_threshold(centroid_s, cfg.threshold_weight)
        assert not (loud & bright).any()

        speech, mask, rate = remove_silence(audio, cfg)
        assert np.array_equal(mask.keep, _drop_short_runs(loud, 4))
        frame_at = lambda t_s: int(t_s * 1000 / 25)
        assert mask.keep[frame_at(1.2): frame_at(2.8)].all()  # first tone
        assert mask.keep[frame_at(4.2): frame_at(5.8)].all()  # second tone
        assert not mask.keep[: frame_at(0.8)].any()
        assert not mask.keep[frame_at(3.2): frame_at(3.8)].any()
        assert 0.5 < rate < 0.65
        assert speech.samples.size == mask.keep.sum() * mask.hop


def scan_drop_short_runs(keep, min_frames):
    """Reference run-length filter: a left-to-right scan, one frame at a time."""
    keep = keep.copy()
    i = 0
    while i < keep.size:
        if keep[i]:
            j = i
            while j < keep.size and keep[j]:
                j += 1
            if j - i < min_frames:
                keep[i:j] = False
            i = j
        else:
            i += 1
    return keep


class TestWholeMatrixSteps:
    """The batched silence-removal steps equal their per-frame definitions."""

    def test_batched_centroid_equals_per_frame(self):
        rng = np.random.default_rng(21)
        x = 0.2 * rng.standard_normal(16000)
        x[4000:6000] = 0.0  # several all-zero frames
        fs = frame_signal(AudioBuffer(x, 8000), 50, 25)
        batched = _centroids(np.abs(np.fft.rfft(fs.frames, axis=1)))
        per_frame = np.array([spectral_centroid(magnitude_spectrum(f)) for f in fs.frames])
        assert np.count_nonzero(per_frame == 0.0) >= 3
        assert np.array_equal(batched, per_frame)

    def test_drop_short_runs_equals_scan(self):
        rng = np.random.default_rng(22)
        masks = [rng.random(n) < p for n in (1, 2, 7, 40, 300) for p in (0.3, 0.6, 0.9)]
        masks += [
            np.ones(9, dtype=bool),
            np.zeros(9, dtype=bool),
            np.zeros(0, dtype=bool),
            np.array([True, True, False, False, True]),  # runs touching both ends
            np.array([True, False, True, True, True, False, True, True]),
        ]
        for keep in masks:
            before = keep.copy()
            for min_frames in (1, 2, 3, 4, 10):
                assert np.array_equal(
                    _drop_short_runs(keep, min_frames), scan_drop_short_runs(keep, min_frames)
                )
            assert np.array_equal(keep, before)

    @pytest.mark.parametrize("cfg", [VadConfig(), VadConfig(frame_len_ms=20, hop_ms=35)])
    def test_speech_is_concatenated_hop_slices(self, cfg):
        audio = speech_plus_silence(speech_s=3, silence_s=2, seed=4)
        x = audio.samples
        speech, mask, _ = remove_silence(audio, cfg)
        assert 0 < mask.keep.sum() < mask.n_frames
        hop = mask.hop
        pieces = [x[i * hop: min(i * hop + hop, x.size)] for i in np.flatnonzero(mask.keep)]
        assert np.array_equal(speech.samples, np.concatenate(pieces))

    @pytest.mark.parametrize("cfg", [VadConfig(), VadConfig(frame_len_ms=20, hop_ms=35)])
    @pytest.mark.parametrize(
        "length", ["half_frame", "one_frame", "one_frame_plus_one", "two_frames", "two_frames_plus_one", "long"]
    )
    @pytest.mark.parametrize("signal", ["speech", "zeros"])
    def test_masked_speech_equals_remove_silence(self, cfg, length, signal):
        # the speech a stored mask keeps is the speech remove_silence returned with it
        audio = speech_plus_silence(speech_s=3, silence_s=2, seed=5)
        fs = frame_signal(audio, cfg.frame_len_ms, cfg.hop_ms)
        n = {
            "half_frame": fs.frame_len // 2,
            "one_frame": fs.frame_len,
            "one_frame_plus_one": fs.frame_len + 1,
            "two_frames": fs.frame_len + fs.hop,
            "two_frames_plus_one": fs.frame_len + fs.hop + 1,
            "long": audio.samples.size,
        }[length]
        x = audio.samples[:n] if signal == "speech" else np.zeros(n)
        clip = AudioBuffer(x, audio.sample_rate)
        speech, mask, _ = remove_silence(clip, cfg)
        expected_frames = 1 if n < fs.frame_len else (n - fs.frame_len) // fs.hop + 1
        assert mask.n_frames == expected_frames
        kept = masked_speech(clip, mask)
        assert kept.sample_rate == speech.sample_rate
        assert kept.samples.dtype == speech.samples.dtype
        assert kept.samples.tobytes() == speech.samples.tobytes()
        # and both are the concatenated hop slices, or the whole clip below two frames
        hop = mask.hop
        pieces = [x[i * hop: min(i * hop + hop, n)] for i in np.flatnonzero(mask.keep)]
        reference = x if mask.n_frames < 2 else np.concatenate([np.zeros(0), *pieces])
        assert np.array_equal(kept.samples, reference)
        if signal == "zeros" and mask.n_frames >= 2:
            assert kept.samples.size == 0

    @pytest.mark.parametrize("frame_len, hop", [(400, 200), (160, 280)])
    def test_masked_speech_keeps_hop_slices_of_any_mask(self, frame_len, hop):
        rng = np.random.default_rng(hop)
        for n in (frame_len + hop, frame_len + hop + 1, 3000, 8123):
            x = rng.standard_normal(n)
            n_frames = (n - frame_len) // hop + 1
            for keep in (np.ones(n_frames, bool), np.zeros(n_frames, bool), rng.random(n_frames) < 0.5):
                kept = masked_speech(AudioBuffer(x, 8000), SpeechMask(keep, frame_len, hop, 8000))
                pieces = [x[i * hop: min(i * hop + hop, n)] for i in np.flatnonzero(keep)]
                assert np.array_equal(kept.samples, np.concatenate([np.zeros(0), *pieces]))

    @pytest.mark.parametrize("n", [0, 1, 399, 400, 401, 8000, 8123])
    def test_frame_signal_values_unchanged(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        fs = frame_signal(AudioBuffer(x, 8000), 50, 25)  # N=400, hop=200
        if n == 0:
            expected = np.zeros((0, 400))
        elif n < 400:
            expected = np.zeros((1, 400))
            expected[0, :n] = x
        else:
            count = (n - 400) // 200 + 1
            expected = x[np.arange(400)[None, :] + 200 * np.arange(count)[:, None]]
        assert np.array_equal(fs.frames, expected)
        assert not fs.frames.flags.writeable


def test_vad_config_validation():
    with pytest.raises(ValueError):
        VadConfig(smooth_window=4)
    with pytest.raises(ValueError):
        VadConfig(hop_ms=0)
    with pytest.raises(ValueError):
        VadConfig(threshold_weight=-1)


def test_mask_round_trip(tmp_path):
    keep = np.array([True, False, True, True, False])
    mask = SpeechMask(keep, 400, 200, 8000)
    path = tmp_path / "u.mask"
    save_mask(path, "utt1", mask)
    utt, loaded = load_mask(path)
    assert utt == "utt1"
    assert np.array_equal(loaded.keep, keep)
    assert (loaded.frame_len, loaded.hop, loaded.sample_rate) == (400, 200, 8000)
    first = path.read_bytes()
    save_mask(path, utt, loaded)
    assert path.read_bytes() == first
