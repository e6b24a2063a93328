import wave

import numpy as np
import pytest

from accent_forge.audio import (
    AudioBuffer,
    frame_signal,
    load_audio,
    save_audio,
)
from accent_forge.errors import DataError
from signal_reference import magnitude_spectrum


def write_wav(path, data_int, sampwidth=2, channels=1, sr=8000):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(sr)
        wf.writeframes(np.asarray(data_int).astype("<i2" if sampwidth == 2 else "u1").tobytes())


def test_load_constant_16bit_scaling(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, np.full(100, 16384))
    audio = load_audio(path)
    assert audio.sample_rate == 8000
    assert np.all(audio.samples == 0.5)


def test_load_empty_payload(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, np.zeros(0, dtype=np.int16))
    audio = load_audio(path)
    assert audio.samples.size == 0


def test_load_stereo_averages_to_mono(tmp_path):
    rng = np.random.default_rng(0)
    left = rng.integers(-20000, 20000, 50)
    right = rng.integers(-20000, 20000, 50)
    interleaved = np.empty(100, dtype=np.int64)
    interleaved[0::2] = left
    interleaved[1::2] = right
    path = tmp_path / "st.wav"
    write_wav(path, interleaved, channels=2)
    audio = load_audio(path)
    # brute-force oracle: decode each channel separately, then average
    expected = (left / 32768.0 + right / 32768.0) / 2.0
    assert np.array_equal(audio.samples, expected)

    ch1 = np.full(30, round(0.2 * 32768))
    ch2 = np.full(30, round(0.4 * 32768))
    inter = np.empty(60, dtype=np.int64)
    inter[0::2], inter[1::2] = ch1, ch2
    write_wav(tmp_path / "st2.wav", inter, channels=2)
    mono = load_audio(tmp_path / "st2.wav")
    assert np.allclose(mono.samples, 0.3, atol=1e-4)


def test_load_8bit(tmp_path):
    path = tmp_path / "b8.wav"
    write_wav(path, np.array([128, 255, 0, 192]), sampwidth=1)
    audio = load_audio(path)
    assert np.allclose(audio.samples, [(v - 128) / 128.0 for v in (128, 255, 0, 192)])


def test_load_errors(tmp_path):
    with pytest.raises(DataError, match="nope.wav"):
        load_audio(tmp_path / "nope.wav")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not RIFF data at all")
    with pytest.raises(DataError, match="bad.wav"):
        load_audio(bad)
    wide = tmp_path / "wide.wav"
    with wave.open(str(wide), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(4)
        wf.setframerate(8000)
        wf.writeframes(np.zeros(10, dtype="<i4").tobytes())
    with pytest.raises(DataError, match="unsupported encoding"):
        load_audio(wide)


def test_save_load_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1, 1, 500)
    audio = AudioBuffer(samples, 8000)
    path = tmp_path / "rt.wav"
    save_audio(path, audio)
    loaded = load_audio(path)
    assert np.max(np.abs(loaded.samples - samples)) <= 1.0 / 32768.0
    # idempotent after quantization: a second round trip is exact
    save_audio(path, loaded)
    again = load_audio(path)
    assert np.array_equal(again.samples, loaded.samples)


def test_frame_counts():
    a = AudioBuffer(np.arange(100) / 200.0, 1000)
    fs = a_frames = frame_signal(a, 50, 25)  # N=50, hop=25
    assert a_frames.n_frames == 3

    short = AudioBuffer(np.ones(49) * 0.1, 1000)
    fs = frame_signal(short, 50, 25)
    assert fs.n_frames == 1
    assert np.all(fs.frames[0, 49:] == 0.0)

    second = AudioBuffer(np.zeros(8000), 8000)
    assert frame_signal(second, 50, 25).n_frames == 39

    assert frame_signal(AudioBuffer(np.zeros(0), 8000), 50, 25).n_frames == 0


def test_frame_of_zero_samples_rejected():
    # 0.01 ms rounds to 0 samples at 8 kHz; 0.07 ms rounds to 1
    audio = AudioBuffer(np.zeros(8000), 8000)
    with pytest.raises(ValueError, match=r"^\[vad\] frame_len_ms = 0.01 is a frame of 0 samples at 8000 Hz$"):
        frame_signal(audio, 0.01, 25, "[vad] frame_len_ms")
    with pytest.raises(ValueError, match=r"^frame_len_ms = 0.05 is"):
        frame_signal(audio, 0.05, 25)
    assert frame_signal(audio, 0.07, 25).frame_len == 1


def test_frame_offsets_reconstruct_signal():
    # frame i must start exactly at i*hop for many signal lengths
    for n in (50, 73, 100, 257, 1000):
        x = np.arange(n, dtype=float) / n
        fs = frame_signal(AudioBuffer(x, 1000), 20, 10)  # N=20, hop=10
        for i in range(fs.n_frames):
            start = i * fs.hop
            window = x[start: start + fs.frame_len]
            assert np.array_equal(fs.frames[i, : window.size], window)


def test_magnitude_spectrum_bins():
    zeros = magnitude_spectrum(np.zeros(64))
    assert zeros.magnitudes.shape == (33,)
    assert np.all(zeros.magnitudes == 0.0)

    n, k0 = 128, 9
    frame = np.cos(2 * np.pi * k0 * np.arange(n) / n)
    spec = magnitude_spectrum(frame)
    peak = spec.magnitudes[k0]
    others = np.delete(spec.magnitudes, k0)
    assert peak == pytest.approx(n / 2)
    assert np.all(others <= 1e-9 * peak)

    dc = magnitude_spectrum(np.ones(64))
    assert dc.magnitudes[0] == pytest.approx(64.0)
    assert np.all(dc.magnitudes[1:] <= 1e-9 * dc.magnitudes[0])


def test_magnitude_spectrum_direct_dft_oracle():
    rng = np.random.default_rng(2)
    frame = rng.standard_normal(50)
    spec = magnitude_spectrum(frame, sample_rate=1000)
    n = frame.size
    for k in range(n // 2 + 1):
        coeff = np.sum(frame * np.exp(-2j * np.pi * k * np.arange(n) / n))
        assert abs(spec.magnitudes[k] - abs(coeff)) < 1e-9
    assert spec.bin_hz == pytest.approx(1000 / 50)


def test_spectrum_superposition():
    n = 256
    t = np.arange(n)
    s1 = np.sin(2 * np.pi * 10 * t / n)
    s2 = 0.5 * np.sin(2 * np.pi * 40 * t / n)
    m1 = magnitude_spectrum(s1).magnitudes
    m2 = magnitude_spectrum(s2).magnitudes
    both = magnitude_spectrum(s1 + s2).magnitudes
    union = np.maximum(m1, m2)
    scale = np.max(union)
    assert np.allclose(both / scale, union / scale, atol=1e-6)


def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(5), 0)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 2)), 8000)
