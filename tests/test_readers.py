"""Every artifact and input reader fails closed: a damaged file is a DataError
that names it, never a stray ValueError or UnicodeDecodeError."""

import hashlib
import io
import re
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accent_forge.accent import AccentModelSet, VowelModelSet, load_model_set, save_model_set
from accent_forge.audio import load_audio
from accent_forge.config import load_config
from accent_forge.corpus import parse_alignment, parse_manifest
from accent_forge.discriminant import LinearTransform, load_transform, save_transform
from accent_forge.errors import ConsistencyError, DataError
from accent_forge.features import FeatureMatrix, read_feature_archive, write_feature_archive
from accent_forge.gmm import GmmModel, load_gmm, save_gmm
from accent_forge.report import read_eval_report
from accent_forge.vad import SpeechMask, load_mask, save_mask


def f64(*values):
    return np.array(values, dtype="<f8").tobytes()


def stereo_wav(frames: int = 50) -> bytes:
    """A 16-bit, two-channel PCM waveform file."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(np.arange(2 * frames, dtype="<i2").tobytes())
    return buf.getvalue()


NOT_UTF8 = b"\xff\xfe\n"

READERS = {
    "transform": (load_transform, "t.lin"),
    "features": (read_feature_archive, "u.feat"),
    "features_empty": (read_feature_archive, "v.feat"),  # an utterance vad kept no speech of
    "mask": (load_mask, "u.mask"),
    "gmm": (load_gmm, "u.gmm"),
    "alignment": (parse_alignment, "u.ali"),
    "manifest": (parse_manifest, "m.tsv"),
    "config": (load_config, "c.ini"),
    "model_set": (lambda path: load_model_set(path.parent), "modelset.txt"),
    "eval_report": (read_eval_report, "eval.json"),
    "audio": (load_audio, "a.wav"),
}

# values wrong for any audio, refused as the config loads, before vad runs
ONE_BAD_CONFIG_VALUE = {
    "config-zero_delta_window": b"[plp]\ndelta_window = 0\n",
    "config-zero_plp_hop": b"[plp]\nhop_ms = 0\n",
    "config-negative_plp_hop": b"[plp]\nhop_ms = -10\n",
    "config-zero_plp_frame_len": b"[plp]\nframe_len_ms = 0\n",
    "config-zero_cepstra": b"[plp]\nnum_cepstra = 0\n",
    "config-fewer_bark_bands_than_lp_order_plus_1": b"[plp]\nnum_bark_bands = 12\n",
    "config-negative_variance_floor": b"[em]\nvariance_floor_factor = -1\n",
    "config-global_mvn_scope": b"[model]\nmvn_scope = global\n",
    "config-raw_vowel_scores": b"[model]\nframe_normalized_vowel_scores = false\n",
}

VOWEL_SET_HEAD = b"ACMSET1 vowel\nfingerprint -\n"

DAMAGED = {
    "transform-not_utf8": NOT_UTF8,
    "transform-non_numeric_rows": b"ACHLDA1 hlda a 2 1\n" + f64(1.0, 0.0),
    "transform-non_numeric_retained": b"ACHLDA1 hlda 1 2 x\n" + f64(1.0, 0.0),
    "transform-missing_field": b"ACHLDA1 hlda 1 2\n" + f64(1.0, 0.0),
    "transform-zero_rows": b"ACHLDA1 hlda 0 2 1\n",
    "transform-negative_cols": b"ACHLDA1 hlda 1 -2 1\n" + f64(1.0, 0.0),
    "transform-unknown_kind": b"ACHLDA1 pca 1 2 1\n" + f64(1.0, 0.0),
    "transform-retained_out_of_range": b"ACHLDA1 hlda 1 2 2\n" + f64(1.0, 0.0),
    "transform-nan_entry": b"ACHLDA1 lda 1 2 1\n" + f64(np.nan, 0.0),
    "transform-truncated": b"ACHLDA1 hlda 1 2 1\n" + f64(1.0),
    "transform-trailing_bytes": b"ACHLDA1 hlda 1 2 1\n" + f64(1.0, 0.0) + b"\x00",
    "features-not_utf8": NOT_UTF8,
    "features-non_numeric_dims": b"ACFEAT1 u x 1 0.0 10.0\n" + f64(1.0),
    "features-non_numeric_start": b"ACFEAT1 u 1 1 early 10.0\n" + f64(1.0),
    "features-negative_frames": b"ACFEAT1 u 1 -1 0.0 10.0\n",
    "features-nan_value": b"ACFEAT1 u 1 1 0.0 10.0\n" + f64(np.nan),
    "features-truncated": b"ACFEAT1 u 2 1 0.0 10.0\n" + f64(1.0),
    "features-huge_claim": b"ACFEAT1 u 100000000 100000000 0.0 10.0\n" + f64(1.0),
    "features-nan_start": b"ACFEAT1 u 1 2 nan 10.0\n" + f64(1.0, 2.0),
    "features-inf_hop": b"ACFEAT1 u 1 2 0.0 inf\n" + f64(1.0, 2.0),
    "features-negative_hop": b"ACFEAT1 u 1 2 0.0 -10.0\n" + f64(1.0, 2.0),
    "features-zero_hop": b"ACFEAT1 u 1 2 0.0 0.0\n" + f64(1.0, 2.0),
    "features-non_ascii_dims": "ACFEAT1 u \u0661 2 0.0 10.0\n".encode("utf-8") + f64(1.0, 2.0),
    "features-empty_file": b"",
    "features-trailing_bytes": b"ACFEAT1 u 1 1 0.0 10.0\n" + f64(1.0) + b"\x00",
    "features-two_records": (b"ACFEAT1 u 1 1 0.0 10.0\n" + f64(1.0)) * 2,
    "mask-not_utf8": NOT_UTF8,
    "mask-non_numeric_count": b"ACMASK1 u 400 200 8000 x\n1\n",
    "mask-non_ascii_bits": "ACMASK1 u 400 200 8000 1\né\n".encode("utf-8"),
    "mask-short_header": b"ACMASK1 u 400 200\n1\n",
    "mask-zero_rate": b"ACMASK1 u 400 200 0 3\n101\n",
    "mask-negative_rate": b"ACMASK1 u 400 200 -8000 3\n101\n",
    "mask-zero_frame_len": b"ACMASK1 u 0 200 8000 3\n101\n",
    "mask-negative_hop": b"ACMASK1 u 400 -200 8000 3\n101\n",
    "mask-zero_hop": b"ACMASK1 u 400 0 8000 3\n101\n",
    "mask-bit_not_0_or_1": b"ACMASK1 u 400 200 8000 3\n1x1\n",
    "mask-non_ascii_digits": "ACMASK1 u \u0664\u0660\u0660 200 8000 3\n101\n".encode("utf-8"),
    "gmm-non_ascii_header": "ACGMM1 \u0661 1\n".encode("utf-8") + f64(1.0, 0.0, 1.0),
    "gmm-zero_components": b"ACGMM1 0 1\n",
    "gmm-truncated": b"ACGMM1 1 1\n" + f64(1.0, 0.0),
    "gmm-trailing_bytes": b"ACGMM1 1 1\n" + f64(1.0, 0.0, 1.0) + b"\x00",
    "gmm-nan_weight": b"ACGMM1 2 1\n" + f64(np.nan, 1.0, 0.0, 1.0, 1.0, 1.0),
    "gmm-weights_not_summing_to_one": b"ACGMM1 2 1\n" + f64(0.5, 0.6, 0.0, 1.0, 1.0, 1.0),
    "alignment-not_utf8": NOT_UTF8,
    "alignment-nan_start": b"nan 0.5 aa\n",
    "alignment-inf_end": b"0.1 inf iy\n",
    "alignment-nan_confidence": b"0.1 0.3 iy nan\n",
    "alignment-inf_confidence": b"0.1 0.3 iy -inf\n",
    "manifest-not_utf8": NOT_UTF8,
    "manifest-id_with_space": b"u 1\tu.wav\tA\n",
    "config-not_utf8": NOT_UTF8,
    "config-nan_rel_tol": b"[em]\nrel_tol = nan\n",
    "config-nan_threshold_weight": b"[vad]\nthreshold_weight = NaN\n",
    "config-inf_duration": b"[synth]\nduration_s = inf\n",
    "config-transform_none": b"[model]\ntransform = none\n",
    "config-hlda_keeping_every_dim": b"[model]\ntransform = hlda\ncontext_size = 0\nreduced_dim = 39\n",
    **ONE_BAD_CONFIG_VALUE,
    "model_set-not_utf8": NOT_UTF8,
    "eval_report-not_utf8": NOT_UTF8,
    "eval_report-a_list": b"[1, 2]\n",
    "eval_report-no_labels": b'{"kind": "evaluation"}\n',
    "eval_report-labels_not_a_list": b'{"kind": "evaluation", "labels": 3, "confusion": [],'
                                     b' "utterances": 0}\n',
    "eval_report-non_square_confusion": b'{"kind": "evaluation", "labels": ["A", "B"],'
                                        b' "confusion": [[1, 0]], "utterances": 1}\n',
    "model_set-tau_in_baseline": b"ACMSET1 baseline\nfingerprint -\ntau 0.5\n",
    "model_set-subset_in_baseline": b"ACMSET1 baseline\nfingerprint -\nsubset aa\n",
    "model_set-weight_in_baseline": b"ACMSET1 baseline\nfingerprint -\nweight aa 1.0\n",
    "model_set-nan_weight": b"ACMSET1 vowel\nfingerprint -\ntau -inf\nsubset aa\nweight aa nan\n",
    "model_set-nan_tau": b"ACMSET1 vowel\nfingerprint -\ntau nan\nsubset aa\nweight aa 1.0\n",
    # lines save_model_set writes once; each would load with the last one winning
    "model_set-vowel_twice_in_subset": VOWEL_SET_HEAD + b"tau -inf\nsubset aa aa\nweight aa 0.5\n",
    "model_set-second_tau": VOWEL_SET_HEAD + b"tau -inf\ntau 0.5\nsubset aa\nweight aa 1.0\n",
    "model_set-second_subset": VOWEL_SET_HEAD + b"tau -inf\nsubset aa\nsubset aa\nweight aa 1.0\n",
    "model_set-second_fingerprint": VOWEL_SET_HEAD + b"fingerprint -\ntau -inf\nsubset aa\nweight aa 1.0\n",
    "model_set-second_weight": VOWEL_SET_HEAD + b"tau -inf\nsubset aa\nweight aa 0.5\nweight aa 1.0\n",
    # a 16-bit stereo sample frame is 4 bytes; these end inside the last one
    "audio-last_3_bytes_cut": stereo_wav()[:-3],
    "audio-last_2_bytes_cut": stereo_wav()[:-2],
    "audio-zero_sample_rate": stereo_wav()[:24] + bytes(4) + stereo_wav()[28:],
    "audio-chunk_past_its_end": stereo_wav()[:12] + b"\x00" + stereo_wav()[12:],
}


@pytest.mark.parametrize("case", DAMAGED)
def test_damaged_file_is_a_data_error(tmp_path, case):
    reader, name = READERS[case.split("-")[0]]
    path = tmp_path / name
    path.write_bytes(DAMAGED[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=name):
            reader(path)


def test_non_finite_alignment_field_names_its_line(tmp_path):
    path = tmp_path / "u.ali"
    path.write_bytes(b"0.1 0.2 aa\n# note\n0.3 0.4 iy nan\n")
    with pytest.raises(DataError, match=r"u\.ali:3: non-finite field in: '0.3 0.4 iy nan'"):
        parse_alignment(path)


@pytest.mark.parametrize("section, key", [("em", "rel_tol"), ("vad", "threshold_weight"),
                                          ("synth", "formant_shift"), ("plp", "hop_ms")])
def test_non_finite_config_float_names_section_and_key(tmp_path, section, key):
    path = tmp_path / "c.ini"
    path.write_text(f"[{section}]\n{key} = nan\n")
    with pytest.raises(DataError, match=rf"c\.ini: bad value for \[{section}\] {key}"):
        load_config(path)


@pytest.mark.parametrize("case", ONE_BAD_CONFIG_VALUE)
def test_refused_config_value_names_section_and_key(tmp_path, case):
    path = tmp_path / "c.ini"
    path.write_bytes(ONE_BAD_CONFIG_VALUE[case])
    section, line = path.read_text().splitlines()
    key = line.split()[0]
    with pytest.raises(DataError, match=re.escape(f"c.ini: invalid configuration: {section} {key} must")):
        load_config(path)


WELL_FORMED = {
    "transform": b"ACHLDA1 hlda 1 2 1\n" + f64(1.0, 0.0),
    "features": b"ACFEAT1 u 1 2 0.0 10.0\n" + f64(1.0, 2.0),
    "mask": b"ACMASK1 u 400 200 8000 3\n101\n",
    "gmm": b"ACGMM1 2 1\n" + f64(0.25, 0.75, 0.0, 1.0, 1.0, 2.0),
    "alignment": b"0.5 0.75 AA1 0.9\n",
    "manifest": b"u\tu.wav\tA\n",
    "config": b"[run]\nseed = 3\n",
    "eval_report": b'{"kind": "evaluation", "labels": ["A"], "confusion": [[1]], "utterances": 1}\n',
    "audio": stereo_wav(),
}


@pytest.mark.parametrize("kind", WELL_FORMED)
def test_well_formed_file_reads(tmp_path, kind):
    # the same readers still take the files the table above damages
    reader, name = READERS[kind]
    path = tmp_path / name
    path.write_bytes(WELL_FORMED[kind])
    assert reader(path) is not None


# One value of each record kind, and its writer taking what its reader returns
RECORDS = {
    "transform": (save_transform, LinearTransform("hlda", np.array([[2.0, 0.5], [-0.25, 1.0]]), 1)),
    "features": (write_feature_archive,
                 FeatureMatrix(np.arange(6.0).reshape(3, 2) / 3.0, "\u00e9t\u00e9-1", 12.5, 10.0)),
    "features_empty": (write_feature_archive, FeatureMatrix(np.zeros((0, 2)), "v", 0.0, 8.0)),
    "mask": (lambda path, loaded: save_mask(path, *loaded),
             ("u", SpeechMask(np.array([True, False, True, True]), 400, 200, 8000))),
    "gmm": (save_gmm, GmmModel(np.array([0.25, 0.75]), np.array([[0.1], [-3.0]]), np.array([[1.0], [0.5]]))),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_record_write_read_write_is_byte_equal(tmp_path, kind):
    reader, name = READERS[kind]
    writer, value = RECORDS[kind]
    first, second = tmp_path / f"first-{name}", tmp_path / f"second-{name}"
    writer(first, value)
    writer(second, reader(first))
    assert second.read_bytes() == first.read_bytes()


def test_whole_sample_frames_load_unchanged(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(stereo_wav(frames=50))
    audio = load_audio(path)
    # each mono sample is the mean of the pair (2k, 2k + 1), scaled by 1/32768
    assert np.array_equal(audio.samples, (4 * np.arange(50) + 1) / 2 / 32768)


# One mutation of a file's bytes: cut it at a point, xor one byte with a
# non-zero mask, or insert a few bytes. Positions wrap around the length.
MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
)


def mutate(blob: bytes, mutations) -> bytes:
    for op, at, *arg in mutations:
        if op == "truncate":
            blob = blob[: at % (len(blob) + 1)]
        elif op == "flip" and blob:
            at %= len(blob)
            blob = blob[:at] + bytes([blob[at] ^ arg[0]]) + blob[at + 1:]
        elif op == "insert":
            at %= len(blob) + 1
            blob = blob[:at] + arg[0] + blob[at:]
    return blob


def save_sets(root: Path) -> dict[str, Path]:
    """A baseline and a vowel model set, the vowel one with a transform."""
    def gmm(shift: float) -> GmmModel:
        return GmmModel(np.array([0.25, 0.75]), np.full((2, 1), shift), np.ones((2, 1)))

    baseline = root / "baseline"
    save_model_set(baseline, AccentModelSet(["A", "B"], {"A": gmm(0.0), "B": gmm(1.0)}))
    vowel = root / "vowel"
    vowel.mkdir()
    (vowel / "transform.lin").write_bytes(WELL_FORMED["transform"])
    save_model_set(vowel, VowelModelSet(
        ["A", "B"], ["aa", "iy"], {"aa": 0.5, "iy": 0.5},
        {(lab, v): gmm(i) for i, lab in enumerate("AB") for v in ("aa", "iy")},
        fingerprint="f" * 64, transform_ref="transform.lin", confidence_tau=-1.5,
    ))
    return {"baseline_set": baseline, "vowel_set": vowel}


FUZZ_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("kind", WELL_FORMED)
@FUZZ_SETTINGS
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_file_fails_closed(kind, mutations):
    reader, name = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(mutate(WELL_FORMED[kind], mutations))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                reader(path)
            except DataError:
                pass


@pytest.mark.parametrize("kind", ["baseline_set", "vowel_set"])
@FUZZ_SETTINGS
@given(target=st.integers(0, 63), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_model_set_fails_closed(kind, target, mutations):
    # Mutate the manifest or one file it lists. A listed file gets its new
    # SHA-256 recorded, so that its own reader sees the damage.
    with tempfile.TemporaryDirectory() as tmp:
        set_dir = save_sets(Path(tmp))[kind]
        manifest = set_dir / "modelset.txt"
        files = [manifest, *sorted(p for p in set_dir.rglob("*") if p.is_file() and p != manifest)]
        path = files[target % len(files)]
        before = path.read_bytes()
        path.write_bytes(mutate(before, mutations))
        if path != manifest:
            manifest.write_text(manifest.read_text().replace(
                hashlib.sha256(before).hexdigest(), hashlib.sha256(path.read_bytes()).hexdigest()
            ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_model_set(set_dir)
            except (DataError, ConsistencyError):
                pass
