import numpy as np
import pytest

from accent_forge.corpus import (
    VOWELS,
    AlignmentSegment,
    extract_vowel_frames,
    parse_alignment,
    parse_manifest,
    remap_segments,
    split_dataset,
    write_alignment,
)
from accent_forge.errors import DataError
from accent_forge.features import FeatureMatrix
from accent_forge.vad import SpeechMask
from alignment_reference import (
    reference_filter_by_confidence,
    reference_remap_segments,
    reference_time,
    reference_vowel_mask,
    reference_vowel_rows,
)


def test_vowel_inventory():
    assert len(VOWELS) == 15
    assert VOWELS[0] == "aa" and VOWELS[-1] == "uw"


class TestParseManifest:
    def test_comments_only(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# nothing here\n\n# still nothing\n")
        manifest = parse_manifest(path)
        assert manifest.entries == [] and manifest.inventory == []

    def test_three_entries_two_accents(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "u1\taudio/u1.wav\tAR\n"
            "u2\taudio/u2.wav\tBP\talign/u2.ali\n"
            "u3\taudio/u3.wav\tAR\n"
        )
        manifest = parse_manifest(path)
        assert len(manifest.entries) == 3
        assert manifest.inventory == ["AR", "BP"]
        assert manifest.entries[1].alignment_path == "align/u2.ali"
        assert manifest.entries[0].alignment_path is None

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tAR\nu1\tb.wav\tBP\n")
        with pytest.raises(DataError, match=":2"):
            parse_manifest(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("u1\ta.wav\tAR\njust-one-field\n")
        with pytest.raises(DataError, match=":2"):
            parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_manifest(tmp_path / "none.tsv")


def manifest_with(tmp_path, counts: dict[str, int]):
    lines = []
    for accent, n in counts.items():
        for i in range(n):
            lines.append(f"{accent}{i:03d}\ta.wav\t{accent}")
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines) + "\n")
    return parse_manifest(path)


class TestSplitDataset:
    def test_exact_division(self, tmp_path):
        manifest = manifest_with(tmp_path, {"AR": 100})
        split = split_dataset(manifest, seed=1)
        tags = list(split.tags.values())
        assert tags.count("train") == 70
        assert tags.count("dev") == 15
        assert tags.count("test") == 15

    def test_largest_remainder_101(self, tmp_path):
        manifest = manifest_with(tmp_path, {"AR": 101})
        split = split_dataset(manifest, seed=1)
        tags = list(split.tags.values())
        assert tags.count("train") == 71
        assert tags.count("dev") == 15
        assert tags.count("test") == 15

    def test_deterministic(self, tmp_path):
        manifest = manifest_with(tmp_path, {"AR": 37, "BP": 23})
        a = split_dataset(manifest, seed=9)
        b = split_dataset(manifest, seed=9)
        assert a.tags == b.tags

    def test_small_accent_goes_to_train(self, tmp_path):
        manifest = manifest_with(tmp_path, {"AR": 2, "BP": 10})
        split = split_dataset(manifest, seed=0)
        assert split.tags["AR000"] == "train"
        assert split.tags["AR001"] == "train"
        assert any("AR" in w for w in split.warnings)

    def test_partition_property(self, tmp_path):
        manifest = manifest_with(tmp_path, {"AR": 41, "BP": 13, "FR": 7})
        split = split_dataset(manifest, seed=3)
        assert set(split.tags) == {e.utterance_id for e in manifest.entries}
        for accent, total in (("AR", 41), ("BP", 13), ("FR", 7)):
            ids = [u for u in split.tags if u.startswith(accent)]
            train_frac = sum(split.tags[u] == "train" for u in ids) / total
            assert 0.70 - 1 / total <= train_frac <= 0.70 + 1 / total


class TestParseAlignment:
    def test_stress_strip_and_confidence(self, tmp_path):
        path = tmp_path / "a.ali"
        path.write_text("0.00 0.31 AA1 -2.5\n")
        segments = parse_alignment(path)
        assert len(segments) == 1
        seg = segments[0]
        assert (seg.start, seg.end, seg.phone, seg.confidence) == (0.0, 0.31, "aa", -2.5)

    def test_out_of_order_sorted(self, tmp_path):
        path = tmp_path / "a.ali"
        path.write_text("1.0 1.5 iy\n0.2 0.6 aa\n")
        segments = parse_alignment(path)
        assert [s.phone for s in segments] == ["aa", "iy"]

    def test_overlap_retained(self, tmp_path):
        path = tmp_path / "a.ali"
        path.write_text("0.0 1.0 aa\n0.5 1.5 iy\n")
        assert len(parse_alignment(path)) == 2

    def test_bad_times_report_line(self, tmp_path):
        path = tmp_path / "a.ali"
        path.write_text("0.0 0.5 aa\n0.9 0.4 iy\n")
        with pytest.raises(DataError, match=":2"):
            parse_alignment(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "a.ali"
        path.write_text("zero 0.5 aa\n")
        with pytest.raises(DataError, match=":1"):
            parse_alignment(path)

    def test_round_trip_lossless(self, tmp_path):
        segments = [
            AlignmentSegment(0.0, 0.3125, "aa", -2.5),
            AlignmentSegment(0.4, 0.9, "iy"),
            AlignmentSegment(1.0, 1.25, "uw", -0.125),
        ]
        path = tmp_path / "rt.ali"
        write_alignment(path, segments)
        loaded = parse_alignment(path)
        assert loaded == segments
        blob = path.read_bytes()
        write_alignment(path, loaded)
        assert path.read_bytes() == blob


def vowel_rows(f, segments, vowel, tau=float("-inf")):
    """Rows of f that vowel's column of the vowel table keeps at tau."""
    return f.values[extract_vowel_frames(f, segments)[:, VOWELS.index(vowel)] >= tau]


class TestFilterByConfidence:
    """Confidence filtering is a comparison on the vowel table's columns."""

    def test_minus_inf_identity(self):
        f = feature_matrix(300)
        segments = [
            AlignmentSegment(0, 1, "aa", -3.0),
            AlignmentSegment(1, 2, "iy"),
        ]
        kept, dropped = reference_filter_by_confidence(segments, float("-inf"))
        assert kept == segments and dropped == 0
        # centres at 12.5 + 10 i ms: [0, 1) s holds frames 0..98, [1, 2) s frames 99..198
        for v, n in (("aa", 99), ("iy", 100)):
            rows = vowel_rows(f, segments, v)
            assert rows.shape[0] == n
            assert np.array_equal(rows, f.values[reference_vowel_mask(f, segments, v)])

    def test_threshold(self):
        f = feature_matrix(300)
        segments = [
            AlignmentSegment(0, 1, "aa", -1.0),
            AlignmentSegment(1, 2, "iy", -3.0),
            AlignmentSegment(2, 3, "uw", -5.0),
        ]
        kept, dropped = reference_filter_by_confidence(segments, -3.0)
        assert [s.phone for s in kept] == ["aa", "iy"] and dropped == 1
        assert [vowel_rows(f, segments, v, -3.0).shape[0] for v in ("aa", "iy", "uw")] == [99, 100, 0]

    def test_unscored_dropped_at_finite_threshold(self):
        f = feature_matrix(300)
        segments = [AlignmentSegment(0, 1, "aa")]
        kept, dropped = reference_filter_by_confidence(segments, -10.0)
        assert kept == [] and dropped == 1
        assert vowel_rows(f, segments, "aa", -10.0).shape[0] == 0

    def test_all_below(self):
        f = feature_matrix(300)
        segments = [AlignmentSegment(0, 1, "aa", -9.0)]
        kept, dropped = reference_filter_by_confidence(segments, 0.0)
        assert kept == [] and dropped == 1
        assert vowel_rows(f, segments, "aa", 0.0).shape[0] == 0


def feature_matrix(n_frames=40, dims=2, start_ms=12.5, hop_ms=10.0):
    values = np.arange(n_frames * dims, dtype=float).reshape(n_frames, dims)
    return FeatureMatrix(values, "u", start_ms, hop_ms)


class TestExtractVowelFrames:
    def test_exact_span(self):
        f = feature_matrix()
        # frame centers at 12.5 + 10 i ms; centers of frames 10..19 lie in
        # [0.1125, 0.2075), so this segment holds exactly those ten
        segments = [AlignmentSegment(0.1125, 0.2075, "aa")]
        table = extract_vowel_frames(f, segments)
        assert table.shape == (40, len(VOWELS))
        assert np.array_equal(vowel_rows(f, segments, "aa"), f.values[10:20])
        column = table[:, VOWELS.index("aa")]
        assert np.all(column[10:20] == float("-inf")) and np.isnan(np.delete(column, range(10, 20))).all()

    def test_no_segments(self):
        f = feature_matrix()
        assert vowel_rows(f, [AlignmentSegment(0, 1, "iy")], "aa").shape[0] == 0
        assert np.isnan(extract_vowel_frames(f, [])).all()

    def test_center_at_end_excluded(self):
        f = feature_matrix()
        # center of frame 5 is exactly 62.5 ms; a segment ending there excludes it
        segments = [AlignmentSegment(0.0325, 0.0625, "aa")]
        assert np.array_equal(vowel_rows(f, segments, "aa"), f.values[2:5])

    def test_randomized_matches_interval_oracle(self):
        rng = np.random.default_rng(20)
        f = feature_matrix(60)
        centers = f.frame_centers_s()
        for _ in range(25):
            start = float(rng.uniform(0, 0.5))
            end = start + float(rng.uniform(0.01, 0.3))
            segs = [AlignmentSegment(start, end, "aa"), AlignmentSegment(0.05, 0.1, "iy")]
            oracle = [i for i, c in enumerate(centers) if start <= c < end]
            assert np.array_equal(vowel_rows(f, segs, "aa"), f.values[oracle])

    def test_unknown_vowel_rejected(self):
        # a phone outside the inventory labels no column
        f = feature_matrix()
        assert np.isnan(extract_vowel_frames(f, [AlignmentSegment(0, 1, "zz")])).all()
        with pytest.raises(ValueError):
            reference_vowel_mask(f, [], "zz")

    def test_partition_over_nonoverlapping_alignment(self):
        f = feature_matrix(50)
        segs = []
        t = 0.0
        for i, v in enumerate(VOWELS):
            segs.append(AlignmentSegment(t, t + 0.03, v))
            t += 0.03
        counts = np.count_nonzero(~np.isnan(extract_vowel_frames(f, segs)))
        centers = f.frame_centers_s()
        inside = np.count_nonzero((centers >= 0.0) & (centers < t))
        assert counts == inside

    def test_overlapping_vowels_share_frames(self):
        f = feature_matrix()
        # frames 5..14 in aa, 10..19 in iy: frames 10..14 are in both columns
        segs = [AlignmentSegment(0.0575, 0.1575, "aa"), AlignmentSegment(0.1075, 0.2075, "iy")]
        assert np.array_equal(vowel_rows(f, segs, "aa"), f.values[5:15])
        assert np.array_equal(vowel_rows(f, segs, "iy"), f.values[10:20])

    def test_overlapping_segments_of_one_vowel_keep_the_best_confidence(self):
        f = feature_matrix()
        # frames 5..14 at -5 and 10..19 at -1: each frame takes its best segment
        segs = [AlignmentSegment(0.0575, 0.1575, "aa", -5.0), AlignmentSegment(0.1075, 0.2075, "aa", -1.0)]
        column = extract_vowel_frames(f, segs)[:, VOWELS.index("aa")]
        assert np.array_equal(column[5:20], [-5.0] * 5 + [-1.0] * 10)
        assert np.array_equal(vowel_rows(f, segs, "aa", -3.0), f.values[10:20])
        assert vowel_rows(f, segs, "aa", 0.0).shape[0] == 0
        assert np.array_equal(vowel_rows(f, segs, "aa", -5.0), f.values[5:20])

    def test_unscored_segment_is_kept_only_at_minus_inf(self):
        f = feature_matrix()
        segs = [AlignmentSegment(0.0575, 0.1575, "aa")]
        assert np.array_equal(vowel_rows(f, segs, "aa"), f.values[5:15])
        for tau in (-1e300, -3.0, 0.0):
            assert vowel_rows(f, segs, "aa", tau).shape[0] == 0

    @pytest.mark.parametrize("start_ms, hop_ms", [(12.5, 10.0), (805.0, -10.0), (400.0, 0.0)])
    def test_randomized_table_matches_per_vowel_reference(self, start_ms, hop_ms):
        # frame timing is read from the archive as is: centres need not ascend
        rng = np.random.default_rng(22)
        f = feature_matrix(80, start_ms=start_ms, hop_ms=hop_ms)
        phones = ["aa", "iy", "uw", "t"]
        for _ in range(20):
            segs = []
            for _ in range(int(rng.integers(0, 9))):
                start = float(rng.uniform(0, 0.8))
                confidence = None if rng.random() < 0.3 else float(np.round(rng.uniform(-4, 0), 1))
                segs.append(AlignmentSegment(start, start + float(rng.uniform(0.005, 0.2)),
                                             phones[int(rng.integers(4))], confidence))
            table = extract_vowel_frames(f, segs)
            for tau in (float("-inf"), -4.0, -2.5, -1.0, 0.0):
                for v in VOWELS:
                    rows = f.values[table[:, VOWELS.index(v)] >= tau]
                    assert np.array_equal(rows, reference_vowel_rows(f, segs, v, tau)), (v, tau)


def remapped_time(mask, t):
    """The original time t > 0 moved onto silence-removed time: the end of
    the remapped segment [0, t), or 0 when that keeps nothing."""
    out = remap_segments(mask, [AlignmentSegment(0.0, t, "aa")])
    return out[0].end if out else 0.0


class TestTimeRemap:
    def mask(self, keep):
        return SpeechMask(np.array(keep, dtype=bool), 400, 200, 8000)  # 25 ms hop

    def test_identity(self):
        [out] = remap_segments(self.mask([True] * 40), [AlignmentSegment(0.1, 0.5, "aa")])
        assert out.start == pytest.approx(0.1, abs=1e-12)
        assert out.end == pytest.approx(0.5, abs=1e-12)

    def test_leading_removal_shifts(self):
        keep = [False] * 40 + [True] * 40  # first second removed
        [out] = remap_segments(self.mask(keep), [AlignmentSegment(1.0, 1.5, "aa")])
        assert out.start == pytest.approx(0.0, abs=1e-9)
        assert out.end == pytest.approx(0.5, abs=1e-9)

    def test_segment_inside_removed_region_vanishes(self):
        keep = [True] * 10 + [False] * 20 + [True] * 10
        assert remap_segments(self.mask(keep), [AlignmentSegment(0.3, 0.6, "aa")]) == []

    def test_partial_overlap_clipped(self):
        keep = [True] * 10 + [False] * 10 + [True] * 20
        [out] = remap_segments(self.mask(keep), [AlignmentSegment(0.2, 0.6, "aa", -2.0)])
        # kept overlap is [0.2, 0.25) plus [0.5, 0.6): 0.15 s starting at 0.2
        assert out.start == pytest.approx(0.2, abs=1e-9)
        assert out.end == pytest.approx(0.35, abs=1e-9)
        assert (out.phone, out.confidence) == ("aa", -2.0)

    def test_segment_starting_in_removed_region_clipped(self):
        keep = [False] * 10 + [True] * 30
        [out] = remap_segments(self.mask(keep), [AlignmentSegment(0.1, 0.5, "aa")])
        # the first 0.25 s of the segment lies in removed audio
        assert out.start == pytest.approx(0.0, abs=1e-9)
        assert out.end == pytest.approx(0.25, abs=1e-9)

    def test_monotone_and_duration(self):
        rng = np.random.default_rng(21)
        keep = rng.random(60) > 0.4
        mask = self.mask(keep)
        times = np.linspace(0, 60 * 0.025, 300)[1:]
        mapped = [remapped_time(mask, t) for t in times]
        assert np.all(np.diff(mapped) >= -1e-12)
        assert remapped_time(mask, 1e9) == pytest.approx(keep.sum() * 0.025, abs=1e-9)
        assert mapped == [reference_time(mask, t) if reference_time(mask, t) > 1e-9 else 0.0 for t in times]

    def test_matches_per_segment_reference_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            keep = rng.random(int(rng.integers(1, 80))) > rng.uniform(0.0, 0.9)
            mask = self.mask(keep)
            segs = []
            for _ in range(int(rng.integers(0, 12))):
                start = float(rng.uniform(0, 2.2))
                segs.append(AlignmentSegment(start, start + float(rng.uniform(1e-10, 0.4)), "aa",
                                             None if trial % 2 else float(rng.uniform(-3, 0))))
            assert remap_segments(mask, segs) == reference_remap_segments(mask, segs)

    def test_mask_that_keeps_nothing_drops_every_segment(self):
        assert remap_segments(self.mask([False] * 8), [AlignmentSegment(0.0, 0.1, "aa")]) == []


def test_alignment_segment_validation():
    with pytest.raises(ValueError):
        AlignmentSegment(0.5, 0.5, "aa")
    with pytest.raises(ValueError):
        AlignmentSegment(-0.1, 0.5, "aa")
    with pytest.raises(ValueError):
        AlignmentSegment(0.0, 0.5, "")
