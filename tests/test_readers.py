"""Every artifact and input reader fails closed: a damaged file is a DataError
that names it, never a stray ValueError or UnicodeDecodeError."""

import warnings

import numpy as np
import pytest

from accent_forge.accent import load_model_set
from accent_forge.config import load_config
from accent_forge.corpus import parse_alignment, parse_manifest
from accent_forge.discriminant import load_transform
from accent_forge.errors import DataError
from accent_forge.features import read_feature_archive
from accent_forge.report import read_eval_report
from accent_forge.vad import load_mask


def f64(*values):
    return np.array(values, dtype="<f8").tobytes()


NOT_UTF8 = b"\xff\xfe\n"

READERS = {
    "transform": (load_transform, "t.lin"),
    "features": (read_feature_archive, "u.feat"),
    "mask": (load_mask, "u.mask"),
    "alignment": (parse_alignment, "u.ali"),
    "manifest": (parse_manifest, "m.tsv"),
    "config": (load_config, "c.ini"),
    "model_set": (lambda path: load_model_set(path.parent), "modelset.txt"),
    "eval_report": (read_eval_report, "eval.json"),
}

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
    "mask-not_utf8": NOT_UTF8,
    "mask-non_numeric_count": b"ACMASK1 u 400 200 8000 x\n1\n",
    "mask-non_ascii_bits": "ACMASK1 u 400 200 8000 1\né\n".encode("utf-8"),
    "mask-short_header": b"ACMASK1 u 400 200\n1\n",
    "alignment-not_utf8": NOT_UTF8,
    "manifest-not_utf8": NOT_UTF8,
    "config-not_utf8": NOT_UTF8,
    "model_set-not_utf8": NOT_UTF8,
    "eval_report-not_utf8": NOT_UTF8,
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


WELL_FORMED = {
    "transform": b"ACHLDA1 hlda 1 2 1\n" + f64(1.0, 0.0),
    "features": b"ACFEAT1 u 1 2 0.0 10.0\n" + f64(1.0, 2.0),
    "mask": b"ACMASK1 u 400 200 8000 3\n101\n",
    "alignment": b"0.5 0.75 AA1 0.9\n",
    "manifest": b"u\tu.wav\tA\n",
    "config": b"[run]\nseed = 3\n",
}


@pytest.mark.parametrize("kind", WELL_FORMED)
def test_well_formed_file_reads(tmp_path, kind):
    # the same readers still take the files the table above damages
    reader, name = READERS[kind]
    path = tmp_path / name
    path.write_bytes(WELL_FORMED[kind])
    assert reader(path) is not None
