"""The workspace file codec: binary records, UTF-8 text and file digests.

A record is a UTF-8 header line 'MAGIC field ...', then float64 LE arrays,
row-major: one ending the file in a feature archive (ACFEAT1), transform
(ACHLDA1) or mixture model (ACGMM1), and one with a 0/1 line instead of
arrays in a speech mask (ACMASK1). Each format's module keeps
its field meanings and checks. Numeric header fields must be ASCII, since
int() and float() also take other scripts' digits. Damage is a DataError
naming the file.
"""

import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataError


def write_record(fh, magic: str, fields, *arrays) -> None:
    """Write the header 'magic field ...' to a binary file, then each array."""
    header = " ".join([magic, *map(str, fields)])
    if len(header.split()) != 1 + len(fields):
        raise ValueError(f"{magic} header fields must be non-empty and whitespace-free: {fields!r}")
    fh.write(header.encode("utf-8") + b"\n")
    for a in arrays:
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def save_record(path, magic: str, fields, *arrays) -> str:
    """Write one record as the whole file at path; returns the hex SHA-256
    of the bytes written."""
    buf = io.BytesIO()
    write_record(buf, magic, fields, *arrays)
    Path(path).write_bytes(buf.getvalue())
    return hashlib.sha256(buf.getvalue()).hexdigest()


def open_binary(path, raw: bytes | None = None):
    """path opened for binary reading or, when given, raw: the bytes already
    read from it, as a stream."""
    return open(path, "rb") if raw is None else io.BytesIO(raw)


def read_header(fh, path, magic: str, *types) -> list:
    """The next header's fields, each converted by its type."""
    line = fh.readline()
    try:  # ValueError also covers a header that is not UTF-8
        tag, *fields = line.decode("utf-8").split()
        if tag != magic or len(fields) != len(types) or not all(
                t is str or f.isascii() for t, f in zip(types, fields)):
            raise ValueError
        return [t(f) for t, f in zip(types, fields)]
    except ValueError:
        raise DataError(f"{path}: bad {magic} header: {line!r}") from None


def read_floats(fh, path, magic: str, *shape) -> np.ndarray:
    """The next float64 array of this shape, never read past the end of the file."""
    nbytes = 8 * math.prod(shape)
    size = fh.getbuffer().nbytes if isinstance(fh, io.BytesIO) else os.fstat(fh.fileno()).st_size
    payload = fh.read(nbytes) if nbytes <= size - fh.tell() else b""
    if len(payload) != nbytes:
        raise DataError(f"{path}: truncated {magic} payload")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy()


def read_end(fh, path, magic: str) -> None:
    """Refuse any byte after a record that must end its file."""
    if fh.read(1):
        raise DataError(f"{path}: bytes after the {magic} record")


def read_text(path, what: str) -> str:
    """A UTF-8 text file's contents; a file that cannot be read or decoded is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read the {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8 text (byte {exc.start})") from None


def sha256(path) -> str:
    """The hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
