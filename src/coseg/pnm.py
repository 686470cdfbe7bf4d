"""Binary netpbm readers and writers: PBM (P4) masks, PGM (P5) and PPM (P6) images."""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np

from ._binio import naming
from .errors import BadMagicError, DecodeError, TruncatedError

_HEAD_BLOCK = 512  # first read of a raster file; headers are far shorter
# Whitespace and # comments (each up to a CR or LF), then a field's digits.
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*(\d*)")


def _header_ints(data: bytes, start: int, count: int):
    """Parse `count` decimal header fields, skipping whitespace and # comments.

    Each field must end at a whitespace byte. Returns the values and the offset
    of the raster, one whitespace byte after the last field. Raises
    TruncatedError when `data` ends first, since more bytes may complete it.
    """
    vals = []
    end = start
    for _ in range(count):
        m = _FIELD.match(data, end)
        end = m.end()
        if end == len(data):
            raise TruncatedError("header ended before all fields and the raster were read")
        if not m[1] or not data[end : end + 1].isspace():
            raise DecodeError(f"bad header field {data[m.start(1) : end + 1]!r}")
        vals.append(int(m[1]))
    return vals, end + 1


def read_pbm(path) -> np.ndarray:
    """Read a binary PBM (P4) file into a bool array of shape (height, width).

    True marks set bits (PBM black), used throughout as mask foreground.
    """
    return _read_raster(path, (b"P4",))


def write_pbm(path, mask) -> None:
    """Write a bool array (height, width) as binary PBM (P4)."""
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    packed = np.packbits(arr, axis=1)
    Path(path).write_bytes(f"P4\n{w} {h}\n".encode("ascii") + packed.tobytes())


def _read_raster(path, magics: tuple[bytes, ...], rows: slice = slice(None)) -> np.ndarray:
    """Read a binary PBM (P4), PGM (P5) or PPM (P6) file into a bool array of
    shape (height, width), or a uint8 array of shape (height, width) or
    (height, width, 3); only the rows in `rows`, a step-1 slice, are read.

    The header is parsed from the file's first block, read on while a long
    header needs more, and the file is checked to hold the whole raster. The
    rows are then read from their offset straight into a fresh array that
    owns its memory (a bitmap's packed rows are then unpacked). The samples
    are returned as stored, so any maxval but 255 is rejected. Bytes after
    the raster are ignored. A DecodeError names the path.
    """
    with naming(path), open(path, "rb", buffering=0) as fh:
        head = fh.read(_HEAD_BLOCK)
        magic = head[:2]
        if magic not in magics:
            expected = " or ".join(m.decode() for m in magics)
            raise BadMagicError(f"expected {expected}, found {magic!r}")
        while True:
            try:
                fields, off = _header_ints(head, 2, 2 if magic == b"P4" else 3)
                break
            except TruncatedError:
                more = fh.read(len(head))  # doubling keeps a long header linear
                if not more:
                    raise
                head += more
        w, h = fields[:2]
        if w < 1 or h < 1:
            raise DecodeError(f"bad image dimensions {w}x{h}")
        if magic != b"P4" and fields[2] != 255:
            raise DecodeError(f"unsupported maxval {fields[2]} (only 255)")
        shape = {b"P4": (h, (w + 7) // 8), b"P5": (h, w)}.get(magic, (h, w, 3))
        need = math.prod(shape)
        avail = os.fstat(fh.fileno()).st_size - off  # checked before allocating
        if avail < need:
            raise TruncatedError(f"raster holds {avail} bytes, needs {need}")
        start, stop, _ = rows.indices(h)
        shape = (max(stop - start, 0), *shape[1:])
        fh.seek(off + start * (need // h))
        need = math.prod(shape)
        image = np.fromfile(fh, np.uint8, count=need)
        if image.size < need:
            raise TruncatedError("file shrank while it was read")
    image.shape = shape  # in place: reshape would return a view
    if magic == b"P4":
        return np.unpackbits(image, axis=1, count=w).astype(bool)
    return image


def read_image(path, rows: slice = slice(None)) -> np.ndarray:
    """Read a PGM (P5) as uint8 (height, width) or a PPM (P6) as (height, width, 3).

    With `rows`, a slice whose step is 1, only those rows are read from the
    file: the result equals read_image(path)[rows]. A file too short for its
    whole raster is a TruncatedError whichever rows are asked for.
    """
    if rows.step not in (None, 1):
        raise ValueError(f"rows must be a slice with step 1, got {rows}")
    return _read_raster(path, (b"P5", b"P6"), rows)


def _write_raster(path, magic: str, arr: np.ndarray) -> None:
    """Write the header, then the C-contiguous raster straight from its buffer."""
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.data)


def write_pgm(path, image) -> None:
    """Write a uint8 array (height, width) as binary PGM (P5, maxval 255)."""
    arr = np.ascontiguousarray(image, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"grayscale image must be 2-D, got shape {arr.shape}")
    _write_raster(path, "P5", arr)


def write_ppm(path, image) -> None:
    """Write a uint8 array (height, width, 3) as binary PPM (P6, maxval 255)."""
    arr = np.ascontiguousarray(image, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"color image must be (h, w, 3), got shape {arr.shape}")
    _write_raster(path, "P6", arr)
