"""Binary netpbm readers and writers: PBM (P4) masks, PGM (P5) and PPM (P6) images."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import BadMagicError, DecodeError, TruncatedError

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _header_ints(data: bytes, start: int, count: int):
    """Parse `count` decimal header fields, skipping whitespace and # comments.

    Returns the values and the offset of the raster (one whitespace byte after
    the last field is consumed, as the formats require).
    """
    vals = []
    i = start
    while len(vals) < count:
        while i < len(data):
            c = data[i]
            if c in _WHITESPACE:
                i += 1
            elif c == ord("#"):
                while i < len(data) and data[i] not in (10, 13):
                    i += 1
            else:
                break
        j = i
        while j < len(data) and data[j] not in _WHITESPACE:
            j += 1
        if j == i:
            raise TruncatedError("header ended before all fields were read")
        tok = data[i:j]
        if not tok.isdigit():
            raise DecodeError(f"bad header field {tok!r}")
        vals.append(int(tok))
        i = j
    if i >= len(data):
        raise TruncatedError("no raster after header")
    return vals, i + 1


def read_pbm(path) -> np.ndarray:
    """Read a binary PBM (P4) file into a bool array of shape (height, width).

    True marks set bits (PBM black), used throughout as mask foreground.
    """
    data = Path(path).read_bytes()
    if data[:2] != b"P4":
        raise BadMagicError(f"expected P4, found {data[:2]!r}")
    (w, h), off = _header_ints(data, 2, 2)
    if w < 1 or h < 1:
        raise DecodeError(f"bad bitmap dimensions {w}x{h}")
    row_bytes = (w + 7) // 8
    need = row_bytes * h
    raster = data[off : off + need]
    if len(raster) < need:
        raise TruncatedError(f"raster holds {len(raster)} bytes, needs {need}")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :w].astype(bool)


def write_pbm(path, mask) -> None:
    """Write a bool array (height, width) as binary PBM (P4)."""
    arr = np.asarray(mask, dtype=bool)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    packed = np.packbits(arr, axis=1)
    Path(path).write_bytes(f"P4\n{w} {h}\n".encode("ascii") + packed.tobytes())


def _decode_raster(data: bytes) -> np.ndarray:
    """Decode a binary PGM (P5) or PPM (P6) file's bytes, magic already checked,
    into a uint8 array of shape (height, width) or (height, width, 3).

    The raster is viewed in place and copied once, so the array owns its memory.
    The samples are returned as stored, so any maxval but 255 is rejected.
    """
    (w, h, maxval), off = _header_ints(data, 2, 3)
    if w < 1 or h < 1:
        raise DecodeError(f"bad image dimensions {w}x{h}")
    if maxval != 255:
        raise DecodeError(f"unsupported maxval {maxval} (only 255)")
    shape = (h, w) if data[:2] == b"P5" else (h, w, 3)
    need = math.prod(shape)
    if len(data) - off < need:
        raise TruncatedError(f"raster holds {len(data) - off} bytes, needs {need}")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=off).reshape(shape).copy()


def _read_raster(path, magics: tuple[bytes, ...]) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise BadMagicError(f"{path}: expected {expected}, found {data[:2]!r}")
    return _decode_raster(data)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) file into a uint8 array (height, width)."""
    return _read_raster(path, (b"P5",))


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6) file into a uint8 array (height, width, 3)."""
    return _read_raster(path, (b"P6",))


def read_image(path) -> np.ndarray:
    """Read a P5 or P6 file, dispatching on the magic bytes."""
    return _read_raster(path, (b"P5", b"P6"))


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
