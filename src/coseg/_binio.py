"""The bottom I/O layer: a bounds-checked cursor over the little-endian binary
formats' bytes, and the one framing every text file is read with."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, TruncatedError, VersionError


class Reader:
    """Cursor over a bytes buffer that raises named decode errors."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"needed {n} bytes at offset {self.pos}, only {len(self.data) - self.pos} left"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        """The fields of one struct format (give it a byte-order prefix)."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """`count` values of `dtype` as a fresh array that owns its memory."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise BadMagicError(f"expected magic {magic!r}, found {got!r}")

    def expect_version(self, supported: int) -> None:
        (got,) = self.unpack("<I")
        if got != supported:
            raise VersionError(f"format version {got} not supported (expected {supported})")

    def expect_eof(self) -> None:
        if self.pos != len(self.data):
            raise TruncatedError(f"{len(self.data) - self.pos} trailing bytes after content")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, a byte-order mark at the start skipped.
    A line ends at LF, one CR before the LF dropped; the empty rest after the
    last LF is no line. Bytes that are not UTF-8, or any other CR, raise
    ValueError naming path:line."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as e:  # e.object is the input after any byte-order mark
        line = e.object.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line}: bytes not UTF-8 ({e.reason})") from None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ValueError(f"{path}:{line}: CR outside a CRLF line end")
    return text.removesuffix("\n").split("\n") if text else []
