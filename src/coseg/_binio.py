"""Little-endian binary helpers shared by the on-disk formats."""

from __future__ import annotations

import struct

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

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise BadMagicError(f"expected magic {magic!r}, found {got!r}")

    def expect_version(self, supported: int) -> None:
        got = self.u32()
        if got != supported:
            raise VersionError(f"format version {got} not supported (expected {supported})")

    def expect_eof(self) -> None:
        if self.pos != len(self.data):
            raise TruncatedError(f"{len(self.data) - self.pos} trailing bytes after content")

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").copy()

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def pack_u8(v: int) -> bytes:
    return struct.pack("<B", v)


def pack_u16(v: int) -> bytes:
    return struct.pack("<H", v)


def pack_u32(v: int) -> bytes:
    return struct.pack("<I", v)


def pack_u64(v: int) -> bytes:
    return struct.pack("<Q", v)
