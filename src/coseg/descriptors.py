"""Patch descriptors: fixed-size grayscale crops of proposal boxes, plus the
binary descriptor file format used to exchange them between pipeline stages.
"""

from __future__ import annotations

import struct

import numpy as np

from ._binio import open_reader
from .errors import DecodeError, TruncatedError
from .geometry import BoundingBox

DESCRIPTOR_MAGIC = b"CSGD"
DESCRIPTOR_VERSION = 1

PATCH_SIDE = 32
DESCRIPTOR_DIM = PATCH_SIDE * PATCH_SIDE

# Rec. 601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


def to_gray(image: np.ndarray) -> np.ndarray:
    """Collapse an RGB (h, w, 3) image to grayscale; pass (h, w) through."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.float64)
    if image.ndim == 3 and image.shape[2] == 3:
        return image.astype(np.float64) @ _LUMA
    raise ValueError(f"expected (h, w) or (h, w, 3) image, got shape {image.shape}")


def _nearest_axis(src: int, dst: int) -> np.ndarray:
    # pixel-center sampling: source index of each destination pixel
    return np.minimum((np.arange(dst) + 0.5) * (src / dst), src - 1).astype(np.int64)


def resize_nearest(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resample of a 2-d or 3-d (h, w[, c]) array.

    Both axes are pure gathers, so either order gives the same array. A
    column gather copies one pixel at a time and a row gather whole rows, so
    the columns go first only when the source has fewer rows than the target.
    """
    if height < 1 or width < 1:
        raise ValueError(f"target size must be positive, got {height}x{width}")
    rows = _nearest_axis(image.shape[0], height)
    cols = _nearest_axis(image.shape[1], width)
    if image.shape[0] < height:
        return image.take(cols, 1).take(rows, 0)
    return image.take(rows, 0).take(cols, 1)


def patch_descriptor(image: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Descriptor for one proposal: crop the box, resample to 32x32 by nearest
    neighbor, convert to grayscale, flatten row-major, scale to [0, 1].

    Nearest sampling only picks pixels and luma is computed per pixel, so
    graying the 32x32 sample equals sampling the grayed crop, bit for bit.
    The box is clipped to the image; a box entirely outside it is an error.
    Returns a float32 vector of length 1024.
    """
    image = np.asarray(image)
    h, w = image.shape[:2]
    cut = box.clip(w, h)
    if cut is None:
        raise ValueError(f"box {box} lies outside a {w}x{h} image")
    small = to_gray(resize_nearest(image[cut], PATCH_SIDE, PATCH_SIDE))
    return (small.reshape(-1) / 255.0).astype(np.float32)


def save_descriptors_file(ids: list[str], vectors: np.ndarray, path) -> None:
    """Write id/vector records as a `.csgd` file: magic, version, dim and count
    `<IQ`, then per record a `<H` length-prefixed UTF-8 id followed by dim
    float32 values. Every check runs before the file is opened, and the
    records are written one at a time."""
    vectors = np.asarray(vectors, dtype="<f4")
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
    if len(ids) != vectors.shape[0]:
        raise ValueError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
    for item_id in ids:  # encoded again per record, so no list of encoded ids is held
        if len(item_id.encode("utf-8")) > 0xFFFF:
            raise ValueError(f"item id too long to encode: {item_id[:32]!r}...")
    with open(path, "wb") as fh:
        fh.write(DESCRIPTOR_MAGIC + struct.pack("<IIQ", DESCRIPTOR_VERSION, *vectors.shape[::-1]))
        for item_id, vec in zip(ids, vectors):
            raw = item_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw + vec.tobytes())


def load_descriptors_file(path) -> tuple[list[str], np.ndarray]:
    """The ids and the (count, dim) float32 vectors of a `.csgd` file."""
    with open_reader(path, DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION) as r:
        dim, count = r.unpack("<IQ")
        if dim == 0:
            raise DecodeError("descriptor file declares zero dimension")
        left = len(r.data) - r.pos
        if count * (2 + 4 * dim) > left:  # a u16 id length and dim floats each
            raise TruncatedError(f"{count} records of dim {dim} overrun {left} bytes")
        ids: list[str] = []
        vectors = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            (n,) = r.unpack("<H")
            try:
                ids.append(r.take(n).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise DecodeError(f"descriptor {i} id is not UTF-8: {e}") from e
            vectors[i] = r.array("<f4", dim)
        r.expect_eof()
    return ids, vectors
