import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coseg.descriptors import (
    DESCRIPTOR_DIM,
    PATCH_SIDE,
    _nearest_axis,
    load_descriptors_file,
    patch_descriptor,
    resize_nearest,
    save_descriptors_file,
    to_gray,
)
from coseg.errors import BadMagicError, DecodeError, TruncatedError
from coseg.geometry import BoundingBox


class TestToGray:
    def test_grayscale_passthrough(self):
        img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
        out = to_gray(img)
        assert out.dtype == np.float64
        assert np.array_equal(out, img)

    def test_luma_weights(self):
        img = np.zeros((1, 3, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)
        img[0, 1] = (0, 255, 0)
        img[0, 2] = (0, 0, 255)
        out = to_gray(img)
        assert out[0, 0] == pytest.approx(255 * 0.299)
        assert out[0, 1] == pytest.approx(255 * 0.587)
        assert out[0, 2] == pytest.approx(255 * 0.114)

    def test_white_stays_white(self):
        img = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert np.allclose(to_gray(img), 255.0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            to_gray(np.zeros((2, 2, 4)))


class TestResizeNearest:
    def test_identity(self):
        img = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(resize_nearest(img, 3, 4), img)

    def test_upscale_2x2_to_4x4(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = resize_nearest(img, 4, 4)
        want = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float
        )
        assert np.array_equal(out, want)

    def test_downscale_picks_pixel_centers(self):
        img = np.arange(16.0).reshape(4, 4)
        out = resize_nearest(img, 2, 2)
        # centers at source rows/cols 1 and 3
        assert np.array_equal(out, [[5.0, 7.0], [13.0, 15.0]])

    def test_color_image(self):
        img = np.arange(2 * 2 * 3).reshape(2, 2, 3)
        out = resize_nearest(img, 4, 4)
        assert out.shape == (4, 4, 3)
        assert np.array_equal(out[0, 0], img[0, 0])
        assert np.array_equal(out[3, 3], img[1, 1])

    def test_bad_target(self):
        with pytest.raises(ValueError):
            resize_nearest(np.zeros((2, 2)), 0, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        src=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        dst=st.tuples(st.integers(1, 18), st.integers(1, 18)),
        channels=st.sampled_from([(), (3,)]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_row_then_column_gather(self, src, dst, channels, seed):
        # either gather order must give image[rows][:, cols], bit for bit and
        # C-ordered, whether each axis is scaled up, down or kept
        img = np.random.default_rng(seed).integers(0, 256, size=src + channels, dtype=np.uint8)
        rows, cols = _nearest_axis(src[0], dst[0]), _nearest_axis(src[1], dst[1])
        out = resize_nearest(img, *dst)
        assert out.flags.c_contiguous
        assert out.dtype == img.dtype
        assert np.array_equal(out, img[rows][:, cols])


class TestPatchDescriptor:
    def test_shape_dtype_range(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(50, 60, 3), dtype=np.uint8)
        vec = patch_descriptor(img, BoundingBox(5, 5, 20, 20))
        assert vec.shape == (DESCRIPTOR_DIM,)
        assert vec.dtype == np.float32
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
        assert DESCRIPTOR_DIM == PATCH_SIDE * PATCH_SIDE

    def test_uniform_patch_is_constant(self):
        img = np.full((40, 40), 51, dtype=np.uint8)
        vec = patch_descriptor(img, BoundingBox(2, 3, 10, 8))
        assert np.allclose(vec, 51 / 255.0)

    def test_box_clipped_to_image(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        img[:10, :10] = 200
        # box hangs off the top-left corner; the clipped region is the bright block
        vec = patch_descriptor(img, BoundingBox(-5, -5, 15, 15))
        assert np.allclose(vec, 200 / 255.0)

    def test_box_outside_image_rejected(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        with pytest.raises(ValueError):
            patch_descriptor(img, BoundingBox(25, 25, 5, 5))
        with pytest.raises(ValueError):
            patch_descriptor(img, BoundingBox(-10, 0, 10, 5))

    def test_row_major_flattening(self):
        # left half dark, right half bright: the first 16 entries of each
        # 32-entry row are dark
        img = np.zeros((32, 32), dtype=np.uint8)
        img[:, 16:] = 255
        vec = patch_descriptor(img, BoundingBox(0, 0, 32, 32))
        row = vec[:PATCH_SIDE]
        assert np.allclose(row[:16], 0.0)
        assert np.allclose(row[16:], 1.0)

    def test_same_content_same_descriptor(self):
        rng = np.random.default_rng(1)
        tile = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        img = np.zeros((64, 64), dtype=np.uint8)
        img[4:20, 4:20] = tile
        img[30:46, 40:56] = tile
        a = patch_descriptor(img, BoundingBox(4, 4, 16, 16))
        b = patch_descriptor(img, BoundingBox(40, 30, 16, 16))
        assert np.array_equal(a, b)


    def test_bit_identical_to_graying_the_whole_image(self):
        # oracle: the whole image grayed, then cut and resampled; the descriptor
        # resamples the raw cut and grays only that, which must not change a bit
        rng = np.random.default_rng(12)
        sizes = [(480, 640), (479, 639), (33, 31), (1, 1), (2, 97)]
        for trial in range(1500):
            h, w = sizes[trial] if trial < len(sizes) else rng.integers(1, 90, size=2)
            shape = (h, w, 3) if trial % 2 else (h, w)
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            box = BoundingBox(
                int(rng.integers(-20, w)), int(rng.integers(-20, h)),
                int(rng.integers(1, w + 40)), int(rng.integers(1, h + 40)),
            )
            cut = box.clip(w, h)
            if cut is None:
                continue
            small = resize_nearest(to_gray(img)[cut], PATCH_SIDE, PATCH_SIDE)
            want = (small.reshape(-1) / 255.0).astype(np.float32)
            got = patch_descriptor(img, box)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (shape, box)


def csgd_bytes(tmp_path, ids, vectors) -> bytes:
    """The bytes save_descriptors_file writes for ids and vectors."""
    path = tmp_path / "out.csgd"
    save_descriptors_file(ids, vectors, path)
    return path.read_bytes()


def load_csgd(tmp_path, data: bytes):
    """load_descriptors_file over a file holding data."""
    path = tmp_path / "in.csgd"
    path.write_bytes(data)
    return load_descriptors_file(path)


class TestDescriptorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ids = ["imgA#0", "imgA#1", "imgB#0"]
        vectors = rng.random((3, 6), dtype=np.float32)
        got_ids, got_vecs = load_csgd(tmp_path, csgd_bytes(tmp_path, ids, vectors))
        assert got_ids == ids
        assert got_vecs.dtype == np.float32
        assert np.array_equal(got_vecs, vectors)

    def test_file_round_trip(self, tmp_path):
        ids = ["x"]
        vectors = np.array([[1.5, -2.5]], dtype=np.float32)
        path = tmp_path / "d.csgd"
        save_descriptors_file(ids, vectors, path)
        got_ids, got_vecs = load_descriptors_file(path)
        assert got_ids == ids
        assert np.array_equal(got_vecs, vectors)

    def test_empty_set_round_trips(self, tmp_path):
        ids, vecs = load_csgd(tmp_path, csgd_bytes(tmp_path, [], np.zeros((0, 4), dtype=np.float32)))
        assert ids == []
        assert vecs.shape == (0, 4)

    def test_unicode_ids(self, tmp_path):
        ids = ["café#0", "日本語"]
        vectors = np.zeros((2, 2), dtype=np.float32)
        got_ids, _ = load_csgd(tmp_path, csgd_bytes(tmp_path, ids, vectors))
        assert got_ids == ids

    def test_header_layout(self, tmp_path):
        data = csgd_bytes(tmp_path, ["a"], np.zeros((1, 3), dtype=np.float32))
        assert data[:4] == b"CSGD"
        assert int.from_bytes(data[4:8], "little") == 1  # version
        assert int.from_bytes(data[8:12], "little") == 3  # dim
        assert int.from_bytes(data[12:20], "little") == 1  # count
        assert int.from_bytes(data[20:22], "little") == 1  # id byte length

    def test_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_descriptors_file(["a", "b"], np.zeros((1, 3), dtype=np.float32), tmp_path / "d.csgd")

    def test_bad_magic(self, tmp_path):
        data = csgd_bytes(tmp_path, ["a"], np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(BadMagicError):
            load_csgd(tmp_path, b"NOPE" + data[4:])

    def test_truncated(self, tmp_path):
        data = csgd_bytes(tmp_path, ["a"], np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(TruncatedError):
            load_csgd(tmp_path, data[:-3])

    def test_corrupt_count_rejected_before_allocating(self, tmp_path):
        # a count of 2**40 once reached np.empty and raised MemoryError
        data = bytearray(csgd_bytes(tmp_path, ["a"], np.zeros((1, 3), dtype=np.float32)))
        data[12:20] = (2**40).to_bytes(8, "little")
        with pytest.raises(DecodeError):
            load_csgd(tmp_path, bytes(data))

    def test_zero_dimension_rejected(self, tmp_path):
        data = bytearray(csgd_bytes(tmp_path, [], np.zeros((0, 3), dtype=np.float32)))
        data[8:12] = (0).to_bytes(4, "little")
        with pytest.raises(DecodeError):
            load_csgd(tmp_path, bytes(data))

    def test_non_utf8_id_rejected(self, tmp_path):
        # once escaped as UnicodeDecodeError
        data = bytearray(csgd_bytes(tmp_path, ["ab"], np.zeros((1, 2), dtype=np.float32)))
        data[22] = 0xFF  # first id byte, after the u16 id length
        with pytest.raises(DecodeError):
            load_csgd(tmp_path, bytes(data))

    def test_trailing_bytes_rejected(self, tmp_path):
        data = csgd_bytes(tmp_path, ["a"], np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            load_csgd(tmp_path, data + b"!")


SAVE_ERRORS = pytest.mark.parametrize(
    "ids, vectors, message",
    [
        (["a"], np.zeros(3), "vectors must be 2-d"),
        # 32,768 two-byte characters: the u16 length prefix counts UTF-8 bytes
        (["\u00e9" * 32768], np.zeros((1, 2)), "item id too long"),
        # the bad id is the last one, so a writer that checked record by
        # record would already have written the first
        (["a", "\u00e9" * 32768], np.zeros((2, 2)), "item id too long"),
    ],
    ids=["vectors-1d", "id-over-65535-bytes", "last-id-over-65535-bytes"],
)


@SAVE_ERRORS
def test_save_descriptors_file_errors_write_nothing(tmp_path, ids, vectors, message):
    path = tmp_path / "d.csgd"
    with pytest.raises(ValueError, match=message):
        save_descriptors_file(ids, vectors, path)
    assert not path.exists()


class TestStreamedDescriptorFile:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("streamed")

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.text(max_size=6), max_size=8),
        dim=st.integers(1, 5),
        data=st.data(),
    )
    def test_file_round_trips_bit_for_bit(self, out_dir, ids, dim, data):
        # any float32 bit pattern, -0.0 and NaN payloads among the edge values
        edges = st.sampled_from([0x80000000, 0x7FC00000, 0x7FC00001, 0xFFBFFFFF, 0x7F800001, 0x00000001])
        bits = data.draw(st.lists(st.one_of(edges, st.integers(0, 2**32 - 1)),
                                  min_size=len(ids) * dim, max_size=len(ids) * dim))
        vectors = np.array(bits, dtype=np.uint32).view(np.float32).reshape(len(ids), dim)
        path = out_dir / "d.csgd"
        save_descriptors_file(ids, vectors, path)
        got_ids, got_vecs = load_descriptors_file(path)
        assert got_ids == ids
        assert got_vecs.shape == vectors.shape
        assert np.array_equal(got_vecs.view(np.uint32), vectors.view(np.uint32))

    @staticmethod
    def traced_peak(path, count):
        ids = [f"img{i:05d}#0" for i in range(count)]
        vectors = np.random.default_rng(count).random((count, DESCRIPTOR_DIM), dtype=np.float32)
        tracemalloc.start()
        try:
            save_descriptors_file(ids, vectors, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_record_count(self, tmp_path):
        # records are written one at a time: no copy of the whole file is built
        path = tmp_path / "d.csgd"
        self.traced_peak(path, 100)  # first-call allocations
        assert self.traced_peak(path, 2000) <= self.traced_peak(path, 100)
