import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coseg import pnm
from coseg.errors import BadMagicError, DecodeError, TruncatedError
from coseg.pnm import (
    read_image,
    read_pbm,
    write_pbm,
    write_pgm,
    write_ppm,
)


class TestPbm:
    def test_round_trip_odd_width(self, tmp_path):
        # width 13 forces bit padding inside each row
        rng = np.random.default_rng(0)
        mask = rng.random((7, 13)) > 0.5
        path = tmp_path / "m.pbm"
        write_pbm(path, mask)
        assert np.array_equal(read_pbm(path), mask)

    def test_round_trip_all_set_and_all_clear(self, tmp_path):
        for value in (True, False):
            mask = np.full((4, 9), value)
            path = tmp_path / "m.pbm"
            write_pbm(path, mask)
            assert np.array_equal(read_pbm(path), mask)

    def test_known_bytes(self, tmp_path):
        # 8x1 mask 10110001 packs to one byte 0xB1
        path = tmp_path / "m.pbm"
        write_pbm(path, np.array([[1, 0, 1, 1, 0, 0, 0, 1]], dtype=bool))
        assert path.read_bytes() == b"P4\n8 1\n\xb1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(BadMagicError):
            read_pbm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_bytes(b"P4\n16 2\n\xff")
        with pytest.raises(TruncatedError):
            read_pbm(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pbm(tmp_path / "m.pbm", np.zeros((2, 2, 2), dtype=bool))


class TestPgmPpm:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(11, 5), dtype=np.uint8)
        path = tmp_path / "g.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_image(path), img)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_image(path), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5 # gray\n# another comment\n 2\t2 #x\n255\n\x01\x02\x03\x04")
        assert np.array_equal(read_image(path), [[1, 2], [3, 4]])

    def test_maxval_over_255_rejected(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DecodeError):
            read_image(path)

    @pytest.mark.parametrize("maxval", [b"15", b"1", b"254", b"0"])
    def test_maxval_other_than_255_rejected(self, tmp_path, maxval):
        # a maxval-15 white pixel is 15, which would read as 15 of 255
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 1\n" + maxval + b"\n\x0f\x00")
        with pytest.raises(DecodeError):
            read_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(TruncatedError):
            read_image(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2\n")
        with pytest.raises(TruncatedError):
            read_image(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 two\n255\n\x00\x00\x00\x00")
        with pytest.raises(DecodeError):
            read_image(path)

    @pytest.mark.parametrize("header, read", [
        (b"P4\n0 3\n", read_pbm),
        (b"P5\n3 0\n255\n", read_image),
        (b"P6\n0 0\n255\n", read_image),
    ])
    def test_zero_width_or_height_rejected(self, tmp_path, header, read):
        path = tmp_path / "z.img"
        path.write_bytes(header + b"\x00" * 9)
        with pytest.raises(DecodeError, match="bad image dimensions"):
            read(path)

    def test_write_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "g.pgm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "c.ppm", np.zeros((2, 2, 4), dtype=np.uint8))

    def test_read_image_dispatch(self, tmp_path):
        gray = tmp_path / "g.pgm"
        color = tmp_path / "c.ppm"
        write_pgm(gray, np.zeros((2, 3), dtype=np.uint8))
        write_ppm(color, np.zeros((2, 3, 3), dtype=np.uint8))
        assert read_image(gray).shape == (2, 3)
        assert read_image(color).shape == (2, 3, 3)
        bad = tmp_path / "b.img"
        bad.write_bytes(b"GIF89a")
        with pytest.raises(BadMagicError):
            read_image(bad)

    def test_raster_not_aliased_to_file_buffer(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
        img = read_image(path)
        img[0, 0] = 9  # must be writable
        assert img[0, 0] == 9


class TestOneCopyRead:
    """PBM/PGM/PPM readers parse the header from the file's first block and
    read the raster straight into the array they return."""

    @pytest.mark.parametrize("comment", [100, pnm._HEAD_BLOCK, 3 * pnm._HEAD_BLOCK + 7])
    def test_header_longer_than_first_block(self, tmp_path, comment):
        rng = np.random.default_rng(comment)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# " + b"x" * comment + b"\n7 # " + b"y" * comment + b"\n5\n255\n" + img.tobytes())
        assert path.stat().st_size > comment * 2
        assert np.array_equal(read_image(path), img)
        mask = rng.random((5, 13)) < 0.5
        path = tmp_path / "m.pbm"
        path.write_bytes(b"P4\n# " + b"x" * comment + b"\n13 # " + b"y" * comment + b"\n5\n"
                         + np.packbits(mask, axis=1).tobytes())
        assert np.array_equal(read_pbm(path), mask)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (480, 640, 3), (64, 64)])
    def test_raster_one_byte_short(self, tmp_path, shape):
        img = np.zeros(shape, dtype=np.uint8)
        path = tmp_path / "i.pnm"
        (write_ppm if len(shape) == 3 else write_pgm)(path, img)
        path.write_bytes(path.read_bytes()[:-1])
        # the first row lies wholly inside the bytes present, yet the file is
        # short of its whole raster
        for rows in (slice(None), slice(0, 1), slice(-1, None), slice(0, 0)):
            with pytest.raises(TruncatedError):
                read_image(path, rows)
        write_pbm(path, np.ones(shape[:2], dtype=bool))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedError):
            read_pbm(path)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (480, 640, 3), (64, 64)])
    def test_trailing_bytes_accepted(self, tmp_path, shape):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "i.pnm"
        (write_ppm if len(shape) == 3 else write_pgm)(path, img)
        with open(path, "ab") as fh:
            fh.write(b"trailing bytes")
        assert np.array_equal(read_image(path), img)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (480, 640, 3), (3, 1)])
    def test_result_owns_writable_memory(self, tmp_path, shape):
        path = tmp_path / "i.pnm"
        (write_ppm if len(shape) == 3 else write_pgm)(path, np.full(shape, 7, dtype=np.uint8))
        for img in (read_image(path), *(read_image(path, rows) for rows in
                                        (slice(None), slice(1, None), slice(0, 1), slice(1, 1)))):
            assert img.flags.owndata and img.flags.writeable and img.flags.c_contiguous
            assert img.base is None
            img[...] = 9
            assert (img == 9).all()

    def test_huge_declared_size_is_truncated_not_allocated(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n99999999999 99999999999\n255\n\x00")
        for rows in (slice(None), slice(0, 1), slice(0, 0)):
            with pytest.raises(TruncatedError):
                read_image(path, rows)
        path = tmp_path / "m.pbm"
        path.write_bytes(b"P4\n99999999999 99999999999\n\x00")
        with pytest.raises(TruncatedError):
            read_pbm(path)

    def test_file_shorter_than_its_size_raises(self, tmp_path, monkeypatch):
        # a size that overstates what a read returns must not leave the
        # raster's tail uninitialised
        path = tmp_path / "g.pgm"
        write_pgm(path, np.zeros((40, 40), dtype=np.uint8))
        full = os.stat(path)
        path.write_bytes(path.read_bytes()[:-1])
        monkeypatch.setattr(pnm.os, "fstat", lambda fd: full)
        for rows in (slice(None), slice(-1, None)):
            with pytest.raises(TruncatedError):
                read_image(path, rows)


@pytest.fixture(scope="module")
def band_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bands")


_ROW_BOUND = st.one_of(st.none(), st.integers(-12, 12))


class TestBandRead:
    """read_image(path, rows) reads only the rows a step-1 slice names and
    returns exactly read_image(path)[rows]."""

    @settings(max_examples=200, deadline=None)
    @given(
        magic=st.sampled_from([b"P5", b"P6"]),
        h=st.integers(1, 9),
        w=st.integers(1, 6),
        comment=st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\r", b"").replace(b"\n", b"") + b"\n"),
        start=_ROW_BOUND,
        stop=_ROW_BOUND,
        step=st.sampled_from([None, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(magic=b"P5", h=5, w=3, comment=b"# gray\n", start=2, stop=2, step=None, seed=0)  # empty
    @example(magic=b"P6", h=5, w=3, comment=b"#\n", start=4, stop=1, step=1, seed=0)  # empty, reversed
    @example(magic=b"P5", h=5, w=3, comment=b"#\n", start=-3, stop=-1, step=None, seed=0)  # negative
    @example(magic=b"P6", h=5, w=3, comment=b"#\n", start=3, stop=12, step=None, seed=0)  # past the end
    @example(magic=b"P5", h=5, w=3, comment=b"#\n", start=7, stop=9, step=None, seed=0)  # wholly past it
    @example(magic=b"P6", h=5, w=3, comment=b"#\n", start=None, stop=None, step=None, seed=0)  # whole
    @example(magic=b"P5", h=5, w=3, comment=b"#\n", start=0, stop=5, step=1, seed=0)  # whole height
    def test_equals_slice_of_whole_image(self, band_dir, magic, h, w, comment, start, stop, step, seed):
        shape = (h, w) if magic == b"P5" else (h, w, 3)
        img = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
        path = band_dir / "band.pnm"
        path.write_bytes(magic + b" " + comment + f"{w} {h}\n".encode() + comment + b"255\n" + img.tobytes())
        rows = slice(start, stop, step)
        band = read_image(path, rows)
        assert band.dtype == np.uint8 and band.shape == img[rows].shape
        assert np.array_equal(band, read_image(path)[rows]) and np.array_equal(band, img[rows])

    def test_reads_only_the_band_bytes(self, tmp_path, monkeypatch):
        img = np.arange(6 * 4 * 3, dtype=np.uint8).reshape(6, 4, 3)
        path = tmp_path / "c.ppm"
        write_ppm(path, img)
        reads = []
        fromfile = np.fromfile

        def spy(fh, dtype, count):
            reads.append((fh.tell(), count))
            return fromfile(fh, dtype, count=count)

        monkeypatch.setattr(np, "fromfile", spy)
        assert np.array_equal(read_image(path, slice(2, 4)), img[2:4])
        header = len(b"P6\n4 6\n255\n")
        assert reads == [(header + 2 * 12, 2 * 12)]

    @pytest.mark.parametrize("rows", [slice(None, None, 2), slice(None, None, -1), slice(0, 3, 0)])
    def test_step_other_than_one_rejected(self, tmp_path, rows):
        path = tmp_path / "g.pgm"
        write_pgm(path, np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="step 1"):
            read_image(path, rows)


def _header_ints_oracle(data: bytes, start: int, count: int):
    """The byte-by-byte header tokenizer pnm._header_ints replaced, kept as
    the reference it must agree with."""
    whitespace = b" \t\r\n\x0b\x0c"
    vals = []
    i = start
    while len(vals) < count:
        while i < len(data):
            c = data[i]
            if c in whitespace:
                i += 1
            elif c == ord("#"):
                while i < len(data) and data[i] not in (10, 13):
                    i += 1
            else:
                break
        j = i
        while j < len(data) and data[j] not in whitespace:
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


def _outcome(parse, data: bytes, count: int):
    try:
        return parse(data, 2, count)
    except (TruncatedError, DecodeError) as e:
        return type(e)


_PIECES = st.one_of(
    st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"\r\n"]),
    st.builds(
        lambda text, end: b"#" + text + end,
        st.binary(max_size=6).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
        st.sampled_from([b"\n", b"\r"]),
    ),
    st.integers(0, 10**12).map(lambda v: str(v).encode()),
    st.sampled_from([b"x", b"+1", b"1#", b"-2", b"\xb2", b"\xff", b"\xc2\xa0", b"\x85", b"\x1c"]),
)


class TestHeaderParser:
    """Headers of whitespace, comments, fields and junk, cut at every length,
    give the same values and raster offset, or the same error class, from
    pnm._header_ints as from the tokenizer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_PIECES, max_size=12))
    def test_agrees_with_byte_tokenizer_at_every_cut(self, pieces):
        header = b"P5" + b"".join(pieces) + b"\n"
        for cut in range(2, len(header) + 1):
            for count in (2, 3):
                data = header[:cut]
                expected = _outcome(_header_ints_oracle, data, count)
                assert _outcome(pnm._header_ints, data, count) == expected
