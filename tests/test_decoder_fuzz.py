"""Malformed artifacts are rejected, never with an unexpected exception:
truncations, bit flips and random headers are written to files and fed to the
.csgd, .csgm and .csgi file loaders, which may raise only DecodeError, and to
the PBM/PGM/PPM readers, which may raise only ValueError (DecodeError is one).
Every DecodeError starts with the path of the file it came from."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coseg import pnm
from coseg.annindex import IndexConfig, build, load_file, save_file
from coseg.descriptors import load_descriptors_file, save_descriptors_file
from coseg.embedder import EncoderParams, load_model_file, save_model_file
from coseg.errors import DecodeError

_rng = np.random.default_rng(0)
ITEMS = np.random.default_rng(1).normal(size=(12, 3))  # the items the index sample is loaded for

# name -> (writer of a valid file to a path, loader over a path, header fields after magic and version)
BINARY = {
    "csgd": (
        functools.partial(save_descriptors_file, ["a", "bé", ""], _rng.normal(size=(3, 4))),
        load_descriptors_file,
        "<IQ",  # dim, count
    ),
    "csgm": (
        functools.partial(save_model_file, EncoderParams(
            weights=(_rng.normal(size=(3, 4)), _rng.normal(size=(2, 3))),
            biases=(_rng.normal(size=3), _rng.normal(size=2)),
        )),
        load_model_file,
        "<III",  # layer count, first layer rows and cols
    ),
    "csgi": (
        functools.partial(save_file, build(ITEMS, IndexConfig(n_trees=2, leaf_capacity=4, seed=1))),
        lambda path: load_file(path, ITEMS),
        "<IIIQB",  # n_trees, search_k, leaf_capacity, seed, metric; the items' digest follows
    ),
}

# name -> (valid file bytes, reader over a path)
RASTER = {
    "pbm": (b"P4\n11 5\n" + _rng.integers(0, 256, size=10, dtype=np.uint8).tobytes(), pnm.read_pbm),
    "pgm": (b"P5\n5 4\n255\n" + _rng.integers(0, 256, size=20, dtype=np.uint8).tobytes(), pnm.read_image),
    "ppm": (b"P6\n4 3\n255\n" + _rng.integers(0, 256, size=36, dtype=np.uint8).tobytes(), pnm.read_image),
}

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid(fuzz_dir):
    """name -> the bytes of the valid file BINARY's writer writes for name."""
    out = {}
    for name, (write, _, _) in BINARY.items():
        path = fuzz_dir / f"valid.{name}"
        write(path)
        out[name] = path.read_bytes()
    return out


def file_decoder(fuzz_dir, name):
    """A decoder over bytes: it writes them to a file and reads that with
    name's loader, whose DecodeError must start with the file's path."""
    path = fuzz_dir / f"fuzz.{name}"
    reader = {**BINARY, **RASTER}[name][1]

    def decode(data: bytes):
        path.write_bytes(data)
        try:
            return reader(path)
        except DecodeError as e:
            assert str(e).startswith(f"{path}: "), str(e)
            raise

    return decode


def flip_bits(data: bytes, bits) -> bytes:
    out = bytearray(data)
    for b in bits:
        out[(b // 8) % len(out)] ^= 1 << (b % 8)
    return bytes(out)


def decodes_or_raises(decode, data: bytes, error=ValueError) -> None:
    try:
        decode(data)
    except error:
        pass


@pytest.mark.parametrize("name", sorted(BINARY))
def test_valid_samples_decode(name, fuzz_dir, valid):
    file_decoder(fuzz_dir, name)(valid[name])


@pytest.mark.parametrize("name", sorted(RASTER))
def test_valid_raster_samples_decode(name, fuzz_dir):
    file_decoder(fuzz_dir, name)(RASTER[name][0])


@pytest.mark.parametrize("name", sorted(BINARY))
@FUZZ
@given(cut=st.integers(0, 10**6))
def test_binary_truncation_rejected(name, cut, fuzz_dir, valid):
    data = valid[name]
    with pytest.raises(DecodeError):
        file_decoder(fuzz_dir, name)(data[: cut % len(data)])


@pytest.mark.parametrize("name", sorted(RASTER))
@FUZZ
@given(cut=st.integers(0, 10**6))
def test_raster_truncation_rejected(name, cut, fuzz_dir):
    data = RASTER[name][0]
    with pytest.raises(ValueError):
        file_decoder(fuzz_dir, name)(data[: cut % len(data)])


@pytest.mark.parametrize("name", sorted(BINARY))
@FUZZ
@given(bits=st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
def test_binary_bit_flips(name, bits, fuzz_dir, valid):
    decodes_or_raises(file_decoder(fuzz_dir, name), flip_bits(valid[name], bits), DecodeError)


@pytest.mark.parametrize("name", sorted(RASTER))
@FUZZ
@given(bits=st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
def test_raster_bit_flips(name, bits, fuzz_dir):
    decodes_or_raises(file_decoder(fuzz_dir, name), flip_bits(RASTER[name][0], bits))


def header_values(fields: str):
    """One value per struct field, often an edge value of its width."""
    bits = [8 * struct.calcsize("<" + code) for code in fields[1:]]
    return st.tuples(*(
        st.one_of(st.sampled_from([0, 1, 2, 3, 2**b - 1, 2 ** (b - 1)]), st.integers(0, 2**b - 1))
        for b in bits
    ))


@pytest.mark.parametrize("name", sorted(BINARY))
@FUZZ
@given(data=st.data(), tail=st.one_of(st.none(), st.binary(max_size=64)))
def test_binary_random_header(name, data, tail, fuzz_dir, valid):
    # valid magic and version, random header fields, then either the valid
    # body that followed the original header or random bytes
    sample, fields = valid[name], BINARY[name][2]
    values = data.draw(header_values(fields))
    body = sample[8 + struct.calcsize(fields) :] if tail is None else tail
    decodes_or_raises(file_decoder(fuzz_dir, name), sample[:8] + struct.pack(fields, *values) + body, DecodeError)


@pytest.mark.parametrize("name", sorted(RASTER))
@FUZZ
@given(
    header=st.text(alphabet="0123456789 \t\n#x-+", max_size=24),
    raster=st.binary(max_size=64),
)
def test_raster_random_header(name, header, raster, fuzz_dir):
    magic = RASTER[name][0][:2]
    decodes_or_raises(file_decoder(fuzz_dir, name), magic + header.encode() + raster)
