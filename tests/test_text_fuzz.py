"""The text formats, fuzzed like the binary ones.

Every writer/reader pair round-trips records over every non-surrogate
character, or its writer refuses them with ValueError: a CR, for proposals
also a comma or LF, or a first image_id that starts with U+FEFF, which the
reader skips as a byte-order mark. Arbitrary bytes given to a text reader
either parse or raise ValueError (ConfigError is one) that starts with
path:line, bytes that are not UTF-8 included."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coseg.annindex import RetrievalResult
from coseg.geometry import BoundingBox, Proposal, load_proposals, save_proposals
from coseg.pipeline import (
    ITEMS_FIELDS,
    MANIFEST_FIELDS,
    SPLITS,
    ItemRecord,
    ManifestRecord,
    load_config,
    load_items,
    load_manifest,
    save_items,
    save_manifest,
)
from coseg.retrieval import SimilarityGroup, load_groups, save_groups

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# every non-surrogate character, with the ones the formats treat specially drawn often
SPECIAL = "\r\n,\"=#[]{} \t\x00\x0c\x85\u2028\ufeff"
texts = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(SPECIAL), max_size=8)
coords, sides = st.integers(-99, 99), st.integers(1, 99)
boxes = st.builds(BoundingBox, coords, coords, sides, sides)
proposals = st.builds(Proposal, texts, boxes, st.floats(0.0, 1.0), texts)


def has_cr(*fields: str) -> bool:
    return any("\r" in f for f in fields)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("text_fuzz")


def round_trips(save, load, path, records, refused: bool) -> None:
    """load(save(records)) == records, unless refused: then save raises ValueError."""
    if refused:
        with pytest.raises(ValueError):
            save(records, path)
    else:
        save(records, path)
        assert load(path) == records


manifest_records = st.builds(
    ManifestRecord, texts.filter(bool), texts, texts, st.sampled_from(SPLITS),
    st.none() | boxes, st.none() | texts.filter(bool),
)


@FUZZ
@given(records=st.lists(manifest_records, max_size=3, unique_by=lambda r: r.item_id))
def test_manifest_round_trip(scratch, records):
    refused = any(has_cr(r.item_id, r.image_path, r.class_name, r.gt_mask_path or "") for r in records)
    round_trips(save_manifest, load_manifest, scratch / "manifest.csv", records, refused)


item_records = st.builds(
    ItemRecord, texts, proposals, texts, texts, st.integers(-(2**63), 2**63), st.integers(0, 9999),
)


@FUZZ
@given(records=st.lists(item_records, max_size=3))
def test_items_round_trip(scratch, records):
    refused = any(has_cr(r.item_id, r.class_name, r.split, r.proposal.image_id, r.proposal.source)
                  for r in records)
    round_trips(save_items, load_items, scratch / "items.csv", records, refused)


@FUZZ
@given(records=st.lists(proposals, max_size=3))
def test_proposals_round_trip(scratch, records):
    refused = any(c in p.image_id + p.source for p in records for c in ",\r\n") or (
        records and records[0].image_id.startswith("\ufeff"))
    round_trips(lambda props, path: save_proposals(path, props), load_proposals,
                scratch / "proposals.csv", records, refused)


@st.composite
def similarity_groups(draw):
    ids = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    dists = sorted(draw(st.lists(st.floats(0.0, 1e300), min_size=len(ids) - 1, max_size=len(ids) - 1)))
    members = RetrievalResult(neighbors=tuple(zip(ids[1:], dists)))
    return SimilarityGroup(anchor=ids[0], members=members)


@FUZZ
@given(records=st.lists(similarity_groups(), max_size=3))
def test_groups_round_trip(scratch, records):
    round_trips(save_groups, load_groups, scratch / "groups.jsonl", records, refused=False)


# name -> (reader, a valid first line that arbitrary bytes may follow)
READERS = {
    "manifest.csv": (load_manifest, ",".join(MANIFEST_FIELDS).encode() + b"\n"),
    "items.csv": (load_items, ",".join(ITEMS_FIELDS).encode() + b"\n"),
    "proposals.csv": (load_proposals, b"img,1,2,3,4,0.5,gen\n"),
    "config.txt": (load_config, b"seed=3\n"),
    "groups.jsonl": (load_groups, b'{"anchor": "a", "members": []}\n'),
}

FRAGMENTS = [b"\r", b"\n", b"\r\n", b",", b'"', b"\xef\xbb\xbf", b"[", b"{", b"=", b"1", b"-", b".", b"\x00",
             b"\xff", b"a", b"train", b"test", b"seed", b'"anchor"', b":", b"e9"]
garbage = st.lists(st.sampled_from(FRAGMENTS) | st.binary(max_size=6), max_size=40).map(b"".join)


@FUZZ
@pytest.mark.parametrize("name", list(READERS))
@given(first=st.booleans(), data=garbage)
def test_arbitrary_bytes_parse_or_raise_value_error(scratch, name, first, data):
    reader, first_line = READERS[name]
    path = scratch / name
    path.write_bytes(first_line * first + data)
    try:
        reader(path)
    except ValueError as exc:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)
