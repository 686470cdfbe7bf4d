import numpy as np
import pytest

from coseg.errors import ConfigError
from coseg.geometry import (
    BoundingBox,
    Proposal,
    dedup_near,
    iou,
    load_proposals,
    nms,
    save_proposals,
    top_k,
)


def box(x, y, w, h):
    return BoundingBox(x, y, w, h)


def prop(x, y, w, h, score, image_id="img", source="gen"):
    return Proposal(image_id, BoundingBox(x, y, w, h), score, source)


def random_props(rng, n, image_id="img"):
    out = []
    for _ in range(n):
        x = int(rng.integers(0, 40))
        y = int(rng.integers(0, 40))
        w = int(rng.integers(1, 25))
        h = int(rng.integers(1, 25))
        out.append(prop(x, y, w, h, float(rng.random()), image_id=image_id))
    return out


class TestBoundingBox:
    def test_area(self):
        assert box(0, 0, 10, 10).area == 100
        assert box(5, 7, 3, 2).area == 6

    @pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-1, 5), (5, -2)])
    def test_rejects_non_positive_size(self, w, h):
        with pytest.raises(ValueError):
            box(0, 0, w, h)

    def test_clip_inside_is_the_box(self):
        assert box(2, 3, 4, 5).clip(10, 10) == (slice(3, 8), slice(2, 6))

    def test_clip_cuts_at_every_edge(self):
        assert box(-2, -3, 20, 30).clip(10, 8) == (slice(0, 8), slice(0, 10))
        assert box(7, 6, 5, 5).clip(10, 8) == (slice(6, 8), slice(7, 10))

    @pytest.mark.parametrize("x,y", [(10, 0), (0, 8), (-3, 0), (0, -5), (12, 9)])
    def test_clip_outside_is_none(self, x, y):
        assert box(x, y, 3, 5).clip(10, 8) is None

    def test_clip_matches_pixel_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            w, h = (int(v) for v in rng.integers(1, 9, size=2))
            b = box(int(rng.integers(-10, 12)), int(rng.integers(-10, 12)),
                    int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            rows, cols = np.indices((h, w))
            want = (rows >= b.y) & (rows < b.y + b.h) & (cols >= b.x) & (cols < b.x + b.w)
            got = np.zeros((h, w), dtype=bool)
            cut = b.clip(w, h)
            if cut is not None:
                got[cut] = True
            assert np.array_equal(got, want)
            assert (cut is None) == (not want.any())


class TestProposal:
    def test_score_bounds(self):
        prop(0, 0, 1, 1, 0.0)
        prop(0, 0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            prop(0, 0, 1, 1, 1.5)
        with pytest.raises(ValueError):
            prop(0, 0, 1, 1, -0.1)


class TestIou:
    def test_identical_boxes(self):
        assert iou(box(3, 4, 7, 9), box(3, 4, 7, 9)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 5, 5)) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 10, 10)) == 0.0

    def test_quarter_overlap_value(self):
        # boxes 10x10 offset by (5,5): inter 5*5=25, union 200-25=175
        a, b = box(0, 0, 10, 10), box(5, 5, 10, 10)
        assert iou(a, b) == pytest.approx(25 / 175, abs=1e-15)

    def test_symmetry_on_random_boxes(self):
        rng = np.random.default_rng(0)
        boxes = [p.box for p in random_props(rng, 40)]
        for a in boxes[:20]:
            for b in boxes[20:]:
                assert iou(a, b) == iou(b, a)

    def test_contained_box(self):
        assert iou(box(0, 0, 10, 10), box(2, 2, 5, 5)) == pytest.approx(25 / 100)


def brute_force_nms(props, threshold):
    keep = []
    order = sorted(range(len(props)), key=lambda i: (-props[i].score, i))
    for i in order:
        if all(iou(props[i].box, props[j].box) < threshold for j in keep):
            keep.append(i)
    keep.sort()
    by_score = sorted(keep, key=lambda i: (-props[i].score, i))
    return [props[i] for i in by_score]


def brute_force_dedup(props, threshold):
    keep = []
    for i, p in enumerate(props):
        if all(iou(p.box, props[j].box) < threshold for j in keep):
            keep.append(i)
    return [props[i] for i in keep]


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_single(self):
        p = prop(0, 0, 5, 5, 0.5)
        assert nms([p], 0.5) == [p]

    def test_equal_boxes_keep_highest_score(self):
        low = prop(0, 0, 10, 10, 0.3)
        high = prop(0, 0, 10, 10, 0.9)
        assert nms([low, high], 0.5) == [high]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([prop(0, 0, 1, 1, 0.5)], 1.5)
        with pytest.raises(ValueError):
            nms([prop(0, 0, 1, 1, 0.5)], -0.1)

    def test_output_properties_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            props = random_props(rng, int(rng.integers(1, 25)))
            t = float(rng.uniform(0.2, 0.9))
            out = nms(props, t)
            assert all(p in props for p in out)
            for i, a in enumerate(out):
                for b in out[i + 1 :]:
                    assert iou(a.box, b.box) < t
            assert nms(out, t) == out  # idempotent

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            props = random_props(rng, int(rng.integers(1, 30)))
            t = float(rng.uniform(0.2, 0.9))
            assert nms(props, t) == brute_force_nms(props, t)


class TestDedupNear:
    def test_empty(self):
        assert dedup_near([], 0.9) == []

    def test_identical_pair_keeps_first(self):
        a = prop(0, 0, 10, 10, 0.2)
        b = prop(0, 0, 10, 10, 0.9)  # later duplicate loses despite higher score
        assert dedup_near([a, b], 0.9) == [a]

    def test_three_box_example(self):
        # IoU(A,B) = 81/119 which is just over 0.6, so B is dropped
        a = prop(0, 0, 10, 10, 0.5)
        b = prop(1, 1, 10, 10, 0.9)
        c = prop(30, 0, 10, 10, 0.1)
        assert iou(a.box, b.box) == pytest.approx(81 / 119)
        assert dedup_near([a, b, c], 0.6) == [a, c]

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            props = random_props(rng, int(rng.integers(1, 30)))
            t = float(rng.uniform(0.3, 0.99))
            assert dedup_near(props, t) == brute_force_dedup(props, t)


class TestTopK:
    def test_k_exceeding_length_returns_all_sorted(self):
        props = [prop(0, 0, 1, 1, s) for s in (0.2, 0.8, 0.5)]
        out = top_k(props, 10)
        assert [p.score for p in out] == [0.8, 0.5, 0.2]

    def test_prefix(self):
        props = [prop(0, 0, 1, 1, s) for s in (0.1, 0.9, 0.5)]
        assert [p.score for p in top_k(props, 2)] == [0.9, 0.5]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k([], 0)

    def test_fractional_k_refused_by_its_rule(self):
        # it used to pass the check and fail in the slice with a TypeError
        with pytest.raises(ConfigError, match=r"k must be >= 1, got 1\.5"):
            top_k([prop(0, 0, 1, 1, 0.5)], 1.5)

    def test_equals_full_sort_prefix(self):
        rng = np.random.default_rng(4)
        props = random_props(rng, 30)
        full = sorted(range(30), key=lambda i: (-props[i].score, i))
        assert top_k(props, 10) == [props[i] for i in full[:10]]

    def test_stable_ties(self):
        a = prop(0, 0, 1, 1, 0.5, image_id="a")
        b = prop(0, 0, 1, 1, 0.5, image_id="b")
        assert top_k([a, b], 2) == [a, b]


class TestProposalFiles:
    def test_round_trip(self, tmp_path):
        props = [
            prop(1, 2, 3, 4, 0.25, image_id="imgA", source="gen1"),
            prop(5, 6, 7, 8, 1.0, image_id="imgB", source="gen2"),
        ]
        path = tmp_path / "props.csv"
        save_proposals(path, props)
        assert load_proposals(path) == props

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("imgA,0,0,5,5,0.5,gen\nimgB,0,0,5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv:2"):
            load_proposals(path)

    def test_bad_score_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("imgA,0,0,5,5,nope,gen\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad2.csv:1"):
            load_proposals(path)

    def test_comma_in_id_rejected_on_save(self, tmp_path):
        bad = prop(0, 0, 1, 1, 0.5, image_id="a,b")
        with pytest.raises(ValueError, match="comma"):
            save_proposals(tmp_path / "x.csv", [bad])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\nimgA,0,0,5,5,0.5,gen\n\n", encoding="utf-8")
        assert len(load_proposals(path)) == 1

    def test_round_trip_keeps_line_separators_and_spaces_other_than_lf(self, tmp_path):
        # str.splitlines breaks at each of these; a record ends only at LF
        odd = ["a\u2028b", "a\x85b", "a\x0cb", "a\x1eb", " padded ", "\tab"]
        props = [prop(i, 0, 1, 1, 0.5, image_id=s, source=s) for i, s in enumerate(odd)]
        path = tmp_path / "p.csv"
        save_proposals(path, props)
        assert load_proposals(path) == props

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"imgA,0,0,5,5,0.5,gen\r\n\r\nimgB,1,1,2,2,0.25,\r\n")
        assert load_proposals(path) == [
            prop(0, 0, 5, 5, 0.5, image_id="imgA"),
            prop(1, 1, 2, 2, 0.25, image_id="imgB", source=""),
        ]

    @pytest.mark.parametrize("line", [
        b"img,1,2,3,4,0.5,a\rb\n", b"img,1,2,3,4,0.5,ab\r\r\n", b"a\rimg,1,2,3,4,0.5,b",
    ])
    def test_cr_outside_crlf_names_line(self, tmp_path, line):
        # such a CR used to stay in the record, and a source 'a\rb' reached items.csv
        path = tmp_path / "p.csv"
        path.write_bytes(line)
        with pytest.raises(ValueError, match="p.csv:1: CR outside a CRLF line end"):
            load_proposals(path)

    def test_leading_byte_order_mark_rejected_on_save(self, tmp_path):
        # load_proposals skips a leading U+FEFF, so the first image_id used to lose it
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="U\\+FEFF"):
            save_proposals(path, [prop(0, 0, 1, 1, 0.5, image_id="\ufeffa")])
        later = [prop(0, 0, 1, 1, 0.5, image_id="a"), prop(0, 0, 1, 1, 0.5, image_id="\ufeffb")]
        save_proposals(path, later)
        assert load_proposals(path) == later

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb"])
    def test_line_break_in_id_or_source_rejected_on_save(self, tmp_path, bad):
        for p in (prop(0, 0, 1, 1, 0.5, image_id=bad), prop(0, 0, 1, 1, 0.5, source=bad)):
            with pytest.raises(ValueError, match="CR or LF"):
                save_proposals(tmp_path / "x.csv", [p])


@pytest.mark.parametrize("reduce", [nms, dedup_near])
def test_suppression_rejects_proposals_of_two_images(reduce):
    props = [prop(0, 0, 4, 4, 0.9, image_id="a"), prop(10, 10, 4, 4, 0.8, image_id="b")]
    with pytest.raises(ValueError, match=r"proposals span multiple images: \['a', 'b'\]"):
        reduce(props, 0.5)
