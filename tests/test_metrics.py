import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coseg.annindex import RetrievalResult
from coseg.geometry import BoundingBox, iou
from coseg.metrics import (
    BoxTruth,
    evaluate,
    iou_verdicts,
    jaccard,
    precision,
    save_report_file,
)
from coseg.retrieval import SimilarityGroup
from oracles import drawn


def group(anchor, member_ids):
    members = tuple((m, float(i)) for i, m in enumerate(member_ids))
    return SimilarityGroup(anchor=anchor, members=RetrievalResult(neighbors=members))


def table(boxes, gt, classes):
    """evaluate's item table from per-item boxes, ground truths and classes."""
    return {i: (boxes[i], gt[i], classes[i]) for i in boxes}


def mask(shape, rows=(), cols=()):
    m = np.zeros(shape, dtype=bool)
    m[np.ix_(rows, cols)] = True
    return m


class TestPrecision:
    def test_perfect(self):
        m = mask((4, 4), rows=(0, 1), cols=(0, 1))
        assert precision(m, m) == 1.0

    def test_disjoint(self):
        seg = mask((4, 4), rows=(0,), cols=(0,))
        gt = mask((4, 4), rows=(3,), cols=(3,))
        assert precision(seg, gt) == 0.0

    def test_three_quarters(self):
        seg = np.zeros((2, 4), dtype=bool)
        seg[0] = True  # 4 pixels
        gt = np.zeros((2, 4), dtype=bool)
        gt[0, :3] = True  # covers 3 of them
        assert precision(seg, gt) == 0.75

    def test_empty_segmentation_scores_zero(self):
        gt = mask((3, 3), rows=(0,), cols=(0,))
        assert precision(np.zeros((3, 3), dtype=bool), gt) == 0.0

    def test_not_symmetric(self):
        seg = mask((4, 4), rows=(0,), cols=(0, 1))  # 2 px
        gt = mask((4, 4), rows=(0,), cols=(0, 1, 2, 3))  # 4 px
        assert precision(seg, gt) == 1.0
        assert precision(gt, seg) == 0.5

    def test_nonzero_means_foreground(self):
        seg = np.array([[0, 2], [0, 0]])
        gt = np.array([[0, 1], [0, 0]])
        assert precision(seg, gt) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            precision(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            precision(np.zeros(4), np.zeros(4))


class TestJaccard:
    def test_perfect(self):
        m = mask((4, 4), rows=(1, 2), cols=(1, 2))
        assert jaccard(m, m) == 1.0

    def test_disjoint(self):
        a = mask((4, 4), rows=(0,), cols=(0,))
        b = mask((4, 4), rows=(3,), cols=(3,))
        assert jaccard(a, b) == 0.0

    def test_one_third(self):
        # |a| = 2, |b| = 2, overlap 1: 1 / 3
        a = np.array([[1, 1, 0]], dtype=bool)
        b = np.array([[0, 1, 1]], dtype=bool)
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=bool)
        assert jaccard(z, z) == 1.0

    def test_one_empty_is_zero(self):
        z = np.zeros((3, 3), dtype=bool)
        m = mask((3, 3), rows=(0,), cols=(0,))
        assert jaccard(z, m) == 0.0
        assert jaccard(m, z) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random((5, 5)) > 0.5
            b = rng.random((5, 5)) > 0.5
            assert jaccard(a, b) == jaccard(b, a)

    def test_random_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.random((8, 8)) > 0.4
            b = rng.random((8, 8)) > 0.6
            inter = np.sum(a & b)
            union = np.sum(a) + np.sum(b) - inter
            want = 1.0 if union == 0 else inter / union
            assert jaccard(a, b) == pytest.approx(want, abs=1e-12)
            # jaccard never exceeds precision's numerator share
            if np.sum(a) > 0:
                assert jaccard(a, b) <= inter / np.sum(a) + 1e-12


class TestEvaluate:
    def test_single_class_perfect(self):
        groups = [group("a", ["b"])]
        m = mask((4, 4), rows=(0, 1), cols=(0, 1))
        box = BoundingBox(0, 0, 2, 2)
        report = evaluate(groups, {"a": (box, m, "mug"), "b": (box, m, "mug")})
        assert report["per_class"]["mug"] == {"precision": 1.0, "jaccard": 1.0, "count": 2}
        assert report["avg_precision"] == 1.0
        assert report["avg_jaccard"] == 1.0
        assert report["skipped"] == []

    def test_cross_class_average_is_unweighted(self):
        groups = [group("a", ["b", "c"])]
        full = np.ones((2, 2), dtype=bool)
        items = {
            "a": (BoundingBox(0, 0, 2, 2), full, "x"),
            "b": (BoundingBox(0, 0, 2, 2), full, "x"),
            "c": (BoundingBox(0, 0, 2, 1), full, "y"),
        }
        # class "x": items a,b perfect. class "y": item c (top row) has p=1, j=0.5
        report = evaluate(groups, items)
        assert report["per_class"]["x"]["count"] == 2
        assert report["per_class"]["y"]["jaccard"] == 0.5
        assert report["avg_jaccard"] == pytest.approx(0.75)  # (1.0 + 0.5) / 2

    def test_items_counted_once_across_groups(self):
        groups = [group("a", ["b"]), group("b", ["a"])]
        m = np.ones((2, 2), dtype=bool)
        box = BoundingBox(0, 0, 2, 2)
        report = evaluate(groups, {"a": (box, m, "c"), "b": (box, m, "c")})
        assert report["per_class"]["c"]["count"] == 2

    def test_missing_inputs_skip_with_reason(self):
        m = np.ones((2, 2), dtype=bool)
        b = BoundingBox(0, 0, 2, 2)
        items = {"a": (b, m, "k"), "c": (b, None, "k"), "e": (b, None, "j")}
        report = evaluate([group("a", ["c", "e"])], items)
        assert report["skipped"] == [
            {"id": "c", "reason": "no ground-truth mask"}, {"id": "e", "reason": "no ground-truth mask"},
        ]
        assert report["per_class"] == {"k": {"precision": 1.0, "jaccard": 1.0, "count": 1}}
        # an item without a row (no box, no class) is no longer a skip: the table must hold it
        for absent in ("b", "d"):
            with pytest.raises(KeyError, match=absent):
                evaluate([group("a", ["c", absent, "e"])], items)

    def test_id_the_table_lacks_raises(self):
        class Strict(dict):
            def __missing__(self, key):
                raise ValueError(f"id {key!r} missing from items.csv")

        items = Strict(a=(BoundingBox(0, 0, 2, 2), np.ones((2, 2), dtype=bool), "k"))
        assert evaluate([group("a", [])], items)["per_class"]["k"]["count"] == 1
        for groups in ([group("a", ["b"])], [group("b", ["a"])]):
            with pytest.raises(ValueError, match="id 'b' missing from items.csv"):
                evaluate(groups, items)

    def test_empty_segmentations_flagged_and_scored(self):
        groups = [group("a", ["b"])]
        gt = {"a": np.ones((2, 2), dtype=bool), "b": np.ones((2, 2), dtype=bool)}
        # "a" lies wholly outside its 2x2 image, "b" only partly
        boxes = {"a": BoundingBox(2, 0, 3, 2), "b": BoundingBox(-1, -1, 2, 2)}
        report = evaluate(groups, table(boxes, gt, {"a": "k", "b": "j"}))
        assert report["empty_segmentations"] == ["a"]
        assert report["per_class"]["k"]["precision"] == 0.0
        assert report["per_class"]["j"] == {"precision": 1.0, "jaccard": 0.25, "count": 1}

    def test_no_groups_gives_zero_averages(self):
        assert evaluate([], {}) == {
            "per_class": {}, "avg_precision": 0.0, "avg_jaccard": 0.0,
            "skipped": [], "empty_segmentations": [],
        }

    def test_gt_must_be_2d(self):
        with pytest.raises(ValueError):
            evaluate([group("a", [])], {"a": (BoundingBox(0, 0, 1, 1), np.ones(4), "k")})

    def test_box_scores_equal_drawn_mask_oracle(self):
        """Boxes inside, across and wholly outside random images, against random
        ground truth (some of it empty), score exactly as the drawn mask does."""
        rng = np.random.default_rng(5)
        boxes, gt, classes, want, want_empty = {}, {}, {}, {}, []
        for i in range(300):
            h, w = (int(v) for v in rng.integers(1, 12, size=2))
            item = f"i{i}"
            boxes[item] = BoundingBox(
                int(rng.integers(-w - 3, w + 3)), int(rng.integers(-h - 3, h + 3)),
                int(rng.integers(1, w + 6)), int(rng.integers(1, h + 6)),
            )
            gt[item] = rng.random((h, w)) < rng.choice([0.0, 0.3, 0.7, 1.0])
            classes[item] = item  # one item per class: per-class scores are the item's
            seg = drawn((h, w), boxes[item])
            want[item] = (precision(seg, gt[item]), jaccard(seg, gt[item]))
            if not seg.any():
                want_empty.append(item)
        report = evaluate([group("i0", list(boxes)[1:])], table(boxes, gt, classes))
        got = {c: (m["precision"], m["jaccard"]) for c, m in report["per_class"].items()}
        assert got == want
        assert report["empty_segmentations"] == want_empty
        # the draw covered each kind of case
        assert 20 < len(want_empty) < 280
        assert sum(not g.any() for g in gt.values()) > 20
        assert sum(0 < p < 1 for p, _ in want.values()) > 20


    def test_shared_masks_score_as_per_item_arithmetic(self):
        """Items of one image share its mask object, as the evaluate stage passes
        them; each item still scores its own box against its own image's mask."""
        rng = np.random.default_rng(6)
        images = [rng.random((9, 13)) < p for p in (0.0, 0.4, 0.4, 1.0)]
        images.append(images[1].copy())  # equal to image 1, another object
        boxes, gt, classes, per_item = {}, {}, {}, {}
        for i in range(60):
            item = f"i{i}"
            mask_ = images[i % len(images)]
            x, y, w, h = (int(v) for v in rng.integers([-4, -4, 1, 1], [13, 9, 10, 10]))
            boxes[item] = BoundingBox(x, y, w, h)
            gt[item] = mask_
            classes[item] = f"c{i % 3}"
            seg = drawn(mask_.shape, boxes[item])
            inter, seg_px, gt_px = int((seg & mask_).sum()), int(seg.sum()), int(mask_.sum())
            union = seg_px + gt_px - inter
            per_item[item] = (inter / seg_px if seg_px else 0.0, inter / union if union else 1.0, seg_px == 0)
        report = evaluate([group("i0", list(boxes)[1:])], table(boxes, gt, classes))
        per_class = {
            c: {
                "precision": float(np.mean([per_item[i][0] for i in per_item if classes[i] == c])),
                "jaccard": float(np.mean([per_item[i][1] for i in per_item if classes[i] == c])),
                "count": 20,
            }
            for c in ("c0", "c1", "c2")
        }
        want = {
            "per_class": per_class,
            "avg_precision": float(np.mean([m["precision"] for m in per_class.values()])),
            "avg_jaccard": float(np.mean([m["jaccard"] for m in per_class.values()])),
            "skipped": [],
            "empty_segmentations": [i for i in per_item if per_item[i][2]],
        }
        assert report == want
        assert 0 < len(want["empty_segmentations"]) < 30

    def test_classes_average_in_first_appearance_order(self):
        # np.mean's sum depends on order: classes first seen as c, a, b with
        # Jaccards 9/10, 1/5 and 3/10 average to a float that sorted order misses
        truth = BoxTruth(BoundingBox(0, 0, 10, 1), 10, 10)
        items = {f"i{n}": (BoundingBox(0, 0, n, 1), truth, cls) for n, cls in ((9, "c"), (2, "a"), (3, "b"))}
        report = evaluate([group("i9", ["i2", "i3"])], items)
        assert [report["per_class"][c]["jaccard"] for c in "cab"] == [9 / 10, 1 / 5, 3 / 10]
        assert report["avg_jaccard"] == 0.46666666666666673
        assert float(np.mean([1 / 5, 3 / 10, 9 / 10])) != 0.46666666666666673


@st.composite
def boxes_around(draw, width, height):
    """A box inside, across or wholly outside a width x height frame."""
    return BoundingBox(
        draw(st.integers(-width - 4, width + 4)),
        draw(st.integers(-height - 4, height + 4)),
        draw(st.integers(1, width + 8)),
        draw(st.integers(1, height + 8)),
    )


@st.composite
def box_truth_cases(draw):
    """Items over a few images of random frame sizes, each image with a
    ground-truth box or none, and every box anywhere around its frame."""
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        frames.append((width, height, draw(st.none() | boxes_around(width, height))))
    boxes, on, classes = {}, {}, {}
    for i in range(draw(st.integers(1, 24))):
        item = f"i{i}"
        on[item] = draw(st.integers(0, len(frames) - 1))
        width, height, _ = frames[on[item]]
        boxes[item] = draw(boxes_around(width, height))
        classes[item] = draw(st.sampled_from(["mug", "cup", "jar"]))
    return frames, boxes, on, classes


class TestBoxTruth:
    """Ground-truth boxes scored by area give the report that drawing them
    into full-frame masks gives, as the evaluate stage once did: the drawn
    masks are the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=box_truth_cases())
    def test_areas_equal_drawn_masks(self, case):
        frames, boxes, on, classes = case
        truths = [None if t is None else BoxTruth(t, w, h) for w, h, t in frames]
        masks = [None if t is None else drawn((t.height, t.width), t.box) for t in truths]
        groups = [group("i0", list(boxes)[1:])]
        got = evaluate(groups, table(boxes, {i: truths[on[i]] for i in boxes}, classes))
        want = evaluate(groups, table(boxes, {i: masks[on[i]] for i in boxes}, classes))
        assert got == want

    @pytest.mark.parametrize("truth, item, scores", [
        # ground truth clipped to nothing: every pixel of the box is a miss
        (BoundingBox(10, 0, 3, 3), BoundingBox(0, 0, 2, 2), (0.0, 0.0)),
        # no overlap inside the frame
        (BoundingBox(0, 0, 2, 2), BoundingBox(3, 3, 2, 2), (0.0, 0.0)),
        # the item wholly outside the frame: an empty segmentation
        (BoundingBox(0, 0, 2, 2), BoundingBox(-5, 0, 2, 2), (0.0, 0.0)),
        # both cut by the frame's corner to the same 2x2 pixels
        (BoundingBox(-3, -3, 5, 5), BoundingBox(-1, -1, 3, 3), (1.0, 1.0)),
        # a 2x2 box across a 3x3 truth: 4 of 4 pixels, 4 of 9
        (BoundingBox(1, 1, 3, 3), BoundingBox(2, 2, 2, 2), (1.0, 4 / 9)),
    ])
    def test_cases_by_hand(self, truth, item, scores):
        frame = BoxTruth(truth, 5, 4)
        report = evaluate([group("a", [])], {"a": (item, frame, "k")})
        assert (report["avg_precision"], report["avg_jaccard"]) == scores
        assert report == evaluate([group("a", [])], {"a": (item, drawn((4, 5), truth), "k")})


class TestIouVerdicts:
    """retrieve's filter keeps an item whose Jaccard, as evaluate scores it,
    reaches the threshold."""

    @settings(max_examples=100, deadline=None)
    @given(case=box_truth_cases(), threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_verdict_is_evaluate_jaccard(self, case, threshold):
        frames, boxes, on, _ = case
        truths = [None if t is None else BoxTruth(t, w, h) for w, h, t in frames]
        masks = [None if t is None else drawn((t.height, t.width), t.box) for t in truths]
        classes = {i: i for i in boxes}  # one item per class: per-class scores are the item's
        items = table(boxes, {i: truths[on[i]] for i in boxes}, classes)
        per_item = evaluate([group("i0", list(boxes)[1:])], items)["per_class"]
        want = {i: truths[on[i]] is None or per_item[i]["jaccard"] >= threshold for i in boxes}
        assert iou_verdicts(items, threshold) == want
        # a mask drawing the box gives the same verdicts
        assert iou_verdicts(table(boxes, {i: masks[on[i]] for i in boxes}, classes), threshold) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_boxes_inside_the_frame_score_geometry_iou(self, data):
        # the same ints in the same expression: the bits of geometry.iou
        width, height = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))

        def inside():
            x, y = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
            return BoundingBox(x, y, data.draw(st.integers(1, width - x)), data.draw(st.integers(1, height - y)))

        box, truth = inside(), inside()
        report = evaluate([group("a", [])], {"a": (box, BoxTruth(truth, width, height), "k")})
        assert report["avg_jaccard"] == iou(box, truth)


class TestReportSerialization:
    def make_report(self):
        groups = [group("a", ["b"])]
        box, m = BoundingBox(0, 0, 2, 2), np.ones((2, 2), dtype=bool)
        return evaluate(groups, {"a": (box, m, "mug"), "b": (box, None, "mug")})

    def test_record_structure(self):
        d = self.make_report()
        assert list(d) == ["per_class", "avg_precision", "avg_jaccard", "skipped", "empty_segmentations"]
        assert d["per_class"] == {"mug": {"precision": 1.0, "jaccard": 1.0, "count": 1}}
        assert list(d["per_class"]["mug"]) == ["precision", "jaccard", "count"]
        assert d["skipped"] == [{"id": "b", "reason": "no ground-truth mask"}]
        assert d["empty_segmentations"] == []

    def test_classes_sorted_in_output(self):
        m = np.ones((2, 2), dtype=bool)
        items = {"z": (BoundingBox(0, 0, 2, 2), m, "zebra"), "a": (BoundingBox(0, 0, 2, 1), m, "apple")}
        report = evaluate([group("z", ["a"])], items)
        assert list(report["per_class"]) == ["apple", "zebra"]

    def test_save_report_file(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_report_file(report, path)
        assert path.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()
        assert json.loads(path.read_text(encoding="utf-8")) == report
