"""Pixel-level segmentation scoring: precision and Jaccard similarity against
ground truth, averaged per class and then across classes.

Masks are 2-d arrays where nonzero means foreground. One item table, item id
-> (box, ground truth, class), feeds both evaluate() and iou_verdicts(), and
both score a box one way: cut to its frame, against a mask by pixel count or a
BoxTruth by area. None means no ground truth; an id the table lacks raises.
evaluate() returns the report.json record itself, a plain dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import check
from .geometry import BoundingBox

THRESHOLD_RULE = ("in [0, 1]", lambda v: 0 <= v <= 1)  # iou_verdicts', and the retrieve.iou_filter key's


def _check_same_shape(seg: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seg, gt = np.asarray(seg), np.asarray(gt)
    if seg.ndim != 2 or seg.shape != gt.shape:
        raise ValueError(f"masks must be 2-d and of one shape: seg {seg.shape} vs gt {gt.shape}")
    return seg != 0, gt != 0


def _scores(seg_px: int, gt_px: int, inter: int) -> tuple[float, float]:
    """(precision, jaccard) from the segmented, ground-truth and shared pixel
    counts. An empty segmentation has precision 0; an empty union has Jaccard 1."""
    union = seg_px + gt_px - inter
    return (inter / seg_px if seg_px else 0.0), (inter / union if union else 1.0)


def precision(seg: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of segmented pixels that are ground-truth foreground.

    An empty segmentation scores 0; evaluate() flags those items.
    """
    seg, gt = _check_same_shape(seg, gt)
    return _scores(int(seg.sum()), int(gt.sum()), int((seg & gt).sum()))[0]


def jaccard(seg: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union of foreground pixels; 1 when both are empty."""
    seg, gt = _check_same_shape(seg, gt)
    return _scores(int(seg.sum()), int(gt.sum()), int((seg & gt).sum()))[1]


@dataclass(frozen=True)
class BoxTruth:
    """Ground truth given as a box in a width x height frame: the box's pixels
    inside the frame are foreground. evaluate() scores against it by area, with
    the counts the box drawn as a mask would give."""

    box: BoundingBox
    width: int
    height: int


def _pixels(cut) -> int:
    """Pixel count of a BoundingBox.clip result."""
    return 0 if cut is None else (cut[0].stop - cut[0].start) * (cut[1].stop - cut[1].start)


def _overlap(a, b) -> int:
    """Pixel count shared by two BoundingBox.clip results."""
    if a is None or b is None:
        return 0
    rows = min(a[0].stop, b[0].stop) - max(a[0].start, b[0].start)
    cols = min(a[1].stop, b[1].stop) - max(a[1].start, b[1].start)
    return max(rows, 0) * max(cols, 0)


def _counts(box: BoundingBox, gt: np.ndarray | BoxTruth) -> tuple[int, int, int]:
    """(segmented, ground-truth, shared) pixel counts of box, cut to its
    frame, against gt: a BoxTruth by area, a mask by pixel count."""
    if isinstance(gt, BoxTruth):
        cut, truth = box.clip(gt.width, gt.height), gt.box.clip(gt.width, gt.height)
        return _pixels(cut), _pixels(truth), _overlap(cut, truth)
    height, width = np.shape(gt)  # ValueError unless gt is 2-d
    cut = box.clip(width, height)
    inside = gt[cut] if cut else gt[:0]
    return inside.size, int(np.count_nonzero(gt)), int(np.count_nonzero(inside))


def group_item_ids(groups) -> list[str]:
    """Distinct item ids referenced by the groups (anchors and members),
    first-appearance order."""
    seen: dict[str, None] = {}
    for g in groups:
        seen.setdefault(g.anchor, None)
        for member_id, _ in g.members.neighbors:
            seen.setdefault(member_id, None)
    return list(seen)


ItemTable = dict[str, tuple[BoundingBox, np.ndarray | BoxTruth | None, str]]


def iou_verdicts(items: ItemTable, threshold: float) -> dict[str, bool]:
    """Whether each item's box reaches Jaccard >= threshold against its ground
    truth, as evaluate() scores it; a None ground truth passes."""
    check("threshold", threshold, THRESHOLD_RULE)
    return {i: gt is None or _scores(*_counts(box, gt))[1] >= threshold for i, (box, gt, _) in items.items()}


def evaluate(groups, items: ItemTable) -> dict:
    """The report.json record of every item the groups reference, looked up in
    items as (box, ground truth, class), so an id items lacks raises. The box,
    clipped to its image, gets the precision() and jaccard() of that box drawn
    against its ground truth, a mask or a BoxTruth. "skipped" lists the items
    whose ground truth is None, "empty_segmentations" those whose box has no
    pixel in its frame. "per_class", sorted by class, holds mean scores and
    counts; the averages are unweighted means over the classes, taken in
    first-appearance order (0.0 with no class)."""
    by_class: dict[str, list[tuple[float, float]]] = {}
    skipped: list[dict[str, str]] = []
    empty_seg: list[str] = []
    for item_id in group_item_ids(groups):
        box, gt, cls = items[item_id]
        if gt is None:
            skipped.append({"id": item_id, "reason": "no ground-truth mask"})
            continue
        seg_px, gt_px, inter = _counts(box, gt)
        if seg_px == 0:
            empty_seg.append(item_id)
        by_class.setdefault(cls, []).append(_scores(seg_px, gt_px, inter))
    per_class = {
        cls: {
            "precision": float(np.mean([p for p, _ in scores])),
            "jaccard": float(np.mean([j for _, j in scores])),
            "count": len(scores),
        }
        for cls, scores in by_class.items()
    }
    avg_p, avg_j = (float(np.mean([m[key] for m in per_class.values()])) if per_class else 0.0
                    for key in ("precision", "jaccard"))
    return {
        "per_class": dict(sorted(per_class.items())),
        "avg_precision": avg_p,
        "avg_jaccard": avg_j,
        "skipped": skipped,
        "empty_segmentations": empty_seg,
    }


def save_report_file(report: dict, path) -> None:
    """Write evaluate()'s record as indented JSON and a final LF."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
