"""Bounding-box arithmetic, overlap suppression, and proposal selection."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ._binio import read_lines


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box covering columns [x, x+w) and rows [y, y+h)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"box sides must be >= 1, got w={self.w} h={self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h

    def clip(self, width: int, height: int) -> tuple[slice, slice] | None:
        """(rows, cols) slices of the box cut to a width x height image; None if none is left."""
        x0, y0 = max(self.x, 0), max(self.y, 0)
        x1, y1 = min(self.x + self.w, width), min(self.y + self.h, height)
        if x1 <= x0 or y1 <= y0:
            return None
        return slice(y0, y1), slice(x0, x1)


@dataclass(frozen=True)
class Proposal:
    """A scored candidate object region anchored to one image."""

    image_id: str
    box: BoundingBox
    score: float
    source: str = ""

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union on pixel counts (area = w*h). 0.0 for disjoint boxes."""
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def _by_score(props) -> list[int]:
    # Stable sort: equal scores keep input order.
    return sorted(range(len(props)), key=lambda i: -props[i].score)


def _suppress(props: list[Proposal], order, iou_threshold: float) -> list[Proposal]:
    """Walk props in the given index order, keeping each proposal whose IoU
    with every kept one is below the threshold; kept ones come out in walk order.

    The one suppression loop behind nms (score order) and dedup_near (input
    order). All proposals must belong to one image.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou threshold must be in (0, 1], got {iou_threshold}")
    ids = {p.image_id for p in props}
    if len(ids) > 1:
        raise ValueError(f"proposals span multiple images: {sorted(ids)}")
    kept: list[Proposal] = []
    for i in order:
        p = props[i]
        if all(iou(p.box, q.box) < iou_threshold for q in kept):
            kept.append(p)
    return kept


def nms(props: list[Proposal], iou_threshold: float) -> list[Proposal]:
    """Greedy non-maximum suppression over one image's proposals.

    Walks proposals in descending score order (ties by input order) and keeps
    each one only if it overlaps every kept proposal below the threshold.
    The result is score-descending and no surviving pair reaches the threshold.
    """
    return _suppress(props, _by_score(props), iou_threshold)


def dedup_near(props: list[Proposal], iou_threshold: float) -> list[Proposal]:
    """Drop the later of any two proposals overlapping at or above the threshold.

    Order-stable and score-agnostic: the first occurrence always survives.
    """
    return _suppress(props, range(len(props)), iou_threshold)


def top_k(props: list[Proposal], k: int) -> list[Proposal]:
    """The k highest-scored proposals in descending score order (ties by input order)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [props[i] for i in _by_score(props)[:k]]


def load_proposals(path) -> list[Proposal]:
    """Read proposals from read_lines' `image_id,x,y,w,h,score,source` lines;
    blank lines are skipped and nothing is stripped."""
    out = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 comma-separated fields, got {len(parts)}")
        image_id, x, y, w, h, score, source = parts
        try:
            prop = Proposal(image_id, BoundingBox(int(x), int(y), int(w), int(h)), float(score), source)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        out.append(prop)
    return out


def save_proposals(path, props) -> None:
    """Write proposals as `image_id,x,y,w,h,score,source` lines (UTF-8, LF)."""
    lines = []
    for p in props:
        if any(c in p.image_id or c in p.source for c in ",\r\n"):
            raise ValueError(f"image_id/source may not hold a comma, CR or LF: {p.image_id!r}, {p.source!r}")
        lines.append(f"{p.image_id},{p.box.x},{p.box.y},{p.box.w},{p.box.h},{p.score!r},{p.source}")
    text = "".join(line + "\n" for line in lines)
    if text.startswith("\ufeff"):  # load_proposals would skip it as a byte-order mark
        raise ValueError(f"the first image_id may not start with U+FEFF: {lines[0]!r}")
    Path(path).write_text(text, encoding="utf-8", newline="\n")
