"""Summary collage: up to ten retrieved objects placed into a fixed tiling of
a 512x512 canvas, the closest match getting the single large slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .descriptors import resize_nearest
from .errors import check_rules, int_rule
from .geometry import BoundingBox

CANVAS_SIDE = 512
SKY_BLUE = (135, 206, 235)


def default_slots() -> tuple[BoundingBox, ...]:
    """The fixed ten-slot tiling: one 256x256 block top-left, four 128x128
    blocks filling the top-right quadrant, and five tall cells across the
    bottom half (widths 103,103,102,102,102)."""
    slots = [
        BoundingBox(0, 0, 256, 256),
        BoundingBox(256, 0, 128, 128),
        BoundingBox(384, 0, 128, 128),
        BoundingBox(256, 128, 128, 128),
        BoundingBox(384, 128, 128, 128),
    ]
    x = 0
    for w in (103, 103, 102, 102, 102):
        slots.append(BoundingBox(x, 256, w, 256))
        x += w
    return tuple(slots)


# CollageSpec's field with its (words, predicate) rule, which the collage.background key takes too.
COLLAGE_RULES = {"background": ("three comma-separated integers in [0, 255]",
                                lambda v: len(v) == 3 and all(map(int_rule(0, 8)[1], v)))}


@dataclass(frozen=True)
class CollageSpec:
    """Canvas look: the background fill color, which must meet its
    COLLAGE_RULES rule, else ConfigError. The geometry is not settable:
    every canvas uses the default_slots() tiling, readable as spec.slots."""

    slots: ClassVar[tuple[BoundingBox, ...]] = default_slots()
    background: tuple[int, int, int] = SKY_BLUE

    def __post_init__(self) -> None:
        check_rules(self, COLLAGE_RULES)
        object.__setattr__(self, "background", tuple(int(c) for c in self.background))


@dataclass(frozen=True)
class CollageItem:
    """An object cutout: RGB pixels, the retrieval distance that ranks it, and
    optionally a same-size foreground mask. No mask means the whole region is
    foreground, so the item fills its slot."""

    region: np.ndarray
    distance: float
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        region = np.asarray(self.region, dtype=np.uint8)
        if region.ndim != 3 or region.shape[2] != 3:
            raise ValueError(f"region must be (h, w, 3), got shape {region.shape}")
        if not (self.distance >= 0 and np.isfinite(self.distance)):
            raise ValueError(f"distance must be finite and >= 0, got {self.distance}")
        object.__setattr__(self, "region", region)
        if self.mask is not None:
            mask = np.asarray(self.mask)
            if mask.shape != region.shape[:2]:
                raise ValueError(
                    f"mask shape {mask.shape} does not match region {region.shape[:2]}"
                )
            object.__setattr__(self, "mask", mask != 0)


def layout(items: list[CollageItem], spec: CollageSpec) -> list[tuple[int, CollageItem]]:
    """Assign items to slots: ascending distance, closest to slot 0 (the
    largest), the rest filling slots in order. Ties keep input order."""
    if len(items) > len(spec.slots):
        raise ValueError(f"at most {len(spec.slots)} items fit, got {len(items)}")
    order = sorted(range(len(items)), key=lambda i: (items[i].distance, i))
    return [(slot, items[i]) for slot, i in enumerate(order)]


def compose(assignment: list[tuple[int, CollageItem]], spec: CollageSpec) -> np.ndarray:
    """Render the canvas: background fill, then each item scaled into its slot
    by nearest neighbor. A masked item's slot then shows the background again
    wherever its scaled mask is off."""
    canvas = np.empty((CANVAS_SIDE, CANVAS_SIDE, 3), dtype=np.uint8)
    # fill one row, then copy it down: faster than broadcasting a 3-byte pattern
    canvas[0] = spec.background
    canvas[1:] = canvas[0]
    seen = set()
    for slot_idx, item in assignment:
        if not 0 <= slot_idx < len(spec.slots):
            raise ValueError(f"slot index {slot_idx} out of range")
        if slot_idx in seen:
            raise ValueError(f"slot {slot_idx} assigned twice")
        seen.add(slot_idx)
        s = spec.slots[slot_idx]
        target = canvas[s.y : s.y + s.h, s.x : s.x + s.w]
        target[...] = resize_nearest(item.region, s.h, s.w)
        if item.mask is not None:
            target[~resize_nearest(item.mask, s.h, s.w)] = spec.background
    return canvas


def make_collage(items: list[CollageItem], spec: CollageSpec) -> np.ndarray:
    """layout + compose in one call."""
    return compose(layout(items, spec), spec)
