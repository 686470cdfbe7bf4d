"""
Collage composition: ten slots, closest item largest
====================================================

A similarity group is summarized as one 512x512 picture: up to ten object
cutouts tiled into fixed slots, the closest match getting the big 256x256
slot in the top-left corner. Masked-off pixels keep the background color, so
irregular cutouts read as objects, not rectangles.
"""

import tempfile
from pathlib import Path

import numpy as np

from coseg.collage import CollageItem, CollageSpec, layout, make_collage
from coseg.pnm import write_ppm

# 1. Eight synthetic cutouts: solid colors under an elliptical mask, with a
#    made-up retrieval distance each. Distances drive the slot assignment.
rng = np.random.default_rng(20)
palette = [
    (220, 60, 60), (60, 180, 75), (255, 200, 0), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
]
items = []
for i, color in enumerate(palette):
    h, w = int(rng.integers(24, 48)), int(rng.integers(24, 48))
    region = np.zeros((h, w, 3), dtype=np.uint8)
    region[:, :] = color
    yy, xx = np.mgrid[0:h, 0:w]
    mask = ((yy - h / 2) / (h / 2)) ** 2 + ((xx - w / 2) / (w / 2)) ** 2 <= 1.0
    items.append(CollageItem(region=region, mask=mask, distance=float(rng.uniform(0, 2))))

# 2. The layout pairs each item with a slot index: ascending distance, ties
#    by input order, slot 0 first. Unfilled slots stay background.
spec = CollageSpec()
print("slot  area      distance  color")
for slot, item in layout(items, spec):
    s = spec.slots[slot]
    print(f"{slot:4d}  {s.area:6d}    {item.distance:.4f}  {tuple(int(c) for c in item.region[0, 0])}")

# 3. Compose and write. The canvas is plain RGB, so the portable pixmap
#    writer handles it directly.
canvas = make_collage(items, spec)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "collage.ppm"
    write_ppm(out, canvas)
    print(f"\nwrote {out.name} ({out.stat().st_size} bytes)")
background_share = float(np.mean(np.all(canvas == spec.background, axis=2)))
print(f"canvas {canvas.shape[1]}x{canvas.shape[0]}, {background_share:.0%} background")
