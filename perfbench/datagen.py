"""Seeded synthetic data sets for the benchmark workloads.

Each image holds one object of its class: a textured rectangle on a dark
noisy background, sized relative to the frame so that the same generator
serves 64 px thumbnails and 640x480 frames. Ground truth is a box in the
manifest. Proposals are written so that the number surviving coseg's ingest
chain (near-duplicate removal at IoU 0.95, NMS at 0.7, top 10) is known
exactly:

- the ground-truth box, score 0.95;
- a near-duplicate of it (IoU above 0.95), removed by near-duplicate removal;
- a jittered copy (IoU 0.75 to 0.93), suppressed by NMS;
- on train images, `train_extra` partial views (IoU 0.5 to 0.65 with the
  object), which survive and train as the image's class;
- on test images, `test_distractors` boxes overlapping the object at IoUs
  spread evenly over 0 to 0.6, scored higher the more they overlap; they
  survive ingest, and all but those above IoU 0.5 are dropped again by the
  retrieval IoU filter.

The files are written with plain NumPy and text I/O, not with coseg, so the
program under test receives only the generated files. Run alone it writes one
data set:

    python3 perfbench/datagen.py --workload desk-vga --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# per-class object appearance: (base gray level, checker cells across the object)
CLASS_LOOKS = [(90, 2), (150, 4), (210, 3), (250, 6), (60, 5), (120, 8), (180, 7), (35, 3)]

# test distractors overlap their object at IoUs spread evenly below this
DISTRACTOR_MAX_IOU = 0.6

MANIFEST_HEADER = "item_id,image_path,class,split,gt_x,gt_y,gt_w,gt_h,gt_mask_path"


@dataclass(frozen=True)
class DataSpec:
    """Sizes of one synthetic data set."""

    width: int
    height: int
    classes: int
    images_per_class: int
    train_per_class: int
    train_extra: int  # surviving partial-view proposals per train image
    test_distractors: int  # surviving distractor proposals per test image
    object_frac: tuple[float, float] = (0.3, 0.6)  # object side / frame side

    @property
    def train_items(self) -> int:
        return self.classes * self.train_per_class * (1 + self.train_extra)

    @property
    def test_items(self) -> int:
        test_images = self.classes * (self.images_per_class - self.train_per_class)
        return test_images * (1 + self.test_distractors)


def box_iou(a, b) -> float:
    """IoU of two (x, y, w, h) boxes."""
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _paint(rng: np.random.Generator, spec: DataSpec, class_idx: int):
    """One frame with one textured object; returns (pixels, gt box)."""
    W, H = spec.width, spec.height
    img = rng.integers(0, 30, size=(H, W, 3), dtype=np.uint8)
    lo, hi = spec.object_frac
    w = int(rng.integers(int(lo * W), int(hi * W) + 1))
    h = int(rng.integers(int(lo * H), int(hi * H) + 1))
    x = int(rng.integers(0, W - w + 1))
    y = int(rng.integers(0, H - h + 1))
    level, cells = CLASS_LOOKS[class_idx % len(CLASS_LOOKS)]
    yy, xx = np.mgrid[0:h, 0:w]
    checker = ((yy * cells // h + xx * cells // w) % 2).astype(np.int16)
    tone = np.clip(level - 25 * checker + rng.integers(-8, 9, size=(h, w)), 0, 255)
    img[y : y + h, x : x + w] = tone[:, :, None].astype(np.uint8)
    return img, (x, y, w, h)


def _draw_box(rng, spec: DataSpec, near, iou_range, avoid, max_iou):
    """Rejection-sample a box whose IoU with `near` lies in iou_range and
    whose IoU with every box in `avoid` stays below max_iou. Candidates are
    `near` with each side moved by up to half of what the lower IoU bound
    allows or, for bands below 0.5, any box around `near` from a third to one
    and a half of its size."""
    W, H = spec.width, spec.height
    nx, ny, nw, nh = near
    for _ in range(20_000):
        if iou_range[0] >= 0.5:
            s = 0.45 * (1.0 - iou_range[0])
            dx0, dx1, dy0, dy1 = (rng.uniform(-s, s, size=4) * [nw, nw, nh, nh]).astype(int)
            x, y = nx + dx0, ny + dy0
            w, h = nw + dx1 - dx0, nh + dy1 - dy0
        else:
            w = int(nw * rng.uniform(0.33, 1.5))
            h = int(nh * rng.uniform(0.33, 1.5))
            x = int(rng.integers(nx - w, nx + nw + 1))
            y = int(rng.integers(ny - h, ny + nh + 1))
        x, y = max(0, x), max(0, y)
        w, h = min(w, W - x), min(h, H - y)
        if w < 2 or h < 2:
            continue
        box = (x, y, w, h)
        if not iou_range[0] <= box_iou(box, near) <= iou_range[1]:
            continue
        if all(box_iou(box, b) < max_iou for b in avoid):
            return box
    raise RuntimeError("could not place a proposal box; the data spec is too crowded")


def write_dataset(root: Path, spec: DataSpec, seed: int) -> tuple[Path, Path]:
    """Write images/, manifest.csv and proposals.csv under root; returns the
    manifest and proposals paths. The same spec and seed give the same bytes."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest = [MANIFEST_HEADER]
    proposals = []
    for c in range(spec.classes):
        for i in range(spec.images_per_class):
            image_id = f"class{c}_img{i}"
            train = i < spec.train_per_class
            img, gt = _paint(rng, spec, c)
            rel = f"images/{image_id}.ppm"
            header = f"P6\n{spec.width} {spec.height}\n255\n".encode("ascii")
            (root / rel).write_bytes(header + img.tobytes())
            manifest.append(
                f"{image_id},{rel},class{c},{'train' if train else 'test'},"
                f"{gt[0]},{gt[1]},{gt[2]},{gt[3]},"
            )
            boxes = [(gt, 0.95)]
            boxes.append((_draw_box(rng, spec, gt, (0.96, 1.0), [], 2.0), 0.94))
            boxes.append((_draw_box(rng, spec, gt, (0.75, 0.93), [], 2.0), 0.9))
            kept = [gt]
            if train:
                for _ in range(spec.train_extra):
                    box = _draw_box(rng, spec, gt, (0.5, 0.65), kept[1:], 0.6)
                    kept.append(box)
                    boxes.append((box, float(rng.uniform(0.4, 0.85))))
            else:
                for j in range(spec.test_distractors):
                    # graded overlaps, so scores average alike for every seed
                    mid = DISTRACTOR_MAX_IOU * (j + 0.5) / spec.test_distractors
                    band = (max(0.0, mid - 0.03), mid + 0.03)
                    box = _draw_box(rng, spec, gt, band, kept[1:], 0.6)
                    kept.append(box)
                    # like a detector's objectness, the score rises with the
                    # overlap, so item order within an image is fixed
                    score = 0.1 + 0.75 * (j + 0.5) / spec.test_distractors
                    boxes.append((box, score + float(rng.uniform(-0.01, 0.01))))
            for (x, y, w, h), score in boxes:
                proposals.append(f"{image_id},{x},{y},{w},{h},{score:.4f},synthetic")
    manifest_path = root / "manifest.csv"
    proposals_path = root / "proposals.csv"
    manifest_path.write_text("\n".join(manifest) + "\n", encoding="utf-8")
    proposals_path.write_text("\n".join(proposals) + "\n", encoding="utf-8")
    return manifest_path, proposals_path


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload].data
    write_dataset(args.out, spec, args.seed)
    print(json.dumps({"train_items": spec.train_items, "test_items": spec.test_items}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
