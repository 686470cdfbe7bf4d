"""
The whole pipeline on a painted dataset
=======================================

Seven stages run back to back: ingest proposals, cut descriptors, train the
encoder, embed, index, retrieve groups, then report metrics and render
collages. This walk paints a small two-class image set on disk, runs
everything through one config dict, and lists what came out.
"""

import tempfile
from pathlib import Path

import numpy as np

from coseg.geometry import BoundingBox, Proposal, save_proposals
from coseg.pipeline import ManifestRecord, merge_config, run_pipeline, save_manifest
from coseg.pnm import write_ppm

workdir = tempfile.TemporaryDirectory()
root = Path(workdir.name)
(root / "images").mkdir()
rng = np.random.default_rng(0)

# 1. Paint the dataset: dark noise with one bright textured rectangle per
#    image. The two classes differ in brightness and checker size, which is
#    plenty for 32x32 grayscale patch descriptors.
records, proposals = [], []
for c, (level, cell) in enumerate([(100, 3), (220, 6)]):
    for i in range(6):
        image_id = f"class{c}_img{i}"
        img = rng.integers(0, 30, size=(64, 64, 3), dtype=np.uint8)
        w, h = int(rng.integers(22, 33)), int(rng.integers(22, 33))
        x, y = int(rng.integers(0, 64 - w)), int(rng.integers(0, 64 - h))
        yy, xx = np.mgrid[0:h, 0:w]
        tone = level - 30 * ((yy // cell + xx // cell) % 2)
        img[y : y + h, x : x + w] = tone[:, :, None].astype(np.uint8)
        write_ppm(root / "images" / f"{image_id}.ppm", img)
        gt = BoundingBox(x, y, w, h)
        records.append(
            ManifestRecord(
                item_id=image_id,
                image_path=f"images/{image_id}.ppm",
                class_name=f"class{c}",
                split="train" if i < 4 else "test",
                gt_box=gt,
            )
        )
        # the true box plus a jittered near-duplicate for the cleanup chain
        proposals.append(Proposal(image_id, gt, 0.9, "demo"))
        jx, jy = max(0, x - 1), max(0, y - 1)
        proposals.append(Proposal(image_id, BoundingBox(jx, jy, w, h), 0.7, "demo"))
save_manifest(records, root / "manifest.csv")
save_proposals(root / "proposals.csv", proposals)

# 2. One flat config drives everything. Keys mirror the CLI flags; unset keys
#    fall back to defaults. The COSEG_SEED environment variable applies to the
#    coseg command only: merge_config and run_pipeline do not read it.
cfg = merge_config(
    {
        "data.manifest": str(root / "manifest.csv"),
        "data.proposals": str(root / "proposals.csv"),
        "data.out_dir": str(root / "out"),
        "seed": "7",
        "train.iterations": "400",
        "train.layers": "64,32",
        "index.n_trees": "10",
        "retrieve.k": "4",
        "collage.limit": "2",
    }
)
timings = run_pipeline(cfg)
print("stage timings:")
for stage, seconds in timings.items():
    print(f"  {stage:10s} {seconds:6.3f}s")

# 3. Everything lands under out_dir; the collages directory holds one
#    portable pixmap per rendered group.
out = root / "out"
print("\nartifacts:")
for p in sorted(out.rglob("*")):
    if p.is_file():
        print(f"  {p.relative_to(out)}  ({p.stat().st_size} bytes)")

# 4. The data set and everything the pipeline wrote go away with the
#    temporary directory.
workdir.cleanup()
