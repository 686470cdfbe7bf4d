"""Correctness checks and quality metrics recomputed from a run's artifacts.

Everything here reads the files the pipeline left in its output directory and
the generated inputs; nothing calls into coseg, so a fault in the program
cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from datagen import box_iou

# artifacts that must be byte-identical across runs of one seed
HASHED = ("model.csgm", "index.csgi", "groups.jsonl", "report.json")

# relative tolerance between a group member's stored distance and the exact
# float64 distance recomputed from the float32 embeddings
DIST_RTOL = 1e-9


def sha256s(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in HASHED}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def read_csgd(path: Path) -> tuple[list[str], np.ndarray]:
    """Decode a .csgd file: magic, u32 version, u32 dim, u64 count, then per
    item a u16-prefixed UTF-8 id and dim little-endian float32 values."""
    data = Path(path).read_bytes()
    if data[:4] != b"CSGD":
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    dim, count = struct.unpack_from("<IQ", data, 8)
    pos = 20
    ids, rows = [], []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        ids.append(data[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        rows.append(np.frombuffer(data, dtype="<f4", count=dim, offset=pos))
        pos += 4 * dim
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return ids, np.array(rows, dtype=np.float32).reshape(count, dim)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(out_dir: Path, manifest: Path, expect: dict) -> tuple[list[str], dict[str, float]]:
    """Check one run's artifacts; returns (failures, quality metrics).

    `expect` holds train_items, test_items, k, iou_filter, exact (whether the
    query budget covers every item) and min_recall.
    """
    fails: list[str] = []
    items = {r["item_id"]: r for r in _read_csv(out_dir / "items.csv")}
    gt = {
        r["item_id"]: tuple(int(r[f]) for f in ("gt_x", "gt_y", "gt_w", "gt_h"))
        for r in _read_csv(manifest)
    }
    n_train = sum(r["split"] == "train" for r in items.values())
    if (n_train, len(items) - n_train) != (expect["train_items"], expect["test_items"]):
        fails.append(f"items.csv holds {n_train} train and {len(items) - n_train} test items")

    def passes(item_id: str) -> bool:
        r = items[item_id]
        box = tuple(int(r[f]) for f in ("x", "y", "w", "h"))
        return box_iou(box, gt[r["image_id"]]) >= expect["iou_filter"]

    ids, emb = read_csgd(out_dir / "emb_test.csgd")
    n, k = len(ids), expect["k"]
    x = emb.astype(np.float64)
    dist = np.empty((n, n))
    for a in range(n):  # row by row, the way coseg scores its candidates
        diffs = x - x[a]
        dist[a] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    pos_of = {item_id: i for i, item_id in enumerate(ids)}

    groups = [json.loads(line) for line in (out_dir / "groups.jsonl").read_text("utf-8").splitlines()]
    if [g["anchor"] for g in groups] != ids:
        fails.append("groups.jsonl anchors differ from emb_test.csgd ids")
        groups = []
    hits = exact_total = members_total = same_class = 0
    for a, g in enumerate(groups):
        members = [m["id"] for m in g["members"]]
        dists = [m["distance"] for m in g["members"]]
        if len(members) > k or any(m not in pos_of or m == g["anchor"] for m in members):
            fails.append(f"group {g['anchor']}: bad member list")
            continue
        want = np.array([dist[a, pos_of[m]] for m in members])
        if not np.allclose(dists, want, rtol=DIST_RTOL, atol=0.0):
            fails.append(f"group {g['anchor']}: stored distances differ from exact ones")
        if any(d2 < d1 for d1, d2 in zip(dists, dists[1:])):
            fails.append(f"group {g['anchor']}: distances not ascending")
        if not all(passes(m) for m in members):
            fails.append(f"group {g['anchor']}: member fails the IoU filter")
        order = [j for j in np.argsort(dist[a], kind="stable")[: k + 1] if j != a][:k]
        exact = [ids[j] for j in order if passes(ids[j])]
        if expect["exact"] and members != exact:
            fails.append(f"group {g['anchor']}: exact search returned other neighbors")
        hits += len(set(members) & set(exact))
        exact_total += len(exact)
        members_total += len(members)
        cls = items[g["anchor"]]["class"]
        same_class += sum(items[m]["class"] == cls for m in members)
    recall = hits / exact_total if exact_total else 0.0
    if recall < expect["min_recall"]:
        fails.append(f"recall {recall:.4f} below {expect['min_recall']}")

    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    referenced = {g["anchor"] for g in groups} | {m["id"] for g in groups for m in g["members"]}
    scored = sum(c["count"] for c in report["per_class"].values())
    if report["skipped"] or scored != len(referenced):
        fails.append(f"report.json scored {scored} of {len(referenced)} grouped items")
    for key in ("avg_precision", "avg_jaccard"):
        if not 0.0 < report[key] <= 1.0:
            fails.append(f"report.json {key} = {report[key]} out of range")

    n_collages = len(list((out_dir / "collages").glob("*.ppm")))
    want_collages = sum(1 for g in groups[: expect["collage_limit"]] if g["members"])
    if n_collages != want_collages:
        fails.append(f"{n_collages} collages, expected {want_collages}")
    for p in (out_dir / "collages").glob("*.ppm"):
        if not p.read_bytes().startswith(b"P6\n512 512\n255\n"):
            fails.append(f"{p.name} is not a 512x512 P6 image")

    quality = {
        "recall_at_k": recall,
        "same_class_at_k": same_class / members_total if members_total else 0.0,
        "avg_precision": float(report["avg_precision"]),
        "avg_jaccard": float(report["avg_jaccard"]),
    }
    return fails, quality
