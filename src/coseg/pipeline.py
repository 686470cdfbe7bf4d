"""Dataset manifests, configuration, and the staged end-to-end pipeline:
ingest -> train -> embed -> index -> retrieve -> evaluate -> collage.

Every stage is a pure function of its input artifacts plus the config, so a
stage can be re-run alone and reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .annindex import IndexConfig, build
from .annindex import load_file as load_index_file
from .annindex import save_file as save_index_file
from .collage import CollageItem, CollageSpec, make_collage
from .descriptors import (
    load_descriptors_file,
    patch_descriptor,
    save_descriptors_file,
)
from .embedder import (
    LabeledDescriptors,
    TrainConfig,
    load_model_file,
    save_model_file,
    train,
)
from .errors import ConfigError, StageError
from .geometry import BoundingBox, Proposal, dedup_near, load_proposals, nms, top_k
from .metrics import evaluate, save_report_file
from .pnm import read_image, read_pbm, write_ppm
from .retrieval import (
    embed_all,
    filter_candidates,
    load_groups,
    retrieve_similar,
    save_groups,
)

logger = logging.getLogger("coseg.pipeline")

SPLITS = ("train", "test")

MANIFEST_FIELDS = [
    "item_id", "image_path", "class", "split",
    "gt_x", "gt_y", "gt_w", "gt_h", "gt_mask_path",
]

ITEMS_FIELDS = [
    "item_id", "image_id", "class", "split",
    "x", "y", "w", "h", "score", "source", "img_w", "img_h",
]

# config keys with their defaults; values are kept as strings until a stage
# parses them
DEFAULTS = {
    "seed": "0",
    "data.manifest": "",
    "data.proposals": "",
    "data.out_dir": "",
    "split.resplit": "false",
    "split.train_fraction": "0.8",
    "ingest.dedup_threshold": "0.95",
    "ingest.nms_threshold": "0.7",
    "ingest.top_k": "10",
    "train.lr": "0.01",
    "train.momentum": "0.9",
    "train.batch_size": "128",
    "train.margin": "1.0",
    "train.iterations": "100000",
    "train.mining": "aggressive",
    "train.layers": "128,256",
    "train.pool_factor": "10",
    "train.classical_hinge": "false",
    "index.n_trees": "350",
    "index.search_k": "50",
    "index.leaf_capacity": "16",
    "index.metric": "euclidean",
    "retrieve.k": "10",
    "retrieve.search_k": "50",
    "retrieve.iou_filter": "0.5",
    "collage.background": "135,206,235",
    "collage.limit": "8",
}

STAGE_NAMES = ("ingest", "train", "embed", "index", "retrieve", "evaluate", "collage")


# ---------------------------------------------------------------------------
# config


def load_config(path) -> dict[str, str]:
    """Parse a flat key=value config file; # starts a comment line."""
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def merge_config(*layers: dict[str, str]) -> dict[str, str]:
    """Later layers win; all keys must be known."""
    cfg = dict(DEFAULTS)
    for layer in layers:
        for key, value in layer.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


def _cfg_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from None


def _cfg_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _cfg_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {cfg[key]!r}")


def _cfg_path(cfg: dict[str, str], key: str) -> Path:
    if not cfg[key]:
        raise ConfigError(f"{key} is required but not set")
    return Path(cfg[key])


def _cfg_int_tuple(cfg: dict[str, str], key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in cfg[key].split(","))
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {cfg[key]!r}") from None


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset image: path, class, split, optional ground truth."""

    item_id: str
    image_path: str
    class_name: str
    split: str
    gt_box: BoundingBox | None = None
    gt_mask_path: str | None = None

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not self.item_id:
            raise ValueError("item_id must be non-empty")


def load_manifest(path) -> list[ManifestRecord]:
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_FIELDS:
            raise ValueError(
                f"{path}: header must be {','.join(MANIFEST_FIELDS)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            lineno = reader.line_num
            try:
                box_fields = [row["gt_x"], row["gt_y"], row["gt_w"], row["gt_h"]]
                filled = [f for f in box_fields if f not in ("", None)]
                if len(filled) not in (0, 4):
                    raise ValueError("gt box needs all of gt_x,gt_y,gt_w,gt_h or none")
                gt_box = (
                    BoundingBox(*(int(f) for f in box_fields)) if len(filled) == 4 else None
                )
                record = ManifestRecord(
                    item_id=row["item_id"],
                    image_path=row["image_path"],
                    class_name=row["class"],
                    split=row["split"],
                    gt_box=gt_box,
                    gt_mask_path=row["gt_mask_path"] or None,
                )
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if record.item_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate item_id {record.item_id!r}")
            seen.add(record.item_id)
            records.append(record)
    return records


def save_manifest(records: list[ManifestRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for r in records:
            box = (
                [r.gt_box.x, r.gt_box.y, r.gt_box.w, r.gt_box.h] if r.gt_box else ["", "", "", ""]
            )
            writer.writerow(
                [r.item_id, r.image_path, r.class_name, r.split, *box, r.gt_mask_path or ""]
            )


def split_dataset(
    records: list[ManifestRecord], train_fraction: float, seed: int
) -> tuple[list[ManifestRecord], list[ManifestRecord]]:
    """Stratified train/test split, deterministic for a given seed.

    Per class, round(n * fraction) items go to train, clamped so both sides
    stay non-empty whenever the class has two or more items. A single-item
    class goes to train with a warning.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_class.setdefault(r.class_name, []).append(i)
    train_idx: set[int] = set()
    for cls in sorted(by_class):
        members = by_class[cls]
        n = len(members)
        if n == 1:
            logger.warning("class %r has a single item; keeping it in train", cls)
            train_idx.add(members[0])
            continue
        n_train = int(np.floor(n * train_fraction + 0.5))
        n_train = min(max(n_train, 1), n - 1)
        order = rng.permutation(n)
        train_idx.update(members[j] for j in order[:n_train])
    train_records = [
        replace(r, split="train") for i, r in enumerate(records) if i in train_idx
    ]
    test_records = [
        replace(r, split="test") for i, r in enumerate(records) if i not in train_idx
    ]
    return train_records, test_records


# ---------------------------------------------------------------------------
# items table (per-proposal metadata written by ingest)


@dataclass(frozen=True)
class ItemRecord:
    """One surviving proposal with its provenance and image geometry."""

    item_id: str
    proposal: Proposal
    class_name: str
    split: str
    img_w: int
    img_h: int


def save_items(items: list[ItemRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ITEMS_FIELDS)
        for it in items:
            p = it.proposal
            writer.writerow(
                [
                    it.item_id, p.image_id, it.class_name, it.split,
                    p.box.x, p.box.y, p.box.w, p.box.h, repr(p.score), p.source,
                    it.img_w, it.img_h,
                ]
            )


def load_items(path) -> list[ItemRecord]:
    items: list[ItemRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ITEMS_FIELDS:
            raise ValueError(
                f"{path}: header must be {','.join(ITEMS_FIELDS)}, got {reader.fieldnames}"
            )
        for row in reader:
            try:
                items.append(
                    ItemRecord(
                        item_id=row["item_id"],
                        proposal=Proposal(
                            row["image_id"],
                            BoundingBox(int(row["x"]), int(row["y"]), int(row["w"]), int(row["h"])),
                            float(row["score"]),
                            row["source"],
                        ),
                        class_name=row["class"],
                        split=row["split"],
                        img_w=int(row["img_w"]),
                        img_h=int(row["img_h"]),
                    )
                )
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return items


# ---------------------------------------------------------------------------
# ingest


@dataclass(frozen=True)
class IngestResult:
    """Descriptors plus per-item metadata for one or both splits."""

    items: list[ItemRecord]
    vectors: np.ndarray  # (n, descriptor dim) float32, aligned with items


def ingest(
    manifest: list[ManifestRecord],
    proposals: list[Proposal],
    dedup_threshold: float = 0.95,
    nms_threshold: float = 0.7,
    keep_top: int = 10,
) -> IngestResult:
    """Reduce each image's proposals (near-duplicate removal, then NMS, then
    top-k by score) and crop a descriptor for every survivor.

    Image paths in the manifest are read as written. Proposals naming an
    image absent from the manifest are an error; images without proposals
    are skipped with a warning.
    """
    by_image: dict[str, list[Proposal]] = {}
    for p in proposals:
        by_image.setdefault(p.image_id, []).append(p)
    known = {r.item_id for r in manifest}
    unknown = sorted(set(by_image) - known)
    if unknown:
        raise ValueError(f"proposals reference images not in the manifest: {unknown[:5]}")
    if not proposals:
        logger.warning("no proposals supplied; ingest produced an empty dataset")

    items: list[ItemRecord] = []
    vectors: list[np.ndarray] = []
    for record in manifest:
        props = by_image.get(record.item_id, [])
        if not props:
            logger.warning("image %r has no proposals; skipping", record.item_id)
            continue
        survivors = top_k(nms(dedup_near(props, dedup_threshold), nms_threshold), keep_top)
        path = Path(record.image_path)
        if not path.exists():
            raise FileNotFoundError(f"image file missing for {record.item_id!r}: {path}")
        image = read_image(path)
        img_h, img_w = image.shape[:2]
        for j, prop in enumerate(survivors):
            items.append(
                ItemRecord(
                    item_id=f"{record.item_id}#{j}",
                    proposal=prop,
                    class_name=record.class_name,
                    split=record.split,
                    img_w=img_w,
                    img_h=img_h,
                )
            )
            vectors.append(patch_descriptor(image, prop.box))
    matrix = (
        np.stack(vectors) if vectors else np.empty((0, 1024), dtype=np.float32)
    )
    return IngestResult(items=items, vectors=matrix)


# ---------------------------------------------------------------------------
# stages


def _out_dir(cfg: dict[str, str]) -> Path:
    out = _cfg_path(cfg, "data.out_dir")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _class_labels(items: list[ItemRecord]) -> tuple[np.ndarray, list[str]]:
    """Map class names to stable integer labels (sorted name order)."""
    names = sorted({it.class_name for it in items})
    index = {n: i for i, n in enumerate(names)}
    return np.array([index[it.class_name] for it in items], dtype=np.int64), names


def _resolve_paths(record: ManifestRecord, base: Path) -> ManifestRecord:
    """The record with its image and mask paths made absolute against base."""
    mask = record.gt_mask_path
    return replace(
        record,
        image_path=str((base / record.image_path).resolve()),
        gt_mask_path=str((base / mask).resolve()) if mask else None,
    )


def stage_ingest(cfg: dict[str, str]) -> None:
    """Later stages read images and masks through manifest_used.csv, whose
    paths are resolved here, against the manifest's directory."""
    out = _out_dir(cfg)
    manifest_path = _cfg_path(cfg, "data.manifest")
    manifest = [_resolve_paths(r, manifest_path.parent) for r in load_manifest(manifest_path)]
    if _cfg_bool(cfg, "split.resplit"):
        train_recs, test_recs = split_dataset(
            manifest, _cfg_float(cfg, "split.train_fraction"), _cfg_int(cfg, "seed")
        )
        by_id = {r.item_id: r for r in train_recs + test_recs}
        manifest = [by_id[r.item_id] for r in manifest]
    save_manifest(manifest, out / "manifest_used.csv")
    proposals = load_proposals(_cfg_path(cfg, "data.proposals"))
    result = ingest(
        manifest,
        proposals,
        dedup_threshold=_cfg_float(cfg, "ingest.dedup_threshold"),
        nms_threshold=_cfg_float(cfg, "ingest.nms_threshold"),
        keep_top=_cfg_int(cfg, "ingest.top_k"),
    )
    save_items(result.items, out / "items.csv")
    for split in SPLITS:
        sel = [i for i, it in enumerate(result.items) if it.split == split]
        ids = [result.items[i].item_id for i in sel]
        save_descriptors_file(ids, result.vectors[sel], out / f"desc_{split}.csgd")


def stage_train(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    ids, vectors = load_descriptors_file(out / "desc_train.csgd")
    items = {it.item_id: it for it in load_items(out / "items.csv")}
    train_items = [items[i] for i in ids]
    labels, _ = _class_labels(train_items)
    dataset = LabeledDescriptors(vectors=vectors, labels=labels)
    tc = TrainConfig(
        learning_rate=_cfg_float(cfg, "train.lr"),
        momentum=_cfg_float(cfg, "train.momentum"),
        batch_size=_cfg_int(cfg, "train.batch_size"),
        margin=_cfg_float(cfg, "train.margin"),
        iterations=_cfg_int(cfg, "train.iterations"),
        seed=_cfg_int(cfg, "seed"),
        mining=cfg["train.mining"],
        layer_sizes=_cfg_int_tuple(cfg, "train.layers"),
        pool_factor=_cfg_int(cfg, "train.pool_factor"),
        classical_hinge=_cfg_bool(cfg, "train.classical_hinge"),
    )
    result = train(dataset, tc)
    save_model_file(result.params, out / "model.csgm")
    with open(out / "loss_trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,loss\n")
        for i, loss in enumerate(result.loss_trace):
            fh.write(f"{i},{loss!r}\n")


def stage_embed(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    params = load_model_file(out / "model.csgm")
    ids, vectors = load_descriptors_file(out / "desc_test.csgd")
    embeddings = embed_all(params, vectors)
    save_descriptors_file(ids, embeddings.astype(np.float32), out / "emb_test.csgd")


def stage_index(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    _, embeddings = load_descriptors_file(out / "emb_test.csgd")
    ic = IndexConfig(
        n_trees=_cfg_int(cfg, "index.n_trees"),
        search_k=_cfg_int(cfg, "index.search_k"),
        leaf_capacity=_cfg_int(cfg, "index.leaf_capacity"),
        seed=_cfg_int(cfg, "seed"),
        metric=cfg["index.metric"],
    )
    save_index_file(build(embeddings, ic), out / "index.csgi")


def stage_retrieve(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    index = load_index_file(out / "index.csgi")
    ids, embeddings = load_descriptors_file(out / "emb_test.csgd")
    items = {it.item_id: it for it in load_items(out / "items.csv")}
    hints = {i: items[i].class_name for i in ids if i in items}
    groups = retrieve_similar(
        index,
        embeddings,
        k=_cfg_int(cfg, "retrieve.k"),
        search_k=_cfg_int(cfg, "retrieve.search_k"),
        ids=ids,
        class_hints=hints,
    )
    threshold = _cfg_float(cfg, "retrieve.iou_filter")
    manifest = load_manifest(out / "manifest_used.csv")
    gt_boxes = {r.item_id: r.gt_box for r in manifest if r.gt_box is not None}
    if gt_boxes and threshold > 0:
        proposals = {i: items[i].proposal for i in items}
        groups = [filter_candidates(g, proposals, gt_boxes, threshold) for g in groups]
    save_groups(groups, out / "groups.jsonl")


def _box_mask(img_w: int, img_h: int, box: BoundingBox) -> np.ndarray:
    mask = np.zeros((img_h, img_w), dtype=bool)
    x0, y0 = max(box.x, 0), max(box.y, 0)
    x1, y1 = min(box.x + box.w, img_w), min(box.y + box.h, img_h)
    if x1 > x0 and y1 > y0:
        mask[y0:y1, x0:x1] = True
    return mask


def stage_evaluate(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    groups = load_groups(out / "groups.jsonl")
    items = {it.item_id: it for it in load_items(out / "items.csv")}
    manifest = {r.item_id: r for r in load_manifest(out / "manifest_used.csv")}

    masks: dict[str, np.ndarray] = {}
    gt_masks: dict[str, np.ndarray] = {}
    class_map: dict[str, str] = {}
    gt_cache: dict[str, np.ndarray] = {}
    for item_id, it in items.items():
        masks[item_id] = _box_mask(it.img_w, it.img_h, it.proposal.box)
        class_map[item_id] = it.class_name
        record = manifest.get(it.proposal.image_id)
        if record is None:
            continue
        if record.gt_mask_path:
            if record.gt_mask_path not in gt_cache:
                gt_cache[record.gt_mask_path] = read_pbm(record.gt_mask_path)
            gt_masks[item_id] = gt_cache[record.gt_mask_path]
        elif record.gt_box is not None:
            gt_masks[item_id] = _box_mask(it.img_w, it.img_h, record.gt_box)
    report = evaluate(groups, masks, gt_masks, class_map)
    save_report_file(report, out / "report.json")


def _safe_name(item_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in item_id)


def stage_collage(cfg: dict[str, str]) -> None:
    out = _out_dir(cfg)
    groups = load_groups(out / "groups.jsonl")
    items = {it.item_id: it for it in load_items(out / "items.csv")}
    manifest = {r.item_id: r for r in load_manifest(out / "manifest_used.csv")}
    background = tuple(_cfg_int_tuple(cfg, "collage.background"))
    if len(background) != 3:
        raise ConfigError(f"collage.background needs three bytes, got {cfg['collage.background']!r}")
    spec = CollageSpec(background=background)
    limit = _cfg_int(cfg, "collage.limit")
    collage_dir = out / "collages"
    collage_dir.mkdir(exist_ok=True)
    image_cache: dict[str, np.ndarray] = {}

    for group in groups[: max(limit, 0)]:
        collage_items: list[CollageItem] = []
        for member_id, dist in group.members.neighbors[:10]:
            it = items.get(member_id)
            if it is None:
                raise ValueError(f"group member {member_id!r} missing from items table")
            record = manifest.get(it.proposal.image_id)
            if record is None:
                raise ValueError(f"image {it.proposal.image_id!r} missing from manifest")
            if record.image_path not in image_cache:
                image = read_image(record.image_path)
                if image.ndim == 2:
                    image = np.stack([image] * 3, axis=2)
                image_cache[record.image_path] = image
            image = image_cache[record.image_path]
            b = it.proposal.box
            x0, y0 = max(b.x, 0), max(b.y, 0)
            x1 = min(b.x + b.w, image.shape[1])
            y1 = min(b.y + b.h, image.shape[0])
            if x1 <= x0 or y1 <= y0:
                continue
            region = image[y0:y1, x0:x1]
            collage_items.append(
                CollageItem(
                    region=region,
                    mask=np.ones(region.shape[:2], dtype=bool),
                    distance=dist,
                )
            )
        if not collage_items:
            continue
        canvas = make_collage(collage_items, spec)
        write_ppm(collage_dir / f"{_safe_name(group.anchor)}.ppm", canvas)


_STAGES = {
    "ingest": stage_ingest,
    "train": stage_train,
    "embed": stage_embed,
    "index": stage_index,
    "retrieve": stage_retrieve,
    "evaluate": stage_evaluate,
    "collage": stage_collage,
}


def run_stage(name: str, cfg: dict[str, str]) -> float:
    """Run one stage; returns its wall time. Failures raise StageError."""
    fn = _STAGES.get(name)
    if fn is None:
        raise ConfigError(f"unknown stage {name!r} (expected one of {STAGE_NAMES})")
    start = time.perf_counter()
    try:
        fn(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    return time.perf_counter() - start


def run_pipeline(cfg: dict[str, str]) -> dict[str, float]:
    """Run every stage in order; returns stage -> wall time in seconds.

    A failing stage aborts the run; artifacts written by earlier stages stay
    on disk.
    """
    timings: dict[str, float] = {}
    for name in STAGE_NAMES:
        timings[name] = run_stage(name, cfg)
        logger.info("stage %s finished in %.3fs", name, timings[name])
    return timings
