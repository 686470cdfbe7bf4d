"""Dataset manifests, configuration, and the staged end-to-end pipeline:
ingest -> train -> embed -> index -> retrieve -> evaluate -> collage.

Every stage is a pure function of its input artifacts plus the config, so a
stage can be re-run alone and reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import logging
import os
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from ._binio import read_lines
from .annindex import INDEX_RULES, K_RULE, SEARCH_K_RULE, IndexConfig, build
from .annindex import load_file as load_index_file
from .annindex import save_file as save_index_file
from .collage import COLLAGE_RULES, CollageItem, CollageSpec, make_collage
from .descriptors import DESCRIPTOR_DIM, load_descriptors_file, patch_descriptor, save_descriptors_file
from .embedder import TRAIN_RULES, LabeledDescriptors, TrainConfig, load_model_file, save_model_file, train
from .errors import FLAG_RULE, ConfigError, StageError, check, int_rule
from .geometry import IOU_RULE, TOP_K_RULE, BoundingBox, Proposal, dedup_near, load_proposals, nms, top_k
from .metrics import (THRESHOLD_RULE, BoxTruth, ItemTable, evaluate, group_item_ids, iou_verdicts,
                      save_report_file)
from .pnm import read_image, read_pbm, write_ppm
from .retrieval import embed_all, filter_candidates, load_groups, retrieve_similar, save_groups

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

# ---------------------------------------------------------------------------
# config


@dataclass(frozen=True)
class Key:
    """One config key: its default string, the parser that types a value, and
    the rule the typed value must meet, in words and as a predicate."""

    default: str
    parse: Callable[[str], Any]
    rule: str
    ok: Callable[[Any], bool] = lambda value: True


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _path(raw: str) -> Path:
    if not raw:
        raise ValueError("unset")
    return Path(raw)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_FLAG = Key("false", lambda raw: _BOOLS[raw.lower()], *FLAG_RULE)
_PATH = Key("", _path, "set")
TRAIN_FRACTION_RULE = ("in (0, 1)", lambda v: 0 < v < 1)  # split_dataset's, and split.train_fraction's

# Every config key in one place. DEFAULTS, the unknown-key checks and the CLI
# flags derive from it; parse_config types and checks values by it. A key that
# a typed config's field takes (see _typed) has that field's rule.
KEYS: dict[str, Key] = {
    "seed": Key("0", int, *TRAIN_RULES["seed"]),
    "data.manifest": _PATH,
    "data.proposals": _PATH,
    "data.out_dir": _PATH,
    "split.resplit": _FLAG,
    "split.train_fraction": Key("0.8", float, *TRAIN_FRACTION_RULE),
    "ingest.dedup_threshold": Key("0.95", float, *IOU_RULE),
    "ingest.nms_threshold": Key("0.7", float, *IOU_RULE),
    "ingest.top_k": Key("10", int, *TOP_K_RULE),
    "train.lr": Key("0.01", float, *TRAIN_RULES["learning_rate"]),
    "train.momentum": Key("0.9", float, *TRAIN_RULES["momentum"]),
    "train.batch_size": Key("128", int, *TRAIN_RULES["batch_size"]),
    "train.margin": Key("1.0", float, *TRAIN_RULES["margin"]),
    "train.iterations": Key("100000", int, *TRAIN_RULES["iterations"]),
    "train.mining": Key("aggressive", str, *TRAIN_RULES["mining"]),
    "train.layers": Key("128,256", _ints, *TRAIN_RULES["layer_sizes"]),
    "train.pool_factor": Key("10", int, *TRAIN_RULES["pool_factor"]),
    "train.classical_hinge": _FLAG,
    "index.n_trees": Key("350", int, *INDEX_RULES["n_trees"]),
    "index.search_k": Key("50", int, *INDEX_RULES["search_k"]),
    "index.leaf_capacity": Key("16", int, *INDEX_RULES["leaf_capacity"]),
    "index.metric": Key("euclidean", str, *INDEX_RULES["metric"]),
    "retrieve.k": Key("10", int, *K_RULE),
    "retrieve.search_k": Key("50", int, *SEARCH_K_RULE),
    "retrieve.iou_filter": Key("0.5", float, *THRESHOLD_RULE),
    "collage.background": Key("135,206,235", _ints, *COLLAGE_RULES["background"]),
    "collage.limit": Key("8", int, *int_rule(0)),
}

DEFAULTS = {key: spec.default for key, spec in KEYS.items() if spec.default}


def load_config(path) -> dict[str, str]:
    """Parse a flat key=value config file of read_lines' lines; # starts a
    comment line. Whitespace is stripped from each line and around key and value."""
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def merge_config(*layers: dict[str, str]) -> dict[str, str]:
    """Later layers win; all keys must be known."""
    cfg = dict(DEFAULTS)
    for layer in layers:
        for key, value in layer.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


def parse_config(cfg: dict[str, str], required=()) -> dict[str, Any]:
    """Each value typed by its KEYS row; ConfigError names the keys of required
    that cfg lacks, else the first value that does not parse or breaks its rule."""
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    typed: dict[str, Any] = {}
    for key, raw in cfg.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        spec = KEYS[key]
        try:
            typed[key] = spec.parse(raw)
            ok = spec.ok(typed[key])
        except (KeyError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {spec.rule}, got {raw!r}")
    return typed


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


def _read_table(path, fields: list[str], parse_row: Callable[[dict[str, str]], Any]) -> list:
    """Parse each row of a CSV table of read_lines' lines whose header is exactly
    fields; blank lines are skipped. An oversized field, a row whose field count
    is not the header's or a row parse_row rejects raises ValueError naming path:line."""
    rows = []
    reader = csv.reader(line + "\n" for line in read_lines(path))  # a quoted field keeps its LFs
    try:
        header = next(reader, None)
        if header != fields:
            raise ValueError(f"header must be {','.join(fields)}, got {header}")
        for row in filter(None, reader):  # a blank line reads as []
            if extra := len(row) - len(fields):
                raise ValueError(f"{abs(extra)} field(s) {'beyond' if extra > 0 else 'short of'} the header")
            rows.append(parse_row(dict(zip(fields, row))))
    except (ValueError, TypeError, KeyError, csv.Error) as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def _write_table(path, fields: list[str], rows) -> None:
    """Write the header, then one line per row (UTF-8, LF); a field holding a CR raises ValueError."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            if any("\r" in str(f) for f in row):
                raise ValueError(f"{path}: a field may not hold a CR: {row}")
            writer.writerow(row)


def load_manifest(path) -> list[ManifestRecord]:
    seen: set[str] = set()

    def parse_row(row: dict[str, str]) -> ManifestRecord:
        box_fields = [row["gt_x"], row["gt_y"], row["gt_w"], row["gt_h"]]
        filled = [f for f in box_fields if f]
        if len(filled) not in (0, 4):
            raise ValueError("gt box needs all of gt_x,gt_y,gt_w,gt_h or none")
        record = ManifestRecord(
            item_id=row["item_id"],
            image_path=row["image_path"],
            class_name=row["class"],
            split=row["split"],
            gt_box=BoundingBox(*(int(f) for f in box_fields)) if filled else None,
            gt_mask_path=row["gt_mask_path"] or None,
        )
        if record.item_id in seen:
            raise ValueError(f"duplicate item_id {record.item_id!r}")
        seen.add(record.item_id)
        return record

    return _read_table(path, MANIFEST_FIELDS, parse_row)


def save_manifest(records: list[ManifestRecord], path) -> None:
    _write_table(path, MANIFEST_FIELDS, (
        [r.item_id, r.image_path, r.class_name, r.split,
         *((r.gt_box.x, r.gt_box.y, r.gt_box.w, r.gt_box.h) if r.gt_box else ("", "", "", "")),
         r.gt_mask_path or ""]
        for r in records
    ))


def split_dataset(
    records: list[ManifestRecord], train_fraction: float, seed: int
) -> list[ManifestRecord]:
    """The records in input order, each with its new split: a stratified
    train/test split, deterministic for a given seed.

    Per class, round(n * fraction) items go to train, clamped so both sides
    stay non-empty whenever the class has two or more items. A single-item
    class goes to train with a warning.
    """
    check("train_fraction", train_fraction, TRAIN_FRACTION_RULE)
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
    return [replace(r, split="train" if i in train_idx else "test") for i, r in enumerate(records)]


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
    _write_table(path, ITEMS_FIELDS, (
        [it.item_id, it.proposal.image_id, it.class_name, it.split,
         it.proposal.box.x, it.proposal.box.y, it.proposal.box.w, it.proposal.box.h,
         repr(it.proposal.score), it.proposal.source, it.img_w, it.img_h]
        for it in items
    ))


def load_items(path) -> list[ItemRecord]:
    return _read_table(path, ITEMS_FIELDS, lambda row: ItemRecord(
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
    ))


# ---------------------------------------------------------------------------
# ingest


def ingest(
    manifest: list[ManifestRecord],
    proposals: list[Proposal],
    dedup_threshold: float,
    nms_threshold: float,
    keep_top: int,
) -> tuple[list[ItemRecord], np.ndarray]:
    """Reduce each image's proposals (near-duplicate removal, then NMS, then
    top-k by score) and crop a descriptor for every survivor; returns the
    items and their (n, descriptor dim) float32 descriptors, row for row.

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
        image = read_image(record.image_path)
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
        np.stack(vectors) if vectors else np.empty((0, DESCRIPTOR_DIM), dtype=np.float32)
    )
    return items, matrix


# ---------------------------------------------------------------------------
# stages


def _class_labels(items: list[ItemRecord]) -> np.ndarray:
    """Map class names to stable integer labels (sorted name order)."""
    names = sorted({it.class_name for it in items})
    index = {n: i for i, n in enumerate(names)}
    return np.array([index[it.class_name] for it in items], dtype=np.int64)


class _ById(dict):
    """A table's rows by id, from (id, row) pairs and the table's name; looking
    up an id the table lacks fails, naming id and table. read() builds one
    from items.csv or manifest_used.csv, keyed by item_id."""

    def __init__(self, pairs, table: str):
        super().__init__(pairs)
        self.table = table

    def __missing__(self, item_id: str):
        raise ValueError(f"id {item_id!r} missing from {self.table}")

    @classmethod
    def read(cls, load: Callable[[Path], list], path: Path) -> _ById:
        return cls(((row.item_id, row) for row in load(path)), path.name)


def _resolve_paths(record: ManifestRecord, base: Path) -> ManifestRecord:
    """The record with its image and mask paths made absolute against base."""
    mask = record.gt_mask_path
    return replace(
        record,
        image_path=str((base / record.image_path).resolve()),
        gt_mask_path=str((base / mask).resolve()) if mask else None,
    )


def stage_ingest(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    """Later stages read images and masks through manifest_used.csv, whose
    paths are resolved here, against the manifest's directory."""
    manifest_path = cfg["data.manifest"]
    manifest = [_resolve_paths(r, manifest_path.parent) for r in load_manifest(manifest_path)]
    if cfg["split.resplit"]:
        manifest = split_dataset(manifest, cfg["split.train_fraction"], cfg["seed"])
    save_manifest(manifest, outputs["manifest_used.csv"])
    proposals = load_proposals(cfg["data.proposals"])
    items, vectors = ingest(manifest, proposals, cfg["ingest.dedup_threshold"],
                            cfg["ingest.nms_threshold"], cfg["ingest.top_k"])
    save_items(items, outputs["items.csv"])
    for split in SPLITS:
        sel = [i for i, it in enumerate(items) if it.split == split]
        ids = [items[i].item_id for i in sel]
        save_descriptors_file(ids, vectors[sel], outputs[f"desc_{split}.csgd"])


# The config key of each typed config field whose key is not <stage>.<field>.
_FIELD_KEYS = {"learning_rate": "train.lr", "layer_sizes": "train.layers", "seed": "seed"}


def _typed(cls, stage: str, cfg: dict[str, Any]):
    """cls built from a stage's typed config: each field from its _FIELD_KEYS key, else stage.field."""
    return cls(**{f.name: cfg[_FIELD_KEYS.get(f.name, f"{stage}.{f.name}")] for f in fields(cls)})


def stage_train(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    ids, vectors = load_descriptors_file(inputs["desc_train.csgd"])
    items = _ById.read(load_items, inputs["items.csv"])
    dataset = LabeledDescriptors(vectors=vectors, labels=_class_labels([items[i] for i in ids]))
    del vectors  # training reads the float64 copy alone
    result = train(dataset, _typed(TrainConfig, "train", cfg))
    save_model_file(result.params, outputs["model.csgm"])
    _write_table(outputs["loss_trace.csv"], ["iteration", "loss"],
                 ((i, repr(loss)) for i, loss in enumerate(result.loss_trace)))


def stage_embed(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    params = load_model_file(inputs["model.csgm"])
    ids, vectors = load_descriptors_file(inputs["desc_test.csgd"])
    embeddings = embed_all(params, vectors)
    save_descriptors_file(ids, embeddings, outputs["emb_test.csgd"])


def stage_index(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    _, embeddings = load_descriptors_file(inputs["emb_test.csgd"])
    save_index_file(build(embeddings, _typed(IndexConfig, "index", cfg)), outputs["index.csgi"])


def _ground_truth(
    record: ManifestRecord, img_w: int, img_h: int
) -> np.ndarray | BoxTruth | None:
    """An image's ground truth: its PBM mask, else its box in the frame, else None."""
    if record.gt_mask_path:
        gt = read_pbm(record.gt_mask_path)
        if gt.shape != (img_h, img_w):
            raise ValueError(f"ground-truth mask {record.gt_mask_path} is "
                             f"{gt.shape[1]}x{gt.shape[0]}, its image {img_w}x{img_h}")
        return gt
    if record.gt_box is None:
        return None
    return BoxTruth(record.gt_box, img_w, img_h)


def _scoring_table(ids, inputs: dict[str, Path]) -> ItemTable:
    """ids -> (proposal box, its image's _ground_truth, class), each id
    looked up in items.csv and its image in manifest_used.csv; each image's
    ground truth is built once."""
    items = _ById.read(load_items, inputs["items.csv"])
    manifest = _ById.read(load_manifest, inputs["manifest_used.csv"])
    truths: dict[str, np.ndarray | BoxTruth | None] = {}
    table: ItemTable = {}
    for item_id in ids:
        it = items[item_id]
        image = it.proposal.image_id
        if image not in truths:
            truths[image] = _ground_truth(manifest[image], it.img_w, it.img_h)
        table[item_id] = (it.proposal.box, truths[image], it.class_name)
    return table


def stage_retrieve(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    ids, embeddings = load_descriptors_file(inputs["emb_test.csgd"])
    index = load_index_file(inputs["index.csgi"], embeddings)
    table = _scoring_table(ids, inputs)
    groups = retrieve_similar(
        index, embeddings, k=cfg["retrieve.k"], search_k=cfg["retrieve.search_k"],
        ids=ids, class_hints={i: cls for i, (_, _, cls) in table.items()},
    )
    verdicts = iou_verdicts(table, cfg["retrieve.iou_filter"])
    save_groups([filter_candidates(g, verdicts) for g in groups], outputs["groups.jsonl"])


def stage_evaluate(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    groups = load_groups(inputs["groups.jsonl"])
    table = _scoring_table(group_item_ids(groups), inputs)
    save_report_file(evaluate(groups, table), outputs["report.json"])


def _safe_name(item_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in item_id)


def stage_collage(cfg: dict[str, Any], inputs: dict[str, Path], outputs: dict[str, Path]) -> None:
    spec = _typed(CollageSpec, "collage", cfg)
    groups = load_groups(inputs["groups.jsonl"])
    items = _ById.read(load_items, inputs["items.csv"])
    manifest = _ById.read(load_manifest, inputs["manifest_used.csv"])
    collage_dir = outputs["collages"]
    collage_dir.mkdir()
    rendered: dict[str, str] = {}  # collage file name -> its group's anchor

    for group in groups[:cfg["collage.limit"]]:
        members = [(items[m].proposal.box, manifest[items[m].proposal.image_id].image_path, dist)
                   for m, dist in group.members.neighbors[:len(spec.slots)]]
        # one band of rows per frame, from its members' highest box top to their lowest box bottom
        spans: dict[str, tuple[int, int]] = {}
        for box, path, _ in members:
            lo, hi = spans.get(path, (max(box.y, 0), 0))
            spans[path] = min(lo, max(box.y, 0)), max(hi, box.y + box.h)
        bands = {path: (lo, read_image(path, slice(lo, hi))) for path, (lo, hi) in spans.items()}
        collage_items: list[CollageItem] = []
        for box, path, dist in members:
            lo, band = bands[path]
            # the same cut as against the whole frame, as no member box reaches past the band
            cut = box.clip(band.shape[1], lo + band.shape[0])
            if cut is None:
                continue
            rows, cols = cut
            region = band[rows.start - lo : rows.stop - lo, cols]
            if region.ndim == 2:
                region = np.stack([region] * 3, axis=2)
            collage_items.append(CollageItem(region=region, distance=dist))
        if not collage_items:
            continue
        name = f"{_safe_name(group.anchor)}.ppm"
        if name in rendered:
            raise ValueError(
                f"anchors {rendered[name]!r} and {group.anchor!r} both map to collage file {name}"
            )
        rendered[name] = group.anchor
        write_ppm(collage_dir / name, make_collage(collage_items, spec))


@dataclass(frozen=True)
class Stage:
    """One row of STAGES. A stage's name is its config namespace: run gets
    the typed keys under that prefix plus those in shared (a key such as
    seed, or a namespace such as split), and {artifact: path} maps for reads
    and writes, names under data.out_dir; a directory (collages) is one artifact."""

    run: Callable[[dict[str, Any], dict[str, Path], dict[str, Path]], None]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    shared: tuple[str, ...] = ()


# The pipeline in order, each stage held to its row by run_stage. Each
# artifact is written by one stage and read only by later ones.
STAGES: dict[str, Stage] = {
    "ingest": Stage(stage_ingest, reads=(), shared=("seed", "data.manifest", "data.proposals", "split"),
                    writes=("manifest_used.csv", "items.csv", "desc_train.csgd", "desc_test.csgd")),
    "train": Stage(stage_train, reads=("desc_train.csgd", "items.csv"),
                   writes=("model.csgm", "loss_trace.csv"), shared=("seed",)),
    "embed": Stage(stage_embed, reads=("model.csgm", "desc_test.csgd"), writes=("emb_test.csgd",)),
    "index": Stage(stage_index, reads=("emb_test.csgd",), writes=("index.csgi",), shared=("seed",)),
    "retrieve": Stage(stage_retrieve, reads=("index.csgi", "emb_test.csgd", "items.csv", "manifest_used.csv"),
                      writes=("groups.jsonl",)),
    "evaluate": Stage(stage_evaluate, reads=("groups.jsonl", "items.csv", "manifest_used.csv"),
                      writes=("report.json",)),
    "collage": Stage(stage_collage, reads=("groups.jsonl", "items.csv", "manifest_used.csv"),
                     writes=("collages",)),
}

STAGE_NAMES = tuple(STAGES)


def run_stage(name: str, cfg: dict[str, str]) -> float:
    """Run one stage and commit its outputs; returns its wall time.

    The only code that knows data.out_dir. parse_config types and checks the
    whole config, and requires the keys the stage's STAGES row grants, before
    anything is read or written. The stage gets only those keys, its inputs
    as paths under data.out_dir and its outputs as paths in a staging
    directory there, so an undeclared key or artifact, or an undeclared file
    left in staging, fails it. Each output then replaces its predecessor by
    os.replace; an old directory is moved aside and deleted. A failed stage
    leaves every previous artifact as it was; a killed run's staging
    directory is cleared by the next call. Each replacement is atomic
    against a process crash, not power loss (no fsync): a crash mid-commit
    can leave some outputs new and a directory missing, never a half-written
    file or a mixed directory.
    Failures raise StageError; ConfigError passes through.
    """
    stage = STAGES.get(name)
    if stage is None:
        raise ConfigError(f"unknown stage {name!r} (expected one of {STAGE_NAMES})")
    start = time.perf_counter()
    scope = {"data.out_dir", name, *stage.shared}
    granted = [k for k in KEYS if k in scope or k.partition(".")[0] in scope]
    view = {k: v for k, v in parse_config(cfg, required=granted).items() if k in granted}
    out = view.pop("data.out_dir")
    staging = out / ".staging"  # inside data.out_dir, so os.replace never crosses file systems
    try:
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        stage.run(view, {a: out / a for a in stage.reads}, {a: staging / a for a in stage.writes})
        left = sorted(os.listdir(staging))
        if left != sorted(stage.writes):
            raise ValueError(f"stage left {left} in staging, declared {sorted(stage.writes)}")
        for artifact in stage.writes:
            if (out / artifact).is_dir():  # rename cannot replace a non-empty directory
                os.replace(out / artifact, staging / ".old")
            os.replace(staging / artifact, out / artifact)
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return time.perf_counter() - start


def run_pipeline(cfg: dict[str, str]) -> dict[str, float]:
    """Run every stage in order; returns stage -> wall time in seconds.

    The whole config, which must hold every KEYS key, is checked first, so a
    missing key or bad value stops the run before any stage reads or writes.
    A failing stage aborts the run; earlier stages' artifacts stay on disk.
    """
    parse_config(cfg, required=KEYS)
    timings: dict[str, float] = {}
    for name in STAGE_NAMES:
        timings[name] = run_stage(name, cfg)
    return timings
