"""Random-projection-tree approximate nearest neighbor index.

Each tree recursively halves the item set with hyperplanes placed midway
between two sampled points. Queries walk all trees best-first, ranked by how
close the query sits to each splitting plane, then re-rank the collected
candidates by exact distance. A query whose budget covers every item skips
the walk and scans all items.
"""

from __future__ import annotations

import heapq
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _binio
from .errors import DecodeError, TruncatedError

MAGIC = b"CSGI"
VERSION = 1
METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class IndexConfig:
    n_trees: int = 350
    search_k: int = 50
    leaf_capacity: int = 16
    seed: int = 0
    metric: str = "euclidean"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.search_k < 1:
            raise ValueError(f"search_k must be >= 1, got {self.search_k}")
        if self.leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2, got {self.leaf_capacity}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass
class RpNode:
    """Internal split (unit normal, offset, two children) or leaf (item indices)."""

    normal: np.ndarray | None = None
    offset: float = 0.0
    left: "RpNode | None" = None
    right: "RpNode | None" = None
    item_indices: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.item_indices is not None


@dataclass
class RetrievalResult:
    """Neighbors as (item_id, distance) pairs in ascending distance order."""

    neighbors: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ids(self) -> list[int]:
        return [i for i, _ in self.neighbors]

    @property
    def distances(self) -> list[float]:
        return [d for _, d in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass
class AnnIndex:
    """Immutable forest over a fixed item set; item id = row position."""

    config: IndexConfig
    items: np.ndarray  # (n, dim) float32; unit rows under the cosine metric
    trees: list[RpNode]

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    def __len__(self) -> int:
        return self.items.shape[0]


def split_plane(points, rng):
    """Plane through the midpoint of two sampled points, normal joining them.

    Returns (normal, offset) with normal = p - q and offset = normal . (p+q)/2,
    which puts the plane equidistant from both samples. Returns None when three
    draws fail to produce two distinct points; the caller then keeps a leaf.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        return None
    for _ in range(3):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        p, q = pts[i], pts[j]
        if not np.array_equal(p, q):
            normal = p - q
            offset = float(normal @ (p + q) / 2.0)
            return normal, offset
    return None


def _build_tree(items: np.ndarray, cfg: IndexConfig, rng) -> RpNode:
    root = RpNode()
    stack = [(root, np.arange(items.shape[0], dtype=np.int64))]
    while stack:
        node, ids = stack.pop()
        if len(ids) <= cfg.leaf_capacity:
            node.item_indices = ids.astype(np.uint32)
            continue
        plane = split_plane(items[ids], rng)
        if plane is None:
            # Indistinguishable duplicates: keep an oversized leaf.
            node.item_indices = ids.astype(np.uint32)
            continue
        normal, offset = plane
        norm = float(np.linalg.norm(normal))
        # Unit normal, so queue priorities compare as true plane distances.
        unit = normal / norm
        off = offset / norm
        side = items[ids].astype(np.float64) @ unit - off >= 0.0
        if side.all() or not side.any():
            node.item_indices = ids.astype(np.uint32)
            continue
        node.normal = unit
        node.offset = off
        node.left = RpNode()
        node.right = RpNode()
        stack.append((node.right, ids[side]))
        stack.append((node.left, ids[~side]))
    return root


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(arr.astype(np.float64), axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # zero vectors stay put
    return (arr / norms).astype(np.float32)


def build(items, cfg: IndexConfig) -> AnnIndex:
    """Grow cfg.n_trees random-projection trees over the items.

    Items are stored as float32 rows; row position is the item id. Each tree
    draws from its own stream seeded with cfg.seed + tree index, so the build
    is reproducible and trees are independent.
    """
    try:
        arr = np.asarray(items, dtype=np.float32)
    except ValueError as e:
        raise ValueError("items must share one dimension") from e
    if arr.ndim != 2:
        raise ValueError(f"items must be a (count, dim) array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot build an index over zero items")
    if cfg.metric == "cosine":
        arr = _unit_rows(arr)
    arr = np.ascontiguousarray(arr)
    trees = [_build_tree(arr, cfg, np.random.default_rng(cfg.seed + t)) for t in range(cfg.n_trees)]
    return AnnIndex(config=cfg, items=arr, trees=trees)


def _walk_candidates(index: AnnIndex, qv: np.ndarray, budget: int) -> np.ndarray:
    """Sorted ids the best-first tree walk collects before budget is spent.

    All trees share one queue keyed by the smallest plane distance seen along
    each path (roots start at +inf). Leaves feed a candidate set until budget
    distinct items were inspected or the queue runs dry.
    """
    counter = itertools.count()
    heap: list[tuple[float, int, RpNode]] = []
    for root in index.trees:
        heap.append((-np.inf, next(counter), root))
    heapq.heapify(heap)

    candidates: set[int] = set()
    while heap and len(candidates) < budget:
        neg_priority, _, node = heapq.heappop(heap)
        if node.is_leaf:
            candidates.update(node.item_indices.tolist())
            continue
        priority = -neg_priority
        margin = float(node.normal @ qv - node.offset)
        heapq.heappush(heap, (-min(priority, margin), next(counter), node.right))
        heapq.heappush(heap, (-min(priority, -margin), next(counter), node.left))
    return np.fromiter(sorted(candidates), dtype=np.int64, count=len(candidates))


def query(index: AnnIndex, q, k: int, search_k: int | None = None) -> RetrievalResult:
    """Approximate k nearest neighbors of q, re-ranked by exact distance.

    The query inspects max(search_k, k * n_trees) distinct items. When that
    budget is at least the number of items, the tree walk would collect every
    item anyway, so all items are scored directly: an exact scan. Below it,
    the trees are walked best-first for candidates. Either way the candidates
    are scored exactly and the k closest returned in ascending distance order,
    ties broken by item id.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    qv = np.asarray(q, dtype=np.float64).ravel()
    if qv.shape[0] != index.dim:
        raise ValueError(f"query dimension {qv.shape[0]} != index dimension {index.dim}")
    if search_k is None:
        search_k = index.config.search_k
    if index.config.metric == "cosine":
        norm = float(np.linalg.norm(qv))
        if norm > 0.0:
            qv = qv / norm

    budget = max(search_k, k * len(index.trees))
    if budget >= len(index):
        ids = np.arange(len(index), dtype=np.int64)
    else:
        ids = _walk_candidates(index, qv, budget)
    diffs = index.items[ids].astype(np.float64) - qv
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists, kind="stable")[:k]
    return RetrievalResult([(int(ids[i]), float(dists[i])) for i in order])


def save(index: AnnIndex) -> bytes:
    """Serialize the index: magic, version, config, item block, pre-order trees."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(_binio.pack_u32(VERSION))
    c = index.config
    buf.write(_binio.pack_u32(c.n_trees))
    buf.write(_binio.pack_u32(c.search_k))
    buf.write(_binio.pack_u32(c.leaf_capacity))
    buf.write(_binio.pack_u64(c.seed))
    buf.write(_binio.pack_u8(METRICS.index(c.metric)))
    n, dim = index.items.shape
    buf.write(_binio.pack_u32(dim))
    buf.write(_binio.pack_u64(n))
    buf.write(index.items.astype("<f4", copy=False).tobytes())
    for tree in index.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                buf.write(_binio.pack_u8(0))
                buf.write(_binio.pack_u32(len(node.item_indices)))
                buf.write(node.item_indices.astype("<u4", copy=False).tobytes())
            else:
                buf.write(_binio.pack_u8(1))
                buf.write(node.normal.astype("<f8", copy=False).tobytes())
                buf.write(_binio.pack_f64(node.offset))
                stack.append(node.right)
                stack.append(node.left)
    return buf.getvalue()


def _read_node(r: _binio.Reader, dim: int) -> RpNode:
    kind = r.u8()
    if kind == 0:
        count = r.u32()
        return RpNode(item_indices=r.u32_array(count))
    if kind == 1:
        normal = r.f64_array(dim)
        offset = r.f64()
        return RpNode(normal=normal, offset=offset)
    raise DecodeError(f"unknown node kind {kind}")


def _read_tree(r: _binio.Reader, dim: int, n: int) -> RpNode:
    """Read one pre-order tree; its leaves must hold each of the n items once."""
    root = _read_node(r, dim)
    nodes = [root]
    pending = [] if root.is_leaf else [root]  # internal nodes missing a child; left fills first
    while pending:
        parent = pending[-1]
        child = _read_node(r, dim)
        nodes.append(child)
        if parent.left is None:
            parent.left = child
        else:
            parent.right = child
            pending.pop()
        if not child.is_leaf:
            pending.append(child)
    ids = np.sort(np.concatenate([v.item_indices for v in nodes if v.is_leaf]))
    if not np.array_equal(ids, np.arange(n)):
        raise DecodeError(f"tree leaves do not hold each of the {n} items exactly once")
    return root


def load(data: bytes) -> AnnIndex:
    """Rebuild an index from bytes produced by save()."""
    r = _binio.Reader(data)
    r.expect_magic(MAGIC)
    r.expect_version(VERSION)
    n_trees = r.u32()
    search_k = r.u32()
    leaf_capacity = r.u32()
    seed = r.u64()
    metric_id = r.u8()
    if metric_id >= len(METRICS):
        raise DecodeError(f"unknown metric id {metric_id}")
    cfg = IndexConfig(n_trees, search_k, leaf_capacity, seed, METRICS[metric_id])
    dim = r.u32()
    n = r.u64()
    items = r.f32_array(n * dim).reshape(n, dim)
    if 4 * n * n_trees > len(data) - r.pos:  # every tree lists each item id as a u32
        raise TruncatedError(f"{n_trees} trees over {n} items overrun {len(data) - r.pos} bytes")
    trees = [_read_tree(r, dim, n) for _ in range(n_trees)]
    r.expect_eof()
    return AnnIndex(config=cfg, items=items, trees=trees)


def save_file(index: AnnIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save(index))


def load_file(path) -> AnnIndex:
    with open(path, "rb") as fh:
        return load(fh.read())
