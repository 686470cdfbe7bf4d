"""Random-projection-tree approximate nearest neighbor index.

Each tree recursively halves the item set with hyperplanes placed midway
between two sampled points. The forest is kept flat: a matrix of split
normals, each item's leaf in each tree, and per leaf its root path. A query
ranks each leaf by the smallest signed distance from the query to the planes
on its path and takes leaves best first until its budget is met. A query
whose budget covers every item scans all items instead.

The candidates are then re-ranked by exact distance, certified filter first:
one product x @ q bounds every candidate's squared distance, and only those
the bound keeps in reach of the k closest are scored exactly (see query and
coseg._certify), so the answer is the one a full re-rank gives, bit for bit.

The forest is a pure function of the items and the config, so it is grown
only when a query first walks it. The file form holds the config and a sha256
of the items; loading takes the items again and refuses any others.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _binio
from ._certify import slack
from .errors import SEED_BITS, DecodeError, check, check_rules, int_rule

MAGIC = b"CSGI"
VERSION = 3
METRICS = ("euclidean", "cosine")


# IndexConfig's integer fields: (least value, bits). save_file writes each as an
# unsigned integer of that many bits, so it must also be below 2**bits.
FIELD_BOUNDS = {"n_trees": (1, 32), "search_k": (1, 32), "leaf_capacity": (2, 32), "seed": (0, SEED_BITS)}
# IndexConfig's fields with their (words, predicate) rules, which the index.* config keys take too.
INDEX_RULES = {name: int_rule(low, bits) for name, (low, bits) in FIELD_BOUNDS.items()}
INDEX_RULES["metric"] = ("one of " + ", ".join(METRICS), METRICS.__contains__)
K_RULE = int_rule(1)  # query's and retrieve_similar's k, and the retrieve.k key's
SEARCH_K_RULE = int_rule(1)  # query's and retrieve_similar's search_k, and the retrieve.search_k key's


@dataclass(frozen=True)
class IndexConfig:
    """The forest's shape and seed, and the default query budget; each field
    must meet its INDEX_RULES rule, else ConfigError."""

    n_trees: int = 350
    search_k: int = 50
    leaf_capacity: int = 16
    seed: int = 0
    metric: str = "euclidean"

    def __post_init__(self):
        check_rules(self, INDEX_RULES)


@dataclass(frozen=True)
class Forest:
    """A random-projection forest as flat arrays.

    Leaves go tree by tree, left to right: forest order. Each tree partitions
    all items, so item_leaf[t, i] names the one leaf of tree t holding item i;
    tree t's leaves are one index range that follows tree t-1's. Column j of
    paths holds leaf j's steps from the root down: split s where the leaf lies on
    its side normal . x - offset >= 0, else s + len(offsets), past the margins
    into their negations. Columns are padded to a common depth of at least 1
    with the last split, whose margin reads +inf.
    """

    normals: np.ndarray  # (splits + 1, dim) float64 unit normals; the last is 0
    offsets: np.ndarray  # (splits + 1,) float64; the last is -inf
    item_leaf: np.ndarray  # (trees, items) intp leaf of each item in each tree
    paths: np.ndarray  # (depth, leaves) intp steps, below 2 * len(offsets)


@dataclass(frozen=True)
class Rows:
    """The items as float64, with their squared norms and norms."""

    values: np.ndarray  # (n, dim) float64, equal to the float32 items
    sq_norms: np.ndarray  # (n,) einsum row sums of values**2
    norms: np.ndarray  # (n,) sqrt(sq_norms)


@dataclass
class RetrievalResult:
    """Neighbors as (item_id, distance) pairs in ascending distance order: an
    index's row positions from query, item ids in a retrieval's groups."""

    neighbors: Sequence[tuple[int | str, float]]

    @property
    def ids(self) -> list[int | str]:
        return [i for i, _ in self.neighbors]


@dataclass
class AnnIndex:
    """A fixed item set and the config of the forest over it; item id = row position.

    The forest is grown from the items on first access and kept: tree t draws
    from its own stream seeded with config.seed + t, so the forest depends only
    on the items and (n_trees, leaf_capacity, seed). The float64 rows are made
    on first access too; queries and forest growth share them.
    """

    config: IndexConfig
    items: np.ndarray  # (n, dim) float32; unit rows under the cosine metric

    @functools.cached_property
    def rows(self) -> Rows:
        x = self.items.astype(np.float64)
        sq = np.einsum("ij,ij->i", x, x)
        return Rows(values=x, sq_norms=sq, norms=np.sqrt(sq))

    @functools.cached_property
    def forest(self) -> Forest:
        return _grow_forest(self.rows.values, self.config)

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
        if (p != q).any():
            normal = p - q
            offset = float(normal @ (p + q) / 2.0)
            return normal, offset
    return None


def _grow_forest(x: np.ndarray, cfg: IndexConfig) -> Forest:
    """Grow cfg.n_trees trees over the float64 items x; split_plane's own
    float64 conversion of x's rows is then a no-op."""
    normals, offsets, paths = [], [], []  # paths: each leaf's splits from the root
    item_leaf = np.empty((cfg.n_trees, x.shape[0]), dtype=np.intp)
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(cfg.seed + t)
        # a path step is a split, or ~split on its < 0 side
        stack = [(np.arange(x.shape[0], dtype=np.int64), [])]
        while stack:
            ids, path = stack.pop()
            pts = x[ids] if len(ids) > cfg.leaf_capacity else None
            # Indistinguishable duplicates give no plane: keep an oversized leaf.
            plane = None if pts is None else split_plane(pts, rng)
            if plane is not None:
                normal, offset = plane
                norm = math.sqrt(normal.dot(normal))
                # Unit normal, so priorities compare as true plane distances.
                unit = normal / norm
                off = offset / norm
                side = pts @ unit - off >= 0.0
                if 0 < np.count_nonzero(side) < len(ids):
                    split = len(offsets)
                    normals.append(unit)
                    offsets.append(off)
                    stack.append((ids[side], path + [split]))
                    stack.append((ids[~side], path + [~split]))
                    continue
            item_leaf[t, ids] = len(paths)
            paths.append(path)

    depth = max(1, *map(len, paths))
    padded = np.array([path + [len(offsets)] * (depth - len(path)) for path in paths], dtype=np.intp)
    steps = np.where(padded < 0, ~padded + len(offsets) + 1, padded)  # + 1: the padding split
    return Forest(
        normals=np.vstack(normals + [np.zeros(x.shape[1])]),
        offsets=np.array(offsets + [-np.inf]),
        item_leaf=item_leaf,
        paths=np.ascontiguousarray(steps.T),  # depth-major: minima reduce over rows
    )


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(arr.astype(np.float64), axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # zero vectors stay put
    return (arr / norms).astype(np.float32)


def build(items, cfg: IndexConfig) -> AnnIndex:
    """Index the items under cfg; the forest is grown when a query first walks it.

    Items are stored as float32 rows (unit rows under the cosine metric); row
    position is the item id.
    """
    try:
        arr = np.asarray(items, dtype=np.float32)
    except ValueError as e:
        raise ValueError("items must share one dimension") from e
    if arr.ndim != 2:
        raise ValueError(f"items must be a (count, dim) array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot build an index over zero items")
    if arr.shape[1] == 0:
        raise ValueError("cannot build an index over zero-dimension items")
    if cfg.metric == "cosine":
        arr = _unit_rows(arr)
    return AnnIndex(config=cfg, items=np.ascontiguousarray(arr))


def _walk_candidates(index: AnnIndex, qv: np.ndarray, budget: int) -> np.ndarray:
    """Sorted ids of the leaves taken best first until budget distinct items are in.

    No child outranks its parent, so a best-first tree walk takes leaves in
    descending order of the least signed margin on their paths. Here one
    product gives every margin, each step takes it or its negation, and ties
    go in forest order.

    An item's first position is the rank of the best leaf holding it. After
    the first r + 1 leaves, the items in are those whose first position is at
    most r, so the walk stops at the budget-th smallest first position (the
    cut) and takes every item at or before it.
    """
    forest = index.forest
    margins = forest.normals @ qv - forest.offsets
    priorities = np.concatenate([margins, -margins])[forest.paths].min(axis=0)
    rank = np.empty(len(priorities), dtype=np.intp)
    rank[np.argsort(-priorities, kind="stable")] = np.arange(len(priorities))
    first = rank[forest.item_leaf].min(axis=0)
    cut = np.partition(first, budget - 1)[budget - 1]
    return np.flatnonzero(first <= cut)


def _shortlist(rows: Rows, qv: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The candidate ids, in ascending order, whose exact distance to qv can be
    among the k closest: those with a - eps <= T (see query)."""
    with np.errstate(over="ignore", invalid="ignore"):
        qq = qv @ qv
        approx = (rows.sq_norms - 2.0 * (rows.values @ qv) + qq)[ids]
        eps = slack(len(qv)) * (rows.norms[ids] + np.sqrt(qq)) ** 2
        upper = approx + eps
        kth = min(k, len(ids)) - 1
        bound = np.partition(upper, kth)[kth]
        # a non-finite upper bound (T is one of them) certifies nothing
        return ids[(approx - eps <= bound) | ~np.isfinite(upper).all()]


def _unit_query(qv: np.ndarray) -> np.ndarray:
    """qv scaled to unit length; a zero query stays put. Where |qv|^2 leaves
    float64's range (the norm reads inf, or 0 for a nonzero qv), qv is divided
    by its largest magnitude first."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(qv))
    if not 0.0 < norm < np.inf and qv.any():
        qv = qv / np.abs(qv).max()
        norm = float(np.linalg.norm(qv))
    return qv / norm if norm > 0.0 else qv


def query(index: AnnIndex, q, k: int, search_k: int | None = None) -> RetrievalResult:
    """Approximate k nearest neighbors of q, re-ranked by exact distance.

    The budget is max(search_k, k * n_trees) distinct items. When it is at
    least the number of items, all items are candidates: an exact scan, which
    never grows the forest. Below it, the forest is walked: leaves are taken
    best first, whole leaves at a time, so at least budget distinct items are
    candidates. The k closest candidates are returned in ascending order of
    their exact distance sqrt(einsum((x - q)**2)), ties broken by item id.
    k must meet K_RULE and a given search_k SEARCH_K_RULE, else ConfigError.

    Only the candidates that can reach the k closest are scored exactly. For
    item x and query q of dimension d, one product x @ q over all items gives
    a = |x|^2 - 2 x.q + |q|^2 and eps = c (|x| + |q|)^2, c = _certify.slack(d).
    T is the min(k, candidates)-th smallest a + eps over the candidates, and
    the candidates with a - eps <= T, in ascending id order, are scored; a
    stable argsort's first k of them is the full re-rank's answer, bit for
    bit. The proof, which covers the final sqrt, is coseg._certify's.

    That proof's absolute term for underflow is left out here: underflow
    voids the bound only for a zero row against a query of norm below about
    1e-150, zero rows share one a and one E, and every other float32 row lies
    at squared distance above 1e-90, so the kept set is still right. Where T,
    or an a or eps of a candidate, is not finite, the bound says nothing and
    every candidate is kept.
    """
    check("k", k, K_RULE)
    qv = np.asarray(q, dtype=np.float64).ravel()
    if qv.shape[0] != index.dim:
        raise ValueError(f"query dimension {qv.shape[0]} != index dimension {index.dim}")
    if search_k is None:
        search_k = index.config.search_k
    else:
        check("search_k", search_k, SEARCH_K_RULE)
    if index.config.metric == "cosine":
        qv = _unit_query(qv)

    budget = max(search_k, k * index.config.n_trees)
    if budget >= len(index):
        ids = np.arange(len(index), dtype=np.int64)
    else:
        ids = _walk_candidates(index, qv, budget)
    rows = index.rows
    ids = _shortlist(rows, qv, ids, k)
    diffs = rows.values[ids] - qv
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists, kind="stable")[:k]
    return RetrievalResult([(int(ids[i]), float(dists[i])) for i in order])


# The file header after magic and version: n_trees, search_k, leaf_capacity, seed, metric id.
HEADER = "<IIIQB"


def _digest(items: np.ndarray) -> bytes:
    h = hashlib.sha256(struct.pack("<QQ", *items.shape))
    h.update(items.astype("<f4", copy=False).tobytes())
    return h.digest()


def save_file(index: AnnIndex, path) -> None:
    """Write the index: magic, version, `HEADER` (the config), then the
    sha256 of (n, dim) as `<QQ` and of the float32 rows build stored; no rows."""
    c = index.config
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION))
        fh.write(struct.pack(HEADER, c.n_trees, c.search_k, c.leaf_capacity, c.seed, METRICS.index(c.metric)))
        fh.write(_digest(index.items))


def load_file(path, items) -> AnnIndex:
    """The index save_file wrote, rebuilt by build() over items (no forest
    grown). Other items than the saved ones raise DecodeError."""
    with _binio.open_reader(path, MAGIC, VERSION) as r:
        n_trees, search_k, leaf_capacity, seed, metric_id = r.unpack(HEADER)
        if metric_id >= len(METRICS):
            raise DecodeError(f"unknown metric id {metric_id}")
        try:
            cfg = IndexConfig(n_trees, search_k, leaf_capacity, seed, METRICS[metric_id])
        except ValueError as e:
            raise DecodeError(f"index header: {e}") from e
        digest = r.take(hashlib.sha256().digest_size)
        r.expect_eof()
        index = build(items, cfg)
        if _digest(index.items) != digest:
            raise DecodeError(f"index was built for other items than these, of shape {index.items.shape}")
    return index
