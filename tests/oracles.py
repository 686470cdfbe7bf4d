"""Independent oracles the unit tests check the library against: each states
a computation the plain way, as first written or as specified, so a faster
or restructured library function can be held to it."""

import numpy as np

from coseg import annindex
from coseg.annindex import Forest, split_plane
from coseg.collage import CANVAS_SIDE, CollageItem
from coseg.descriptors import resize_nearest
from coseg.pnm import read_image


def exact_scan(items, q, k):
    """Brute force with the query's own arithmetic, so distances match to the bit."""
    diffs = items.astype(np.float64) - np.asarray(q, dtype=np.float64)
    d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(d, kind="stable")[:k]
    return [(int(i), float(d[i])) for i in order]


def full_rerank(index, q, k, search_k):
    """The query with every candidate scored: the walk's candidates, or all
    items when the budget covers them, re-ranked by exact_scan."""
    qv = np.asarray(q, dtype=np.float64)
    if index.config.metric == "cosine" and qv.any():
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(qv)
        if norm == np.inf or norm == 0.0:  # |q|^2 out of float64's range
            qv = qv / np.abs(qv).max()
            norm = np.linalg.norm(qv)
        qv = qv / norm
    budget = max(search_k, k * index.config.n_trees)
    pool = np.arange(len(index)) if budget >= len(index) else annindex._walk_candidates(index, qv, budget)
    return [(int(pool[i]), d) for i, d in exact_scan(index.items[pool], qv, k)]


def grow_forest_oracle(x, cfg):
    """The forest grower as first written: a fresh root-path list per node,
    a NumPy norm per split and two reductions per side test."""
    normals, offsets, paths = [], [], []
    item_leaf = np.empty((cfg.n_trees, x.shape[0]), dtype=np.intp)
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(cfg.seed + t)
        stack = [(np.arange(x.shape[0], dtype=np.int64), [])]
        while stack:
            ids, path = stack.pop()
            pts = x[ids] if len(ids) > cfg.leaf_capacity else None
            plane = None if pts is None else split_plane(pts, rng)
            if plane is not None:
                normal, offset = plane
                norm = float(np.linalg.norm(normal))
                unit = normal / norm
                off = offset / norm
                side = pts @ unit - off >= 0.0
                if side.any() and not side.all():
                    split = len(offsets)
                    normals.append(unit)
                    offsets.append(off)
                    stack.append((ids[side], path + [(split, 1.0)]))
                    stack.append((ids[~side], path + [(split, -1.0)]))
                    continue
            item_leaf[t, ids] = len(paths)
            paths.append(path)
    depth = max(1, *map(len, paths))
    padded = np.array([path + [(len(offsets), 1.0)] * (depth - len(path)) for path in paths])
    splits, sides = np.ascontiguousarray(padded.T)
    return Forest(
        normals=np.vstack(normals + [np.zeros(x.shape[1])]),
        offsets=np.array(offsets + [-np.inf]),
        item_leaf=item_leaf,
        paths=to_steps(splits.astype(np.intp), sides, len(offsets) + 1),
    )


def to_steps(splits, sides, n_planes):
    """Forest.paths from split indices and their sides (+1 or -1): a step on
    the -1 side is its split + n_planes, the index of the negated margin."""
    return np.where(np.asarray(sides) < 0, splits + n_planes, splits).astype(np.intp)


def from_steps(f):
    """Forest f's paths as (split indices, sides), each (depth, leaves)."""
    n_planes = len(f.offsets)
    return f.paths % n_planes, np.where(f.paths < n_planes, 1.0, -1.0)


def leaves(index):
    """Every leaf's item ids in ascending order, in forest order, read from the
    item_leaf table."""
    item_leaf = index.forest.item_leaf.tolist()
    out = [[] for _ in range(index.forest.paths.shape[1])]
    for row in item_leaf:
        for item, leaf in enumerate(row):
            out[leaf].append(item)
    return out


def walk_oracle(index, qv, budget):
    """The walk as specified, in plain Python: a leaf's priority is the least
    side * margin on its path; leaves go in descending priority, ties in forest
    order, until budget distinct items are in."""
    f = index.forest
    margins = (f.normals @ qv - f.offsets).tolist()
    priorities = []
    splits, sides = from_steps(f)
    for path, path_sides in zip(splits.T.tolist(), sides.T.tolist()):
        priority = float("inf")
        for split, side in zip(path, path_sides):
            priority = min(priority, side * margins[split])
        priorities.append(priority)
    order = sorted(range(len(priorities)), key=lambda leaf: -priorities[leaf])
    members = leaves(index)
    taken = set()
    for leaf in order:
        if len(taken) >= budget:
            break
        taken.update(members[leaf])
    return sorted(taken)


def drawn(shape, box):
    """The box drawn as a full-image mask, cut to the image by comparison."""
    rows, cols = np.indices(shape)
    return (rows >= box.y) & (rows < box.y + box.h) & (cols >= box.x) & (cols < box.x + box.w)


def reference_compose(assignment, spec):
    """The masked composer as first written: broadcast the background over the
    canvas, then copy each scaled region through its scaled mask."""
    canvas = np.empty((CANVAS_SIDE, CANVAS_SIDE, 3), dtype=np.uint8)
    canvas[:, :] = spec.background
    for slot_idx, item in assignment:
        s = spec.slots[slot_idx]
        region = resize_nearest(item.region, s.h, s.w)
        where = resize_nearest(item.mask, s.h, s.w)
        np.copyto(canvas[s.y : s.y + s.h, s.x : s.x + s.w], region, where=where[:, :, None])
    return canvas


def whole_frame_collage(members, spec):
    """A collage canvas drawn from whole frames: each member's box cut from
    its whole frame by box.clip (a P5 frame stacked to three channels), a box
    that misses its frame left out, and the cuts placed by ascending
    distance, ties in member order, through reference_compose. members holds
    (frame path, box, distance) in the group's order."""
    cuts = []
    for path, box, dist in members:
        frame = read_image(path)
        if frame.ndim == 2:
            frame = np.stack([frame] * 3, axis=2)
        cut = box.clip(frame.shape[1], frame.shape[0])
        if cut is not None:
            cuts.append((dist, frame[cut]))
    cuts.sort(key=lambda c: c[0])  # stable: equal distances keep member order
    assignment = [(slot, CollageItem(region, dist, mask=np.ones(region.shape[:2], dtype=bool)))
                  for slot, (dist, region) in enumerate(cuts)]
    return reference_compose(assignment, spec)
