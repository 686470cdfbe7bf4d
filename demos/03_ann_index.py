"""
Approximate nearest neighbors: trading candidates for recall
============================================================

The index is a forest of random-projection trees. Each query ranks every
leaf of the forest by the smallest signed distance from the query to the
planes above it, and takes leaves best first until a budget is spent; the
budget is the larger of search_k and k * n_trees distinct candidates. This
walk measures recall against brute force as the budget grows, then
round-trips the index through its binary file form, which loads only for the
items it was saved with.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from coseg.annindex import IndexConfig, build, load_file, query, save_file
from coseg.errors import DecodeError

# 1. 5000 points from a 25-component Gaussian mixture in 32 dimensions.
#    Cluster structure is what makes "nearest" meaningful here.
rng = np.random.default_rng(17)
means = rng.normal(size=(25, 32)) * 2.0
items = np.concatenate([m + rng.normal(size=(200, 32)) for m in means])
queries = [means[int(rng.integers(25))] + rng.normal(size=32) for _ in range(200)]

index = build(items, IndexConfig(n_trees=12, search_k=100, leaf_capacity=16, seed=1))
# build() only stores the items; the forest grows when first walked. Grow it
# here, so the timings below measure queries alone.
forest = index.forest
print(f"grew {index.config.n_trees} trees ({forest.paths.shape[1]} leaves) over {len(index)} items")

# 2. Brute-force truth for recall@10.
truth = []
for q in queries:
    d = np.linalg.norm(index.items.astype(np.float64) - q, axis=1)
    truth.append(set(int(i) for i in np.argsort(d, kind="stable")[:10]))

# 3. Sweep the candidate budget. Recall climbs toward 1.0. Every walking query
#    ranks all leaves of the forest, then finds each item's first position:
#    the rank of the best leaf holding it, a cost set by the forest's size.
#    It takes every item at or before the budget-th smallest first position.
#    One product of all items with the query bounds each item's distance,
#    and only the candidates whose bound can reach the 10 closest are scored
#    exactly, so the budget adds little more than a bound test per candidate.
#    A budget of n items or more skips the forest: the query is an exact scan
#    over all items, so the last row has recall 1.0.
print("search_k   recall@10   ms/query")
for search_k in (60, 120, 250, 500, 1000, 5000):
    t0 = time.perf_counter()
    hits = sum(
        len(set(query(index, q, k=10, search_k=search_k).ids) & want)
        for q, want in zip(queries, truth)
    )
    ms = (time.perf_counter() - t0) * 1000 / len(queries)
    print(f"{search_k:8d}   {hits / (10 * len(queries)):9.3f}   {ms:8.2f}")

# 4. The on-disk form holds the config and a sha256 of the items, not the
#    items: loading takes the items again and rebuilds the index over them.
#    The forest is a pure function of items and config, so the reloaded index
#    grows the same forest the first time a query walks it and answers
#    queries identically. Items other than the saved ones are refused.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.csgi"
    save_file(index, path)
    reloaded = load_file(path, items)
    same = all(
        query(index, q, k=10).neighbors == query(reloaded, q, k=10).neighbors
        for q in queries[:20]
    )
    print(f"\nsaved {path.stat().st_size} bytes; reloaded answers identical: {same}")
    try:
        load_file(path, items[1:])
    except DecodeError as e:
        print(f"other items refused: {e}")
