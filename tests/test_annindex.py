import hashlib
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coseg import annindex
from coseg.annindex import (
    FIELD_BOUNDS,
    METRICS,
    AnnIndex,
    Forest,
    IndexConfig,
    build,
    load_file,
    query,
    save_file,
    split_plane,
)
from coseg.errors import BadMagicError, ConfigError, DecodeError, TruncatedError, VersionError
from oracles import exact_scan, from_steps, full_rerank, grow_forest_oracle, leaves, to_steps, walk_oracle


def brute_force(items, q, k):
    d = np.linalg.norm(items.astype(np.float64) - np.asarray(q, dtype=np.float64), axis=1)
    order = np.argsort(d, kind="stable")[:k]
    return [(int(i), float(d[i])) for i in order]


def assert_forests_equal(got, want):
    for name in ("normals", "offsets", "item_leaf", "paths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def forest(index):
    """The index's forest as plain lists: every split's unit normal and offset,
    every item's leaf in each tree, and every leaf's root path and sides, in
    forest order."""
    f = index.forest
    splits, sides = from_steps(f)
    return (f.normals.tolist(), f.offsets.tolist(), f.item_leaf.tolist(), splits.tolist(), sides.tolist())


def trees(index):
    """The forest's leaves cut into trees: tree t's leaves are those its
    item_leaf row names."""
    members = leaves(index)
    return [[members[leaf] for leaf in sorted(set(row))] for row in index.forest.item_leaf.tolist()]


def line_forest(at, leaves, sides):
    """A hand-built one-tree forest over 1-d items: one split at x = at, and
    each leaf, given as its item ids, on the given side of it (-1 left, +1
    right)."""
    item_leaf = np.empty((1, sum(map(len, leaves))), dtype=np.intp)
    for leaf, ids in enumerate(leaves):
        item_leaf[0, ids] = leaf
    return Forest(
        normals=np.array([[1.0], [0.0]]),
        offsets=np.array([at, -np.inf]),
        item_leaf=item_leaf,
        paths=to_steps(np.zeros((1, len(leaves)), dtype=np.intp), [sides], 2),
    )


class TestIndexConfig:
    def test_defaults(self):
        cfg = IndexConfig()
        assert cfg.n_trees == 350
        assert cfg.search_k == 50
        assert cfg.leaf_capacity == 16
        assert cfg.metric == "euclidean"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"search_k": 0},
            {"leaf_capacity": 1},
            {"seed": -1},
            {"metric": "manhattan"},
            {"n_trees": 2**32},
            {"search_k": 2**32},
            {"leaf_capacity": 2**32},
            {"seed": 2**64},
            {"n_trees": 2.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)


class TestSplitPlane:
    def test_two_point_example(self):
        rng = np.random.default_rng(0)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        normal, offset = split_plane(pts, rng)
        # plane through the origin, normal along x
        assert offset == pytest.approx(0.0)
        assert normal[1] == 0.0
        assert abs(normal[0]) == pytest.approx(2.0)

    def test_offset_formula(self):
        rng = np.random.default_rng(0)
        pts = np.array([[2.0, 2.0], [0.0, 0.0]])
        normal, offset = split_plane(pts, rng)
        # normal . midpoint: (+-(2,2)) . (1,1) = +-4
        assert abs(offset) == pytest.approx(4.0)
        assert np.allclose(np.abs(normal), [2.0, 2.0])

    def test_plane_equidistant_from_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.normal(size=(6, 3))
            normal, offset = split_plane(pts, rng)
            unit = normal / np.linalg.norm(normal)
            off = offset / np.linalg.norm(normal)
            signed = pts @ unit - off
            # the two generating samples sit at +d and -d; every other point
            # cannot be further than both of them from at least one side
            assert signed.max() > 0 and signed.min() < 0

    def test_fewer_than_two_points(self):
        rng = np.random.default_rng(0)
        assert split_plane(np.zeros((1, 3)), rng) is None
        assert split_plane(np.zeros((0, 3)), rng) is None

    def test_all_duplicates_gives_none(self):
        rng = np.random.default_rng(0)
        assert split_plane(np.ones((5, 3)), rng) is None


class TestBuild:
    def test_single_item(self):
        idx = build(np.array([[1.0, 2.0]]), IndexConfig(n_trees=3, leaf_capacity=2))
        assert len(idx) == 1
        # three single-leaf trees; their paths hold only the padding split
        assert idx.forest.item_leaf.tolist() == [[0], [1], [2]]
        assert idx.forest.normals.shape == (1, 2)
        assert idx.forest.paths.tolist() == [[0, 0, 0]]

    def test_leaf_cover_and_capacity(self):
        rng = np.random.default_rng(2)
        items = rng.normal(size=(120, 8))
        cfg = IndexConfig(n_trees=5, leaf_capacity=10, seed=1)
        idx = build(items, cfg)
        assert len(trees(idx)) == 5
        for tree in trees(idx):
            # every tree partitions the full item set
            assert sorted(i for leaf in tree for i in leaf) == list(range(120))
            assert all(len(leaf) <= 10 for leaf in tree)
        # forest order runs left to right: the first leaf lies left of every
        # split on its path, the last leaf right of every split on its path
        splits, sides = from_steps(idx.forest)
        real = splits != len(idx.forest.offsets) - 1
        assert (sides[real[:, 0], 0] == -1).all()
        assert (sides[real[:, -1], -1] == 1).all()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        dim=st.integers(1, 4),
        n_trees=st.integers(1, 5),
        leaf_capacity=st.integers(2, 8),
        seed=st.integers(0, 2**16),
    )
    def test_item_leaf_rows_partition_in_forest_order(self, n, dim, n_trees, leaf_capacity, seed):
        # small integer coordinates, so duplicate rows and oversized leaves occur
        items = np.random.default_rng(seed).integers(-2, 3, size=(n, dim)).astype(np.float32)
        f = build(items, IndexConfig(n_trees=n_trees, leaf_capacity=leaf_capacity, seed=seed % 7)).forest
        assert f.item_leaf.shape == (n_trees, n)
        assert f.item_leaf.dtype == np.intp
        start = 0
        for row in f.item_leaf:
            # every item in one leaf of the tree, and every leaf of the tree
            # nonempty: the tree's leaves are the range that follows the last tree's
            used = np.unique(row)
            assert used.tolist() == list(range(start, start + len(used)))
            start += len(used)
        assert start == f.paths.shape[1]

    def test_duplicate_items_land_in_oversized_leaf(self):
        items = np.repeat([[1.0, 1.0]], 40, axis=0)
        idx = build(items, IndexConfig(n_trees=2, leaf_capacity=4))
        assert idx.forest.item_leaf.tolist() == [[0] * 40, [1] * 40]
        assert idx.forest.normals.shape[0] == 1  # no split, only the padding

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        items = rng.normal(size=(60, 4))
        cfg = IndexConfig(n_trees=4, leaf_capacity=8, seed=9)
        assert forest(build(items, cfg)) == forest(build(items, cfg))

    def test_seed_changes_trees(self):
        rng = np.random.default_rng(4)
        items = rng.normal(size=(60, 4))
        a = build(items, IndexConfig(n_trees=2, leaf_capacity=8, seed=0))
        b = build(items, IndexConfig(n_trees=2, leaf_capacity=8, seed=5))
        assert forest(a) != forest(b)

    def test_rejects_empty_and_misshaped(self):
        with pytest.raises(ValueError):
            build(np.zeros((0, 3)), IndexConfig())
        with pytest.raises(ValueError):
            build(np.zeros(5), IndexConfig())
        with pytest.raises(ValueError):
            build([[1.0, 2.0], [1.0]], IndexConfig())
        with pytest.raises(ValueError):
            build(np.zeros((3, 0)), IndexConfig())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        dim=st.integers(1, 6),
        n_trees=st.integers(1, 4),
        leaf_capacity=st.integers(2, 8),
        ints=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_forest_equals_oracle_grower(self, n, dim, n_trees, leaf_capacity, ints, seed):
        rng = np.random.default_rng(seed)
        items = rng.integers(-2, 3, size=(n, dim)) if ints else rng.normal(size=(n, dim))
        idx = build(items, IndexConfig(n_trees=n_trees, leaf_capacity=leaf_capacity, seed=seed % 7))
        assert_forests_equal(idx.forest, grow_forest_oracle(idx.rows.values, idx.config))

    def test_forest_equals_oracle_grower_at_desk_vga_shape(self):
        # 300 embedded items of dimension 256, 20 trees of leaf capacity 16
        rng = np.random.default_rng(15)
        idx = build(rng.normal(size=(300, 256)), IndexConfig(n_trees=20, leaf_capacity=16, seed=3))
        assert_forests_equal(idx.forest, grow_forest_oracle(idx.rows.values, idx.config))

    def test_cosine_stores_unit_rows(self):
        items = np.array([[3.0, 4.0], [0.0, 2.0]])
        idx = build(items, IndexConfig(n_trees=1, metric="cosine"))
        assert np.allclose(np.linalg.norm(idx.items, axis=1), 1.0, atol=1e-6)


class TestQuery:
    def test_self_query_returns_zero_distance(self):
        rng = np.random.default_rng(5)
        items = rng.normal(size=(30, 4)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=5, search_k=30, leaf_capacity=4, seed=0))
        res = query(idx, items[7], k=1)
        assert res.neighbors[0][0] == 7
        assert res.neighbors[0][1] == pytest.approx(0.0, abs=1e-6)

    def test_results_sorted_ascending(self):
        rng = np.random.default_rng(6)
        items = rng.normal(size=(50, 6))
        idx = build(items, IndexConfig(n_trees=4, search_k=50, leaf_capacity=8, seed=0))
        res = query(idx, rng.normal(size=6), k=10)
        dists = [d for _, d in res.neighbors]
        assert dists == sorted(dists)
        assert len(res.neighbors) == 10
        assert len(set(res.ids)) == 10

    def test_exhaustive_budget_matches_brute_force(self):
        rng = np.random.default_rng(7)
        items = rng.normal(size=(200, 8)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=6, search_k=200, leaf_capacity=8, seed=2))
        for _ in range(20):
            q = rng.normal(size=8)
            got = query(idx, q, k=5)
            want = brute_force(idx.items, q, 5)
            assert got.ids == [i for i, _ in want]
            for (_, gd), (_, wd) in zip(got.neighbors, want):
                assert gd == pytest.approx(wd, abs=1e-9)

    def test_distance_tie_broken_by_id(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # 0 and 2 tie
        idx = build(items, IndexConfig(n_trees=2, search_k=10, leaf_capacity=4))
        res = query(idx, [1.0, 0.0], k=3)
        assert res.ids == [0, 2, 1]

    def test_k_larger_than_item_count(self):
        items = np.eye(3, dtype=np.float32)
        idx = build(items, IndexConfig(n_trees=2, search_k=10, leaf_capacity=4))
        res = query(idx, [1.0, 0.0, 0.0], k=10)
        assert len(res.neighbors) == 3

    def test_search_k_argument_overrides_config(self):
        rng = np.random.default_rng(8)
        items = rng.normal(size=(400, 8)).astype(np.float32)
        # deliberately tiny configured budget
        idx = build(items, IndexConfig(n_trees=1, search_k=1, leaf_capacity=4, seed=0))
        q = rng.normal(size=8)
        want = brute_force(idx.items, q, 3)
        got = query(idx, q, k=3, search_k=400)
        assert got.ids == [i for i, _ in want]

    def test_budget_counts_distinct_candidates(self):
        # two identical trees: the same leaves arrive twice, but the walk must
        # still collect search_k distinct items (a budget below the 64 items,
        # so the trees are walked)
        rng = np.random.default_rng(9)
        items = rng.normal(size=(64, 4)).astype(np.float32)
        one = build(items, IndexConfig(n_trees=1, search_k=48, leaf_capacity=4, seed=3))
        twin = AnnIndex(config=replace(one.config, n_trees=2), items=one.items)
        f = one.forest
        n_leaves = f.paths.shape[1]
        twin.forest = Forest(
            f.normals,
            f.offsets,
            np.vstack([f.item_leaf, f.item_leaf + n_leaves]),
            np.hstack([f.paths] * 2),
        )
        q = rng.normal(size=4)
        assert len(annindex._walk_candidates(twin, q, 48)) >= 48
        assert query(twin, q, k=5).ids == query(one, q, k=5, search_k=48).ids

    def test_dimension_mismatch(self):
        idx = build(np.eye(3), IndexConfig(n_trees=1))
        with pytest.raises(ValueError):
            query(idx, [1.0, 0.0], k=1)

    def test_bad_k(self):
        idx = build(np.eye(3), IndexConfig(n_trees=1))
        with pytest.raises(ValueError):
            query(idx, [1.0, 0.0, 0.0], k=0)

    def test_fractional_k_refused_by_its_rule(self):
        # it used to pass the check and fail later with a TypeError
        idx = build(np.eye(3), IndexConfig(n_trees=1))
        with pytest.raises(ConfigError, match=r"k must be >= 1, got 1\.5"):
            query(idx, [1.0, 0.0, 0.0], k=1.5)

    @pytest.mark.parametrize("search_k", [2.5, -7])
    def test_bad_search_k_refused_by_its_rule(self, search_k):
        # 2.5 used to fail in the walk with NumPy's TypeError, and -7 to pass silently
        idx = build(np.random.default_rng(0).normal(size=(40, 3)), IndexConfig(n_trees=1, leaf_capacity=4))
        with pytest.raises(ConfigError, match=f"search_k must be >= 1, got {search_k}"):
            query(idx, [1.0, 0.0, 0.0], k=1, search_k=search_k)

    def test_cosine_metric_ranks_by_angle(self):
        items = np.array(
            [[10.0, 0.1], [0.1, 10.0], [1.0, 0.0]], dtype=np.float32
        )
        idx = build(items, IndexConfig(n_trees=4, search_k=10, leaf_capacity=4, metric="cosine"))
        res = query(idx, [5.0, 0.0], k=3)
        # items 0 and 2 both point along x; magnitude must not matter
        assert set(res.ids[:2]) == {0, 2}
        assert res.ids[2] == 1

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-200])
    def test_cosine_query_ranks_alike_at_any_scale(self, scale):
        # |q|^2 overflows to inf or underflows to 0 at these scales; the query
        # must still rank by angle, not as if asked from the origin
        rng = np.random.default_rng(16)
        items = rng.normal(size=(40, 4))
        idx = build(items, IndexConfig(n_trees=3, leaf_capacity=4, seed=1, metric="cosine"))
        want = query(idx, items[3], k=5, search_k=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = query(idx, items[3] * scale, k=5, search_k=40)
        assert got.ids[0] == 3
        assert got.ids == want.ids
        assert [d for _, d in got.neighbors] == pytest.approx([d for _, d in want.neighbors], abs=1e-6)

    def test_recall_reasonable_on_clustered_data(self):
        rng = np.random.default_rng(10)
        centers = rng.normal(size=(8, 16)) * 10.0
        items = np.concatenate([c + rng.normal(size=(50, 16)) for c in centers])
        idx = build(items, IndexConfig(n_trees=10, search_k=100, leaf_capacity=16, seed=0))
        hits = total = 0
        for _ in range(20):
            q = centers[rng.integers(8)] + rng.normal(size=16)
            want = {i for i, _ in brute_force(idx.items, q, 10)}
            got = set(query(idx, q, k=10).ids)
            hits += len(want & got)
            total += 10
        assert hits / total >= 0.8


class TestExactScan:
    """A budget of max(search_k, k * n_trees) >= n items scores every item
    without walking the trees; a smaller budget walks them."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = annindex._walk_candidates

        def counting_walk(*args):
            calls.append(args[2])
            return walk(*args)

        monkeypatch.setattr(annindex, "_walk_candidates", counting_walk)
        return calls

    def test_budget_exactly_n_scans_without_walking(self, walks):
        rng = np.random.default_rng(20)
        items = rng.normal(size=(60, 5)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=3, leaf_capacity=4, seed=1))
        for _ in range(10):
            q = rng.normal(size=5)
            assert query(idx, q, k=7, search_k=60).neighbors == exact_scan(idx.items, q, 7)
        assert walks == []

    def test_duplicate_rows_tie_by_id(self, walks):
        # four values, each repeated in 16 rows scattered over the index; enough
        # rows that an unstable sort would reorder equal distances
        rng = np.random.default_rng(21)
        values = rng.normal(size=(4, 3)).astype(np.float32)
        items = values[rng.permutation(np.repeat(np.arange(4), 16))]
        idx = build(items, IndexConfig(n_trees=2, leaf_capacity=4, seed=0))
        res = query(idx, values[2], k=64, search_k=64)
        assert res.neighbors == exact_scan(idx.items, values[2], 64)
        assert res.ids[:16] == sorted(np.flatnonzero((items == values[2]).all(axis=1)).tolist())
        assert walks == []

    def test_cosine_metric(self, walks):
        rng = np.random.default_rng(22)
        items = rng.normal(size=(50, 4)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=2, leaf_capacity=4, metric="cosine"))
        q = rng.normal(size=4) * 7.0
        got = query(idx, q, k=6, search_k=50)
        assert got.neighbors == exact_scan(idx.items, q / np.linalg.norm(q), 6)
        assert walks == []

    def test_k_beyond_item_count(self, walks):
        rng = np.random.default_rng(23)
        items = rng.normal(size=(9, 3)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=1, search_k=1, leaf_capacity=2))
        q = rng.normal(size=3)
        got = query(idx, q, k=20)  # budget 20 * 1 tree covers the 9 items
        assert got.neighbors == exact_scan(idx.items, q, 9)
        assert walks == []

    def test_budget_below_n_walks_the_trees(self, walks):
        # one hand-built tree splitting the line at x = 2.5: left leaf {0, 1, 2},
        # right leaf {3}. A query at 2.45 sits left of the plane, so a budget of
        # n - 1 = 3 stops after the left leaf and never sees item 3, its nearest.
        items = np.array([[0.0], [1.0], [1.5], [3.0]], dtype=np.float32)
        idx = AnnIndex(config=IndexConfig(n_trees=1), items=items)
        idx.forest = line_forest(2.5, [[0, 1, 2], [3]], [-1, 1])
        got = query(idx, [2.45], k=2, search_k=3)  # k * n_trees = 2 < 4
        assert got.ids == [2, 1]
        dists = [d for _, d in got.neighbors]
        assert dists == sorted(dists)
        assert walks == [3]
        assert query(idx, [2.45], k=2, search_k=4).ids == [3, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 4),
        n_trees=st.integers(1, 4),
        leaf_capacity=st.integers(2, 8),
        k=st.integers(1, 12),
        search_k=st.integers(1, 50),
        metric=st.sampled_from(METRICS),
        seed=st.integers(0, 2**16),
    )
    def test_property_scan_equals_brute_force_walk_equals_its_candidates(
        self, n, dim, n_trees, leaf_capacity, k, search_k, metric, seed
    ):
        rng = np.random.default_rng(seed)
        # small integer coordinates, so duplicate rows and tied distances occur
        items = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=n_trees, leaf_capacity=leaf_capacity, seed=seed % 7, metric=metric))
        q = rng.integers(-2, 3, size=dim).astype(np.float64)
        assert query(idx, q, k=k, search_k=search_k).neighbors == full_rerank(idx, q, k, search_k)


@st.composite
def rerank_cases(draw):
    """An index and a query meant to stress the certified filter: tied and
    near-tied distances, duplicate and zero rows, and queries that are items,
    zero, or so large or small that |q|^2 overflows or underflows."""
    n = draw(st.integers(1, 48), label="n")
    dim = draw(st.integers(1, 8), label="dim")
    rows = draw(st.sampled_from(["ints", "normal", "permutations"]), label="rows")
    metric = draw(st.sampled_from(METRICS), label="metric")
    kinds = ["item", "ints", "normal", "uniform", "zero", "huge", "tiny"]
    kinds += ["uniform"] * 4 * (rows == "permutations")  # the query permuted rows tie against
    q_kind = draw(st.sampled_from(kinds), label="query")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if rows == "ints":
        items = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    elif rows == "normal":
        items = rng.normal(size=(n, dim)).astype(np.float32)
    else:
        # every row a permutation of one vector: all at one true distance from
        # a uniform query, which a and the exact score each round apart their own way
        base = rng.normal(size=dim).astype(np.float32)
        items = np.stack([rng.permutation(base) for _ in range(n)])
    items[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]), label="zero share")] = 0.0
    dups = rng.integers(n, size=(draw(st.integers(0, n), label="duplicates"), 2))
    items[dups[:, 0]] = items[dups[:, 1]]
    if q_kind == "item":
        q = items[rng.integers(n)].astype(np.float64)
    elif q_kind == "ints":
        q = rng.integers(-2, 3, size=dim).astype(np.float64)
    elif q_kind == "normal":
        q = rng.normal(size=dim)
    elif q_kind == "uniform":
        q = np.full(dim, rng.normal())
    elif q_kind == "zero":
        q = np.zeros(dim)
    elif q_kind == "huge":
        q = rng.normal(size=dim) * 1e160
    else:
        q = rng.normal(size=dim) * 1e-170
    cfg = IndexConfig(
        n_trees=draw(st.integers(1, 4)),
        leaf_capacity=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 9)),
        metric=metric,
    )
    k = draw(st.integers(1, n + 3), label="k")
    search_k = draw(st.integers(1, n + 3), label="search_k")
    return build(items, cfg), q, k, search_k


class TestCertifiedRerank:
    """query scores exactly only the candidates whose bounds can reach the k
    closest, and answers as the full re-rank does, to the bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=rerank_cases())
    def test_query_equals_full_rerank(self, case):
        idx, q, k, search_k = case
        assert query(idx, q, k=k, search_k=search_k).neighbors == full_rerank(idx, q, k, search_k)

    @pytest.mark.parametrize("dim", [2, 16, 256])
    def test_permuted_rows_tie_in_exact_distance(self, dim):
        # rows that permute one vector lie at one true distance from a uniform
        # query; a and the exact score round that tie apart in different ways,
        # so without the slack the filter drops rows the re-rank keeps
        rng = np.random.default_rng(dim)
        for _ in range(20):
            base = rng.normal(size=dim).astype(np.float32)
            items = np.stack([rng.permutation(base) for _ in range(40)])
            idx = build(items, IndexConfig(n_trees=2, leaf_capacity=4, seed=1))
            q = np.full(dim, rng.normal())
            for k, search_k in ((1, 40), (5, 40), (20, 40), (5, 20)):
                assert query(idx, q, k=k, search_k=search_k).neighbors == full_rerank(idx, q, k, search_k)

    def test_zero_rows_tie_at_a_zero_query(self):
        # a = eps = 0 for every zero row: the bound T is 0 and each zero row
        # must still pass a - eps <= T
        items = np.zeros((6, 3), dtype=np.float32)
        items[[1, 4]] = [1.0, 2.0, 3.0]
        idx = build(items, IndexConfig(n_trees=1, leaf_capacity=2))
        for k in (1, 3, 4, 6):
            assert query(idx, np.zeros(3), k=k, search_k=6).neighbors == full_rerank(idx, np.zeros(3), k, 6)
        assert query(idx, np.zeros(3), k=4, search_k=6).ids == [0, 2, 3, 5]

    def test_overflowing_bound_keeps_every_candidate(self):
        # |q|^2 overflows, so no a or eps is finite: every candidate is scored,
        # every distance is inf, and the k closest are the k lowest ids
        rng = np.random.default_rng(40)
        items = rng.normal(size=(30, 4)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=3, leaf_capacity=4, seed=1))
        q = np.full(4, 1e160)
        for search_k in (5, 30):
            got = query(idx, q, k=4, search_k=search_k)
            assert got.neighbors == full_rerank(idx, q, 4, search_k)
            assert [d for _, d in got.neighbors] == [np.inf] * 4
        assert query(idx, q, k=4, search_k=30).ids == [0, 1, 2, 3]

    def test_exact_step_scores_k_rows_plus_ties_at_desk_vga_shape(self):
        # desk-vga's index: 300 embedded items, 20 trees, leaf capacity 16; each
        # item queries for k = 11 neighbors under a budget of 220 < 300. Some
        # rows are duplicated, so exact ties at the k-th distance occur.
        rng = np.random.default_rng(1404)
        centers = rng.normal(size=(6, 256)) * 2.0
        items = (centers[rng.integers(6, size=300)] + rng.normal(size=(300, 256))).astype(np.float32)
        items[rng.integers(300, size=30)] = items[rng.integers(300, size=30)]
        idx = build(items, IndexConfig(n_trees=20, search_k=50, leaf_capacity=16, seed=3))
        k, ties_seen, scored = 11, 0, 0
        for row in range(300):
            qv = idx.items[row].astype(np.float64)
            pool = annindex._walk_candidates(idx, qv, 220)
            kept = annindex._shortlist(idx.rows, qv, pool, k)
            dists = [d for _, d in exact_scan(idx.items[pool], qv, len(pool))]
            ties = sum(d == dists[k - 1] for d in dists[k:])
            assert len(kept) <= k + ties
            assert query(idx, qv, k=k).neighbors == full_rerank(idx, qv, k, 50)
            ties_seen += ties
            scored += len(kept)
        assert ties_seen > 0
        assert scored < 300 * (k + 1)


class TestWalk:
    """A walk takes whole leaves in descending priority, ties in forest order,
    until budget distinct items are in."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 40),
        dim=st.integers(1, 4),
        n_trees=st.integers(1, 4),
        leaf_capacity=st.integers(2, 8),
        metric=st.sampled_from(METRICS),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_walk_equals_spec_oracle(self, n, dim, n_trees, leaf_capacity, metric, seed, data):
        budget = data.draw(st.integers(1, n - 1), label="budget")
        rng = np.random.default_rng(seed)
        # small integer coordinates, so duplicate rows and tied priorities occur
        items = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=n_trees, leaf_capacity=leaf_capacity, seed=seed % 7, metric=metric))
        qv = rng.integers(-2, 3, size=dim).astype(np.float64)
        if metric == "cosine" and np.linalg.norm(qv) > 0.0:
            qv = qv / np.linalg.norm(qv)
        got = annindex._walk_candidates(idx, qv, budget).tolist()
        assert got == walk_oracle(idx, qv, budget)
        assert len(got) >= budget

    @pytest.mark.parametrize("budget", [1, 50, 150, 220, 299])
    def test_walk_equals_oracle_at_desk_vga_shape(self, budget):
        # desk-vga's index: 300 embedded items, 20 trees, leaf capacity 16
        rng = np.random.default_rng(1303)
        centers = rng.normal(size=(6, 256)) * 2.0
        items = (centers[rng.integers(6, size=300)] + rng.normal(size=(300, 256))).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=20, leaf_capacity=16, seed=3))
        for row in rng.integers(300, size=50):
            qv = idx.items[row].astype(np.float64) + rng.normal(scale=0.5, size=256)
            got = annindex._walk_candidates(idx, qv, budget).tolist()
            assert got == walk_oracle(idx, qv, budget)
            assert len(got) >= budget

    def test_tied_leaves_go_in_forest_order(self):
        # a query on the plane gives both leaves priority 0, and a budget of 2
        # stops after the first leaf in forest order, whichever side it is
        items = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
        idx = AnnIndex(config=IndexConfig(n_trees=1), items=items)
        on_plane = np.array([1.5])
        idx.forest = line_forest(1.5, [[0, 1], [2, 3]], [-1, 1])
        assert annindex._walk_candidates(idx, on_plane, 2).tolist() == [0, 1]
        idx.forest = line_forest(1.5, [[2, 3], [0, 1]], [1, -1])
        assert annindex._walk_candidates(idx, on_plane, 2).tolist() == [2, 3]
        assert annindex._walk_candidates(idx, np.array([1.4]), 2).tolist() == [0, 1]

    def test_forest_of_single_leaf_trees(self):
        # 5 items under a leaf capacity of 8: both trees are one leaf, whose path
        # is only the padding split; the budget max(1, 1 * 2) = 2 < 5 walks them
        rng = np.random.default_rng(24)
        items = rng.normal(size=(5, 3)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=2, search_k=1, leaf_capacity=8))
        q = rng.normal(size=3)
        assert query(idx, q, k=1, search_k=1).neighbors == exact_scan(idx.items, q, 1)
        assert idx.forest.paths.shape == (1, 2)
        assert annindex._walk_candidates(idx, q, 2).tolist() == [0, 1, 2, 3, 4]


def csgi_bytes(tmp_path, index) -> bytes:
    """The bytes save_file writes for index."""
    path = tmp_path / "out.csgi"
    save_file(index, path)
    return path.read_bytes()


def load_csgi(tmp_path, data: bytes, items):
    """load_file over a file holding data, for items."""
    path = tmp_path / "in.csgi"
    path.write_bytes(data)
    return load_file(path, items)


class TestSerialization:
    def sample(self, metric="euclidean"):
        """The items and an index over them."""
        rng = np.random.default_rng(11)
        items = rng.normal(size=(80, 6)).astype(np.float32)
        cfg = IndexConfig(n_trees=3, search_k=40, leaf_capacity=6, seed=4, metric=metric)
        return items, build(items, cfg)

    def test_round_trip_preserves_queries(self, tmp_path):
        items, idx = self.sample()
        again = load_csgi(tmp_path, csgi_bytes(tmp_path, idx), items)
        assert again.config == idx.config
        assert np.array_equal(again.items, idx.items)
        rng = np.random.default_rng(12)
        for _ in range(10):
            q = rng.normal(size=6)
            assert query(again, q, k=5).neighbors == query(idx, q, k=5).neighbors

    def test_round_trip_is_byte_identical(self, tmp_path):
        items, idx = self.sample(metric="cosine")
        data = csgi_bytes(tmp_path, idx)
        assert csgi_bytes(tmp_path, load_csgi(tmp_path, data, items)) == data

    def test_file_round_trip(self, tmp_path):
        items, idx = self.sample()
        path = tmp_path / "index.csgi"
        save_file(idx, path)
        again = load_file(path, items)
        assert csgi_bytes(tmp_path, again) == csgi_bytes(tmp_path, idx)

    def test_header_layout(self, tmp_path):
        items = np.eye(2, dtype=np.float32)
        idx = build(items, IndexConfig(n_trees=1, search_k=7, leaf_capacity=3, seed=5))
        data = csgi_bytes(tmp_path, idx)
        assert data[:4] == b"CSGI"
        assert int.from_bytes(data[4:8], "little") == 3  # version
        assert int.from_bytes(data[8:12], "little") == 1  # n_trees
        assert int.from_bytes(data[12:16], "little") == 7  # search_k
        assert int.from_bytes(data[16:20], "little") == 3  # leaf_capacity
        assert int.from_bytes(data[20:28], "little") == 5  # seed
        assert data[28] == 0  # metric id: euclidean
        assert data[29:] == hashlib.sha256(struct.pack("<QQ", 2, 2) + items.astype("<f4").tobytes()).digest()

    def test_largest_config_round_trips(self, tmp_path):
        top = IndexConfig(**{name: 2**bits - 1 for name, (_, bits) in FIELD_BOUNDS.items()})
        items = np.eye(2, dtype=np.float32)
        assert load_csgi(tmp_path, csgi_bytes(tmp_path, AnnIndex(top, items)), items).config == top

    def test_bad_magic(self, tmp_path):
        items, idx = self.sample()
        data = csgi_bytes(tmp_path, idx)
        with pytest.raises(BadMagicError):
            load_csgi(tmp_path, b"JUNK" + data[4:], items)

    def test_bad_version(self, tmp_path):
        items, idx = self.sample()
        data = csgi_bytes(tmp_path, idx)
        with pytest.raises(VersionError):
            load_csgi(tmp_path, data[:4] + (9).to_bytes(4, "little") + data[8:], items)

    def test_truncated(self, tmp_path):
        items, idx = self.sample()
        data = csgi_bytes(tmp_path, idx)
        with pytest.raises(TruncatedError):
            load_csgi(tmp_path, data[: len(data) // 2], items)

    def test_unknown_metric_id(self, tmp_path):
        items = np.eye(2, dtype=np.float32)
        data = bytearray(csgi_bytes(tmp_path, build(items, IndexConfig(n_trees=1))))
        data[28] = 7  # metric byte follows the u64 seed
        with pytest.raises(DecodeError):
            load_csgi(tmp_path, bytes(data), items)

    def test_trailing_bytes_rejected(self, tmp_path):
        items, idx = self.sample()
        with pytest.raises(ValueError):
            load_csgi(tmp_path, csgi_bytes(tmp_path, idx) + b"\x00", items)

    @pytest.mark.parametrize("metric", METRICS)
    def test_reloaded_trees_equal_built_trees(self, tmp_path, metric):
        items, idx = self.sample(metric)
        assert forest(load_csgi(tmp_path, csgi_bytes(tmp_path, idx), items)) == forest(idx)

    def test_holds_header_and_digest_only(self, tmp_path):
        _, idx = self.sample()
        assert len(csgi_bytes(tmp_path, idx)) == 8 + struct.calcsize("<IIIQB") + 32 == 61

    def test_version_1_file_rejected(self, tmp_path):
        # a version-1 file: the header, the items, then the trees; here one
        # tree that is a single leaf holding items 0, 1 and 2
        items = np.eye(3, dtype=np.float32)
        header = struct.pack("<4sIIIIQBIQ", b"CSGI", 1, 1, 50, 4, 0, 0, 3, 3)
        v1 = header + items.tobytes() + b"\x00" + struct.pack("<4I", 3, 0, 1, 2)
        with pytest.raises(VersionError):
            load_csgi(tmp_path, v1, items)

    def test_version_2_file_rejected(self, tmp_path):
        # a version-2 file: the config, dim and n, then a copy of the items
        items = np.eye(3, dtype=np.float32)
        v2 = struct.pack("<4sIIIIQBIQ", b"CSGI", 2, 1, 50, 4, 0, 0, 3, 3) + items.tobytes()
        with pytest.raises(VersionError):
            load_csgi(tmp_path, v2, items)

    @pytest.mark.parametrize("field,value", [(0, 0), (1, 0), (2, 1), (2, 0)])
    def test_header_outside_config_range_rejected(self, tmp_path, field, value):
        # zero trees, zero search_k, leaf_capacity below 2: once a plain ValueError
        items, idx = self.sample()
        data = csgi_bytes(tmp_path, idx)
        at = 8 + 4 * field
        with pytest.raises(DecodeError):
            load_csgi(tmp_path, data[:at] + struct.pack("<I", value) + data[at + 4 :], items)

    @pytest.mark.parametrize("dim,n", [(0, 3), (3, 0)])
    def test_load_refuses_empty_items(self, tmp_path, dim, n):
        # build's own check: a file holds no items to declare empty
        data = csgi_bytes(tmp_path, build(np.eye(2, dtype=np.float32), IndexConfig(n_trees=1)))
        with pytest.raises(ValueError, match="cannot build an index over zero"):
            load_csgi(tmp_path, data, np.zeros((n, dim), dtype=np.float32))


def flip_one_bit(items):
    bits = items.view(np.uint32).copy()
    bits[5, 2] ^= 1  # the last mantissa bit of one value
    return bits.view(np.float32)


class TestOtherItemsRefused:
    """An index file loads only for the items it was saved with: the digest
    covers their shape and every bit of the float32 rows build stores."""

    ITEMS = np.random.default_rng(13).normal(size=(40, 5)).astype(np.float32)
    CFG = IndexConfig(n_trees=2, search_k=10, leaf_capacity=4, seed=6)

    @pytest.mark.parametrize("other", [
        flip_one_bit,
        lambda x: np.delete(x, 7, axis=0),
        lambda x: x[[1, 0, *range(2, len(x))]],
        lambda x: x.reshape(x.shape[1], x.shape[0]),
    ], ids=["bit-flipped", "row-dropped", "rows-swapped", "transposed-shape"])
    def test_refused(self, tmp_path, other):
        data = csgi_bytes(tmp_path, build(self.ITEMS, self.CFG))
        changed = other(self.ITEMS)
        assert changed.tobytes() != self.ITEMS.tobytes() or changed.shape != self.ITEMS.shape
        with pytest.raises(DecodeError, match="built for other items"):
            load_csgi(tmp_path, data, changed)

    def test_file_refusal_names_the_path(self, tmp_path):
        path = tmp_path / "index.csgi"
        save_file(build(self.ITEMS, self.CFG), path)
        with pytest.raises(DecodeError, match=re.escape(f"{path}: index was built for other items")):
            load_file(path, flip_one_bit(self.ITEMS))

    def test_cosine_index_loads_for_rescaled_items(self, tmp_path):
        # build stores unit rows under cosine, and x and 2 x have the same ones
        cfg = replace(self.CFG, metric="cosine")
        twice = 2 * self.ITEMS
        again = load_csgi(tmp_path, csgi_bytes(tmp_path, build(self.ITEMS, cfg)), twice)
        fresh = build(twice, cfg)
        assert again.items.tobytes() == fresh.items.tobytes()
        for q in np.random.default_rng(14).normal(size=(10, 5)):
            for budget in (10, 40):  # a walk and a scan
                assert query(again, q, 3, budget).neighbors == query(fresh, q, 3, budget).neighbors


class TestLazyTrees:
    """The forest is grown the first time a query walks it, and only then."""

    @pytest.fixture
    def grown(self, monkeypatch):
        calls = []
        grow = annindex._grow_forest

        def counting_grow_forest(items, cfg):
            calls.append(cfg.n_trees)
            return grow(items, cfg)

        monkeypatch.setattr(annindex, "_grow_forest", counting_grow_forest)
        return calls

    def test_only_a_walking_query_grows_trees(self, tmp_path, grown):
        rng = np.random.default_rng(30)
        items = rng.normal(size=(50, 4)).astype(np.float32)
        idx = build(items, IndexConfig(n_trees=3, search_k=5, leaf_capacity=4, seed=2))
        again = load_csgi(tmp_path, csgi_bytes(tmp_path, idx), items)
        q = rng.normal(size=4)
        assert query(again, q, k=2, search_k=50).neighbors == exact_scan(again.items, q, 2)
        assert grown == []
        query(again, q, k=2)  # budget max(5, 2 * 3) = 6 < 50 walks the trees
        assert grown == [3]
        query(again, rng.normal(size=4), k=2)
        assert grown == [3]

    def test_load_of_huge_forest_grows_nothing(self, tmp_path, grown):
        items = np.eye(2, dtype=np.float32)
        data = bytearray(csgi_bytes(tmp_path, build(items, IndexConfig(n_trees=1))))
        data[8:12] = struct.pack("<I", 2**32 - 1)  # the digest covers the items, not the config
        idx = load_csgi(tmp_path, bytes(data), items)
        assert idx.config.n_trees == 2**32 - 1
        assert query(idx, [1.0, 0.0], k=1).ids == [0]
        assert grown == []
