import numpy as np
import pytest

from coseg import annindex
from coseg.annindex import IndexConfig, RetrievalResult, build
from coseg.embedder import EncoderParams, forward, init_params
from coseg.geometry import BoundingBox
from coseg.metrics import BoxTruth, iou_verdicts
from coseg.retrieval import (
    SimilarityGroup,
    embed_all,
    filter_candidates,
    load_groups,
    retrieve_similar,
    save_groups,
)


def identity_params(dim):
    return EncoderParams(weights=(np.eye(dim),), biases=(np.zeros(dim),))


def group(anchor, members, hint=None):
    return SimilarityGroup(
        anchor=anchor, members=RetrievalResult(neighbors=tuple(members)), class_hint=hint
    )


class TestSimilarityGroup:
    def test_anchor_among_members_rejected(self):
        with pytest.raises(ValueError):
            group("a", [("a", 0.0)])

    def test_decreasing_distances_rejected(self):
        with pytest.raises(ValueError):
            group("a", [("b", 2.0), ("c", 1.0)])

    def test_equal_distances_allowed(self):
        g = group("a", [("b", 1.0), ("c", 1.0)])
        assert len(g.members.neighbors) == 2

    @pytest.mark.parametrize(
        "dists",
        [(0.5, float("nan"), 0.1), (float("nan"),), (-3.0, float("inf")), (-0.5,), (0.0, float("inf"))],
    )
    def test_non_finite_or_negative_distance_rejected(self, dists):
        with pytest.raises(ValueError, match="finite and >= 0"):
            group("a", [(f"m{i}", d) for i, d in enumerate(dists)])

    def test_zero_distance_allowed(self):
        assert [d for _, d in group("a", [("b", 0.0), ("c", -0.0)]).members.neighbors] == [0.0, 0.0]


class TestEmbedAll:
    def test_matches_per_item_forward(self):
        rng = np.random.default_rng(0)
        params = init_params(5, (4, 3), seed=1)
        desc = rng.normal(size=(7, 5))
        out = embed_all(params, desc)
        assert out.shape == (7, 3)
        for i in range(7):
            assert np.allclose(out[i], forward(params, desc[i]))

    def test_empty_input(self):
        # forward_batch itself maps (0, d) to (0, out), float64 like any embedding
        for layers in [(3,), (4, 2, 6)]:
            params = init_params(5, layers, seed=0)
            for dtype in (np.float64, np.float32):
                out = embed_all(params, np.empty((0, 5), dtype=dtype))
                assert out.shape == (0, layers[-1])
                assert out.dtype == np.float64

    def test_single_vector_promoted(self):
        params = identity_params(3)
        out = embed_all(params, np.array([1.0, 2.0, 3.0]))
        assert out.shape == (1, 3)


class TestRetrieveSimilar:
    def make_index(self, emb, search_k=100):
        return build(emb, IndexConfig(n_trees=3, search_k=search_k, leaf_capacity=4, seed=0))

    def test_two_item_index(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        groups = retrieve_similar(self.make_index(emb), emb, k=1)
        assert groups[0].anchor == "0"
        assert groups[0].members.neighbors == (("1", 5.0),)
        assert groups[1].members.neighbors == (("0", 5.0),)

    def test_anchor_never_a_member(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(20, 4))
        groups = retrieve_similar(self.make_index(emb), emb, k=5)
        for g in groups:
            assert g.anchor not in [m for m, _ in g.members.neighbors]
            assert len(g.members.neighbors) == 5

    def test_ids_map_positions_to_names(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        names = ["left", "mid", "far"]
        groups = retrieve_similar(self.make_index(emb), emb, k=2, ids=names)
        assert [g.anchor for g in groups] == names
        assert groups[0].members.neighbors[0][0] == "mid"

    def test_distances_are_exact_euclidean(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(12, 3))
        groups = retrieve_similar(self.make_index(emb), emb, k=3)
        for pos, g in enumerate(groups):
            for name, dist in g.members.neighbors:
                d = np.linalg.norm(emb[pos] - emb[int(name)])
                assert dist == pytest.approx(d, abs=1e-6)

    def test_duplicate_embedding_of_anchor_kept(self):
        # item 1 is an exact duplicate of item 0: it must appear as a
        # zero-distance member, only the anchor's own row is dropped
        emb = np.array([[1.0, 1.0], [1.0, 1.0], [8.0, 8.0]])
        groups = retrieve_similar(self.make_index(emb), emb, k=1)
        assert groups[0].members.neighbors == (("1", 0.0),)
        assert groups[1].members.neighbors == (("0", 0.0),)

    def test_class_hints_attached(self):
        emb = np.array([[0.0], [1.0]])
        index = self.make_index(emb)
        groups = retrieve_similar(index, emb, k=1, ids=["a", "b"], class_hints={"a": "mug", "b": None})
        assert groups[0].class_hint == "mug"
        assert groups[1].class_hint is None
        assert [g.class_hint for g in retrieve_similar(index, emb, k=1, ids=["a", "b"])] == [None, None]

    def test_anchor_missing_from_class_hints_raises(self):
        emb = np.array([[0.0], [1.0]])
        with pytest.raises(KeyError, match="b"):
            retrieve_similar(self.make_index(emb), emb, k=1, ids=["a", "b"], class_hints={"a": "mug"})

    def test_query_count_must_match_index(self):
        emb = np.array([[0.0], [1.0]])
        idx = self.make_index(emb)
        with pytest.raises(ValueError):
            retrieve_similar(idx, emb[:1], k=1)

    def test_ids_length_checked(self):
        emb = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            retrieve_similar(self.make_index(emb), emb, k=1, ids=["only-one"])

    def test_default_budget_is_the_index_config(self, monkeypatch):
        # budget max(20, (2 + 1) * 3) = 20 is below the 200 items, so every query walks
        emb = np.random.default_rng(5).normal(size=(200, 4))
        index = self.make_index(emb, search_k=20)
        budgets = []
        walk = annindex._walk_candidates

        def counting(idx, qv, budget):
            budgets.append(budget)
            return walk(idx, qv, budget)

        monkeypatch.setattr(annindex, "_walk_candidates", counting)
        default = retrieve_similar(index, emb, k=2)
        assert retrieve_similar(index, emb, k=2, search_k=index.config.search_k) == default
        assert budgets == [20] * 400


class TestFilterCandidates:
    def setup_method(self):
        # the scoring table: item -> (box, ground truth, class); imgB has none
        truth = BoxTruth(BoundingBox(0, 0, 10, 10), 64, 64)
        self.items = {
            "a#0": (BoundingBox(0, 0, 10, 10), truth, "mug"),
            "a#1": (BoundingBox(40, 40, 10, 10), truth, "mug"),
            "b#0": (BoundingBox(5, 5, 10, 10), None, "cup"),
        }

    def test_keeps_overlapping_drops_rest(self):
        g = group("q", [("a#0", 0.1), ("a#1", 0.2)])
        out = filter_candidates(g, iou_verdicts(self.items, threshold=0.5))
        assert out.members.neighbors == (("a#0", 0.1),)

    def test_member_without_gt_passes(self):
        g = group("q", [("b#0", 0.3)])
        out = filter_candidates(g, iou_verdicts(self.items, threshold=0.5))
        assert out.members.neighbors == (("b#0", 0.3),)

    def test_threshold_is_inclusive(self):
        # overlap exactly 1/3: 10x10 boxes offset by 5 columns
        items = {"p": (BoundingBox(5, 0, 10, 10), BoxTruth(BoundingBox(0, 0, 10, 10), 64, 64), "k")}
        g = group("q", [("p", 0.0)])
        kept = filter_candidates(g, iou_verdicts(items, threshold=1 / 3))
        assert len(kept.members.neighbors) == 1
        dropped = filter_candidates(g, iou_verdicts(items, threshold=0.34))
        assert len(dropped.members.neighbors) == 0

    def test_unknown_member_rejected(self):
        g = group("q", [("missing", 0.1)])
        with pytest.raises(ValueError, match="missing"):
            filter_candidates(g, iou_verdicts(self.items, threshold=0.5))

    def test_order_and_metadata_preserved(self):
        g = group("q", [("a#0", 0.1), ("b#0", 0.2), ("a#1", 0.3)], hint="mug")
        out = filter_candidates(g, iou_verdicts(self.items, threshold=0.5))
        assert out.anchor == "q"
        assert out.class_hint == "mug"
        assert out.members.neighbors == (("a#0", 0.1), ("b#0", 0.2))

    def test_none_ground_truth_passes_its_items(self):
        # a None truth says the image has no ground truth: its items pass
        assert iou_verdicts(self.items, threshold=0.5) == {"a#0": True, "a#1": False, "b#0": True}
        assert iou_verdicts(self.items, threshold=1.0) == {"a#0": True, "a#1": False, "b#0": True}

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            iou_verdicts({}, threshold=1.5)


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        groups = [
            group("a", [("b", 0.5), ("c", 1.25)], hint="mug"),
            group("d", [], hint=None),
        ]
        path = tmp_path / "groups.jsonl"
        save_groups(groups, path)
        again = load_groups(path)
        assert len(again) == 2
        assert again[0].anchor == "a"
        assert again[0].members.neighbors == (("b", 0.5), ("c", 1.25))
        assert again[0].class_hint == "mug"
        assert again[1].members.neighbors == ()
        assert again[1].class_hint is None

    def test_one_json_object_per_line(self, tmp_path):
        import json

        groups = [group("a", [("b", 0.5)]), group("c", [])]
        path = tmp_path / "groups.jsonl"
        save_groups(groups, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        obj = json.loads(lines[0])
        assert obj == {"anchor": "a", "members": [{"id": "b", "distance": 0.5}], "class_hint": None}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"anchor": "a", "members": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: "):
            load_groups(path)

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"anchor": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1: "):
            load_groups(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"anchor": "a", "members": [{"id": "b", "distance": "far"}]}',
            '{"anchor": "a", "members": [{"id": "a", "distance": 0.5}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": 2.0}, {"id": "c", "distance": 1.0}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": 0.5}, {"id": "c", "distance": NaN},'
            ' {"id": "d", "distance": 0.1}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": -3.0}, {"id": "c", "distance": Infinity}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": true}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": "1e0"}]}',
            '{"anchor": "a", "members": [{"id": "b", "distance": null}]}',
            '{"anchor": "a", "members": [{"id": 7, "distance": 1.0}]}',
            '{"anchor": "a", "members": [{"id": ["x"], "distance": 1.0}]}',
            '{"anchor": 3, "members": []}',
            '{"anchor": "a", "members": [], "class_hint": 4}',
            '{"anchor": "a", "members": [{"id": "b", "distance": 1' + "0" * 400 + '}]}',
        ],
        ids=[
            "non_numeric_distance", "anchor_among_members", "decreasing_distances",
            "nan_distance", "negative_and_infinite_distances", "bool_distance",
            "numeric_string_distance", "null_distance", "int_member_id", "list_member_id",
            "int_anchor", "int_class_hint", "int_distance_beyond_float",
        ],
    )
    def test_rejected_record_names_path_and_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"anchor": "a", "members": []}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: "):
            load_groups(path)

    def test_deep_nesting_names_path_and_line(self, tmp_path):
        # json.loads used to let its RecursionError escape
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="deep.jsonl:1: "):
            load_groups(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('\n{"anchor": "a", "members": [], "class_hint": null}\n\n', encoding="utf-8")
        assert len(load_groups(path)) == 1

    def test_integer_distance_loads_as_float(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"anchor": "a", "members": [{"id": "b", "distance": 2}]}\n', encoding="utf-8")
        (g,) = load_groups(path)
        assert g.members.neighbors == (("b", 2.0),)
        assert type(g.members.neighbors[0][1]) is float
