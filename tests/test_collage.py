import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coseg.collage import (
    CANVAS_SIDE,
    SKY_BLUE,
    CollageItem,
    CollageSpec,
    compose,
    default_slots,
    layout,
    make_collage,
)
from coseg.geometry import BoundingBox
from oracles import reference_compose


def solid_item(color, distance, size=(20, 20)):
    region = np.zeros((*size, 3), dtype=np.uint8)
    region[:, :] = color
    mask = np.ones(size, dtype=bool)
    return CollageItem(region=region, mask=mask, distance=distance)


@st.composite
def collage_case(draw):
    """A background and 0-10 items of random size and pixels, each with a
    random mask of the given density; distances from a small set, so ties occur."""
    seed = draw(st.integers(0, 2**32 - 1))
    background = draw(st.tuples(*[st.integers(0, 255)] * 3))
    n = draw(st.integers(0, 10))
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        region = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        mask = rng.random((h, w)) < rng.random()
        items.append((region, mask, float(rng.integers(0, 4))))
    return CollageSpec(background=background), items


class TestDefaultSlots:
    def test_ten_disjoint_slots_cover_canvas(self):
        slots = default_slots()
        assert len(slots) == 10
        claimed = np.zeros((CANVAS_SIDE, CANVAS_SIDE), dtype=int)
        for s in slots:
            # inside the canvas: a slice past the edge would be cut silently
            assert s.x >= 0 and s.y >= 0
            assert s.x + s.w <= CANVAS_SIDE and s.y + s.h <= CANVAS_SIDE
            claimed[s.y : s.y + s.h, s.x : s.x + s.w] += 1
        # tiling: every pixel claimed exactly once
        assert claimed.min() == 1 and claimed.max() == 1

    def test_first_slot_largest(self):
        slots = default_slots()
        assert slots[0] == BoundingBox(0, 0, 256, 256)
        assert all(s.area < slots[0].area for s in slots[1:])

    def test_bottom_strip_widths(self):
        widths = [s.w for s in default_slots()[5:]]
        assert widths == [103, 103, 102, 102, 102]
        assert sum(widths) == CANVAS_SIDE


class TestCollageSpec:
    def test_default_valid(self):
        spec = CollageSpec()
        assert spec.background == SKY_BLUE
        assert spec.slots == default_slots()

    def test_slots_not_settable(self):
        with pytest.raises(TypeError):
            CollageSpec(slots=default_slots())

    def test_bad_background(self):
        with pytest.raises(ValueError):
            CollageSpec(background=(300, 0, 0))
        with pytest.raises(ValueError):
            CollageSpec(background=(1, 2))


class TestCollageItem:
    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            CollageItem(
                region=np.zeros((4, 4, 3), dtype=np.uint8),
                mask=np.ones((4, 5), dtype=bool),
                distance=0.0,
            )

    def test_region_shape_checked(self):
        with pytest.raises(ValueError):
            CollageItem(
                region=np.zeros((4, 4), dtype=np.uint8),
                mask=np.ones((4, 4), dtype=bool),
                distance=0.0,
            )

    @pytest.mark.parametrize("d", [-1.0, float("nan"), float("inf")])
    def test_distance_checked(self, d):
        with pytest.raises(ValueError):
            solid_item((1, 2, 3), d)

    def test_mask_defaults_to_none(self):
        item = CollageItem(region=np.zeros((2, 3, 3), dtype=np.uint8), distance=0.5)
        assert item.mask is None

    def test_mask_binarized(self):
        item = CollageItem(
            region=np.zeros((2, 2, 3), dtype=np.uint8),
            mask=np.array([[0, 3], [0, 1]]),
            distance=0.5,
        )
        assert item.mask.dtype == bool
        assert item.mask.sum() == 2


class TestLayout:
    def test_single_item_takes_slot0(self):
        items = [solid_item((9, 9, 9), 4.2)]
        assert layout(items, CollageSpec()) == [(0, items[0])]

    def test_smallest_distance_wins_largest_slot(self):
        far = solid_item((1, 1, 1), 0.9)
        near = solid_item((2, 2, 2), 0.1)
        out = layout([far, near], CollageSpec())
        assert out[0] == (0, near)
        assert out[1] == (1, far)

    def test_full_sort_order(self):
        rng = np.random.default_rng(0)
        dists = rng.random(10)
        items = [solid_item((i, i, i), float(d)) for i, d in enumerate(dists)]
        out = layout(items, CollageSpec())
        slot_dist = [item.distance for _, item in out]
        assert slot_dist == sorted(dists)
        assert [slot for slot, _ in out] == list(range(10))

    def test_ties_keep_input_order(self):
        a = solid_item((1, 0, 0), 0.5)
        b = solid_item((2, 0, 0), 0.5)
        out = layout([a, b], CollageSpec())
        assert out[0] == (0, a)
        assert out[1] == (1, b)

    def test_too_many_items(self):
        items = [solid_item((0, 0, 0), float(i)) for i in range(11)]
        with pytest.raises(ValueError):
            layout(items, CollageSpec())

    def test_empty(self):
        assert layout([], CollageSpec()) == []


class TestCompose:
    def test_empty_assignment_is_background(self):
        canvas = compose([], CollageSpec())
        assert canvas.shape == (CANVAS_SIDE, CANVAS_SIDE, 3)
        assert np.all(canvas == np.array(SKY_BLUE, dtype=np.uint8))

    def test_full_mask_fills_exactly_its_slot(self):
        spec = CollageSpec()
        item = solid_item((10, 20, 30), 0.0)
        canvas = compose([(0, item)], spec)
        s = spec.slots[0]
        inside = canvas[s.y : s.y + s.h, s.x : s.x + s.w]
        assert np.all(inside == (10, 20, 30))
        # everything outside slot 0 is untouched background
        outside = canvas.copy()
        outside[s.y : s.y + s.h, s.x : s.x + s.w] = SKY_BLUE
        assert np.all(outside == np.array(SKY_BLUE, dtype=np.uint8))

    def test_mask_holes_show_background(self):
        spec = CollageSpec()
        region = np.full((16, 16, 3), 200, dtype=np.uint8)
        mask = np.zeros((16, 16), dtype=bool)
        mask[:8] = True  # top half only
        item = CollageItem(region=region, mask=mask, distance=0.0)
        canvas = compose([(0, item)], spec)
        s = spec.slots[0]
        assert np.all(canvas[s.y : s.y + 128, s.x : s.x + s.w] == 200)
        assert np.all(canvas[s.y + 128 : s.y + s.h, s.x : s.x + s.w] == np.array(SKY_BLUE, dtype=np.uint8))

    def test_region_scaled_to_slot(self):
        spec = CollageSpec()
        # 2x2 quadrant colors blown up to 256x256
        region = np.array(
            [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [255, 255, 0]]], dtype=np.uint8
        )
        item = CollageItem(region=region, mask=np.ones((2, 2), dtype=bool), distance=0.0)
        canvas = compose([(0, item)], spec)
        assert tuple(canvas[0, 0]) == (255, 0, 0)
        assert tuple(canvas[0, 255]) == (0, 255, 0)
        assert tuple(canvas[255, 0]) == (0, 0, 255)
        assert tuple(canvas[255, 255]) == (255, 255, 0)

    def test_duplicate_slot_rejected(self):
        item = solid_item((1, 1, 1), 0.0)
        with pytest.raises(ValueError, match="twice"):
            compose([(0, item), (0, item)], CollageSpec())

    def test_slot_out_of_range(self):
        item = solid_item((1, 1, 1), 0.0)
        with pytest.raises(ValueError):
            compose([(10, item)], CollageSpec())

    def test_custom_background(self):
        spec = CollageSpec(background=(1, 2, 3))
        canvas = compose([], spec)
        assert np.all(canvas == np.array([1, 2, 3], dtype=np.uint8))

    def test_item_without_mask_fills_its_slot(self):
        spec = CollageSpec()
        item = CollageItem(region=np.full((3, 5, 3), 7, dtype=np.uint8), distance=0.0)
        canvas = compose([(1, item)], spec)
        s = spec.slots[1]
        assert np.all(canvas[s.y : s.y + s.h, s.x : s.x + s.w] == 7)
        assert (canvas == 7).all(axis=2).sum() == s.area

    @settings(max_examples=60, deadline=None)
    @given(case=collage_case())
    def test_no_mask_renders_as_all_true_mask(self, case):
        spec, items = case
        bare = [CollageItem(region=r, distance=d) for r, _, d in items]
        full = [CollageItem(region=r, mask=np.ones(r.shape[:2], dtype=bool), distance=d) for r, _, d in items]
        assert make_collage(bare, spec).tobytes() == make_collage(full, spec).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=collage_case())
    def test_masked_canvas_equals_copyto_reference(self, case):
        # unfilled slots and masked-off pixels must both show the background
        spec, items = case
        masked = [CollageItem(region=r, mask=m, distance=d) for r, m, d in items]
        assignment = layout(masked, spec)
        assert compose(assignment, spec).tobytes() == reference_compose(assignment, spec).tobytes()


class TestMakeCollage:
    def test_end_to_end_ranking(self):
        spec = CollageSpec()
        items = [
            solid_item((50, 50, 50), 2.0),
            solid_item((99, 99, 99), 0.5),
        ]
        canvas = make_collage(items, spec)
        s0, s1 = spec.slots[0], spec.slots[1]
        assert np.all(canvas[s0.y : s0.y + s0.h, s0.x : s0.x + s0.w] == 99)
        assert np.all(canvas[s1.y : s1.y + s1.h, s1.x : s1.x + s1.w] == 50)

    def test_ten_items_leave_no_background_when_masks_full(self):
        items = [solid_item((i + 1, 0, 0), float(i)) for i in range(10)]
        canvas = make_collage(items)
        bg = np.array(SKY_BLUE, dtype=np.uint8)
        assert not np.any(np.all(canvas == bg, axis=2))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        items = []
        for i in range(7):
            size = (int(rng.integers(4, 40)), int(rng.integers(4, 40)))
            region = rng.integers(0, 256, size=(*size, 3), dtype=np.uint8)
            mask = rng.random(size) > 0.3
            items.append(CollageItem(region=region, mask=mask, distance=float(rng.random())))
        a = make_collage(items)
        b = make_collage(items)
        assert np.array_equal(a, b)

    def test_random_invariants(self):
        rng = np.random.default_rng(2)
        spec = CollageSpec()
        bg = np.array(SKY_BLUE, dtype=np.uint8)
        for _ in range(10):
            n = int(rng.integers(0, 11))
            items = []
            for _ in range(n):
                size = (int(rng.integers(2, 30)), int(rng.integers(2, 30)))
                region = rng.integers(0, 256, size=(*size, 3), dtype=np.uint8)
                items.append(
                    CollageItem(
                        region=region,
                        mask=rng.random(size) > 0.5,
                        distance=float(rng.random()),
                    )
                )
            canvas = make_collage(items, spec)
            assert canvas.shape == (CANVAS_SIDE, CANVAS_SIDE, 3)
            assert canvas.dtype == np.uint8
            # unused slots stay pure background
            used = layout(items, spec)
            used_slots = {slot for slot, _ in used}
            for idx, s in enumerate(spec.slots):
                if idx not in used_slots:
                    tile = canvas[s.y : s.y + s.h, s.x : s.x + s.w]
                    assert np.all(tile == bg)
