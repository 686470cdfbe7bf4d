import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coseg import _certify
from coseg.embedder import (
    MINING_MODES,
    EncoderParams,
    LabeledDescriptors,
    PairSample,
    TrainConfig,
    _batch_gradient,
    _class_members,
    _gradient_arrays,
    _mine_hard_indices,
    _sample_pair_indices,
    contrastive_loss,
    forward,
    forward_batch,
    init_params,
    load_model_file,
    loss_gradient,
    save_model_file,
    train,
)
from coseg.errors import BadMagicError, ConfigError, DecodeError, TruncatedError, VersionError


def tiny_params():
    # 2 -> 2 -> 1, hand-picked so every activation stays positive for x > 0
    return EncoderParams(
        weights=(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])),
        biases=(np.array([0.5, 0.5]), np.array([0.0])),
    )


def small_dataset(seed=0, n_classes=3, per_class=5, dim=4):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDescriptors(vectors=vectors, labels=labels)


class TestEncoderParams:
    def test_shape_chain_validated(self):
        with pytest.raises(ValueError):
            EncoderParams(
                weights=(np.zeros((3, 2)), np.zeros((1, 4))),  # 3 outputs vs 4 inputs
                biases=(np.zeros(3), np.zeros(1)),
            )

    def test_bias_shape_validated(self):
        with pytest.raises(ValueError):
            EncoderParams(weights=(np.zeros((3, 2)),), biases=(np.zeros(2),))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_layer_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            EncoderParams(weights=(np.zeros(shape),), biases=(np.zeros(shape[0]),))

    def test_dims(self):
        p = tiny_params()
        assert p.input_dim == 2
        assert [w.shape for w in p.weights] == [(2, 2), (1, 2)]

    def test_copy_is_independent(self):
        p = tiny_params()
        q = p.copy()
        q.weights[0][0, 0] = 99.0
        assert p.weights[0][0, 0] == 1.0


class TestInitParams:
    def test_shapes_and_zero_biases(self):
        p = init_params(8, (5, 3), seed=0)
        assert [w.shape for w in p.weights] == [(5, 8), (3, 5)]
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_bounds_follow_fan_sizes(self):
        p = init_params(8, (5, 3), seed=1)
        for w, fan_in, fan_out in zip(p.weights, (8, 5), (5, 3)):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_seed_determinism(self):
        a = init_params(6, (4,), seed=7)
        b = init_params(6, (4,), seed=7)
        c = init_params(6, (4,), seed=8)
        assert np.array_equal(a.weights[0], b.weights[0])
        assert not np.array_equal(a.weights[0], c.weights[0])


class TestForward:
    def test_matches_hand_computation(self):
        p = tiny_params()
        # x=(1,2): hidden relu([1.5, 2.5]) = [1.5, 2.5]; out = 4.0
        assert forward(p, np.array([1.0, 2.0]))[0] == pytest.approx(4.0)

    def test_negative_preactivations_clipped(self):
        p = tiny_params()
        # x=(-3,-3): pre-activations [-2.5,-2.5] clip to 0; out = 0
        assert forward(p, np.array([-3.0, -3.0]))[0] == 0.0

    def test_output_layer_is_linear(self):
        # single layer: no rectifier on the output
        p = EncoderParams(weights=(np.array([[1.0]]),), biases=(np.array([-5.0]),))
        assert forward(p, np.array([2.0]))[0] == pytest.approx(-3.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        p = init_params(6, (4, 3), seed=2)
        batch = rng.normal(size=(9, 6))
        out = forward_batch(p, batch)
        for i in range(9):
            assert np.allclose(out[i], forward(p, batch[i]))

    def test_dimension_mismatch(self):
        p = tiny_params()
        with pytest.raises(ValueError):
            forward(p, np.zeros(5))
        with pytest.raises(ValueError):
            forward(p, np.zeros((1, 2)))  # the right width, but 2-d
        with pytest.raises(ValueError):
            forward_batch(p, np.zeros((3, 5)))


def assert_forward_bits(params, x, all_layers):
    """forward_batch equals np.maximum(x @ w.T + b, 0.0) per hidden layer and
    the identity on the last, each layer a new array: bit for bit, -0.0
    included, except that a NaN need only be NaN on both sides. IEEE 754
    leaves open which operand's NaN a sum returns, and NumPy's in-place
    z += b returns b's where z + b returns z's. No NaN reaches an artifact:
    training stops on a non-finite loss."""
    want = [x]
    last = len(params.weights) - 1
    with np.errstate(all="ignore"):
        got = forward_batch(params, x, all_layers=all_layers)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = want[-1] @ w.T + b
            want.append(z if i == last else np.maximum(z, 0.0))
    if not all_layers:
        got, want = [got], want[-1:]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
FINITE = st.floats(-4.0, 4.0)


class TestForwardBatchBits:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        n=st.integers(1, 4),
        all_layers=st.booleans(),
        data=st.data(),
    )
    def test_bit_identical_to_reference(self, sizes, n, all_layers, data):
        # inputs and biases draw -0.0, NaN and +-inf as often as finite values
        def matrix(shape, values):
            count = int(np.prod(shape))
            return np.array(data.draw(st.lists(values, min_size=count, max_size=count)),
                            dtype=np.float64).reshape(shape)

        params = EncoderParams(
            weights=tuple(matrix((o, i), FINITE) for i, o in zip(sizes[:-1], sizes[1:])),
            biases=tuple(matrix((o,), SPECIAL | FINITE) for o in sizes[1:]),
        )
        assert_forward_bits(params, matrix((n, sizes[0]), SPECIAL | FINITE), all_layers)

    @pytest.mark.parametrize("all_layers", [False, True])
    def test_signed_zeros_and_specials(self, all_layers):
        # inputs -0.0, NaN, +inf and -inf reach both hidden units' rectifier,
        # one unit with each sign, and both layers add a -0.0 bias
        params = EncoderParams(
            weights=(np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])),
            biases=(np.array([-0.0, 0.0]), np.array([-0.0])),
        )
        x = np.array([[-0.0], [0.0], [np.nan], [np.inf], [-np.inf], [2.0]])
        assert_forward_bits(params, x, all_layers)

    @pytest.mark.parametrize("all_layers", [False, True])
    def test_nan_meets_nan_bias(self, all_layers):
        # inf times a zero weight is NaN, and the last layer adds a NaN bias:
        # the in-place sum keeps the bias's NaN, the reference's sum z's
        params = EncoderParams(
            weights=(np.zeros((3, 1)), np.zeros((1, 3))),
            biases=(np.zeros(3), np.array([np.nan])),
        )
        assert_forward_bits(params, np.array([[np.inf]]), all_layers)


class TestContrastiveLoss:
    def test_similar_pair_is_half_squared_distance(self):
        fa, fb = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert contrastive_loss(fa, fb, 1, margin=1.0) == pytest.approx(12.5)

    def test_similar_identical_is_zero(self):
        f = np.array([1.0, 2.0])
        assert contrastive_loss(f, f, 1, margin=1.0) == 0.0

    def test_dissimilar_identical_hits_full_margin(self):
        f = np.array([1.0, 2.0])
        assert contrastive_loss(f, f, 0, margin=1.0) == pytest.approx(0.5)

    def test_dissimilar_beyond_margin_is_zero(self):
        fa, fb = np.array([0.0]), np.array([5.0])  # d2 = 25 >= margin
        assert contrastive_loss(fa, fb, 0, margin=1.0) == 0.0

    def test_dissimilar_inside_margin(self):
        fa, fb = np.array([0.0]), np.array([0.5])  # d2 = 0.25
        assert contrastive_loss(fa, fb, 0, margin=1.0) == pytest.approx(0.375)

    def test_classical_variant_values(self):
        fa, fb = np.array([0.0]), np.array([0.25])  # d = 0.25
        # 0.5 * (1 - 0.25)^2 = 0.28125
        assert contrastive_loss(fa, fb, 0, 1.0, classical_hinge=True) == pytest.approx(0.28125)
        # similar pairs unchanged by the variant
        assert contrastive_loss(fa, fb, 1, 1.0, classical_hinge=True) == pytest.approx(0.03125)

    def test_variants_differ_inside_margin(self):
        fa, fb = np.array([0.0]), np.array([0.5])
        default = contrastive_loss(fa, fb, 0, 1.0)
        classical = contrastive_loss(fa, fb, 0, 1.0, classical_hinge=True)
        assert default != classical

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fa, fb = rng.normal(size=3), rng.normal(size=3)
            for label in (0, 1):
                assert contrastive_loss(fa, fb, label, 1.0) == contrastive_loss(
                    fb, fa, label, 1.0
                )

    def test_never_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            fa, fb = rng.normal(size=4), rng.normal(size=4)
            for label in (0, 1):
                for classical in (False, True):
                    assert contrastive_loss(fa, fb, label, 0.7, classical) >= 0.0

    def test_validation(self):
        f = np.zeros(2)
        with pytest.raises(ValueError):
            contrastive_loss(f, np.zeros(3), 1, 1.0)
        with pytest.raises(ValueError):
            contrastive_loss(f, f, 2, 1.0)
        with pytest.raises(ValueError):
            contrastive_loss(f, f, 1, 0.0)

    @pytest.mark.parametrize("classical", [False, True])
    def test_nan_dissimilar_pair_is_nan(self, classical):
        # a dissimilar pair's hinge must not turn NaN into 0: training's batch
        # loss for this pair is NaN, and train stops with TrainingDiverged
        fa, fb = np.array([np.nan, 0.0]), np.zeros(2)
        assert np.isnan(contrastive_loss(fa, fb, 0, 1.0, classical))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda d: st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d), min_size=2, max_size=2)),
        st.sampled_from([0, 1]),
        st.floats(1e-6, 1e6),
        st.booleans(),
    )
    def test_equals_training_loss_bit_for_bit(self, pair, label, margin, classical):
        emb = np.array(pair)
        # one linear layer: the pair's rows are both its input and its embedding
        params = EncoderParams(weights=(np.eye(emb.shape[1]),), biases=(np.zeros(emb.shape[1]),))
        trained = _batch_gradient(
            params, [emb, emb], slice(None), np.array([0]), np.array([1]), np.array([label]), margin, classical,
            _gradient_arrays(params),
        )
        got = contrastive_loss(emb[0], emb[1], label, margin, classical)
        assert np.float64(got).view(np.uint64) == np.float64(trained).view(np.uint64)


def numeric_gradient(params, pair, margin, classical, step=1e-6):
    """Central finite differences on every weight and bias entry."""
    grads_w = [np.zeros_like(w) for w in params.weights]
    grads_b = [np.zeros_like(b) for b in params.biases]

    def loss_at(p):
        return contrastive_loss(forward(p, pair.a), forward(p, pair.b), pair.label, margin, classical)

    for li in range(len(params.weights)):
        for idx in np.ndindex(params.weights[li].shape):
            wp = params.copy()
            wp.weights[li][idx] += step
            wm = params.copy()
            wm.weights[li][idx] -= step
            grads_w[li][idx] = (loss_at(wp) - loss_at(wm)) / (2 * step)
        for idx in range(params.biases[li].shape[0]):
            bp = params.copy()
            bp.biases[li][idx] += step
            bm = params.copy()
            bm.biases[li][idx] -= step
            grads_b[li][idx] = (loss_at(bp) - loss_at(bm)) / (2 * step)
    return grads_w, grads_b


class TestLossGradient:
    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("classical", [False, True])
    def test_matches_finite_differences(self, label, classical):
        rng = np.random.default_rng(10 + label)
        params = init_params(4, (3, 2), seed=6)
        pair = PairSample(a=rng.normal(size=4), b=rng.normal(size=4), label=label)
        got = loss_gradient(params, pair, margin=2.0, classical_hinge=classical)
        want_w, want_b = numeric_gradient(params, pair, 2.0, classical)
        for gw, ww in zip(got.weights, want_w):
            assert np.allclose(gw, ww, atol=1e-6)
        for gb, wb in zip(got.biases, want_b):
            assert np.allclose(gb, wb, atol=1e-6)

    def test_identical_similar_pair_has_zero_gradient(self):
        params = init_params(3, (2,), seed=0)
        x = np.array([0.3, -0.1, 0.5])
        g = loss_gradient(params, PairSample(a=x, b=x, label=1), margin=1.0)
        assert all(np.all(w == 0.0) for w in g.weights)

    def test_saturated_dissimilar_pair_has_zero_gradient(self):
        # push embeddings far apart with a plain linear scale layer
        params = EncoderParams(weights=(np.array([[10.0]]),), biases=(np.array([0.0]),))
        pair = PairSample(a=np.array([0.0]), b=np.array([1.0]), label=0)  # d2 = 100
        g = loss_gradient(params, pair, margin=1.0)
        assert all(np.all(w == 0.0) for w in g.weights)

    def test_dimension_check(self):
        params = init_params(3, (2,), seed=0)
        pair = PairSample(a=np.zeros(4), b=np.zeros(4), label=1)
        with pytest.raises(ValueError):
            loss_gradient(params, pair, margin=1.0)


def reference_loss_and_coeff(diff, labels, margin, classical_hinge):
    """Mean loss and each pair's output-gradient coefficient, as trained."""
    d2 = np.sum(diff * diff, axis=1)
    pos = np.asarray(labels) == 1
    if classical_hinge:
        d = np.sqrt(d2)
        per_pair = np.where(pos, 0.5 * d2, 0.5 * np.maximum(0.0, margin - d) ** 2)
        active = (~pos) & (d < margin) & (d > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            neg_coeff = np.where(active, -(margin - d) / np.where(d > 0, d, 1.0), 0.0)
    else:
        per_pair = np.where(pos, 0.5 * d2, 0.5 * np.maximum(0.0, margin - d2))
        neg_coeff = np.where((~pos) & (d2 < margin), -1.0, 0.0)
    return float(np.mean(per_pair)), (np.where(pos, 1.0, 0.0) + neg_coeff) / diff.shape[0]


def add_at_gradient(params, vectors, ia, ib, labels, margin, classical_hinge):
    """Reference: unique rows forward once, the pair gradients scattered onto
    a zero-filled delta by np.add.at, a side first, then backward once."""
    rows, inv = np.unique(np.concatenate([ia, ib]), return_inverse=True)
    acts = forward_batch(params, vectors[rows], all_layers=True)
    ra, rb = inv[: len(ia)], inv[len(ia) :]
    diff = acts[-1][ra] - acts[-1][rb]
    loss, coeff = reference_loss_and_coeff(diff, labels, margin, classical_hinge)
    pair_delta = coeff[:, None] * diff
    delta = np.zeros_like(acts[-1])
    np.add.at(delta, ra, pair_delta)
    np.add.at(delta, rb, -pair_delta)
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.weights)
    for layer in range(len(params.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ acts[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (acts[layer] > 0)
    return loss, grad_w, grad_b


def batch_gradient(params, vectors, ia, ib, labels, margin, classical_hinge):
    """_batch_gradient on the activations of the rows of vectors the pairs
    touch, each once, with ia and ib mapped onto them: (loss, grad_w, grad_b)."""
    rows, inv = np.unique(np.concatenate([ia, ib]), return_inverse=True)
    acts = forward_batch(params, vectors[rows], all_layers=True)
    grad_w, grad_b = _gradient_arrays(params)
    loss = _batch_gradient(params, acts, slice(None), inv[: len(ia)], inv[len(ia) :], labels, margin, classical_hinge,
                           (grad_w, grad_b))
    return loss, grad_w, grad_b


def same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def two_branch_gradient(params, xa, xb, labels, margin, classical_hinge):
    """Reference: each pair's two branches forward and backward over their own
    row copies, the branch gradients summed into zero-filled lists."""
    acts_a = forward_batch(params, xa, all_layers=True)
    acts_b = forward_batch(params, xb, all_layers=True)
    diff = acts_a[-1] - acts_b[-1]
    loss, coeff = reference_loss_and_coeff(diff, labels, margin, classical_hinge)
    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for acts, sign in ((acts_a, 1.0), (acts_b, -1.0)):
        delta = (sign * coeff)[:, None] * diff
        for layer in range(len(params.weights) - 1, -1, -1):
            grad_w[layer] += delta.T @ acts[layer]
            grad_b[layer] += delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ params.weights[layer]) * (acts[layer] > 0)
    return loss, grad_w, grad_b


def shared_row_batch():
    """Eight rows, rows 6 and 7 equal; pairs repeat rows and put rows on both
    sides, and the (6, 7) negative has embedding distance 0."""
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(8, 5))
    vectors[7] = vectors[6]
    ia = np.array([0, 0, 1, 2, 3, 3, 6, 5, 4, 1])
    ib = np.array([1, 2, 0, 5, 0, 4, 7, 1, 2, 4])
    y = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 0])
    return vectors, ia, ib, y


def far_negative_batch():
    """The shared-row batch plus rows 8 and 9, far apart and only in the
    negative pair (8, 9): its coefficient is 0 at margin 4, so its pair
    gradient holds -0.0 wherever the embedding difference is negative."""
    vectors, ia, ib, y = shared_row_batch()
    far = 40.0 * np.random.default_rng(23).normal(size=5)
    vectors = np.concatenate([vectors, [far, -far]])
    return vectors, np.append(ia, 8), np.append(ib, 9), np.append(y, 0)


def gradient_batch(name):
    if name == "shared_rows":
        return shared_row_batch()
    if name == "far_negative":
        return far_negative_batch()
    rng = np.random.default_rng(22)
    vectors = rng.normal(size=(12, 5))
    ia, ib = rng.integers(0, 12, size=(2, 60))
    return vectors, ia, ib, rng.integers(0, 2, size=60)


class TestBatchGradient:
    @pytest.mark.parametrize("classical", [False, True])
    @pytest.mark.parametrize("batch", ["shared_rows", "random", "far_negative"])
    def test_bit_identical_to_add_at_scatter(self, classical, batch):
        params = init_params(5, (6, 4, 3), seed=8)
        vectors, ia, ib, y = gradient_batch(batch)
        got_loss, got_w, got_b = batch_gradient(params, vectors, ia, ib, y, 4.0, classical)
        want_loss, want_w, want_b = add_at_gradient(params, vectors, ia, ib, y, 4.0, classical)
        assert same_bits(got_loss, want_loss)
        for got, want in zip((*got_w, *got_b), (*want_w, *want_b)):
            assert same_bits(got, want)

    def test_far_negative_has_zero_coefficient_and_negative_diffs(self):
        params = init_params(5, (6, 4, 3), seed=8)
        vectors, ia, ib, y = far_negative_batch()
        emb = forward_batch(params, vectors[8:])
        diff = emb[0] - emb[1]
        assert np.sum(diff * diff) >= 4.0 and np.any(diff < 0)
        assert 8 not in ia[:-1] and 9 not in ib[:-1] and 8 not in ib and 9 not in ia

    @pytest.mark.parametrize("classical", [False, True])
    @pytest.mark.parametrize("batch", ["shared_rows", "random"])
    def test_matches_two_branch_reference(self, classical, batch):
        params = init_params(5, (6, 4, 3), seed=8)
        vectors, ia, ib, y = gradient_batch(batch)
        margin = 4.0
        got_loss, got_w, got_b = batch_gradient(params, vectors, ia, ib, y, margin, classical)
        want_loss, want_w, want_b = two_branch_gradient(
            params, vectors[ia], vectors[ib], y, margin, classical
        )
        assert got_loss == pytest.approx(want_loss, abs=1e-12)
        for got, want in zip((*got_w, *got_b), (*want_w, *want_b)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12
        assert any(np.any(g != 0.0) for g in (*got_w, *got_b))

    @pytest.mark.parametrize("rows", ["all", "gathered"])
    def test_frees_each_layer_it_consumes(self, rows):
        # the list comes back empty and every layer above the input is
        # dead: the embedding once the pair differences are taken, each
        # hidden layer once its gradient and gate are computed
        params = init_params(5, (6, 4, 3), seed=8)
        vectors, ia, ib, y = shared_row_batch()
        acts = forward_batch(params, vectors, all_layers=True)
        layers = [weakref.ref(layer) for layer in acts[1:]]
        picked = slice(None) if rows == "all" else np.arange(len(vectors))
        _batch_gradient(params, acts, picked, ia, ib, y, 4.0, False, _gradient_arrays(params))
        assert acts == []
        assert [r() for r in layers] == [None] * len(layers)

    def test_batch_exercises_every_case(self):
        # the shared-row batch hits a repeat, both sides, and d = 0 on a negative
        params = init_params(5, (6, 4, 3), seed=8)
        vectors, ia, ib, y = shared_row_batch()
        assert len(np.unique(ia)) < len(ia) and len(np.unique(ib)) < len(ib)
        assert set(ia) & set(ib)
        emb = forward_batch(params, vectors)
        d2 = np.sum((emb[ia] - emb[ib]) ** 2, axis=1)
        assert np.any((d2 == 0.0) & (y == 0))
        assert np.any((d2 > 0.0) & (d2 < 4.0) & (y == 0))

    @pytest.mark.parametrize("classical", [False, True])
    def test_untouched_rows_are_ignored(self, monkeypatch, classical):
        # the batch's rows scattered among rows no pair touches: an aggressive
        # training step forwards every row and gathers each layer at the
        # touched rows, and its gradient is bit for bit the batch's alone
        import coseg.embedder as embedder

        vectors, ia, ib, y = shared_row_batch()
        rng = np.random.default_rng(24)
        where = np.sort(rng.choice(20, size=len(vectors), replace=False))
        padded = rng.normal(size=(20, 5))
        padded[where] = vectors
        seen, real = [], embedder._batch_gradient

        def recording(*args):  # the loss, then the gradients written into the last argument
            seen.append((real(*args), *([a.copy() for a in part] for part in args[-1])))
            return seen[-1][0]

        monkeypatch.setattr(embedder, "_mine_hard_indices", lambda *args: (where[ia], where[ib], y))
        monkeypatch.setattr(embedder, "_batch_gradient", recording)
        cfg = TrainConfig(iterations=1, layer_sizes=(6, 4, 3), seed=8, mining="aggressive",
                          margin=4.0, classical_hinge=classical)
        train(LabeledDescriptors(vectors=padded, labels=np.arange(20) % 2), cfg)
        params = init_params(5, (6, 4, 3), seed=8)
        got_loss, got_w, got_b = seen[0]
        want_loss, want_w, want_b = add_at_gradient(params, vectors, ia, ib, y, 4.0, classical)
        assert same_bits(got_loss, want_loss)
        for got, want in zip((*got_w, *got_b), (*want_w, *want_b)):
            assert same_bits(got, want)

    @staticmethod
    def forward_calls(monkeypatch, ds, cfg):
        """The batches train() hands forward_batch."""
        import coseg.embedder as embedder

        seen, real = [], embedder.forward_batch

        def counting(params, batch, **kwargs):
            seen.append(batch.copy())
            return real(params, batch, **kwargs)

        monkeypatch.setattr(embedder, "forward_batch", counting)
        train(ds, cfg)
        return seen

    def test_forward_runs_once_on_unique_rows(self, monkeypatch):
        # random mining: one forward_batch per step, on that step's unique rows only
        ds = small_dataset(seed=5, n_classes=4, per_class=8)
        cfg = TrainConfig(iterations=3, batch_size=6, layer_sizes=(6, 3), seed=1)
        seen = self.forward_calls(monkeypatch, ds, cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        steps = [_sample_pair_indices(_class_members(ds.labels), cfg.batch_size, rng) for _ in range(3)]
        assert len(seen) == 3
        for batch, (ia, ib, _) in zip(seen, steps):
            rows = np.unique(np.concatenate([ia, ib]))
            assert len(rows) < len(ds.vectors)
            assert np.array_equal(batch, ds.vectors[rows])

    def test_aggressive_forward_runs_once_on_all_rows(self, monkeypatch):
        # hard mining: one forward_batch per step over every row, whose
        # activations serve both the mining and the gradient
        ds = small_dataset(seed=5, n_classes=4, per_class=8)
        cfg = TrainConfig(
            iterations=3, batch_size=6, layer_sizes=(6, 3), seed=1, mining="aggressive"
        )
        seen = self.forward_calls(monkeypatch, ds, cfg)
        assert len(seen) == 3
        assert all(np.array_equal(batch, ds.vectors) for batch in seen)


class TestTrainUpdate:
    """train() applies v <- momentum*v - lr*g; params <- params + v to the
    seeded init, bit for bit as a hand loop that draws or mines the same
    pairs with the unblocked pool score and takes g from add_at_gradient,
    which runs its own forward pass on the batch's unique rows."""

    @staticmethod
    def hand_update(ds, cfg):
        """The hand loop's final weights and biases."""
        init = init_params(ds.dim, cfg.layer_sizes, cfg.seed)
        weights, biases = list(init.weights), list(init.biases)
        vel_w = [np.zeros_like(w) for w in weights]
        vel_b = [np.zeros_like(b) for b in biases]
        rng = np.random.default_rng(cfg.seed + 1)
        for _ in range(cfg.iterations):
            params = EncoderParams(weights=tuple(weights), biases=tuple(biases))
            if cfg.mining == "aggressive":
                emb = forward_batch(params, ds.vectors)
                ia, ib, y = unblocked_mine(emb, ds.labels, cfg.batch_size, rng, cfg.pool_factor)
            else:
                ia, ib, y = _sample_pair_indices(_class_members(ds.labels), cfg.batch_size, rng)
            _, grad_w, grad_b = add_at_gradient(
                params, ds.vectors, ia, ib, y, cfg.margin, cfg.classical_hinge,
            )
            for l in range(len(weights)):
                vel_w[l] = cfg.momentum * vel_w[l] - cfg.learning_rate * grad_w[l]
                vel_b[l] = cfg.momentum * vel_b[l] - cfg.learning_rate * grad_b[l]
                weights[l] = weights[l] + vel_w[l]
                biases[l] = biases[l] + vel_b[l]
        return weights, biases

    @classmethod
    def check_hand_update(cls, ds, cfg):
        weights, biases = cls.hand_update(ds, cfg)
        got = train(ds, cfg).params
        assert all(same_bits(a, b) for a, b in zip(got.weights, weights))
        assert all(same_bits(a, b) for a, b in zip(got.biases, biases))
        assert not np.array_equal(got.weights[0], init_params(ds.dim, cfg.layer_sizes, cfg.seed).weights[0])

    @staticmethod
    def small_config(momentum, iterations, mining):
        return TrainConfig(
            learning_rate=0.05, momentum=momentum, batch_size=6, iterations=iterations,
            layer_sizes=(3, 2), seed=2, mining=mining,
        )

    @pytest.mark.parametrize(
        "momentum,iterations", [(0.0, 1), (0.0, 2), (0.9, 1), (0.9, 2)]
    )
    def test_matches_hand_update(self, momentum, iterations):
        self.check_hand_update(
            small_dataset(seed=4), self.small_config(momentum, iterations, "random")
        )

    @pytest.mark.parametrize(
        "momentum,iterations", [(0.0, 1), (0.0, 2), (0.9, 1), (0.9, 2)]
    )
    def test_aggressive_matches_hand_update(self, momentum, iterations):
        self.check_hand_update(
            small_dataset(seed=4), self.small_config(momentum, iterations, "aggressive")
        )

    def test_aggressive_matches_hand_update_at_pipeline_shape(self):
        # 1024-d descriptors and the default layers: the full-set forward and
        # the hand loop's unique-row forward run matrix products of different
        # row counts, which BLAS blocks differently; each row's output must
        # still carry the same bits
        rng = np.random.default_rng(41)
        ds = LabeledDescriptors(
            vectors=0.03 * rng.normal(size=(403, 1024)), labels=rng.integers(0, 12, size=403)
        )
        cfg = TrainConfig(batch_size=128, iterations=3, seed=6, mining="aggressive")
        assert cfg.layer_sizes == (128, 256)
        self.check_hand_update(ds, cfg)

    @settings(max_examples=60, deadline=None)
    @given(
        layers=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        batch_size=st.integers(1, 8),
        pool_factor=st.integers(1, 3),
        momentum=st.sampled_from([0.0, 0.9]),
        classical=st.booleans(),
        mining=st.sampled_from(MINING_MODES),
        extra_labels=st.lists(st.integers(0, 3), max_size=9),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        iterations=st.integers(1, 3),
    )
    def test_train_equals_hand_loop(
        self, layers, batch_size, pool_factor, momentum, classical, mining, extra_labels, dim, seed,
        iterations,
    ):
        # small nets, batches and pools, both hinges and both mining modes:
        # train's weights and biases carry the hand loop's bits
        labels = np.array([0, 0, 1, *extra_labels])
        vectors = np.random.default_rng(seed).normal(size=(len(labels), dim))
        ds = LabeledDescriptors(vectors=vectors, labels=labels)
        cfg = TrainConfig(
            learning_rate=0.05, momentum=momentum, batch_size=batch_size, iterations=iterations,
            seed=seed, mining=mining, layer_sizes=tuple(layers), pool_factor=pool_factor,
            classical_hinge=classical,
        )
        weights, biases = self.hand_update(ds, cfg)
        got = train(ds, cfg).params
        assert all(same_bits(a, b) for a, b in zip(got.weights, weights))
        assert all(same_bits(a, b) for a, b in zip(got.biases, biases))

    def test_zero_gradient_leaves_weights_fixed(self):
        # every descriptor identical: all pair differences vanish, so every
        # gradient, velocity and update is zero however long training runs
        ds = LabeledDescriptors(vectors=np.ones((6, 3)), labels=np.array([0, 0, 0, 1, 1, 1]))
        cfg = TrainConfig(iterations=5, batch_size=4, layer_sizes=(3, 2), seed=1)
        result = train(ds, cfg)
        init = init_params(ds.dim, cfg.layer_sizes, cfg.seed)
        assert all(np.array_equal(a, b) for a, b in zip(result.params.weights, init.weights))
        assert all(np.array_equal(a, b) for a, b in zip(result.params.biases, init.biases))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 128
        assert cfg.margin == 1.0
        assert cfg.iterations == 1000
        assert cfg.mining == "random"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"batch_size": 0},
            {"margin": 0.0},
            {"iterations": -1},
            {"seed": -1},
            {"seed": 2**64},
            {"mining": "hardest"},
            {"layer_sizes": ()},
            {"layer_sizes": (0,)},
            {"pool_factor": 0},
            {"batch_size": 2.5},
            {"iterations": 2.5},
            {"pool_factor": 1.5},
            {"seed": 1.5},
            {"layer_sizes": (2.7,)},
            {"classical_hinge": "no"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = TrainConfig(batch_size=np.int64(4), seed=np.uint64(3), layer_sizes=np.array([5, 2]))
        assert cfg.layer_sizes == (5, 2)


class TestSamplePairs:
    def test_balanced_counts_even(self):
        _, _, y = _sample_pair_indices(_class_members(small_dataset().labels), 10, np.random.default_rng(0))
        assert y.tolist() == [1] * 5 + [0] * 5

    def test_balanced_counts_odd(self):
        _, _, y = _sample_pair_indices(_class_members(small_dataset().labels), 7, np.random.default_rng(0))
        assert y.tolist() == [1] * 4 + [0] * 3

    def test_labels_match_classes(self):
        labels = small_dataset(seed=1).labels
        ia, ib, y = _sample_pair_indices(_class_members(labels), 40, np.random.default_rng(5))
        assert np.array_equal(labels[ia] == labels[ib], y == 1)
        assert np.all(ia[y == 1] != ib[y == 1])  # distinct members

    def test_deterministic(self):
        labels = small_dataset().labels
        a = _sample_pair_indices(_class_members(labels), 12, np.random.default_rng(3))
        b = _sample_pair_indices(_class_members(labels), 12, np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            _sample_pair_indices(_class_members(np.zeros(4, dtype=int)), 2, np.random.default_rng(0))

    def test_no_class_with_two_items_rejected(self):
        with pytest.raises(ValueError, match="2 or more items"):
            _sample_pair_indices(_class_members(np.arange(3)), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("count", [1, 2, 7, 10, 33])
    @pytest.mark.parametrize("seed", range(10))
    def test_draws_match_padded_table(self, seed, count):
        # uneven classes, one of a single item, labels shuffled and not 0..n-1
        labels = np.random.default_rng(100 + seed).permutation(np.repeat([4, 9, 2, 7], [1, 5, 3, 8]))
        got = _sample_pair_indices(_class_members(labels), count, np.random.default_rng(seed))
        want = padded_table_pairs(labels, count, np.random.default_rng(seed))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def padded_table_pairs(labels, count, rng):
    """Reference draws: the same random stream read through a padded
    (class, rank) -> dataset index table filled one class at a time."""
    classes, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(classes))
    table = np.zeros((len(classes), counts.max()), dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    start = 0
    for c, cnt in enumerate(counts):
        table[c, :cnt] = order[start : start + cnt]
        start += cnt
    eligible = np.flatnonzero(counts >= 2)
    n_pos, n_neg = (count + 1) // 2, count // 2
    pc = eligible[rng.integers(0, len(eligible), size=n_pos)]
    pn = counts[pc]
    i = (rng.random(n_pos) * pn).astype(np.int64)
    j = (rng.random(n_pos) * (pn - 1)).astype(np.int64)
    j += j >= i
    ca = rng.integers(0, len(classes), size=n_neg)
    cb = rng.integers(0, len(classes) - 1, size=n_neg)
    cb += cb >= ca
    neg_a = table[ca, (rng.random(n_neg) * counts[ca]).astype(np.int64)]
    neg_b = table[cb, (rng.random(n_neg) * counts[cb]).astype(np.int64)]
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    return np.concatenate([table[pc, i], neg_a]), np.concatenate([table[pc, j], neg_b]), y


def unblocked_mine(emb, labels, count, rng, pool_factor):
    """Reference: the whole pool of the embeddings emb scored by one unblocked
    expression, then the hardest positives and negatives, ties in pool order."""
    ia, ib, y = _sample_pair_indices(_class_members(labels), pool_factor * count, rng)
    d2 = np.sum((emb[ia] - emb[ib]) ** 2, axis=1)
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    pos_pick = pos_idx[np.argsort(-d2[pos_idx], kind="stable")[: (count + 1) // 2]]
    neg_pick = neg_idx[np.argsort(d2[neg_idx], kind="stable")[: count // 2]]
    sel = np.concatenate([pos_pick, neg_pick])
    return ia[sel], ib[sel], y[sel]


def permuted_dataset():
    """Rows that permute the coordinates of one vector, and zero rows: pool
    distances tie exactly (zero rows, repeated pairs) or differ in their
    last bits only (differences holding the same values in other places)."""
    rng = np.random.default_rng(31)
    u = rng.normal(size=24)
    perms = np.stack([rng.permutation(u) for _ in range(16)])
    vectors = np.concatenate([perms[:10], np.zeros((6, 24)), perms[10:]])
    return LabeledDescriptors(vectors=vectors, labels=np.repeat([0, 1, 2], [10, 6, 6]))


ROW_KINDS = ("rounded", "rounded", "constant", "permuted", "duplicate", "zero", "nan", "inf")
SCALES = (1e-160, 1e-155, 1e-100, 1.0, 1e100, 1e150)


@st.composite
def mining_embeddings(draw):
    """(embeddings, labels) that stress the certified pool: rounded values for
    exact ties, constant rows, duplicate and zero rows, permutations of one
    vector whose distances differ in their last bits, magnitudes from 1e-160
    to 1e150 (one scale, or one per row), and rows holding a NaN or an inf.
    Rows 0 and 1 share class 0 and row 2 is class 1, so pairs can be drawn."""
    n = draw(st.integers(3, 24))
    dim = draw(st.sampled_from([1, 2, 3, 8, 24]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
    if draw(st.booleans()):
        scales = [scales[0]] * n
    labels = np.array([0, 0, 1] + draw(st.lists(st.integers(0, 3), min_size=n - 3, max_size=n - 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.normal(size=dim)
    emb = np.zeros((n, dim))
    for i, (kind, scale) in enumerate(zip(kinds, scales)):
        if kind == "rounded":
            emb[i] = rng.integers(-3, 4, size=dim) * scale
        elif kind == "constant":  # at small scales every product rounds alike
            emb[i] = rng.integers(-3, 4) * scale
        elif kind == "permuted":
            emb[i] = rng.permutation(base) * scale
        elif kind == "duplicate":
            emb[i] = emb[rng.integers(i)] if i else 0.0
        elif kind in ("nan", "inf"):
            emb[i] = rng.integers(-3, 4, size=dim) * scale
            emb[i, rng.integers(dim)] = np.nan if kind == "nan" else rng.choice([-np.inf, np.inf])
    return emb, labels


# Examples that each break one weakened form of the certificate: constant
# rows whose products all underflow, where a bound four times smaller drops a
# pair the picks take;
UNDERFLOW_CASE = (
    np.array([-3, 1, -1, -2, -3, -1, 1, 0])[:, None] * 5.166451422355176e-158 * np.ones((1, 64)),
    np.array([0, 0, 1, 0, 0, 1, 1, 0]),
)
# a lone positive pair of zero rows, whose bounds both equal the cut, so
# keeping only bounds above the cut drops it;
ZERO_CASE = (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]), np.array([0, 0, 1]))
# an inf row, whose pairs' bounds are not finite and whose positives the
# picks take first.
INF_CASE = (np.array([[np.inf, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0]]), np.array([0, 0, 1, 1]))


def switch_case(rows):
    """rows random embeddings in six classes; with count 128 and pool_factor
    10 the pool holds 1,280 pairs, and _gram_pays bounds it at 176 rows and
    scores it whole at 192."""
    return np.random.default_rng(rows).normal(size=(rows, 24)), np.arange(rows) % 6


def embedding_d2(params, ds, ia, ib):
    emb = forward_batch(params, ds.vectors)
    return np.sum((emb[ia] - emb[ib]) ** 2, axis=1)


class TestMineHardPairs:
    def test_zero_distance_negative_selected_first(self):
        # two classes colliding at the origin: every cross-class pair drawn from
        # the duplicated points has embedding distance 0 and must win
        vectors = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [0.0, 0.0]])
        labels = np.array([0, 0, 0, 1, 1])
        ds = LabeledDescriptors(vectors=vectors, labels=labels)
        params = EncoderParams(weights=(np.eye(2),), biases=(np.zeros(2),))
        emb = forward_batch(params, ds.vectors)
        ia, ib, y = _mine_hard_indices(
            emb, _class_members(ds.labels), 4, np.random.default_rng(0), pool_factor=20
        )
        negs = np.flatnonzero(y == 0)
        assert len(negs), "mining must return negatives"
        assert embedding_d2(params, ds, ia[negs[:1]], ib[negs[:1]])[0] == 0.0

    def test_equidistant_pool_keeps_draw_order(self):
        # constant embedding makes every pair equally hard; stable argsort must
        # hand back the random pool's prefix unchanged
        ds = small_dataset(seed=2)
        params = EncoderParams(
            weights=(np.zeros((2, ds.dim)),), biases=(np.array([1.0, 1.0]),)
        )
        emb = forward_batch(params, ds.vectors)
        mined = _mine_hard_indices(emb, _class_members(ds.labels), 6, np.random.default_rng(9), pool_factor=4)
        # same seed, pool_factor*count draws: 12 positives then 12 negatives
        pool = _sample_pair_indices(_class_members(ds.labels), 24, np.random.default_rng(9))
        keep = np.r_[0:3, 12:15]
        assert all(np.array_equal(m, p[keep]) for m, p in zip(mined, pool))

    @pytest.mark.parametrize("net", ["identity", "random"])
    @pytest.mark.parametrize("count", [1, 3, 128])
    @pytest.mark.parametrize("pool_factor", [1, 10])
    def test_picks_equal_unblocked_reference(self, net, count, pool_factor):
        ds = permuted_dataset()
        if net == "identity":
            params = EncoderParams(weights=(np.eye(24),), biases=(np.zeros(24),))
        else:
            params = init_params(24, (16, 8), seed=3)
        emb = forward_batch(params, ds.vectors)
        got = _mine_hard_indices(emb, _class_members(ds.labels), count, np.random.default_rng(5), pool_factor)
        want = unblocked_mine(emb, ds.labels, count, np.random.default_rng(5), pool_factor)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=300, deadline=None)
    @example(case=UNDERFLOW_CASE, count=1, pool_factor=10, seed=47)
    @example(case=ZERO_CASE, count=1, pool_factor=1, seed=0)
    @example(case=INF_CASE, count=2, pool_factor=10, seed=0)
    @example(case=switch_case(176), count=128, pool_factor=10, seed=1)
    @example(case=switch_case(192), count=128, pool_factor=10, seed=1)
    @given(
        case=mining_embeddings(),
        count=st.integers(1, 12),
        pool_factor=st.sampled_from([1, 10]),
        seed=st.integers(0, 2**16),
    )
    def test_certified_pool_equals_unblocked_reference(self, case, count, pool_factor, seed):
        # both candidate sets, the bounded one and the whole pool, and the
        # one _gram_pays chooses, pick what the unblocked whole-pool score
        # picks, bit for bit; a NaN or inf row makes the exact scores NaN or
        # inf as it does the reference's
        emb, labels = case
        members = _class_members(labels)
        with np.errstate(invalid="ignore", over="ignore"):
            want = unblocked_mine(emb, labels, count, np.random.default_rng(seed), pool_factor)
            for bounded in (True, False, None):
                rule = _certify._gram_pays if bounded is None else lambda rows, pool: bounded
                with mock.patch.object(_certify, "_gram_pays", rule):
                    got = _mine_hard_indices(emb, members, count, np.random.default_rng(seed), pool_factor)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), f"bounded={bounded}"

    def test_switch_cases_straddle_the_rule(self):
        # the certified-pool test's examples at 176 and 192 rows take
        # either path under the rule as written
        assert _certify._gram_pays(176, 1280) and not _certify._gram_pays(192, 1280)

    def test_permuted_pool_has_exact_ties(self):
        ds = permuted_dataset()
        params = EncoderParams(weights=(np.eye(24),), biases=(np.zeros(24),))
        ia, ib, y = _sample_pair_indices(_class_members(ds.labels), 1280, np.random.default_rng(5))
        d2 = embedding_d2(params, ds, ia, ib)
        assert len(np.unique(d2[y == 0])) < np.sum(y == 0)
        assert len(np.unique(d2[y == 1])) < np.sum(y == 1)

    def test_selected_positives_dominate_rejected(self):
        ds = small_dataset(seed=3, n_classes=4, per_class=6, dim=5)
        params = init_params(5, (3,), seed=1)
        emb = forward_batch(params, ds.vectors)
        ia, ib, y = _mine_hard_indices(
            emb, _class_members(ds.labels), 10, np.random.default_rng(11), pool_factor=10
        )
        d2 = embedding_d2(params, ds, ia, ib)
        pos_d2, neg_d2 = d2[y == 1], d2[y == 0]
        # positives arrive hardest (largest distance) first, negatives closest first
        assert np.all(np.diff(pos_d2) <= 0)
        assert np.all(np.diff(neg_d2) >= 0)
        members = _class_members(ds.labels)
        pool_a, pool_b, pool_y = _sample_pair_indices(members, 100, np.random.default_rng(11))
        pool_d2 = embedding_d2(params, ds, pool_a, pool_b)
        assert pos_d2.min() >= np.sort(pool_d2[pool_y == 1])[-5]
        assert neg_d2.max() <= np.sort(pool_d2[pool_y == 0])[4]


class TestTrain:
    def test_zero_iterations_returns_init(self):
        ds = small_dataset()
        cfg = TrainConfig(iterations=0, layer_sizes=(3, 2), seed=5)
        result = train(ds, cfg)
        init = init_params(ds.dim, (3, 2), seed=5)
        assert result.loss_trace == ()
        assert all(np.array_equal(a, b) for a, b in zip(result.params.weights, init.weights))

    def test_loss_trace_length_and_finiteness(self):
        ds = small_dataset()
        cfg = TrainConfig(iterations=25, batch_size=8, layer_sizes=(4, 2), seed=1)
        result = train(ds, cfg)
        assert len(result.loss_trace) == 25
        assert all(np.isfinite(v) for v in result.loss_trace)

    def test_deterministic_repetition(self, tmp_path):
        ds = small_dataset(seed=8)
        cfg = TrainConfig(iterations=30, batch_size=8, layer_sizes=(4, 2), seed=3)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.loss_trace == b.loss_trace
        assert all(np.array_equal(x, y) for x, y in zip(a.params.weights, b.params.weights))
        assert csgm_bytes(tmp_path, a.params) == csgm_bytes(tmp_path, b.params)

    @pytest.mark.parametrize("mining", MINING_MODES)
    def test_holds_one_step_at_a_time(self, mining):
        # a second step overwrites the first step's gradients and frees each
        # of its other arrays before allocating the successor, so it adds
        # nothing to the traced peak; train-mined's shape: 432 rows of
        # 1,024, layers (128, 256)
        rng = np.random.default_rng(30)
        ds = LabeledDescriptors(vectors=rng.random((432, 1024)), labels=np.arange(432) % 12)
        train(ds, TrainConfig(iterations=1, mining=mining, seed=3))  # first-call allocations
        peaks = []
        for iterations in (1, 2):
            tracemalloc.start()
            try:
                train(ds, TrainConfig(iterations=iterations, mining=mining, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 250_000, peaks

    @pytest.mark.parametrize("mining", MINING_MODES)
    def test_frees_a_step_layers_before_the_next_forward_pass(self, monkeypatch, mining):
        # every layer above the input that one forward_batch call returns is
        # dead when the next call starts, and when train returns
        import coseg.embedder as embedder

        real, alive, calls = embedder.forward_batch, [], []

        def probe(params, batch, **kwargs):
            assert [r() for r in alive] == [None] * len(alive), f"call {len(calls)}"
            acts = real(params, batch, **kwargs)
            alive[:] = [weakref.ref(layer) for layer in acts[1:]]
            calls.append(len(acts))
            return acts

        monkeypatch.setattr(embedder, "forward_batch", probe)
        ds = small_dataset(seed=5, n_classes=4, per_class=8)
        train(ds, TrainConfig(iterations=4, batch_size=6, layer_sizes=(6, 4, 3), seed=1, mining=mining))
        assert calls == [4] * 4
        assert [r() for r in alive] == [None] * 3

    def test_aggressive_steps_hold_one_layer_set(self):
        # two aggressive steps at train-mined's shape (432 rows of 1,024,
        # layers (128, 256), 128 pairs) peak where the input layer is
        # gathered at the touched rows: the weights, their momentum and
        # the gradients, plus that gather and the first hidden layer's delta
        # at the most rows a batch touches (two per pair), plus 256 kB for
        # the index arrays. The step's full hidden and embedding layers
        # (1.3 MB), kept alive beside them, break the bound.
        rows, sizes, batch = 432, (1024, 128, 256), 128
        rng = np.random.default_rng(30)
        ds = LabeledDescriptors(vectors=rng.random((rows, sizes[0])), labels=np.arange(rows) % 12)
        cfg = TrainConfig(iterations=2, batch_size=batch, layer_sizes=sizes[1:], mining="aggressive", seed=3)
        train(ds, TrainConfig(iterations=1, layer_sizes=sizes[1:], mining="aggressive", seed=3))
        param_bytes = 8 * sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))
        bound = 3 * param_bytes + 8 * 2 * batch * (sizes[0] + sizes[1]) + 256 * 1024
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    def test_seed_changes_outcome(self):
        ds = small_dataset(seed=8)
        a = train(ds, TrainConfig(iterations=5, batch_size=8, layer_sizes=(4,), seed=0))
        b = train(ds, TrainConfig(iterations=5, batch_size=8, layer_sizes=(4,), seed=1))
        assert not np.array_equal(a.params.weights[0], b.params.weights[0])

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(12)
        vectors = np.concatenate(
            [rng.normal(-4.0, 0.3, size=(12, 4)), rng.normal(4.0, 0.3, size=(12, 4))]
        )
        labels = np.repeat([0, 1], 12)
        ds = LabeledDescriptors(vectors=vectors, labels=labels)
        cfg = TrainConfig(
            iterations=120, batch_size=16, layer_sizes=(6, 2), seed=2, learning_rate=0.02
        )
        result = train(ds, cfg)
        early = np.mean(result.loss_trace[:10])
        late = np.mean(result.loss_trace[-10:])
        assert late < early * 0.5

    def test_aggressive_mining_runs(self):
        ds = small_dataset()
        cfg = TrainConfig(iterations=8, batch_size=6, layer_sizes=(3,), seed=0, mining="aggressive")
        result = train(ds, cfg)
        assert len(result.loss_trace) == 8

    @pytest.mark.parametrize("mining", ["random", "aggressive"])
    def test_class_index_built_once_per_run(self, monkeypatch, tmp_path, mining):
        # the labels cannot change during a run, so neither can their index
        from coseg import embedder

        ds = small_dataset()
        cfg = TrainConfig(iterations=5, batch_size=6, layer_sizes=(3,), seed=0, mining=mining)
        want = csgm_bytes(tmp_path, train(ds, cfg).params)
        calls = []

        def counting(labels):
            calls.append(len(labels))
            return _class_members(labels)

        monkeypatch.setattr(embedder, "_class_members", counting)
        assert csgm_bytes(tmp_path, train(ds, cfg).params) == want
        assert calls == [len(ds.vectors)]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_iteration(self):
        from coseg.errors import TrainingDiverged

        rng = np.random.default_rng(13)
        vectors = rng.normal(size=(10, 3)) * 1e3
        ds = LabeledDescriptors(vectors=vectors, labels=np.arange(10) % 2)
        cfg = TrainConfig(iterations=400, batch_size=8, layer_sizes=(4,), seed=0, learning_rate=1e6)
        with pytest.raises(TrainingDiverged) as exc_info:
            train(ds, cfg)
        assert exc_info.value.iteration >= 0

    def test_single_class_rejected_before_any_step(self):
        ds = LabeledDescriptors(vectors=np.zeros((4, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="at least 2 classes"):
            train(ds, TrainConfig(iterations=0, layer_sizes=(2,)))

    def test_too_small_dataset_rejected(self):
        ds = LabeledDescriptors(vectors=np.zeros((1, 2)), labels=np.array([0]))
        with pytest.raises(ValueError):
            train(ds, TrainConfig(iterations=1))


def csgm_bytes(tmp_path, params) -> bytes:
    """The bytes save_model_file writes for params."""
    path = tmp_path / "out.csgm"
    save_model_file(params, path)
    return path.read_bytes()


def load_csgm(tmp_path, data: bytes):
    """load_model_file over a file holding data."""
    path = tmp_path / "in.csgm"
    path.write_bytes(data)
    return load_model_file(path)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        params = init_params(6, (4, 3), seed=9)
        again = load_csgm(tmp_path, csgm_bytes(tmp_path, params))
        assert [w.shape for w in again.weights] == [w.shape for w in params.weights]
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, params.weights))
        assert all(np.array_equal(a, b) for a, b in zip(again.biases, params.biases))

    def test_file_round_trip(self, tmp_path):
        params = init_params(3, (2,), seed=4)
        path = tmp_path / "model.csgm"
        save_model_file(params, path)
        again = load_model_file(path)
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, params.weights))

    def test_header_layout(self, tmp_path):
        params = EncoderParams(weights=(np.zeros((1, 1)),), biases=(np.zeros(1),))
        data = csgm_bytes(tmp_path, params)
        assert data[:4] == b"CSGM"
        assert int.from_bytes(data[4:8], "little") == 1  # version
        assert int.from_bytes(data[8:12], "little") == 1  # layer count

    def test_bad_magic(self, tmp_path):
        data = b"XXXX" + csgm_bytes(tmp_path, tiny_params())[4:]
        with pytest.raises(BadMagicError):
            load_csgm(tmp_path, data)

    def test_bad_version(self, tmp_path):
        good = csgm_bytes(tmp_path, tiny_params())
        data = good[:4] + (99).to_bytes(4, "little") + good[8:]
        with pytest.raises(VersionError):
            load_csgm(tmp_path, data)

    def test_truncated(self, tmp_path):
        good = csgm_bytes(tmp_path, tiny_params())
        with pytest.raises(TruncatedError):
            load_csgm(tmp_path, good[:-4])

    def test_trailing_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_csgm(tmp_path, csgm_bytes(tmp_path, tiny_params()) + b"\x00")

    @staticmethod
    def model_bytes(*layers):
        """A .csgm file with zero-filled (rows, cols) layers, shapes unchecked."""
        out = b"CSGM" + (1).to_bytes(4, "little") + len(layers).to_bytes(4, "little")
        for rows, cols in layers:
            out += rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + bytes(8 * (rows * cols + rows))
        return out

    @pytest.mark.parametrize("layers", [(), ((0, 3),), ((2, 0),), ((3, 4), (2, 2)), ((3, 4), (0, 3))])
    def test_malformed_layers_rejected(self, tmp_path, layers):
        # zero layers, an empty first or later layer, shapes that do not chain:
        # EncoderParams' ValueError, re-raised as the decoder's error
        with pytest.raises(DecodeError):
            load_csgm(tmp_path, self.model_bytes(*layers))

    def test_chained_layers_load(self, tmp_path):
        got = load_csgm(tmp_path, self.model_bytes((3, 4), (2, 3)))
        assert [w.shape for w in got.weights] == [(3, 4), (2, 3)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EncoderParams(weights=(np.eye(2),), biases=()), "1 weight matrices but 0 biases"),
        (lambda: PairSample(a=np.zeros(2), b=np.zeros(2), label=2), "label must be 0 or 1"),
        (lambda: PairSample(a=np.zeros(2), b=np.zeros(3), label=1), "equal-length vectors"),
        (lambda: LabeledDescriptors(vectors=np.zeros(3), labels=np.zeros(3)), "vectors must be 2-d"),
        (lambda: LabeledDescriptors(vectors=np.zeros((3, 2)), labels=np.zeros(2)), "3 vectors but label shape"),
        (lambda: init_params(0, (2,), seed=0), "input_dim must be >= 1"),
        (lambda: init_params(2, (), seed=0), "layer_sizes must be comma-separated integers >= 1, got ()"),
        (lambda: loss_gradient(tiny_params(), PairSample(a=np.ones(2), b=np.ones(2), label=1), 0.0),
         "margin must be finite and > 0, got 0.0"),
        # values TrainConfig refuses that these functions used to take
        (lambda: contrastive_loss(np.zeros(2), np.zeros(2), 0, margin=float("inf")),
         "margin must be finite and > 0, got inf"),
        (lambda: loss_gradient(tiny_params(), PairSample(a=np.ones(2), b=np.zeros(2), label=0), float("inf")),
         "margin must be finite and > 0, got inf"),
        (lambda: init_params(3, (2.7,), 0), "layer_sizes must be comma-separated integers >= 1, got (2.7,)"),
        (lambda: init_params(2.5, (2,), 0), "input_dim must be >= 1, got 2.5"),
    ],
    ids=["weight-bias-count", "pair-label", "pair-shapes", "descriptors-1d", "label-count",
         "input-dim-0", "no-layers", "gradient-margin-0", "loss-margin-inf", "gradient-margin-inf",
         "fractional-width", "fractional-input-dim"],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
