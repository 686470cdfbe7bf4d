import numpy as np
import pytest

from coseg.embedder import (
    EncoderParams,
    LabeledDescriptors,
    PairSample,
    TrainConfig,
    _batch_gradient,
    _sample_pair_indices,
    contrastive_loss,
    forward,
    forward_batch,
    init_params,
    load_model,
    load_model_file,
    loss_gradient,
    mine_hard_pairs,
    sample_pairs,
    save_model,
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

    def test_dims(self):
        p = tiny_params()
        assert p.input_dim == 2
        assert p.output_dim == 1
        assert p.layer_sizes == (2, 1)

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
            forward_batch(p, np.zeros((3, 5)))


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


class TestTrainUpdate:
    """train() applies v <- momentum*v - lr*g; params <- params + v to the
    seeded init, with g from _batch_gradient on the pairs it draws."""

    @pytest.mark.parametrize(
        "momentum,iterations", [(0.0, 1), (0.0, 2), (0.9, 1), (0.9, 2)]
    )
    def test_matches_hand_update(self, momentum, iterations):
        ds = small_dataset(seed=4)
        cfg = TrainConfig(
            learning_rate=0.05, momentum=momentum, batch_size=6, iterations=iterations,
            layer_sizes=(3, 2), seed=2, mining="random",
        )
        init = init_params(ds.dim, cfg.layer_sizes, cfg.seed)
        weights, biases = list(init.weights), list(init.biases)
        vel_w = [np.zeros_like(w) for w in weights]
        vel_b = [np.zeros_like(b) for b in biases]
        rng = np.random.default_rng(cfg.seed + 1)
        for _ in range(iterations):
            ia, ib, y = _sample_pair_indices(ds.labels, cfg.batch_size, rng)
            _, grad_w, grad_b = _batch_gradient(
                EncoderParams(weights=tuple(weights), biases=tuple(biases)),
                ds.vectors[ia], ds.vectors[ib], y, cfg.margin, cfg.classical_hinge,
            )
            for l in range(len(weights)):
                vel_w[l] = momentum * vel_w[l] - cfg.learning_rate * grad_w[l]
                vel_b[l] = momentum * vel_b[l] - cfg.learning_rate * grad_b[l]
                weights[l] = weights[l] + vel_w[l]
                biases[l] = biases[l] + vel_b[l]

        got = train(ds, cfg).params
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.biases, biases))
        assert not np.array_equal(got.weights[0], init.weights[0])

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
            {"mining": "hardest"},
            {"layer_sizes": ()},
            {"layer_sizes": (0,)},
            {"pool_factor": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestSamplePairs:
    def test_balanced_counts_even(self):
        pairs = sample_pairs(small_dataset(), 10, rng_seed=0)
        labels = [p.label for p in pairs]
        assert labels == [1] * 5 + [0] * 5

    def test_balanced_counts_odd(self):
        pairs = sample_pairs(small_dataset(), 7, rng_seed=0)
        labels = [p.label for p in pairs]
        assert labels == [1] * 4 + [0] * 3

    def test_labels_match_classes(self):
        ds = small_dataset(seed=1)
        rows = {tuple(v): l for v, l in zip(ds.vectors, ds.labels)}
        for p in sample_pairs(ds, 40, rng_seed=5):
            la, lb = rows[tuple(p.a)], rows[tuple(p.b)]
            assert (la == lb) == (p.label == 1)
            if p.label == 1:
                assert not np.array_equal(p.a, p.b)  # distinct members

    def test_deterministic(self):
        ds = small_dataset()
        a = sample_pairs(ds, 12, rng_seed=3)
        b = sample_pairs(ds, 12, rng_seed=3)
        assert all(
            np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b) and x.label == y.label
            for x, y in zip(a, b)
        )

    def test_single_class_rejected(self):
        ds = LabeledDescriptors(vectors=np.zeros((4, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            sample_pairs(ds, 2, rng_seed=0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_pairs(small_dataset(), 0, rng_seed=0)


class TestMineHardPairs:
    def test_zero_distance_negative_selected_first(self):
        # two classes colliding at the origin: every cross-class pair drawn from
        # the duplicated points has embedding distance 0 and must win
        vectors = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [0.0, 0.0]])
        labels = np.array([0, 0, 0, 1, 1])
        ds = LabeledDescriptors(vectors=vectors, labels=labels)
        params = EncoderParams(weights=(np.eye(2),), biases=(np.zeros(2),))
        pairs = mine_hard_pairs(params, ds, count=4, rng_seed=0, pool_factor=20)
        negs = [p for p in pairs if p.label == 0]
        assert negs, "mining must return negatives"
        hardest = negs[0]
        assert np.sum((hardest.a - hardest.b) ** 2) == 0.0

    def test_equidistant_pool_keeps_draw_order(self):
        # constant embedding makes every pair equally hard; stable argsort must
        # hand back the random pool's prefix unchanged
        ds = small_dataset(seed=2)
        params = EncoderParams(
            weights=(np.zeros((2, ds.dim)),), biases=(np.array([1.0, 1.0]),)
        )
        mined = mine_hard_pairs(params, ds, count=6, rng_seed=9, pool_factor=4)
        sampled = sample_pairs(ds, 24, rng_seed=9)  # same seed, pool_factor*count draws
        pos_pool = [p for p in sampled if p.label == 1]
        neg_pool = [p for p in sampled if p.label == 0]
        expect = pos_pool[:3] + neg_pool[:3]
        assert all(
            np.array_equal(m.a, e.a) and np.array_equal(m.b, e.b) and m.label == e.label
            for m, e in zip(mined, expect)
        )

    def test_selected_positives_dominate_rejected(self):
        ds = small_dataset(seed=3, n_classes=4, per_class=6, dim=5)
        params = init_params(5, (3,), seed=1)
        mined = mine_hard_pairs(params, ds, count=10, rng_seed=11, pool_factor=10)
        pos_d2 = [np.sum((forward(params, p.a) - forward(params, p.b)) ** 2) for p in mined if p.label == 1]
        # positives arrive hardest (largest distance) first
        assert pos_d2 == sorted(pos_d2, reverse=True)
        neg_d2 = [np.sum((forward(params, p.a) - forward(params, p.b)) ** 2) for p in mined if p.label == 0]
        assert neg_d2 == sorted(neg_d2)

    def test_validation(self):
        ds = small_dataset()
        params = init_params(ds.dim, (2,), seed=0)
        with pytest.raises(ValueError):
            mine_hard_pairs(params, ds, count=0, rng_seed=0)


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

    def test_deterministic_repetition(self):
        ds = small_dataset(seed=8)
        cfg = TrainConfig(iterations=30, batch_size=8, layer_sizes=(4, 2), seed=3)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.loss_trace == b.loss_trace
        assert all(np.array_equal(x, y) for x, y in zip(a.params.weights, b.params.weights))
        assert save_model(a.params) == save_model(b.params)

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

    def test_too_small_dataset_rejected(self):
        ds = LabeledDescriptors(vectors=np.zeros((1, 2)), labels=np.array([0]))
        with pytest.raises(ValueError):
            train(ds, TrainConfig(iterations=1))


class TestModelSerialization:
    def test_round_trip(self):
        params = init_params(6, (4, 3), seed=9)
        again = load_model(save_model(params))
        assert again.layer_sizes == params.layer_sizes
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, params.weights))
        assert all(np.array_equal(a, b) for a, b in zip(again.biases, params.biases))

    def test_file_round_trip(self, tmp_path):
        params = init_params(3, (2,), seed=4)
        path = tmp_path / "model.csgm"
        save_model_file(params, path)
        again = load_model_file(path)
        assert all(np.array_equal(a, b) for a, b in zip(again.weights, params.weights))

    def test_header_layout(self):
        params = EncoderParams(weights=(np.zeros((1, 1)),), biases=(np.zeros(1),))
        data = save_model(params)
        assert data[:4] == b"CSGM"
        assert int.from_bytes(data[4:8], "little") == 1  # version
        assert int.from_bytes(data[8:12], "little") == 1  # layer count

    def test_bad_magic(self):
        data = b"XXXX" + save_model(tiny_params())[4:]
        with pytest.raises(BadMagicError):
            load_model(data)

    def test_bad_version(self):
        good = save_model(tiny_params())
        data = good[:4] + (99).to_bytes(4, "little") + good[8:]
        with pytest.raises(VersionError):
            load_model(data)

    def test_truncated(self):
        good = save_model(tiny_params())
        with pytest.raises(TruncatedError):
            load_model(good[:-4])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            load_model(save_model(tiny_params()) + b"\x00")

    @staticmethod
    def model_bytes(*layers):
        """A .csgm file with zero-filled (rows, cols) layers, shapes unchecked."""
        out = b"CSGM" + (1).to_bytes(4, "little") + len(layers).to_bytes(4, "little")
        for rows, cols in layers:
            out += rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + bytes(8 * (rows * cols + rows))
        return out

    @pytest.mark.parametrize("layers", [(), ((0, 3),), ((2, 0),), ((3, 4), (2, 2))])
    def test_malformed_layers_rejected(self, layers):
        # zero layers, an empty layer, shapes that do not chain: once plain ValueError
        with pytest.raises(DecodeError):
            load_model(self.model_bytes(*layers))

    def test_chained_layers_load(self):
        assert load_model(self.model_bytes((3, 4), (2, 3))).layer_sizes == (3, 2)
