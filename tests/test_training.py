import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from spamforest import forest as forest_module, training
from spamforest.errors import ConfigError, NumericError, ShapeError
from spamforest.numerics import Rng
from spamforest.training import (MAX_DEPTH, TrainConfig, _allocate_model,
                                 _forward_cache, _leaf_epoch_step,
                                 _loss_terms, gradients, init_model,
                                 joint_loss, parameter_blocks, predict,
                                 rmsprop_step, train)


def np_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def forward_one(x, model):
    """(x_c, per-tree probabilities) of one vector from the training forward."""
    cache = _forward_cache(np.asarray(x, dtype=np.float64)[None, :], model)
    return cache["x_c"][0], cache["forest"]["probs"][:, 0, :]


def tree_term(probs, y):
    """One tree's -log p[y] from the production loss, reconstruction exact."""
    x = np.zeros((1, 1))
    return _loss_terms(x, np.array([y]), x,
                       np.asarray(probs, dtype=np.float64)[None, None, :])


class TestTrainConfig:
    def test_defaults_follow_chosen_setting(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.n_tree, cfg.n_depth) == (50, 5, 3)
        assert cfg.normalization == "zscore"
        assert (cfg.fc_layer_count, cfg.ae_layer_count) == (1, 2)

    @pytest.mark.parametrize("kwargs", [
        {"n_tree": 0}, {"n_depth": 0}, {"batch_size": 0},
        {"ae_layer_count": 0}, {"fc_layer_count": -1}, {"n_epoch": -1},
        {"learning_rate": 0.0}, {"epsilon": 0.0}, {"leaf_learning_rate": -0.1},
        {"normalization": "rank"}, {"ae_widths": (3,)}, {"fc_width": 0},
        {"epsilon": float("nan")}, {"learning_rate": float("inf")},
        {"leaf_learning_rate": float("nan")}, {"init_scale": float("inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_depth_bounded(self):
        # Only the config is built, so nothing of size 2^40 is allocated.
        TrainConfig(n_depth=MAX_DEPTH)
        with pytest.raises(ConfigError, match=f"n_depth must be <= {MAX_DEPTH}"):
            TrainConfig(n_depth=40)
        with pytest.raises(ConfigError):
            TrainConfig(n_depth=MAX_DEPTH + 1)

    def test_dict_roundtrip(self):
        # The path a model file takes: asdict, JSON, then the constructor.
        cfg = TrainConfig(ae_widths=(4, 2), seed=11)
        assert TrainConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


class TestInitModel:
    def test_shapes_for_desk_config(self, desk_model):
        blocks = dict(parameter_blocks(desk_model))
        assert blocks["encoder.0.W"].shape == (4, 8)
        assert blocks["encoder.1.W"].shape == (2, 4)
        assert blocks["decoder.0.W"].shape == (4, 2)
        assert blocks["decoder.1.W"].shape == (8, 4)
        assert blocks["fc.0.W"].shape == (2, 2)
        assert blocks["tree.0.routing"].shape == (3, 2)
        assert blocks["tree.1.leaf_logits"].shape == (4, 2)

    def test_tree_blocks_are_views_of_stacked_forest(self, desk_model):
        blocks = dict(parameter_blocks(desk_model))
        blocks["tree.1.routing"][...] = 3.0
        blocks["tree.0.leaf_logits"][...] = -2.0
        npt.assert_array_equal(desk_model.forest.routing[1], 3.0)
        npt.assert_array_equal(desk_model.forest.leaf_logits[0], -2.0)
        assert desk_model.forest.routing.shape == (2, 3, 2)
        assert desk_model.forest.leaf_logits.shape == (2, 4, 2)

    def test_deterministic_per_seed(self):
        cfg = TrainConfig(seed=5)
        a = init_model(cfg, 6, Rng(cfg.seed))
        b = init_model(cfg, 6, Rng(cfg.seed))
        for (_, x), (_, y) in zip(parameter_blocks(a), parameter_blocks(b)):
            npt.assert_array_equal(x, y)

    def test_no_fc_layers_use_hidden_as_tree_input(self):
        cfg = TrainConfig(fc_layer_count=0, n_depth=2, n_tree=1)
        model = init_model(cfg, 8, Rng(cfg.seed))
        assert model.forest.routing.shape[2] == model.autoencoder.encoder[-1].W.shape[0]


def chained_widths(layers, n_in):
    """The output width of a layer stack fed ``n_in`` columns, asserting
    that each layer reads what the one before it writes."""
    for layer in layers:
        assert layer.W.shape[1] == n_in and layer.b.shape == (layer.W.shape[0],)
        n_in = layer.W.shape[0]
    return n_in


class TestAllocateModel:
    # _allocate_model builds every model, so the shapes it fixes are the
    # ones no later stage checks again.
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 12))
    def test_shapes_chain_and_theta_tiles(self, data, n_depth, n_tree, n_ae,
                                          n_fc, n_features):
        ae_widths = data.draw(st.none() | st.lists(
            st.integers(1, 6), min_size=n_ae, max_size=n_ae).map(tuple))
        fc_width = data.draw(st.none() | st.integers(1, 6))
        cfg = TrainConfig(n_depth=n_depth, n_tree=n_tree, ae_layer_count=n_ae,
                          fc_layer_count=n_fc, ae_widths=ae_widths,
                          fc_width=fc_width)
        model = _allocate_model(cfg, n_features)
        ae, forest = model.autoencoder, model.forest

        hidden = chained_widths(ae.encoder, n_features)
        assert len(ae.encoder) == len(ae.decoder) == n_ae
        assert chained_widths(ae.decoder, hidden) == n_features
        assert len(forest.fc) == n_fc
        xt_dim = chained_widths(forest.fc, hidden)
        assert forest.routing.shape == (n_tree, 2 ** n_depth - 1, xt_dim)
        assert forest.leaf_logits.shape == (n_tree, 2 ** n_depth, 2)
        assert model.n_features == n_features

        # The theta blocks, in parameter_blocks order, are contiguous views
        # that tile model.theta from its start to its end.
        offset = 0
        base = model.theta.__array_interface__["data"][0]
        for name, block in parameter_blocks(model):
            if name.endswith(".leaf_logits"):
                assert not np.shares_memory(block, model.theta)
                continue
            assert block.flags.c_contiguous and np.shares_memory(block, model.theta)
            assert block.__array_interface__["data"][0] == base + 8 * offset, name
            offset += block.size
        assert offset == model.theta.size


class TestForward:
    def test_identical_trees_collapse_to_one(self, rng):
        cfg = TrainConfig(n_tree=3, n_depth=2, seed=9)
        model = init_model(cfg, 6, Rng(cfg.seed))
        model.forest.routing[1:] = model.forest.routing[0]
        model.forest.leaf_logits[1:] = model.forest.leaf_logits[0]
        x = rng.normal((6,))
        _, per_tree = forward_one(x, model)
        _, forest_probs = predict(model, x[None])
        for k in range(3):
            npt.assert_allclose(per_tree[k], forest_probs[0], atol=1e-15)

    def test_deterministic(self, desk_model, desk_batch):
        X, _ = desk_batch
        a, b = (_forward_cache(X, desk_model) for _ in range(2))
        npt.assert_array_equal(a["x_c"], b["x_c"])
        npt.assert_array_equal(a["forest"]["probs"], b["forest"]["probs"])
        for u, v in zip(predict(desk_model, X), predict(desk_model, X)):
            npt.assert_array_equal(u, v)

    def test_predict_equals_training_forward_bitwise(self, rng):
        cfg = TrainConfig(n_tree=4, n_depth=3, seed=13)
        model = init_model(cfg, 7, Rng(cfg.seed))
        X = rng.normal((40, 7))
        cached = _forward_cache(X, model)["forest"]["forest_probs"]
        labels, probs = predict(model, X)
        npt.assert_array_equal(probs.view(np.int64), cached.view(np.int64))
        npt.assert_array_equal(labels, cached.argmax(axis=1))

    def test_matches_publicly_composed_chain(self, rng):
        # Oracle: the closed form of 1 tree of depth 1 with no FC layer,
        # h = s(W1 x + b1), x_c = s(W2 h + b2),
        # p = s(w . h) softmax(L0) + (1 - s(w . h)) softmax(L1).
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=21)
        model = init_model(cfg, 2, Rng(cfg.seed))
        x = rng.normal((2,))
        enc, dec = model.autoencoder.encoder[0], model.autoencoder.decoder[0]
        h = np_sigmoid(enc.W @ x + enc.b)
        x_c = np_sigmoid(dec.W @ h + dec.b)
        d = np_sigmoid(model.forest.routing[0, 0] @ h)
        L = model.forest.leaf_logits[0]
        leaves = np.exp(L) / np.exp(L).sum(axis=1, keepdims=True)
        probs = d * leaves[0] + (1.0 - d) * leaves[1]
        f_xc, f_per_tree = forward_one(x, model)
        _, f_forest = predict(model, x[None])
        npt.assert_allclose(f_xc, x_c, atol=1e-15)
        npt.assert_allclose(f_per_tree[0], probs, atol=1e-15)
        npt.assert_allclose(f_forest[0], probs, atol=1e-15)


class TestBatchShape:
    # Each entry point takes a batch through _batch, the one shape check.
    each_entry_point = pytest.mark.parametrize("call", [
        lambda X, model: predict(model, X),
        lambda X, model: joint_loss(X, [0], model),
        lambda X, model: gradients(X, [0], model),
    ], ids=["predict", "joint_loss", "gradients"])

    @each_entry_point
    @pytest.mark.parametrize("shape", [(8,), (1, 1, 8)])
    def test_non_2d_input_is_shape_error_naming_it(self, desk_model, call, shape):
        with pytest.raises(ShapeError, match=rf"2-D batch.*{re.escape(str(shape))}"):
            call(np.zeros(shape), desk_model)

    @each_entry_point
    @pytest.mark.parametrize("width", [7, 9])
    def test_wrong_width_is_shape_error_naming_it(self, desk_model, call, width):
        # desk_model reads 8 feature columns.
        with pytest.raises(ShapeError,
                           match=rf"\(rows, 8\), got shape \(1, {width}\)"):
            call(np.zeros((1, width)), desk_model)


class TestTreeLoss:
    def test_certain_prediction(self):
        assert tree_term([0.0, 1.0], 1) == 0.0

    def test_half(self):
        assert tree_term([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-15)

    def test_hand_value(self):
        assert tree_term([0.69, 0.31], 0) == pytest.approx(0.3710636814, abs=1e-9)

    def test_zero_probability_clamped_finite(self):
        assert tree_term([0.0, 1.0], 0) == pytest.approx(-math.log(1e-12))


class TestJointLoss:
    def test_zero_at_perfect_model(self):
        # Decoder of zeros reconstructs 0.5 exactly; saturated leaves give
        # probability 1 to class 0.
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=0)
        model = init_model(cfg, 2, Rng(cfg.seed))
        for layer in model.autoencoder.decoder:
            layer.W[...] = 0.0
            layer.b[...] = 0.0
        model.forest.leaf_logits[0] = np.array([[500.0, -500.0],
                                                [500.0, -500.0]])
        X = np.full((3, 2), 0.5)
        y = np.zeros(3, dtype=int)
        assert joint_loss(X, y, model) == 0.0

    def test_single_sample_single_tree_composition(self, rng):
        cfg = TrainConfig(n_tree=1, n_depth=2, seed=3)
        model = init_model(cfg, 5, Rng(cfg.seed))
        x = rng.normal((5,))
        x_c, per_tree = forward_one(x, model)
        expected = ((x - x_c) ** 2).sum() - math.log(per_tree[0, 1])
        assert joint_loss(x[None], [1], model) == pytest.approx(expected, abs=1e-12)

    def test_mean_over_samples_and_trees(self, rng):
        cfg = TrainConfig(n_tree=3, n_depth=2, seed=4)
        model = init_model(cfg, 4, Rng(cfg.seed))
        X = rng.normal((6, 4))
        y = np.array([0, 1, 0, 0, 1, 1])
        total = 0.0
        for i in range(6):
            x_c, per_tree = forward_one(X[i], model)
            per_sample = ((X[i] - x_c) ** 2).sum()
            per_sample += np.mean([-math.log(per_tree[k, y[i]])
                                   for k in range(3)])
            total += per_sample
        assert joint_loss(X, y, model) == pytest.approx(total / 6, abs=1e-12)

    def test_hand_combination_rule(self):
        # Components (recon, tree loss) of (0.5, ln 2) and (1.5, 0)
        # average to 1.3465735902799727.
        assert (0.5 + math.log(2) + 1.5 + 0.0) / 2 == pytest.approx(
            1.3465735902799727, abs=1e-15)

    def test_empty_batch_rejected(self, desk_model):
        with pytest.raises(ValueError):
            joint_loss(np.empty((0, 8)), np.empty((0,)), desk_model)

    @pytest.mark.parametrize("fn", [joint_loss, gradients])
    @pytest.mark.parametrize("y, match", [
        ([-1, -1], "labels must be 0 or 1"),
        ([2, 0], "labels must be 0 or 1"),
        ([0.5, 1.0], "labels must be 0 or 1"),
        ([0, 1, 1], r"2 samples but label shape \(3,\)"),
        ([1], r"2 samples but label shape \(1,\)"),
        ([[0], [1]], r"2 samples but label shape \(2, 1\)"),
    ], ids=["minus-one", "two", "half", "too-many", "too-few", "column"])
    def test_labels_checked(self, desk_model, fn, y, match):
        X = Rng(0).normal((2, 8))
        with pytest.raises(ValueError, match=match):
            fn(X, y, desk_model)


class TestGradientToyCases:
    def test_stationary_at_saturated_leaves(self, rng):
        # With every leaf certain of the true class, probability is 1
        # regardless of routing, so routing gradients vanish.
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=5)
        model = init_model(cfg, 2, Rng(cfg.seed))
        model.forest.leaf_logits[0] = np.array([[500.0, -500.0],
                                                [500.0, -500.0]])
        X = rng.normal((4, 2))
        y = np.zeros(4, dtype=int)
        grads = gradients(X, y, model)
        assert np.all(np.abs(grads["tree.0.routing"]) < 1e-8)

    def test_scalar_logistic_closed_form(self, rng):
        # With leaf 0 certain of class 0 and leaf 1 certain of class 1,
        # p[0] = sigmoid(w . x_t), so d(-log p)/dw = (sigmoid(w.x_t) - 1) x_t.
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=6)
        model = init_model(cfg, 2, Rng(cfg.seed))
        model.forest.leaf_logits[0] = np.array([[500.0, -500.0], [-500.0, 500.0]])
        x = rng.normal((2,))
        enc = model.autoencoder.encoder[0]
        x_t = np_sigmoid(enc.W @ x + enc.b)  # no FC layer: x_t = h
        sig = 1.0 / (1.0 + math.exp(-float(model.forest.routing[0, 0] @ x_t)))
        closed_form = (sig - 1.0) * x_t
        grads = gradients(x[None, :], np.array([0]), model)
        npt.assert_allclose(grads["tree.0.routing"][0], closed_form, atol=1e-10)


class TestRmspropStep:
    def test_zero_gradient_is_identity(self):
        theta = np.array([1.0, -2.0])
        accum = np.array([4.0, 9.0])
        new_theta, new_accum = rmsprop_step(theta, np.zeros(2), accum, 0.01, 1e-8)
        npt.assert_array_equal(new_theta, theta)
        npt.assert_array_equal(new_accum, accum)

    def test_first_step_magnitude(self):
        # G = 9 after accumulating, step = -0.01 * 3 / sqrt(9 + 1e-8)
        theta, accum = rmsprop_step(np.array([0.0]), np.array([3.0]),
                                    np.array([0.0]), 0.01, 1e-8)
        assert accum[0] == 9.0
        assert theta[0] == pytest.approx(-0.01, abs=1e-9)

    def test_two_unit_steps_accumulate(self):
        theta = np.array([0.0])
        accum = np.array([0.0])
        theta, accum = rmsprop_step(theta, np.array([1.0]), accum, 0.01, 1e-8)
        theta1 = theta[0]
        theta, accum = rmsprop_step(theta, np.array([1.0]), accum, 0.01, 1e-8)
        assert accum[0] == 2.0
        assert theta[0] - theta1 == pytest.approx(-0.01 / math.sqrt(2 + 1e-8),
                                                  abs=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.lists(st.floats(0, 10), min_size=1, max_size=6))
    def test_accumulator_nondecreasing(self, grads_list, accum_list):
        n = min(len(grads_list), len(accum_list))
        grad = np.array(grads_list[:n])
        accum = np.array(accum_list[:n])
        _, new_accum = rmsprop_step(np.zeros(n), grad, accum, 0.01, 1e-8)
        assert np.all(new_accum >= accum)


class TestLeafUpdateStep:
    # The per-epoch leaf step is rmsprop_step on the leaf logits.
    def test_zero_gradient_keeps_distribution(self, rng):
        logits = rng.normal((4, 2))
        from spamforest.numerics import softmax
        before = softmax(logits)
        new_logits, _ = rmsprop_step(logits, np.zeros_like(logits),
                                     np.zeros_like(logits), 0.01, 1e-8)
        npt.assert_array_equal(softmax(new_logits), before)

    def test_distribution_stays_normalized(self, rng):
        from spamforest.numerics import softmax
        logits = rng.normal((8, 2))
        grad = rng.normal((8, 2), 5.0)
        new_logits, _ = rmsprop_step(logits, grad, np.zeros_like(logits),
                                     0.5, 1e-8)
        npt.assert_allclose(softmax(new_logits).sum(axis=1), 1.0, atol=1e-12)

    def test_single_leaf_hand_step(self):
        from spamforest.numerics import softmax
        logits = np.array([[0.3, -0.1]])
        grad = np.array([[2.0, -1.0]])
        new_logits, _ = rmsprop_step(logits, grad, np.zeros((1, 2)),
                                     0.1, 1e-8)
        expected_logits = logits - 0.1 / np.sqrt(grad ** 2 + 1e-8) * grad
        npt.assert_allclose(new_logits, expected_logits, atol=1e-15)
        npt.assert_allclose(softmax(new_logits), softmax(expected_logits),
                            atol=1e-15)


class TestFullSetPassMemory:
    # The leaf step and predict keep only the leaf reach mu (K, B, 2^D), so
    # neither may hold as much as one (K, B, 2^(D+1) - 1) reach array.
    def test_peak_below_one_reach_array(self, rng):
        cfg = TrainConfig(n_tree=10, n_depth=6, seed=3)
        X = rng.normal((2000, 8))
        y = (X[:, 0] > 0).astype(np.int64)
        model = init_model(cfg, 8, Rng(cfg.seed))
        grad = _allocate_model(cfg, 8)
        accum = np.zeros_like(model.forest.leaf_logits)
        reach_bytes = 10 * 2000 * (2 ** 7 - 1) * 8
        for name, call in (
                ("_leaf_epoch_step", lambda: _leaf_epoch_step(X, y, model, grad, accum, cfg)),
                ("predict", lambda: predict(model, X))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < reach_bytes, (name, peak)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        cfg = TrainConfig(n_epoch=0, batch_size=4, seed=13, n_tree=2, n_depth=2)
        X = Rng(1).normal((10, 3))
        y = np.array([0, 1] * 5)
        result = train(X, y, cfg)
        reference = init_model(cfg, 3, rng=Rng(13))
        for (_, a), (_, b) in zip(parameter_blocks(result.model),
                                  parameter_blocks(reference)):
            npt.assert_array_equal(a, b)
        assert result.losses == [] and result.accuracies == []

    def test_fixed_seed_bit_identical_traces(self):
        cfg = TrainConfig(n_epoch=5, batch_size=8, seed=2, n_tree=2, n_depth=2)
        X = Rng(3).normal((24, 4))
        y = np.array([0, 1] * 12)
        r1 = train(X, y, cfg)
        r2 = train(X, y, cfg)
        assert r1.losses == r2.losses
        assert r1.accuracies == r2.accuracies

    def test_reshuffle_flag_changes_trajectory_but_stays_deterministic(self):
        X = Rng(3).normal((24, 4))
        y = np.array([0, 1] * 12)
        base = dict(n_epoch=5, batch_size=8, seed=2, n_tree=2, n_depth=2)
        fixed = train(X, y, TrainConfig(**base))
        shuffled1 = train(X, y, TrainConfig(reshuffle_each_epoch=True, **base))
        shuffled2 = train(X, y, TrainConfig(reshuffle_each_epoch=True, **base))
        assert shuffled1.losses == shuffled2.losses
        assert shuffled1.losses[0] == fixed.losses[0]  # same first epoch
        assert shuffled1.losses[1:] != fixed.losses[1:]

    def test_batch_size_exceeding_rows_rejected(self):
        cfg = TrainConfig(batch_size=50)
        with pytest.raises(ConfigError, match="batch_size"):
            train(np.zeros((10, 2)), np.zeros(10, dtype=int), cfg)

    def test_nonbinary_labels_rejected(self):
        cfg = TrainConfig(batch_size=2)
        with pytest.raises(ConfigError, match="labels"):
            train(np.zeros((4, 2)), np.array([0, 1, 2, 1]), cfg)

    def test_nonfinite_loss_aborts_with_epoch(self):
        cfg = TrainConfig(n_epoch=3, batch_size=2, n_tree=1, n_depth=1)
        X = np.array([[np.inf, 1.0]] * 4)
        y = np.array([0, 1, 0, 1])
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="epoch 0"):
            train(X, y, cfg)

    def test_log_file_format(self, tmp_path):
        cfg = TrainConfig(n_epoch=4, batch_size=6, seed=8, n_tree=2, n_depth=2)
        X = Rng(5).normal((18, 3))
        y = np.array([0, 1, 0] * 6)
        log = tmp_path / "trace.tsv"
        result = train(X, y, cfg, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 4
        for e, line in enumerate(lines):
            epoch, loss, acc = line.split("\t")
            assert int(epoch) == e
            assert float(loss) == result.losses[e]
            assert float(acc) == result.accuracies[e]

    def test_leaf_distributions_valid_every_epoch(self):
        cfg = TrainConfig(n_epoch=6, batch_size=10, seed=4, n_tree=3, n_depth=2)
        X = Rng(9).normal((40, 4))
        y = (X[:, 0] > 0).astype(int)
        checked = []

        def check(epoch, model):
            dists = model.forest.leaf_distributions()
            assert np.all(dists >= 0)
            npt.assert_allclose(dists.sum(axis=2), 1.0, atol=1e-12)
            checked.append(epoch)

        train(X, y, cfg, epoch_callback=check)
        assert checked == list(range(6))

    @pytest.mark.parametrize("reshuffle", [False, True])
    def test_trace_equals_full_set_loss_and_predict(self, reshuffle):
        # Oracle: a fresh joint_loss and predict on the model after each
        # epoch, over the rows in the loop's order (one seeded shuffle after
        # initialization, then one more per later epoch when reshuffling).
        cfg = TrainConfig(n_epoch=5, batch_size=16, seed=3, n_tree=3,
                          n_depth=3, reshuffle_each_epoch=reshuffle)
        X = Rng(21).normal((70, 5))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        rng = Rng(cfg.seed)
        init_model(cfg, X.shape[1], rng=rng)
        order = rng.permutation(len(y))
        rows = {"X": X[order], "y": y[order]}
        expected = []

        def oracle(epoch, model):
            if reshuffle and epoch > 0:
                perm = rng.permutation(len(y))
                rows["X"], rows["y"] = rows["X"][perm], rows["y"][perm]
            labels, _ = predict(model, rows["X"])
            expected.append((joint_loss(rows["X"], rows["y"], model),
                             float((labels == rows["y"]).mean())))

        result = train(X, y, cfg, epoch_callback=oracle)
        assert result.losses == [loss for loss, _ in expected]
        assert result.accuracies == [acc for _, acc in expected]

    def test_predict_on_training_rows_matches_trace_accuracy(self):
        cfg = TrainConfig(n_epoch=10, batch_size=10, seed=6, n_tree=2, n_depth=2)
        X = Rng(11).normal((30, 3)) + np.array([1.0, 0, 0])
        y = (X[:, 0] > 1.0).astype(int)
        result = train(X, y, cfg)
        labels, _ = predict(result.model, X)
        acc = float((labels == y).mean())
        assert abs(acc - result.accuracies[-1]) <= 0.001

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_loss_trace_always_finite(self, seed):
        cfg = TrainConfig(n_epoch=2, batch_size=5, seed=seed, n_tree=1,
                          n_depth=1, ae_layer_count=1)
        X = Rng(seed).normal((10, 3), 2.0)
        y = (X[:, 0] > 0).astype(int)
        result = train(X, y, cfg)
        assert all(np.isfinite(v) for v in result.losses)


class TestTwoGaussianLearning:
    def test_training_accuracy_reaches_095(self, two_gaussians):
        Xtr, ytr, _, _ = two_gaussians
        X = np.vstack([Xtr])
        cfg = TrainConfig(n_epoch=200, seed=3)
        result = train(X, ytr, cfg)
        assert result.accuracies[-1] >= 0.95

    def test_heldout_accuracy_reaches_09(self, two_gaussians):
        Xtr, ytr, Xte, yte = two_gaussians
        cfg = TrainConfig(n_epoch=200, seed=3)
        result = train(Xtr, ytr, cfg)
        labels, _ = predict(result.model, Xte)
        assert float((labels == yte).mean()) >= 0.90


def reference_train(X, y, config):
    """``train`` written block by block, with no flat buffer: rmsprop_step
    on each theta block of ``gradients``' output after every mini-batch,
    leaf logits skipped, then each tree's leaf step from the full-set
    gradient. Every block's accumulator starts at zero, so matching it pins
    both ``train``'s zero start and its buffer layout. Returns (model,
    losses, accuracies)."""
    rng = Rng(config.seed)
    model = init_model(config, X.shape[1], rng=rng)
    accum = {name: np.zeros_like(arr) for name, arr in parameter_blocks(model)}
    losses, accuracies = [], []
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    for epoch in range(config.n_epoch):
        if config.reshuffle_each_epoch and epoch > 0:
            order = rng.permutation(len(y))
            X, y = X[order], y[order]
        for start in range(0, len(y), config.batch_size):
            sl = slice(start, start + config.batch_size)
            grads = gradients(X[sl], y[sl], model)
            for name, arr in parameter_blocks(model):
                if not name.endswith(".leaf_logits"):
                    arr[...], accum[name] = rmsprop_step(
                        arr, grads[name], accum[name], config.learning_rate,
                        config.epsilon)
        full = gradients(X, y, model)
        for k in range(config.n_tree):
            name = f"tree.{k}.leaf_logits"
            model.forest.leaf_logits[k], accum[name] = rmsprop_step(
                model.forest.leaf_logits[k], full[name], accum[name],
                config.leaf_learning_rate, config.epsilon)
        labels, _ = predict(model, X)
        losses.append(joint_loss(X, y, model))
        accuracies.append(float((labels == y).mean()))
    return model, losses, accuracies


class TestFlatParameterBuffer:
    STRUCTURES = [
        dict(fc_layer_count=0, n_tree=1, n_depth=2, reshuffle_each_epoch=True),
        dict(fc_layer_count=2, n_tree=3, n_depth=3, reshuffle_each_epoch=False),
        dict(fc_layer_count=1, n_tree=2, n_depth=2, ae_layer_count=1,
             reshuffle_each_epoch=True),
    ]

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_train_matches_per_block_reference_bit_for_bit(self, structure):
        cfg = TrainConfig(n_epoch=4, batch_size=9, seed=17, **structure)
        X = Rng(29).normal((40, 6))
        y = (X[:, 0] - X[:, 2] > 0).astype(int)
        result = train(X, y, cfg)
        model, losses, accuracies = reference_train(X, y, cfg)
        got, want = parameter_blocks(result.model), parameter_blocks(model)
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        assert np.array_equal(np.array(result.losses).view(np.int64),
                              np.array(losses).view(np.int64))
        assert result.accuracies == accuracies

    def test_theta_blocks_are_views_of_one_vector(self):
        cfg = TrainConfig(n_epoch=1, batch_size=5, seed=2, n_tree=2, n_depth=2)
        result = train(Rng(4).normal((10, 4)), np.array([0, 1] * 5), cfg)
        theta = [arr for name, arr in parameter_blocks(result.model)
                 if not name.endswith(".leaf_logits")]
        base = theta[0].base
        assert base is not None and base.ndim == 1
        assert all(np.shares_memory(arr, base) for arr in theta)
        assert sum(arr.size for arr in theta) == base.size

    def test_one_step_per_batch_and_no_batch_leaf_gradient(self, monkeypatch):
        calls = {"rmsprop_step": 0, "leaf_gradient": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(training, "rmsprop_step")
        counted(training, "leaf_gradient")
        counted(forest_module, "leaf_gradient")  # as forest_backward sees it
        cfg = TrainConfig(n_epoch=3, batch_size=4, seed=1, n_tree=3, n_depth=2)
        train(Rng(8).normal((10, 3)), np.array([0, 1] * 5), cfg)
        n_batches = 3  # 10 rows in batches of 4
        assert calls["rmsprop_step"] == cfg.n_epoch * (n_batches + 1)
        assert calls["leaf_gradient"] == cfg.n_epoch  # the leaf steps only

    def test_non_finite_batch_gradient_names_block_and_epoch(self, monkeypatch):
        # From the first batch of epoch 1, tree 1's routing gradient and the
        # gradient into the tree input turn NaN, so the fully connected and
        # encoder blocks do too; the error names the first in backward
        # order (decoder, trees, fully connected, encoder), not in the flat
        # buffer's order, which starts with the encoder.
        original = training.forest_backward
        seen = {"calls": 0}

        def poisoned(*args):
            g_routing, g_xt = original(*args)
            seen["calls"] += 1
            if seen["calls"] > 3:  # 3 batches per epoch
                g_routing[1, 0, 0] = np.nan
                g_xt[...] = np.nan
            return g_routing, g_xt

        monkeypatch.setattr(training, "forest_backward", poisoned)
        cfg = TrainConfig(n_epoch=3, batch_size=4, seed=1, n_tree=2, n_depth=2)
        with pytest.raises(NumericError) as info:
            train(Rng(8).normal((10, 3)), np.array([0, 1] * 5), cfg)
        assert str(info.value) == \
            "non-finite gradient in block tree.1.routing at epoch 1"
        assert info.value.context == 1
