import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from spamforest.autoencoder import reconstruction_loss
from spamforest.errors import ConfigError, NumericError
from spamforest.numerics import Rng
from spamforest.training import (OptimizerState, TrainConfig, forward,
                                 gradients, init_model, joint_loss,
                                 parameter_blocks, predict, rmsprop_step,
                                 train, tree_loss)


def np_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


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
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(ae_widths=(4, 2), seed=11)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


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
        a = init_model(cfg, 6)
        b = init_model(cfg, 6)
        for (_, x), (_, y) in zip(parameter_blocks(a), parameter_blocks(b)):
            npt.assert_array_equal(x, y)

    def test_no_fc_layers_use_hidden_as_tree_input(self):
        cfg = TrainConfig(fc_layer_count=0, n_depth=2, n_tree=1)
        model = init_model(cfg, 8)
        assert model.forest.input_dim == model.autoencoder.hidden_dim


class TestForward:
    def test_identical_trees_collapse_to_one(self, rng):
        cfg = TrainConfig(n_tree=3, n_depth=2, seed=9)
        model = init_model(cfg, 6)
        model.forest.routing[1:] = model.forest.routing[0]
        model.forest.leaf_logits[1:] = model.forest.leaf_logits[0]
        x = rng.normal((6,))
        _, per_tree, forest_probs = forward(x, model)
        for k in range(3):
            npt.assert_allclose(per_tree[k], forest_probs, atol=1e-15)

    def test_deterministic(self, desk_model, desk_batch):
        X, _ = desk_batch
        a = forward(X, desk_model)
        b = forward(X, desk_model)
        for u, v in zip(a, b):
            npt.assert_array_equal(u, v)

    def test_matches_publicly_composed_chain(self, rng):
        # Oracle: the closed form of 1 tree of depth 1 with no FC layer,
        # h = s(W1 x + b1), x_c = s(W2 h + b2),
        # p = s(w . h) softmax(L0) + (1 - s(w . h)) softmax(L1).
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=21)
        model = init_model(cfg, 2)
        x = rng.normal((2,))
        enc, dec = model.autoencoder.encoder[0], model.autoencoder.decoder[0]
        h = np_sigmoid(enc.W @ x + enc.b)
        x_c = np_sigmoid(dec.W @ h + dec.b)
        d = np_sigmoid(model.forest.routing[0, 0] @ h)
        L = model.forest.leaf_logits[0]
        leaves = np.exp(L) / np.exp(L).sum(axis=1, keepdims=True)
        probs = d * leaves[0] + (1.0 - d) * leaves[1]
        f_xc, f_per_tree, f_forest = forward(x, model)
        npt.assert_allclose(f_xc, x_c, atol=1e-15)
        npt.assert_allclose(f_per_tree[0], probs, atol=1e-15)
        npt.assert_allclose(f_forest, probs, atol=1e-15)


class TestTreeLoss:
    def test_certain_prediction(self):
        assert tree_loss([0.0, 1.0], 1) == 0.0

    def test_half(self):
        assert tree_loss([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-15)

    def test_hand_value(self):
        assert tree_loss([0.69, 0.31], 0) == pytest.approx(0.3710636814, abs=1e-9)

    def test_zero_probability_clamped_finite(self):
        assert tree_loss([0.0, 1.0], 0) == pytest.approx(-math.log(1e-12))


class TestJointLoss:
    def test_zero_at_perfect_model(self):
        # Decoder of zeros reconstructs 0.5 exactly; saturated leaves give
        # probability 1 to class 0.
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=0)
        model = init_model(cfg, 2)
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
        model = init_model(cfg, 5)
        x = rng.normal((5,))
        x_c, per_tree, _ = forward(x, model)
        expected = reconstruction_loss(x, x_c) + tree_loss(per_tree[0], 1)
        assert joint_loss(x, [1], model) == pytest.approx(expected, abs=1e-12)

    def test_mean_over_samples_and_trees(self, rng):
        cfg = TrainConfig(n_tree=3, n_depth=2, seed=4)
        model = init_model(cfg, 4)
        X = rng.normal((6, 4))
        y = np.array([0, 1, 0, 0, 1, 1])
        total = 0.0
        for i in range(6):
            x_c, per_tree, _ = forward(X[i], model)
            per_sample = reconstruction_loss(X[i], x_c)
            per_sample += np.mean([tree_loss(per_tree[k], y[i])
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


class TestGradientToyCases:
    def test_stationary_at_saturated_leaves(self, rng):
        # With every leaf certain of the true class, probability is 1
        # regardless of routing, so routing gradients vanish.
        cfg = TrainConfig(n_tree=1, n_depth=1, ae_layer_count=1,
                          fc_layer_count=0, ae_widths=(2,), seed=5)
        model = init_model(cfg, 2)
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
        model = init_model(cfg, 2)
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


class TestOptimizerState:
    def test_zero_initialized_per_block(self, desk_model):
        state = OptimizerState.for_model(desk_model)
        blocks = dict(parameter_blocks(desk_model))
        assert set(state.accumulators) == set(blocks)
        for name, acc in state.accumulators.items():
            assert acc.shape == blocks[name].shape
            assert np.all(acc == 0)
