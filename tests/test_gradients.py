"""Finite-difference validation of the hand-derived backpropagation.

Central differences of the public joint loss are the arbiter: every
analytic gradient coordinate must agree within 1e-4 relative error. The
desk-scale setting (2 autoencoder layers, 1 fully connected layer, 2 trees
of depth 2, 8 features, batch of 5) is the reference; the variants cover
no-FC pass-through, deeper trees, single-sample batches, and multiple
fully connected layers, and several trees at depth 4 (the level-order
reach recursion over a stacked forest).
"""

import numpy as np

from helpers import finite_difference_check
from spamforest.numerics import Rng
from spamforest.training import TrainConfig, init_model

TOLERANCE = 1e-4


def make_case(cfg, n_features, batch, data_seed):
    model = init_model(cfg, n_features, Rng(cfg.seed))
    r = Rng(data_seed)
    X = r.normal((batch, n_features), 1.0)
    y = (r.normal((batch,)) > 0).astype(int)
    return model, X, y


class TestFiniteDifferences:
    def test_desk_scale_reference(self):
        cfg = TrainConfig(n_tree=2, n_depth=2, fc_layer_count=1,
                          ae_layer_count=2, batch_size=5, seed=7)
        model, X, y = make_case(cfg, 8, 5, 123)
        worst, per_block = finite_difference_check(model, X, y)
        assert worst < TOLERANCE, f"worst blocks: {per_block}"

    def test_no_fc_layers(self):
        cfg = TrainConfig(n_tree=2, n_depth=2, fc_layer_count=0,
                          ae_layer_count=1, batch_size=4, seed=17)
        model, X, y = make_case(cfg, 6, 4, 29)
        worst, _ = finite_difference_check(model, X, y)
        assert worst < TOLERANCE

    def test_two_fc_layers_depth3(self):
        cfg = TrainConfig(n_tree=1, n_depth=3, fc_layer_count=2,
                          ae_layer_count=1, batch_size=3, seed=23)
        model, X, y = make_case(cfg, 5, 3, 31)
        worst, _ = finite_difference_check(model, X, y)
        assert worst < TOLERANCE

    def test_three_trees_depth4(self):
        cfg = TrainConfig(n_tree=3, n_depth=4, fc_layer_count=1,
                          ae_layer_count=2, batch_size=6, seed=53)
        model, X, y = make_case(cfg, 6, 6, 59)
        worst, per_block = finite_difference_check(model, X, y)
        assert worst < TOLERANCE, f"worst blocks: {per_block}"

    def test_single_sample(self):
        cfg = TrainConfig(n_tree=3, n_depth=1, fc_layer_count=1,
                          ae_layer_count=1, batch_size=1, seed=37)
        model, X, y = make_case(cfg, 4, 1, 41)
        worst, _ = finite_difference_check(model, X, y)
        assert worst < TOLERANCE

    def test_wider_custom_widths(self):
        cfg = TrainConfig(n_tree=2, n_depth=2, fc_layer_count=1,
                          ae_layer_count=2, ae_widths=(5, 3), fc_width=4,
                          batch_size=4, seed=43)
        model, X, y = make_case(cfg, 7, 4, 47)
        worst, _ = finite_difference_check(model, X, y)
        assert worst < TOLERANCE


class TestGradientStructure:
    def test_covers_every_block_with_matching_shapes(self, desk_model,
                                                     desk_batch):
        from spamforest.training import gradients, parameter_blocks

        X, y = desk_batch
        grads = gradients(X, y, desk_model)
        blocks = dict(parameter_blocks(desk_model))
        assert set(grads) == set(blocks)
        for name in blocks:
            assert grads[name].shape == blocks[name].shape

    def test_all_finite(self, desk_model, desk_batch):
        from spamforest.training import gradients

        X, y = desk_batch
        grads = gradients(X, y, desk_model)
        for g in grads.values():
            assert np.all(np.isfinite(g))

    def test_scaling_with_batch_mean(self, desk_model):
        # Duplicating the batch must not change the mean gradient.
        from spamforest.training import gradients

        r = Rng(53)
        X = r.normal((3, 8))
        y = np.array([0, 1, 0])
        g1 = gradients(X, y, desk_model)
        g2 = gradients(np.vstack([X, X]), np.hstack([y, y]), desk_model)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)
