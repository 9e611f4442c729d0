import numpy as np
import pytest

from spamforest.numerics import Rng
from spamforest.training import TrainConfig, init_model


@pytest.fixture
def rng():
    return Rng(12345)


@pytest.fixture
def desk_model():
    """The desk-scale reference model: 2 AE layers, 1 FC, 2 trees, depth 2,
    8 input features."""
    cfg = TrainConfig(n_tree=2, n_depth=2, fc_layer_count=1, ae_layer_count=2,
                      batch_size=5, seed=7)
    return init_model(cfg, 8, Rng(cfg.seed))


@pytest.fixture
def desk_batch():
    r = Rng(123)
    X = r.normal((5, 8), 1.0)
    y = np.array([0, 1, 1, 0, 1])
    return X, y


@pytest.fixture(scope="session")
def two_gaussians():
    from spamforest.synthetic import two_gaussian_dataset

    X, y = two_gaussian_dataset(500, seed=42)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)
    perm = Rng(7).permutation(len(Xn))
    train, test = perm[:800], perm[800:]
    return Xn[train], y[train], Xn[test], y[test]


@pytest.fixture(scope="session")
def review_corpus():
    from spamforest.synthetic import synthetic_review_corpus

    return synthetic_review_corpus(n_genuine=25, n_spammers=25,
                                   n_products=50, seed=7)
