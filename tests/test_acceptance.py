"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured value once its assertions hold (visible with ``pytest -s`` or
in captured output). Criterion 10 checks the cost model by counting the
work each epoch's calls see; wall time is left to ``perfbench/``.

Run with: ``pytest tests/test_acceptance.py -v -s``
"""

import math
import time

import numpy as np
import numpy.testing as npt

from helpers import (finite_difference_check, follow_forest,
                     rank_sum_brute_force, signed_rank_brute_force)
from spamforest import training
from spamforest.dataio import load_model, save_model
from spamforest.features import ReviewRecord, ReviewTable, build_feature_matrix
from spamforest.forest import ForestParams, forest_forward
from spamforest.metrics import compute_metrics
from spamforest.numerics import Rng, entropy
from spamforest.stats import chi_squared_test, rank_sum_test, signed_rank_test
from spamforest.synthetic import two_gaussian_dataset
from spamforest.training import TrainConfig, init_model, predict, train


def report(n, message):
    print(f"\nACCEPTANCE {n:02d}: PASS  {message}")


def test_01_metric_algebra_reproduction():
    m = compute_metrics((1594, 65, 2192, 99))
    rendered = {name: f"{getattr(m, name) * 100:.2f}%"
                for name in ("precision", "accuracy", "f1", "recall")}
    assert rendered == {"precision": "96.08%", "accuracy": "95.85%",
                        "f1": "95.11%", "recall": "94.15%"}
    report(1, f"counts (1594, 65, 2192, 99) -> {rendered}")


def test_02_gradient_correctness_desk_model():
    start = time.perf_counter()
    cfg = TrainConfig(n_tree=2, n_depth=2, fc_layer_count=1,
                      ae_layer_count=2, batch_size=5, seed=7)
    model = init_model(cfg, 8, Rng(cfg.seed))
    r = Rng(123)
    X = r.normal((5, 8), 1.0)
    y = np.array([0, 1, 1, 0, 1])
    worst, per_block = finite_difference_check(model, X, y, h=1e-5)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative error {worst}: {per_block}"
    assert elapsed < 60.0
    report(2, f"max relative error {worst:.2e} over all parameters "
              f"({elapsed:.1f}s)")


def test_03_routing_normalization_1000_instances():
    r = Rng(31)
    worst = 0.0
    for depth in (1, 2, 3, 4, 5):
        for _ in range(200):
            dim = int(r.permutation(4)[0]) + 2
            forest = ForestParams(r.normal((1, 2 ** depth - 1, dim), 2.0),
                                  r.normal((1, 2 ** depth, 2)))
            reach = forest_forward(r.normal((1, dim), 2.0), forest)["reach"][0]
            mu = reach[0, 2 ** depth - 1:]
            worst = max(worst, abs(float(mu.sum()) - 1.0))
            assert 1.0 - 1e-9 <= mu.sum() <= 1.0 + 1e-9
    report(3, f"1000 instances at depths 1-5, worst |sum - 1| = {worst:.2e}")


def test_04_hard_routing_oracle_100_instances():
    r = Rng(47)
    worst = 0.0
    for _ in range(100):
        routing, leaves = [], []
        for _ in range(3):
            routing.append(r.normal((7, 6)) * 1e6)
            leaves.append(r.normal((8, 2)))
        forest = ForestParams(np.stack(routing), np.stack(leaves))
        x = r.normal((6,))
        soft = forest_forward(x[None, :], forest)["forest_probs"][0]
        hard = follow_forest(x, forest)
        worst = max(worst, float(np.max(np.abs(soft - hard))))
        npt.assert_allclose(soft, hard, atol=1e-6)
    report(4, f"100 depth-3 instances, worst deviation {worst:.2e}")


def test_05_end_to_end_learning_two_gaussians():
    start = time.perf_counter()
    X, y = two_gaussian_dataset(500, seed=42)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)  # z-score
    perm = Rng(7).permutation(len(Xn))
    tr, te = perm[:800], perm[800:]
    cfg = TrainConfig(n_epoch=200, batch_size=50, n_tree=5, n_depth=3,
                      normalization="zscore", fc_layer_count=1,
                      ae_layer_count=2, seed=3)
    result = train(Xn[tr], y[tr], cfg)
    labels, _ = predict(result.model, Xn[te])
    acc = float((labels == y[te]).mean())
    elapsed = time.perf_counter() - start
    assert acc >= 0.90
    assert elapsed < 120.0
    report(5, f"held-out accuracy {acc:.3f} on 200 points after "
              f"{cfg.n_epoch} epochs ({elapsed:.1f}s)")


def test_06_statistics_exact_oracle():
    rng = np.random.default_rng(83)
    checked = 0
    for n in range(2, 9):
        for n_a in range(1, n):
            for _ in range(3):
                pool = rng.integers(0, 5, size=n).astype(float)
                a, b = list(pool[:n_a]), list(pool[n_a:])
                mine = rank_sum_test(a, b)
                pl, pg, p2 = rank_sum_brute_force(a, b)
                assert (mine.p_less, mine.p_greater, mine.p_two_sided) == \
                    (pl, pg, p2), (a, b)
                checked += 1
    for n in range(1, 9):
        for _ in range(3):
            diffs = list(rng.integers(-4, 5, size=n).astype(float))
            if all(d == 0 for d in diffs):
                diffs[0] = 1.0
            mine = signed_rank_test(diffs)
            pl, pg, p2 = signed_rank_brute_force(diffs)
            assert (mine.p_less, mine.p_greater, mine.p_two_sided) == \
                (pl, pg, p2), diffs
            checked += 1
    chi = chi_squared_test([[20, 0], [0, 20]])
    assert chi.statistic == 40.0
    report(6, f"{checked} exact cases match brute-force enumeration; "
              f"diagonal chi-squared statistic = {chi.statistic}")


def test_07_determinism_and_serialization(tmp_path):
    r = Rng(19)
    X = r.normal((120, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    cfg = TrainConfig(n_epoch=12, batch_size=30, seed=5, n_tree=3, n_depth=2)
    r1 = train(X, y, cfg)
    r2 = train(X, y, cfg)
    assert r1.losses == r2.losses  # bit-identical floats

    samples = Rng(23).normal((100, 4))
    before_labels, before_probs = predict(r1.model, samples)
    path = tmp_path / "model.json"
    save_model(path, r1.model)
    loaded = load_model(path)
    after_labels, after_probs = predict(loaded, samples)
    npt.assert_array_equal(before_labels, after_labels)
    npt.assert_array_equal(before_probs, after_probs)
    report(7, "loss traces bit-identical; save->load->predict bit-exact "
              "on 100 samples")


def _random_corpus(n_records, seed):
    gen = np.random.default_rng(seed)
    categories = ["books", "music", "toys", "kitchen"]
    words = ["great", "bad", "thing", "item", "love", "waste", "fine", ""]
    records = []
    u = 0
    while len(records) < n_records:
        uid = f"u{u}"
        u += 1
        for _ in range(int(gen.integers(1, 11))):
            records.append(ReviewRecord(
                user_id=uid,
                product_id=f"p{int(gen.integers(0, 300))}",
                rating=int(gen.integers(1, 6)),
                helpful_votes=int(gen.integers(0, 100)),
                unhelpful_votes=int(gen.integers(0, 100)),
                timestamp=int(gen.integers(0, 8000)),
                category=categories[int(gen.integers(0, 4))],
                summary_text=" ".join(gen.choice(words, size=3)),
                review_text=" ".join(gen.choice(words, size=8)),
                user_name=str(gen.choice(["alice", "bob", "zx91", ""])),
                user_memo=str(gen.choice(["", "hi"])),
            ))
    return records[:n_records]


def test_08_feature_formulas_and_ratio_bounds():
    # Uniform five-way rating proportions reach the entropy ceiling.
    revs = [ReviewRecord("u", f"p{i}", i + 1, 0, 0, i, "books", "", "")
            for i in range(5)]
    matrix, _ = build_feature_matrix(ReviewTable.from_records(revs))
    col = matrix.names.index("rating_entropy")
    assert abs(matrix.values[0, col] - math.log(5)) < 1e-12
    assert abs(entropy([0.2] * 5) - math.log(5)) < 1e-12

    records = _random_corpus(10_000, seed=117)
    fuzz_matrix, _ = build_feature_matrix(ReviewTable.from_records(records))
    ratio_cols = [j for j, name in enumerate(fuzz_matrix.names)
                  if "ratio" in name]
    assert ratio_cols
    block = fuzz_matrix.values[:, ratio_cols]
    assert np.all(block >= 0.0) and np.all(block <= 1.0)
    assert np.all(np.isfinite(fuzz_matrix.values))
    report(8, f"uniform-rating entropy = ln 5 within 1e-12; "
              f"{len(records)} fuzzed records keep all "
              f"{len(ratio_cols)} ratio features in [0, 1]")


def test_09_leaf_validity_every_epoch():
    X, y = two_gaussian_dataset(150, seed=11)
    Xn = (X - X.mean(axis=0)) / X.std(axis=0)
    cfg = TrainConfig(n_epoch=50, batch_size=30, seed=2, n_tree=4, n_depth=3)
    epochs_checked = []

    def check(epoch, model):
        dists = model.forest.leaf_distributions()
        assert np.all(dists >= 0.0)
        npt.assert_allclose(dists.sum(axis=2), 1.0, atol=1e-12)
        epochs_checked.append(epoch)

    train(Xn, y, cfg, epoch_callback=check)
    assert epochs_checked == list(range(50))
    report(9, "leaf distributions valid after each of 50 epochs "
              "(sums within 1e-12, no negatives)")


def epoch_work(monkeypatch, X, y, config):
    """``(rows, rows x weights)`` per call site over one ``train`` run.

    Forest forward, leaf reach and backward count rows x ``forest.routing.size``
    (K * (2^D - 1) * xt_dim); ``sigmoid_chain`` counts rows x the summed
    ``W.size`` of its layers (encoder, decoder and fully connected stacks).
    """
    counts = {}

    def counted(name, rows_and_weights):
        original = getattr(training, name)
        counts[name] = [0, 0]

        def wrapper(*args):
            rows, weights = rows_and_weights(*args)
            counts[name][0] += rows
            counts[name][1] += rows * weights
            return original(*args)
        monkeypatch.setattr(training, name, wrapper)

    counted("forest_forward", lambda XT, forest: (len(XT), forest.routing.size))
    counted("leaf_reach", lambda XT, forest: (len(XT), forest.routing.size))
    counted("forest_backward",
            lambda XT, *rest: (len(XT), rest[-1].routing.size))
    counted("sigmoid_chain",
            lambda x, layers: (len(x), sum(layer.W.size for layer in layers)))
    train(X, y, config)
    monkeypatch.undo()
    return {name: tuple(c) for name, c in counts.items()}


def test_10_cost_model_counts_linear_in_trees(monkeypatch):
    r = Rng(0)
    X = r.normal((1500, 16))
    y = (X[:, 0] > 0).astype(int)
    n = len(y)
    base = dict(n_depth=6, batch_size=150, ae_layer_count=1,
                fc_layer_count=0, seed=1)
    work = {(k, e): epoch_work(monkeypatch, X, y,
                               TrainConfig(n_tree=k, n_epoch=e, **base))
            for k in (5, 10) for e in (1, 3)}
    for k in (5, 10):
        one = work[k, 1]
        # Per epoch: the mini-batches' forward and backward, plus the leaf
        # step's one full-set forward that keeps only the leaf reach: 2n
        # forest-forward rows in all.
        assert one["forest_forward"][0] == n
        assert one["leaf_reach"][0] == n
        assert one["forest_backward"][0] == n
        assert one["sigmoid_chain"][0] == 3 * 2 * n  # encoder, decoder, fc
        for name, c in one.items():
            assert work[k, 3][name] == (3 * c[0], 3 * c[1]), name
    for name in ("forest_forward", "leaf_reach", "forest_backward"):
        assert work[10, 1][name][1] == 2 * work[5, 1][name][1], name
    assert work[10, 1]["sigmoid_chain"] == work[5, 1]["sigmoid_chain"]
    report(10, "rows x weights per epoch, K=5 -> K=10: " + ", ".join(
        f"{name} {work[5, 1][name][1]} -> {work[10, 1][name][1]}"
        for name in sorted(work[5, 1])) + "; 3 epochs = 3x one")
