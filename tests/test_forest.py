import math
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (backprop_forward, follow_forest, load_with_tensor_shape,
                     reference_forest_backward, reference_forest_forward,
                     rewrite_model_body)
from spamforest import forest as forest_module, training
from spamforest.dataio import load_model, save_model
from spamforest.errors import ConfigError, ModelIntegrityError
from spamforest.forest import (CHUNK_CELLS, ForestParams, forest_backward,
                               forest_forward, leaf_gradient)
from spamforest.forest import leaf_reach as forest_leaf_reach
from spamforest.numerics import Layer, Rng, beside, sigmoid, sigmoid_chain
from spamforest.training import (ROW_BLOCK, TrainConfig, _forest_pass,
                                 _loss_terms, _tree_loss_grad, by_tree_halves,
                                 init_model, joint_loss, predict)


def logit(p):
    return math.log(p / (1 - p))


def depth1_forest(p_left, leaf0=(0.9, 0.1), leaf1=(0.2, 0.8)):
    """One tree with a single decision node, P(left) = p_left on x_t = [1]."""
    logits = np.log([leaf0, leaf1])
    return ForestParams(np.array([[[logit(p_left)]]]), logits[None])


def random_forest(rng, n_trees, depth, dim, n_classes=2, scale=1.0):
    return ForestParams(rng.normal((n_trees, 2 ** depth - 1, dim), scale),
                        rng.normal((n_trees, 2 ** depth, n_classes), scale))


def run(x_t, forest):
    """forest_forward on one tree-input vector (or a batch)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    return forest_forward(np.atleast_2d(x_t), forest)


def leaf_reach(x_t, forest, k=0):
    """Leaf reach probabilities mu of tree k; one row per input."""
    return run(x_t, forest)["reach"][k][:, forest.n_decision_nodes:]


class TestTreeInput:
    # The tree input is the hidden code pushed through forest.fc by the
    # same sigmoid_chain the model's forward pass runs.
    def test_zero_layers_pass_through(self):
        h = np.array([0.2, 0.9])
        npt.assert_array_equal(sigmoid_chain(h, [])[-1], h)

    def test_zero_weights_give_half(self):
        fc = [Layer(np.zeros((3, 2)), np.zeros(3))]
        npt.assert_array_equal(sigmoid_chain([0.4, 0.6], fc)[-1], [0.5, 0.5, 0.5])

    def test_single_layer_matches_sigma_affine(self):
        W, b = np.array([[1.0, -2.0], [0.3, 0.4]]), np.array([0.5, 0.0])
        h = [0.1, 0.7]
        expected = [1 / (1 + math.exp(-(W[i] @ h + b[i]))) for i in range(2)]
        npt.assert_allclose(sigmoid_chain(h, [Layer(W, b)])[-1], expected,
                            atol=1e-15)


class TestDecisionProbability:
    @staticmethod
    def decision(x_t, w_d):
        forest = ForestParams(np.array([[w_d]], dtype=np.float64),
                              np.zeros((1, 2, 2)))
        return float(run(x_t, forest)["decisions"][0][0, 0])

    def test_orthogonal_input(self):
        assert self.decision([1.0, 0.0], [0.0, 5.0]) == 0.5

    def test_zero_weights(self):
        assert self.decision([3.0, -2.0], [0.0, 0.0]) == 0.5

    def test_closed_form(self):
        assert self.decision([1.0], [math.log(3)]) == pytest.approx(
            0.75, abs=1e-15)


class TestLeafReach:
    def test_depth1_split(self):
        mu = leaf_reach([1.0], depth1_forest(0.7))
        npt.assert_allclose(mu[0], [0.7, 0.3], atol=1e-15)

    def test_depth2_uniform_routing(self):
        forest = ForestParams(np.zeros((1, 3, 2)), np.zeros((1, 4, 2)))
        mu = leaf_reach([0.3, 0.8], forest)
        npt.assert_allclose(mu[0], [0.25] * 4, atol=1e-15)

    def test_path_products_match_decision_algebra(self, rng):
        # Leftmost leaf is reached with d_root * d_left; its sibling with
        # d_root * (1 - d_left). Checked on every tree of a stacked forest.
        forest = random_forest(rng, 3, 2, 3)
        x_t = rng.normal((3,))
        for k in range(3):
            d = sigmoid(x_t @ forest.routing[k].T)
            mu = leaf_reach(x_t, forest, k)[0]
            assert mu[0] == pytest.approx(d[0] * d[1], abs=1e-15)
            assert mu[1] == pytest.approx(d[0] * (1 - d[1]), abs=1e-15)
            assert mu[2] == pytest.approx((1 - d[0]) * d[2], abs=1e-15)
            assert mu[3] == pytest.approx((1 - d[0]) * (1 - d[2]), abs=1e-15)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_sums_to_one(self, depth, rng):
        for _ in range(40):
            dim = int(rng.permutation(5)[0]) + 2
            forest = random_forest(rng, 2, depth, dim, scale=3.0)
            x_t = rng.normal((dim,), 3.0)
            for k in range(2):
                mu = leaf_reach(x_t, forest, k)
                assert abs(mu.sum() - 1.0) <= 1e-9
                assert np.all(mu >= 0)

    def test_batch_rows_sum_to_one(self, rng):
        forest = random_forest(rng, 2, 3, 4)
        for k in range(2):
            mu = leaf_reach(rng.normal((16, 4)), forest, k)
            assert mu.shape == (16, 8)
            npt.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-9)


class TestTreePredict:
    def test_identical_leaves_wash_out_routing(self, rng):
        q = np.log([0.3, 0.7])
        forest = ForestParams(rng.normal((1, 3, 2)), np.tile(q, (1, 4, 1)))
        out = run(rng.normal((2,)), forest)["probs"][0, 0]
        npt.assert_allclose(out, [0.3, 0.7], atol=1e-12)

    def test_depth1_hand_mixture(self):
        # 0.7*[0.9,0.1] + 0.3*[0.2,0.8] = [0.69, 0.31]
        out = run([1.0], depth1_forest(0.7))["probs"][0, 0]
        npt.assert_allclose(out, [0.69, 0.31], atol=1e-12)

    def test_hard_routing_returns_single_leaf(self):
        forest = depth1_forest(0.5)
        forest.routing[0, 0, 0] = 1e4  # saturate: always left
        out = run([1.0], forest)["probs"][0, 0]
        npt.assert_allclose(out, [0.9, 0.1], atol=1e-12)

    def test_valid_distribution(self, rng):
        for _ in range(25):
            forest = random_forest(rng, 2, 3, 5, scale=2.0)
            out = run(rng.normal((5,), 2.0), forest)["probs"][:, 0]
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert np.all((out >= 0) & (out <= 1))


class TestForestPredict:
    def test_identical_trees_equal_single_tree(self, rng):
        single = random_forest(rng, 1, 2, 3)
        forest = ForestParams(np.repeat(single.routing, 2, axis=0),
                              np.repeat(single.leaf_logits, 2, axis=0))
        x = rng.normal((3,))
        npt.assert_allclose(run(x, forest)["forest_probs"],
                            run(x, single)["probs"][0], atol=1e-15)

    def test_arithmetic_mean(self):
        leaves = np.log([[[0.6, 0.4], [0.6, 0.4]], [[0.8, 0.2], [0.8, 0.2]]])
        routing = np.full((2, 1, 1), logit(1.0 - 1e-12))
        out = run([1.0], ForestParams(routing, leaves))["forest_probs"][0]
        npt.assert_allclose(out, [0.7, 0.3], atol=1e-9)

    def test_single_tree_forest(self, rng):
        forest = random_forest(rng, 1, 3, 4)
        result = run(rng.normal((4,)), forest)
        npt.assert_array_equal(result["forest_probs"], result["probs"][0])

    def test_empty_forest_rejected(self, tmp_path):
        # A forest of zero trees is refused with its config, in a model
        # file too.
        with pytest.raises(ConfigError, match="n_tree must be >= 1"):
            TrainConfig(n_tree=0)
        path = tmp_path / "model.json"
        save_model(path, init_model(TrainConfig(n_tree=1, n_depth=2), 3, Rng(0)))
        rewrite_model_body(path, lambda body: body["config"].update(n_tree=0))
        with pytest.raises(ModelIntegrityError, match="n_tree must be >= 1"):
            load_model(path)

    def test_ensemble_bound(self, rng):
        forest = random_forest(rng, 5, 2, 3, scale=2.0)
        for _ in range(20):
            result = run(rng.normal((3,)), forest)
            per_tree = result["probs"][:, 0]
            out = result["forest_probs"][0]
            assert np.all(out >= per_tree.min(axis=0) - 1e-12)
            assert np.all(out <= per_tree.max(axis=0) + 1e-12)

    def test_mismatched_trees_rejected(self, tmp_path):
        # Leaves for depth 3 behind depth-2 routing, and a third tree's
        # leaves in a two-tree model file.
        model = init_model(TrainConfig(n_tree=2, n_depth=2), 3, Rng(0))
        with pytest.raises(ModelIntegrityError,
                           match=r"tree\.1\.leaf_logits has shape \[8, 2\]; "
                                 r".* needs \[4, 2\]"):
            load_with_tensor_shape(tmp_path, model, "tree.1.leaf_logits", (8, 2))
        with pytest.raises(ModelIntegrityError,
                           match=r"holds an extra tensor tree\.2\.leaf_logits"):
            load_with_tensor_shape(tmp_path, model, "tree.2.leaf_logits", (4, 2))


class TestStackedForestPass:
    # Each tree's slice of the stacked pass must be the single-tree pass,
    # bit for bit, however many trees are routed together.
    @pytest.mark.parametrize("n_trees", [1, 2, 5, 10])
    def test_tree_slices_equal_single_tree_passes(self, rng, n_trees):
        forest = random_forest(rng, n_trees, 3, 4, scale=2.0)
        # Rows whose 5, 2 or 1 trees fill CHUNK_CELLS (15 reach cells per
        # tree at depth 3).
        for rows in (CHUNK_CELLS // (15 * 5), CHUNK_CELLS // (15 * 2), CHUNK_CELLS // 15):
            XT = rng.normal((rows, 4))
            y = (rng.normal((rows,)) > 0).astype(np.int64)
            g_py = rng.normal((n_trees, rows))
            cache = forest_forward(XT, forest)
            g_routing, _ = forest_backward(XT, y, g_py, cache, forest)
            g_leaf = leaf_gradient(y, g_py, cache["mu"], cache["leaf_dists"])
            for k in range(n_trees):
                single = ForestParams(forest.routing[k:k + 1], forest.leaf_logits[k:k + 1])
                one = forest_forward(XT, single)
                for name in ("decisions", "reach", "probs"):
                    npt.assert_array_equal(cache[name][k].view(np.int64),
                                           one[name][0].view(np.int64))
                one_g_routing, _ = forest_backward(XT, y, g_py[k:k + 1], one, single)
                npt.assert_array_equal(g_routing[k].view(np.int64),
                                       one_g_routing[0].view(np.int64))
                one_g_leaf = leaf_gradient(y, g_py[k:k + 1], one["mu"], one["leaf_dists"])
                npt.assert_array_equal(g_leaf[k].view(np.int64),
                                       one_g_leaf[0].view(np.int64))

    # leaf_reach routes with the same gemm per tree and runs the elementwise
    # sigmoid and reach recursion in row blocks, so it must give
    # forest_forward's leaf columns bit for bit on either side of a block edge.
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_leaf_reach_equals_forward_leaf_columns(self, rng, depth):
        forest = random_forest(rng, 5, depth, 4, scale=2.0)
        cells = 2 ** (depth + 1) - 1
        block = CHUNK_CELLS // cells  # rows per block
        spread = [CHUNK_CELLS // (cells * trees) for trees in (5, 2, 1)]
        for rows in spread + [1, block - 1, block, block + 1, 2 * block + 3]:
            XT = rng.normal((rows, 4))
            reach = forest_forward(XT, forest)["reach"]
            npt.assert_array_equal(
                forest_leaf_reach(XT, forest).view(np.int64),
                reach[:, :, forest.n_decision_nodes:].view(np.int64))

    # leaf_reach reuses one routing buffer and one block of scratch for every
    # tree, so beyond mu its peak does not grow with the tree count. The
    # slack covers loop objects such as views and ints; one tree's routing
    # output alone is 11 KB at depth 3 and 200 rows.
    @pytest.mark.parametrize("depth, rows", [(3, 200), (6, 2000)])
    def test_leaf_reach_scratch_independent_of_tree_count(self, rng, depth, rows):
        XT = rng.normal((rows, 4))

        def overhead(forest):
            tracemalloc.start()
            try:
                mu = forest_leaf_reach(XT, forest)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - mu.nbytes

        peaks = []
        for n_trees in (2, 10):
            forest = random_forest(rng, n_trees, depth, 4)
            forest_leaf_reach(XT, forest)  # builds the cached level slices
            peaks.append(overhead(forest))
        assert abs(peaks[1] - peaks[0]) < 1024, peaks

    @pytest.mark.parametrize("rows", [1, 515, 516, 517, 1035])
    def test_predict_and_joint_loss_equal_backprop_forward(self, rng, rows):
        # Depth 6 holds 127 reach cells per row, so 516 rows fill one block.
        model = init_model(TrainConfig(n_tree=3, n_depth=6, seed=4), 5, Rng(4))
        X = rng.normal((rows, 5))
        y = (rng.normal((rows,)) > 0).astype(np.int64)
        cache = backprop_forward(X, model)
        _, probs = predict(model, X)
        npt.assert_array_equal(probs.view(np.int64),
                               cache["forest"]["forest_probs"].view(np.int64))
        expected = _loss_terms(X, y, cache["x_c"], cache["forest"]["probs"])
        assert np.float64(joint_loss(X, y, model)).view(np.int64) == \
            np.float64(expected).view(np.int64)


class TestRowMajorOracle:
    """The node-major kernels against the row-major ones they replaced
    (``helpers.reference_forest_forward`` and ``reference_forest_backward``),
    bit for bit."""

    @staticmethod
    def assert_bits_equal(actual, expected):
        assert actual.shape == expected.shape
        npt.assert_array_equal(actual.view(np.int64), expected.view(np.int64))

    def check(self, rng, n_trees, depth, rows):
        forest = random_forest(rng, n_trees, depth, 4, scale=2.0)
        XT = rng.normal((rows, 4))
        y = (rng.normal((rows,)) > 0).astype(np.int64)
        g_py = rng.normal((n_trees, rows))
        cache = forest_forward(XT, forest)
        expected = reference_forest_forward(XT, forest)
        for name in ("decisions", "reach", "mu", "probs"):
            self.assert_bits_equal(cache[name], expected[name])
        self.assert_bits_equal(forest_leaf_reach(XT, forest), expected["mu"])
        for got, want in zip(forest_backward(XT, y, g_py, cache, forest),
                             reference_forest_backward(XT, y, g_py, expected, forest)):
            self.assert_bits_equal(got, want)

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("n_trees", [1, 2, 5, 10])
    def test_kernels_equal_row_major_reference(self, rng, n_trees, depth):
        for rows in (1, 7, 150):
            self.check(rng, n_trees, depth, rows)

    def test_leaf_reach_blocks_equal_row_major_reference(self, rng):
        # Depth 6 holds 127 reach cells per row, so 516 rows fill one block
        # and 1100 rows take three.
        self.check(rng, 10, 6, 1100)


def bits(a):
    return np.asarray(a).view(np.int64)


class HalfFailed(Exception):
    pass


class TestTreeHalves:
    """The mini-batch forest pass splits its trees in two halves on two
    threads from 2 * CHUNK_CELLS reach cells on; every bit must be that of
    one pass over all trees."""

    @staticmethod
    def count_handoffs(monkeypatch):
        calls = []

        def counted(worker, caller):
            calls.append(threading.current_thread())
            return beside(worker, caller)
        monkeypatch.setattr(training, "beside", counted)
        return calls

    @staticmethod
    def record_halves(monkeypatch):
        """Each half's tree slice, and whether the calling thread ran it."""
        seen, original = [], training.by_tree_halves

        def recorded(forest, n_rows, body):
            caller = threading.current_thread()

            def seen_body(trees):
                seen.append((trees, threading.current_thread() is caller))
                body(trees)
            return original(forest, n_rows, seen_body)
        monkeypatch.setattr(training, "by_tree_halves", recorded)
        return seen

    @staticmethod
    def split_rows(n_trees, depth=3):
        """The first row count whose pass splits (2 * CHUNK_CELLS reach
        cells, 2^(depth+1) - 1 per tree and row)."""
        return -(-2 * CHUNK_CELLS // ((2 ** (depth + 1) - 1) * n_trees))

    @staticmethod
    def one_pass(XT, y, forest):
        """The routing gradient and dL/dXT of one pass over all trees."""
        cache = forest_forward(XT, forest)
        g_py = _tree_loss_grad(cache["probs"], y, forest.n_trees)
        g_routing, g_terms = forest_backward(XT, y, g_py, cache, forest)
        return g_routing, np.cumsum(g_terms, axis=0)[-1]

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 5, 10])
    def test_halves_equal_one_pass_over_all_trees(self, rng, monkeypatch, n_trees):
        forest = random_forest(rng, n_trees, 3, 4, scale=2.0)
        calls = self.count_handoffs(monkeypatch)
        seen = self.record_halves(monkeypatch)
        # The first row count stays below the split, the second reaches it.
        split_rows = self.split_rows(n_trees)
        for rows in (split_rows - 1, split_rows):
            XT = rng.normal((rows, 4))
            y = (rng.normal((rows,)) > 0).astype(np.int64)
            g_routing, g_xt = self.one_pass(XT, y, forest)

            del calls[:], seen[:]
            halved_g_routing = np.empty_like(forest.routing)
            halved_g_xt = _forest_pass(XT, y, forest, halved_g_routing)
            # One handoff for the pass, or none.
            split = n_trees >= 2 and rows == split_rows
            assert len(calls) == (1 if split else 0), (rows, calls)
            mid = (n_trees + 1) // 2
            # Trees [0, ceil(K/2)) on the calling thread, the rest beside it.
            assert sorted(seen, key=lambda half: half[0].start) == (
                [(slice(0, mid), True), (slice(mid, n_trees), False)] if split
                else [(slice(0, n_trees), True)])

            npt.assert_array_equal(bits(halved_g_routing), bits(g_routing))
            npt.assert_array_equal(bits(halved_g_xt), bits(g_xt))

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 5, 10])
    def test_gradients_leaf_blocks_equal_one_pass_leaf_gradient(self, monkeypatch,
                                                                n_trees):
        # gradients takes its leaf blocks from the full-set forward's leaf
        # reach, not from the mini-batch pass's per-half caches: on both
        # sides of the tree split, and over more than two row blocks, they
        # must be forest.leaf_gradient on one forest_forward over all trees.
        model = init_model(TrainConfig(n_tree=n_trees, n_depth=3, seed=n_trees), 5,
                           Rng(n_trees))
        calls = self.count_handoffs(monkeypatch)
        split_rows = self.split_rows(n_trees)
        for rows in (split_rows - 1, split_rows, 2 * ROW_BLOCK + 3):
            data = Rng(rows)
            X = data.normal((rows, 5))
            y = (data.normal((rows,)) > 0).astype(np.int64)
            XT = sigmoid_chain(sigmoid_chain(X, model.autoencoder.encoder)[-1],
                               model.forest.fc)[-1]
            cache = forest_forward(XT, model.forest)
            g_py = _tree_loss_grad(cache["probs"], y, n_trees)
            want = leaf_gradient(y, g_py, cache["mu"], cache["leaf_dists"])

            del calls[:]
            grads = training.gradients(X, y, model)
            # One handoff for the tree split, one for two row blocks or more.
            split = n_trees >= 2 and rows >= split_rows
            assert len(calls) == split + (rows >= 2 * ROW_BLOCK), (rows, calls)
            for k in range(n_trees):
                npt.assert_array_equal(bits(grads[f"tree.{k}.leaf_logits"]),
                                       bits(want[k]))

    def test_halves_equal_under_frequent_thread_switches(self, rng):
        # The halves write disjoint slices of shared outputs; with a switch
        # interval of a microsecond the threads interleave often, and no bit
        # may differ from one pass over all trees.
        forest = random_forest(rng, 5, 3, 4, scale=2.0)
        rows = self.split_rows(5)
        XT = rng.normal((rows, 4))
        y = (rng.normal((rows,)) > 0).astype(np.int64)
        want_g_routing, want_g_xt = self.one_pass(XT, y, forest)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g_routing = np.empty_like(forest.routing)
                g_xt = _forest_pass(XT, y, forest, g_routing)
                npt.assert_array_equal(bits(g_routing), bits(want_g_routing))
                npt.assert_array_equal(bits(g_xt), bits(want_g_xt))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "caller"])
    def test_exception_on_either_half_reaches_the_caller(self, rng, on_worker):
        forest = random_forest(rng, 4, 3, 4)
        caller, ran = threading.current_thread(), []

        def body(trees):
            ran.append(trees)
            if (threading.current_thread() is not caller) == on_worker:
                raise HalfFailed(f"trees {trees.start}-{trees.stop - 1}")

        before = threading.active_count()
        with pytest.raises(HalfFailed, match="trees 2-3" if on_worker else "trees 0-1"):
            by_tree_halves(forest, CHUNK_CELLS, body)
        assert threading.active_count() == before
        assert sorted(trees.start for trees in ran) == [0, 2]
        # The next pass runs both halves again.
        del ran[:]
        assert by_tree_halves(forest, CHUNK_CELLS, ran.append) is None
        assert sorted(ran, key=lambda trees: trees.start) == [slice(0, 2), slice(2, 4)]
        assert threading.active_count() == before

    def test_predict_row_blocks_route_halves_on_their_own_thread(self, monkeypatch):
        # Two row blocks of ROW_BLOCK rows on two threads; routing either
        # block starts no third thread.
        model = init_model(TrainConfig(n_tree=4, n_depth=3, seed=6), 7, Rng(6))
        X = Rng(7).normal((2 * ROW_BLOCK, 7))
        counts, threads, original = [], set(), forest_module._route

        def route(*args):
            counts.append(threading.active_count())
            threads.add(threading.current_thread())
            return original(*args)

        before = threading.active_count()
        _, probs = predict(model, X)
        monkeypatch.setattr(forest_module, "_route", route)
        _, routed = predict(model, X)
        npt.assert_array_equal(bits(routed), bits(probs))
        # The worker may find no block left if the caller took both.
        assert len(threads) <= 2 and max(counts) <= before + 1
        assert threading.active_count() == before


class TestHardRoutingEquivalence:
    def test_scaled_weights_match_deterministic_follower(self, rng):
        for _ in range(30):
            forest = random_forest(rng, 3, 3, 6)
            forest.routing[...] *= 1e6
            x = rng.normal((6,))
            soft = run(x, forest)["forest_probs"][0]
            hard = follow_forest(x, forest)
            npt.assert_allclose(soft, hard, atol=1e-6)


class TestPredictLabel:
    # Labels come from training.predict, the path the predict command runs.
    @staticmethod
    def model_with_leaves(leaf_row):
        model = init_model(TrainConfig(n_tree=2, n_depth=1, seed=1), 3, Rng(1))
        model.forest.leaf_logits[...] = np.log(leaf_row)
        return model

    def test_clear_winner(self):
        X = Rng(2).normal((4, 3))
        labels, _ = predict(self.model_with_leaves([0.7, 0.3]), X)
        npt.assert_array_equal(labels, 0)
        labels, _ = predict(self.model_with_leaves([0.3, 0.7]), X)
        npt.assert_array_equal(labels, 1)

    def test_tie_breaks_low(self):
        model = self.model_with_leaves([0.5, 0.5])
        model.forest.routing[...] = 0.0  # every reach exactly 0.5
        labels, probs = predict(model, Rng(3).normal((4, 3)))
        npt.assert_array_equal(probs, 0.5)
        npt.assert_array_equal(labels, 0)


class TestTreeParamsValidation:
    # Per-tree tensor shapes of a model file: (2^D - 1, xt_dim) routing and
    # (2^D, 2) leaf logits for the config's depth D, or load_model refuses.
    MODEL = init_model(TrainConfig(n_tree=1, n_depth=2, fc_width=4), 3, Rng(0))

    def test_wrong_node_count_rejected(self, tmp_path):
        with pytest.raises(ModelIntegrityError,
                           match=r"tree\.0\.routing has shape \[2, 4\]; "
                                 r".* needs \[3, 4\]"):
            load_with_tensor_shape(tmp_path, self.MODEL, "tree.0.routing", (2, 4))

    def test_wrong_leaf_count_rejected(self, tmp_path):
        with pytest.raises(ModelIntegrityError,
                           match=r"tree\.0\.leaf_logits has shape \[3, 2\]; "
                                 r".* needs \[4, 2\]"):
            load_with_tensor_shape(tmp_path, self.MODEL, "tree.0.leaf_logits", (3, 2))

    def test_leaf_distributions_are_stochastic(self, rng):
        forest = random_forest(rng, 2, 3, 4, scale=5.0)
        dists = forest.leaf_distributions()
        assert dists.shape == (2, 8, 2)
        npt.assert_allclose(dists.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(dists >= 0)


class TestForestShape:
    def test_depth_read_from_leaf_count(self, rng):
        for depth in (1, 2, 5):
            forest = random_forest(rng, 3, depth, 4)
            assert forest.depth == depth
            assert (forest.n_trees, *forest.leaf_logits.shape[1:]) == (3, 2 ** depth, 2)
            assert forest.routing.shape[2] == 4

    def test_fc_output_must_match_tree_input(self, tmp_path):
        # The routing reads 3 tree-input columns; a file whose fc layer
        # writes 2 is refused.
        model = init_model(TrainConfig(n_tree=1, n_depth=1, fc_width=3), 4, Rng(0))
        with pytest.raises(ModelIntegrityError,
                           match=r"fc\.0\.W has shape \[2, 2\]; .* needs \[3, 2\]"):
            load_with_tensor_shape(tmp_path, model, "fc.0.W", (2, 2))
