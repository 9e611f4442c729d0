import math
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from spamforest.numerics import (Layer, Rng, beside, chi2_sf, entropy,
                                 norm_sf, sigmoid, sigmoid_chain, softmax)


class TestAffine:
    # The affine step of a layer, x @ W.T + b, as sigmoid_chain takes it
    # before the sigmoid.
    @staticmethod
    def layer(x, W, b):
        W, b = np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64)
        return sigmoid_chain(x, [Layer(W, b)])[-1]

    def test_identity(self):
        npt.assert_array_equal(self.layer([3, 4], np.eye(2), [0, 0]),
                               sigmoid(np.array([3.0, 4.0])))

    def test_zero_weights(self):
        npt.assert_array_equal(self.layer([9, -3, 2], np.zeros((2, 3)), [7, -1]),
                               sigmoid(np.array([7.0, -1.0])))

    def test_hand_case(self):
        # [[1,2],[3,4]] @ [1,1] + [1,1] = [1+2+1, 3+4+1]
        npt.assert_array_equal(self.layer([1, 1], [[1, 2], [3, 4]], [1, 1]),
                               sigmoid(np.array([4.0, 8.0])))

    def test_batch_rows(self):
        out = self.layer(np.array([[1.0, 1.0], [2.0, 0.0]]), [[1, 2], [3, 4]], [1, 1])
        npt.assert_array_equal(out, sigmoid(np.array([[4.0, 8.0], [3.0, 7.0]])))

    def test_linearity(self, rng):
        # The log-odds of a layer's output are its affine step.
        def log_odds(a):
            return np.log(a) - np.log1p(-a)

        W = rng.normal((3, 4))
        b = rng.normal((3,))
        for _ in range(20):
            x, y = rng.normal((4,)), rng.normal((4,))
            lhs = log_odds(self.layer(x + y, W, b))
            rhs = log_odds(self.layer(x, W, b)) + log_odds(self.layer(y, W, b)) - b
            npt.assert_allclose(lhs, rhs, atol=1e-9)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_closed_form(self):
        assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("x", [-2.0, 0.5, 10.0])
    def test_symmetry(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_extreme_inputs_saturate_without_overflow(self):
        assert sigmoid(1e6) == 1.0
        assert sigmoid(-1e6) == 0.0

    def test_scalar_in_scalar_out(self):
        out = sigmoid(1.2)
        assert out.shape == () and out.dtype == np.float64

    def test_list_input(self):
        npt.assert_array_equal(sigmoid([0.0, 0.0]), [0.5, 0.5])

    def test_array_shape_preserved(self):
        out = sigmoid(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        npt.assert_array_equal(out, 0.5)

    SPECIAL = [0.0, -0.0, 37.0, -37.0, 745.0, -745.0, 1e308, -1e308,
               np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2e-308, -2.2e-308, 1e-310, -1e-310]

    @staticmethod
    def two_branch(x):
        """Reference: each sign evaluated on its own, gathered and scattered
        through a boolean mask."""
        arr = np.asarray(x, dtype=np.float64)
        out = np.empty_like(arr)
        pos = arr >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
        ex = np.exp(arr[~pos])
        out[~pos] = ex / (1.0 + ex)
        if arr.ndim == 0:
            return float(out)
        return out

    @staticmethod
    def bits(v):
        return np.asarray(v, dtype=np.float64).view(np.int64)

    def test_bitwise_equal_to_two_branch_form(self, rng):
        values = np.concatenate([np.array(self.SPECIAL),
                                 rng.normal((997,)) * 40.0,
                                 rng.normal((200,))])
        grid = values.reshape(45, 27)
        for arr in (values, grid, grid.T):
            npt.assert_array_equal(self.bits(sigmoid(arr)),
                                   self.bits(self.two_branch(arr)))
            out = np.empty_like(arr)
            assert sigmoid(arr, out=out) is out
            npt.assert_array_equal(self.bits(out), self.bits(self.two_branch(arr)))
        for v in self.SPECIAL:
            for x in (v, np.float64(v), np.array(v)):
                got = sigmoid(x)
                assert got.shape == ()
                assert self.bits(got) == self.bits(self.two_branch(x))


class TestSoftmax:
    def test_uniform(self):
        npt.assert_allclose(softmax([4.2, 4.2, 4.2]), [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        npt.assert_allclose(softmax([0.0, math.log(3)]), [0.25, 0.75],
                            atol=1e-15)

    def test_shift_invariance(self):
        v = np.array([1.0, -2.0, 0.3])
        npt.assert_allclose(softmax(v + 100.0), softmax(v), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_rows_of_matrix(self):
        out = softmax(np.array([[0.0, 0.0], [0.0, math.log(3)]]))
        npt.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    @given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1,
                    max_size=20))
    def test_sums_to_one(self, values):
        # Components can saturate to exactly 0.0 once the spread passes the
        # float64 underflow threshold; the sum contract is what must hold.
        out = softmax(values)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)


class TestEntropy:
    def test_uniform_maximum(self):
        assert entropy([0.2] * 5) == pytest.approx(math.log(5), abs=1e-12)

    def test_degenerate(self):
        assert entropy([1, 0, 0, 0, 0]) == 0.0

    def test_hand_case(self):
        # 0.5*ln2 + 2 * 0.25*ln4 = 1.5*ln2
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2),
                                                           abs=1e-15)

    def test_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            entropy([0.5, 0.4])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy([1.5, -0.5])

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2,
                    max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_invariant_exactly(self, weights, shuffler):
        p = np.array(weights) / np.sum(weights)
        q = list(p)
        shuffler.shuffle(q)
        assert entropy(p) == entropy(np.array(q))

    def test_bounded_by_log_length(self, rng):
        for _ in range(50):
            raw = np.abs(rng.normal((6,))) + 1e-9
            p = raw / raw.sum()
            assert 0.0 <= entropy(p) <= math.log(6) + 1e-12


class TestRng:
    def test_deterministic_per_seed(self):
        a = Rng(99).normal((3, 4), 0.5)
        b = Rng(99).normal((3, 4), 0.5)
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).normal((8,), 1.0)
        b = Rng(2).normal((8,), 1.0)
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        samples = Rng(5).normal((10_000,), 0.1)
        assert abs(samples.mean()) < 0.01

    def test_shape_contract(self):
        out = Rng(0).normal((2, 3), 0.1)
        assert out.shape == (2, 3) and out.size == 6

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Rng(0).normal((2,), 0.0)
        with pytest.raises(ValueError):
            Rng(0).normal((2,), -1.0)

    def test_permutation_is_permutation(self):
        perm = Rng(3).permutation(100)
        assert sorted(perm) == list(range(100))

    def test_subsample_deterministic_and_ordered(self):
        items = list(range(30))
        a = Rng(4).subsample(items, 10)
        b = Rng(4).subsample(items, 10)
        assert a == b
        assert a == sorted(a)
        assert len(set(a)) == 10


class TestSpecialFunctions:
    def test_norm_sf_at_zero(self):
        assert norm_sf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_norm_sf_symmetry(self):
        for z in (0.3, 1.0, 2.5):
            assert norm_sf(z) + norm_sf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_chi2_sf_closed_form_df1(self):
        # df=1: survival = erfc(sqrt(x/2))
        for x in (0.5, 1.0, 4.0, 20.0, 40.0):
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)),
                                                  rel=1e-12)

    def test_chi2_sf_closed_form_df2(self):
        # df=2: survival = exp(-x/2)
        for x in (0.1, 1.0, 5.0, 30.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_chi2_sf_closed_form_df4(self):
        # df=4: survival = exp(-x/2) * (1 + x/2)
        for x in (0.5, 2.0, 10.0):
            assert chi2_sf(x, 4) == pytest.approx(
                math.exp(-x / 2) * (1 + x / 2), rel=1e-12)

    def test_chi2_sf_closed_form_df3(self):
        # df=3: survival = erfc(sqrt(y)) + 2 sqrt(y/pi) e^-y, y = x/2
        for x in (0.1, 1.0, 7.0, 40.0, 200.0):
            y = x / 2
            assert chi2_sf(x, 3) == pytest.approx(
                math.erfc(math.sqrt(y)) + 2 * math.sqrt(y / math.pi) * math.exp(-y),
                rel=1e-12)

    def test_chi2_sf_closed_form_df5(self):
        # df=5: the df=3 form plus (4/3) y^(3/2) e^-y / sqrt(pi)
        for x in (0.1, 1.0, 7.0, 40.0, 200.0):
            y = x / 2
            assert chi2_sf(x, 5) == pytest.approx(
                math.erfc(math.sqrt(y)) + 2 * math.sqrt(y / math.pi) * math.exp(-y)
                + 4 / 3 * y ** 1.5 * math.exp(-y) / math.sqrt(math.pi),
                rel=1e-12)

    @pytest.mark.parametrize("x, df, expected", [
        # scipy.stats.chi2.sf(x, df), scipy 1.17.1, computed once; scipy is
        # not a dependency of the package or its tests.
        (5.0, 30, 0.9999999308468613),
        (30.0, 30, 0.4656537089440098),
        (60.0, 30, 0.0009206823961486636),
        (150.0, 30, 6.706952523937869e-18),
        (50.0, 101, 0.9999951615276641),
        (101.0, 101, 0.48128504536921946),
        (160.0, 101, 0.00016827733297128617),
        (400.0, 101, 3.4052257139217733e-37),
    ])
    def test_chi2_sf_large_df_matches_reference(self, x, df, expected):
        assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-11)

    def test_chi2_sf_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert 0.0 <= chi2_sf(1000.0, 3) < 1e-100


class Failed(Exception):
    pass


class TestBeside:
    """beside runs one function on a worker thread and one on the caller's,
    and no thread outlives it."""

    def test_returns_both_results_from_two_threads(self):
        caller, before = threading.current_thread(), threading.active_count()
        worker_thread, mine = beside(threading.current_thread,
                                     threading.current_thread)
        assert mine is caller and worker_thread is not caller
        assert not worker_thread.is_alive()
        assert threading.active_count() == before

    def test_worker_exception_raised_on_the_caller_after_the_caller_ran(self):
        ran, before = [], threading.active_count()

        def fail():
            raise Failed("worker")

        with pytest.raises(Failed, match="worker"):
            beside(fail, lambda: ran.append("caller"))
        assert ran == ["caller"]
        assert threading.active_count() == before

    def test_caller_exception_waits_for_the_worker(self):
        done, release = [], threading.Event()

        def work():
            assert release.wait(timeout=60)
            done.append("worker")

        def fail():
            release.set()
            raise Failed("caller")

        before = threading.active_count()
        with pytest.raises(Failed, match="caller"):
            beside(work, fail)
        assert done == ["worker"]
        assert threading.active_count() == before

    def test_caller_exception_wins_over_the_worker_exception(self):
        def fail(where):
            def raise_it():
                raise Failed(where)
            return raise_it

        with pytest.raises(Failed, match="caller"):
            beside(fail("worker"), fail("caller"))
