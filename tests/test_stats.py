import math
import os
from pathlib import Path
from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import rank_sum_brute_force, signed_rank_brute_force
from spamforest.errors import DegenerateInputError
from spamforest.features import FeatureMatrix
from spamforest.stats import (_midranks, chi_squared_test, rank_sum_test,
                              screen_features, signed_rank_test,
                              write_histograms, write_screening_report)


def loop_midranks(values):
    """The per-element mid-rank loop: a run of equal values in stable
    sorted order shares the mean of its 1-based positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


tie_heavy_arrays = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.nan,
                               math.inf, -math.inf]),
              st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1, max_size=40,
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestMidranks:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_arrays)
    def test_matches_loop_bitwise(self, values):
        np.testing.assert_array_equal(_midranks(values).view(np.int64),
                                      loop_midranks(values).view(np.int64))

    @pytest.mark.parametrize("values", [
        [7.0], [4.0] * 9, [0.0, -0.0, 0.0, -0.0], [math.nan] * 3,
        [1.0, math.nan, 1.0, math.nan, -0.0, 0.0],
    ])
    def test_edge_cases_match_loop_bitwise(self, values):
        values = np.array(values, dtype=np.float64)
        np.testing.assert_array_equal(_midranks(values).view(np.int64),
                                      loop_midranks(values).view(np.int64))

    def test_nans_are_not_merged(self):
        # Each NaN is its own group, unlike np.unique, which merges them.
        np.testing.assert_array_equal(_midranks(np.array([math.nan, 1.0, math.nan])),
                                      [2.0, 1.0, 3.0])


class TestRankSumExact:
    def test_identical_groups(self):
        r = rank_sum_test([1, 2, 3], [1, 2, 3])
        assert r.p_two_sided == 1.0

    def test_disjoint_small_groups(self):
        # All C(4,2) = 6 rank splits; only {1,2} gives a sum this low.
        r = rank_sum_test([1, 2], [3, 4])
        assert r.p_less == pytest.approx(1 / 6)
        assert r.method == "rank-sum-exact"

    def test_swapping_groups_swaps_tails(self):
        a, b = [1.0, 5.0, 2.0], [4.0, 4.0, 9.0, 7.0]
        r1 = rank_sum_test(a, b)
        r2 = rank_sum_test(b, a)
        assert r1.p_less == r2.p_greater
        assert r1.p_greater == r2.p_less

    def test_two_sided_is_doubled_min_tail(self):
        r = rank_sum_test([1, 2, 8], [3, 9, 10, 11])
        assert r.p_two_sided == min(1.0, 2 * min(r.p_less, r.p_greater))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([], [1.0])

    def test_matches_brute_force_all_shapes_to_n8(self):
        # Every split of n <= 8 between the groups, on data with ties.
        rng = np.random.default_rng(60)
        for n in range(2, 9):
            for n_a in range(1, n):
                pool = rng.integers(0, 4, size=n).astype(float)
                a, b = list(pool[:n_a]), list(pool[n_a:])
                mine = rank_sum_test(a, b)
                p_less, p_greater, p_two = rank_sum_brute_force(a, b)
                assert mine.p_less == p_less, (a, b)
                assert mine.p_greater == p_greater, (a, b)
                assert mine.p_two_sided == p_two, (a, b)


class TestRankSumNormal:
    def test_kicks_in_above_exact_limit(self):
        a = list(range(10))
        b = list(range(5, 18))
        r = rank_sum_test(a, b)
        assert r.method == "rank-sum-normal"

    def test_obvious_shift_detected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, 40)
        b = rng.normal(2, 1, 45)
        r = rank_sum_test(a, b)
        assert r.p_less < 1e-6
        assert r.significant_at_05

    def test_all_tied_pool_degenerates(self):
        r = rank_sum_test([3.0] * 10, [3.0] * 10)
        assert r.p_two_sided == 1.0

    def test_tails_follow_tie_corrected_formula(self):
        # n = 17 > EXACT_LIMIT, with tie groups of sizes 2, 4, 3, 2 and 2.
        a = [1, 2, 2, 3, 3, 3, 5, 8]
        b = [3, 4, 4, 4, 5, 6, 7, 7, 9]
        n_a, n_b = len(a), len(b)
        n = n_a + n_b
        w = loop_midranks(np.array(a + b, dtype=np.float64))[:n_a].sum()
        _, t = np.unique(a + b, return_counts=True)
        mean = n_a * (n + 1) / 2
        var = n_a * n_b / 12 * ((n + 1) - (t ** 3 - t).sum() / (n * (n - 1)))
        sd = math.sqrt(var)

        def upper(z):  # P(Z > z) for a standard normal Z
            return 0.5 * math.erfc(z / math.sqrt(2))

        r = rank_sum_test(a, b)
        assert r.method == "rank-sum-normal" and r.statistic == w
        assert r.p_greater == pytest.approx(upper((w - 0.5 - mean) / sd), rel=1e-12)
        assert r.p_less == pytest.approx(upper((mean - w - 0.5) / sd), rel=1e-12)
        assert r.p_two_sided == pytest.approx(
            2 * upper((abs(w - mean) - 0.5) / sd), rel=1e-12)
        assert r.p_less < 0.05 < r.p_greater

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_p_values_in_unit_interval(self, a, b):
        r = rank_sum_test(a, b)
        for p in (r.p_two_sided, r.p_less, r.p_greater):
            assert 0.0 <= p <= 1.0


class TestSignedRankExact:
    def test_all_positive_diffs(self):
        # One of 2^3 sign patterns reaches the full sum of ranks.
        r = signed_rank_test([1, 2, 3])
        assert r.p_greater == pytest.approx(1 / 8)

    def test_symmetric_pair(self):
        r = signed_rank_test([-1, 1])
        assert r.p_two_sided == 1.0

    def test_negating_diffs_swaps_tails(self):
        diffs = [0.5, -2.0, 3.0, 1.0]
        r1 = signed_rank_test(diffs)
        r2 = signed_rank_test([-d for d in diffs])
        assert r1.p_less == r2.p_greater
        assert r1.p_greater == r2.p_less

    def test_zeros_removed_before_ranking(self):
        assert signed_rank_test([0, 0, 1, 2, 3]).p_greater == \
            signed_rank_test([1, 2, 3]).p_greater

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            signed_rank_test([0.0, 0.0])

    def test_matches_brute_force_to_n8(self):
        rng = np.random.default_rng(61)
        for n in range(1, 9):
            diffs = list(rng.integers(-3, 4, size=n).astype(float))
            if all(d == 0 for d in diffs):
                diffs[0] = 1.0
            mine = signed_rank_test(diffs)
            p_less, p_greater, p_two = signed_rank_brute_force(diffs)
            assert mine.p_less == p_less, diffs
            assert mine.p_greater == p_greater, diffs
            assert mine.p_two_sided == p_two, diffs


class TestSignedRankNormal:
    def test_large_sample_uses_normal(self):
        diffs = list(np.linspace(0.5, 10, 30))
        r = signed_rank_test(diffs)
        assert r.method == "signed-rank-normal"
        assert r.p_greater < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-20, 20).filter(lambda d: d != 0),
                    min_size=1, max_size=40))
    def test_p_values_in_unit_interval(self, diffs):
        r = signed_rank_test(diffs)
        for p in (r.p_two_sided, r.p_less, r.p_greater):
            assert 0.0 <= p <= 1.0


class TestChiSquared:
    def test_perfect_independence(self):
        r = chi_squared_test([[10, 10], [10, 10]])
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0

    def test_diagonal_table(self):
        # Expected 10 in every cell: 4 * (20-10)^2/10 = 40, df = 1.
        r = chi_squared_test([[20, 0], [0, 20]])
        assert r.statistic == 40.0
        assert "df=1" in r.note
        assert r.p_two_sided == pytest.approx(math.erfc(math.sqrt(20)), rel=1e-12)

    def test_row_permutation_invariant(self):
        t = [[5, 9], [12, 3], [7, 7]]
        r1 = chi_squared_test(t)
        r2 = chi_squared_test([t[2], t[0], t[1]])
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)

    def test_transposition_invariant(self):
        t = np.array([[5, 9, 2], [12, 3, 8]])
        r1 = chi_squared_test(t)
        r2 = chi_squared_test(t.T)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)

    def test_zero_marginal_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="dropping"):
            r = chi_squared_test([[5, 9], [0, 0], [12, 3]])
        assert r.statistic == pytest.approx(
            chi_squared_test([[5, 9], [12, 3]]).statistic)

    def test_collapse_below_2x2_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateInputError):
                chi_squared_test([[5, 0], [9, 0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_squared_test([[1, -2], [3, 4]])

    def test_one_sided_p_not_applicable(self):
        r = chi_squared_test([[4, 6], [8, 2]])
        assert r.p_less is None and r.p_greater is None


def make_matrix(columns: dict, kinds: dict | None = None):
    names = list(columns)
    values = np.column_stack([np.asarray(columns[n], dtype=float)
                              for n in names])
    kinds = kinds or {}
    return FeatureMatrix(values, names, ["rating"] * len(names),
                         [kinds.get(n, "continuous") for n in names])


class TestScreenFeatures:
    def test_feature_equal_across_classes_not_significant(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        matrix = make_matrix({"f": [1, 2, 3, 1, 2, 3]})
        (r,) = screen_features(matrix, labels)
        assert r.p_two_sided == 1.0
        assert not r.significant_at_05

    def test_label_equal_categorical_feature_significant(self):
        labels = np.array([0] * 20 + [1] * 20)
        matrix = make_matrix({"f": labels.astype(float)},
                             kinds={"f": "categorical"})
        (r,) = screen_features(matrix, labels)
        # 2x2 diagonal table of 20s: chi-squared 40, p ~ 2.5e-10
        assert r.statistic == 40.0
        assert r.p_two_sided < 1e-9
        assert r.significant_at_05

    def test_constant_feature_degenerate(self):
        labels = np.array([0, 1, 0, 1])
        matrix = make_matrix({"f": [2.0, 2.0, 2.0, 2.0]})
        (r,) = screen_features(matrix, labels)
        assert r.p_two_sided == 1.0
        assert "degenerate" in r.note

    def test_row_count_matches_feature_count(self, rng):
        labels = (rng.normal((30,)) > 0).astype(int)
        matrix = make_matrix({
            "a": rng.normal((30,)),
            "b": rng.normal((30,)),
            "c": (rng.normal((30,)) > 0).astype(float),
        }, kinds={"c": "categorical"})
        results = screen_features(matrix, labels)
        assert len(results) == 3
        assert [r.feature_name for r in results] == ["a", "b", "c"]

    def test_label_shape_checked(self):
        matrix = make_matrix({"f": [1.0, 2.0]})
        with pytest.raises(ValueError):
            screen_features(matrix, np.array([0, 1, 1]))


class TestReports:
    def test_screening_report_rows_and_floor(self, tmp_path):
        labels = np.array([0] * 20 + [1] * 20)
        matrix = make_matrix(
            {"cat": labels.astype(float), "const": np.ones(40)},
            kinds={"cat": "categorical"})
        results = screen_features(matrix, labels)
        path = tmp_path / "screening.tsv"
        write_screening_report(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2
        header = lines[0].split("\t")
        assert header[:2] == ["feature", "method"]
        cat_row = lines[1].split("\t")
        assert cat_row[0] == "cat" and cat_row[6] == "yes"

    def test_chi_squared_display_floor(self, tmp_path):
        labels = np.array([0] * 300 + [1] * 300)
        matrix = make_matrix({"cat": labels.astype(float)},
                             kinds={"cat": "categorical"})
        results = screen_features(matrix, labels)
        assert results[0].p_two_sided < 2.2e-16  # true value below the floor
        path = tmp_path / "screening.tsv"
        write_screening_report(results, path)
        assert "2.2e-16" in path.read_text()

    def test_histograms_written(self, tmp_path, rng):
        labels = (rng.normal((50,)) > 0).astype(int)
        matrix = make_matrix({"a": rng.normal((50,)), "const": np.ones(50)})
        write_histograms(matrix, labels, tmp_path / "hists")
        written = list((tmp_path / "hists").iterdir())
        assert len(written) == 1  # constant column skipped
        content = written[0].read_text().splitlines()
        assert content[0] == "bin_start,bin_end,density_genuine,density_spam"
        assert len(content) == 21

    def test_histogram_files_distinct_for_colliding_names(self, tmp_path, rng):
        # Replacing unsafe characters with "_" would map all three names to
        # hist_category_ratio_Books.csv.
        labels = (rng.normal((60,)) > 0).astype(int)
        names = ["category_ratio:Books", "category_ratio_Books",
                 "category_ratio/Books"]
        matrix = make_matrix({n: rng.normal((60,)) * (i + 1)
                              for i, n in enumerate(names)})
        write_histograms(matrix, labels, tmp_path / "hists")
        written = [str(tmp_path / "hists" / f"hist_{quote(n, safe='')}.csv")
                   for n in names]
        assert len(set(written)) == 3
        assert sorted(p.name for p in (tmp_path / "hists").iterdir()) == \
            sorted(os.path.basename(p) for p in written)
        for j, path in enumerate(written):
            col = matrix.values[:, j]
            first = Path(path).read_text().splitlines()[1].split(",")
            assert float(first[0]) == col.min()
