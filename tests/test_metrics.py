import numpy as np
import pytest
from hypothesis import given, strategies as st

from spamforest.metrics import (compute_metrics, confusion,
                                write_metrics_report)


class TestConfusion:
    def test_all_correct_positive(self):
        counts = confusion([1, 1, 1], [1, 1, 1])
        assert counts == (3, 0, 0, 0)

    def test_all_wrong(self):
        counts = confusion([1, 0, 1, 0], [0, 1, 0, 1])
        tp, fp, tn, fn = counts
        assert tp == 0 and tn == 0 and fp == 2 and fn == 2

    def test_hand_case(self):
        counts = confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert counts == (1, 1, 1, 1)

    def test_positive_class_zero_swaps_roles(self):
        pred = [1, 0, 1, 0, 1]
        act = [1, 1, 0, 0, 1]
        tp1, fp1, tn1, fn1 = confusion(pred, act, positive_class=1)
        tp0, fp0, tn0, fn0 = confusion(pred, act, positive_class=0)
        assert (tp0, fp0, tn0, fn0) == (tn1, fn1, tp1, fp1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])

    def test_order_invariance(self):
        pred = np.array([1, 0, 1, 1, 0, 0])
        act = np.array([1, 1, 0, 1, 0, 1])
        perm = np.array([3, 1, 4, 0, 5, 2])
        assert confusion(pred, act) == confusion(pred[perm], act[perm])


class TestComputeMetrics:
    def test_reported_counts_reproduce_reported_percentages(self):
        # 3950 test rows: 1594 true positives, 65 false positives,
        # 2192 true negatives, 99 false negatives.
        m = compute_metrics((1594, 65, 2192, 99))
        assert f"{m.accuracy * 100:.2f}" == "95.85"
        assert f"{m.precision * 100:.2f}" == "96.08"
        assert f"{m.recall * 100:.2f}" == "94.15"
        assert f"{m.f1 * 100:.2f}" == "95.11"
        assert m.tp + m.fp + m.tn + m.fn == 3950

    def test_perfect_classifier(self):
        m = compute_metrics((10, 0, 15, 0))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert m.degenerate == []

    def test_all_negative_predictions(self):
        m = compute_metrics((0, 0, 5, 5))
        assert m.recall == 0.0
        assert m.precision == 0.0
        assert "precision" in m.degenerate

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics((0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics((1, -1, 1, 1))

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(0, 500))
    def test_f1_is_harmonic_mean(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = compute_metrics((tp, fp, tn, fn))
        assert 0.0 <= m.accuracy <= 1.0
        assert 0.0 <= m.f1 <= 1.0
        if m.precision > 0 and m.recall > 0:
            harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(harmonic, abs=1e-12)

    def test_counts_recompute_derived_values(self):
        m = compute_metrics((8, 2, 6, 4))
        again = compute_metrics((m.tp, m.fp, m.tn, m.fn))
        assert again == m


class TestReport:
    def test_format(self, tmp_path):
        m = compute_metrics((1594, 65, 2192, 99))
        path = tmp_path / "metrics.txt"
        write_metrics_report(m, path)
        lines = path.read_text().splitlines()
        assert lines == [
            "tp\t1594", "fp\t65", "tn\t2192", "fn\t99",
            "accuracy\t95.85%", "precision\t96.08%",
            "recall\t94.15%", "f1\t95.11%",
        ]

    def test_degenerate_flag_line(self, tmp_path):
        m = compute_metrics((0, 0, 5, 5))
        path = tmp_path / "metrics.txt"
        write_metrics_report(m, path)
        assert "degenerate\tprecision,f1" in path.read_text() or \
            "degenerate\tprecision" in path.read_text()
