import os
import runpy
import sys

import pytest

from spamforest.synthetic import synthetic_review_corpus

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "make_demo_reviews.py")


class TestSyntheticReviewCorpus:
    # A spammer draws up to 14 distinct products, a genuine user up to 11.
    @pytest.mark.parametrize("n_genuine, n_spammers, n_products", [
        (10, 10, 8), (0, 5, 13), (5, 0, 10)])
    def test_too_few_products_rejected(self, n_genuine, n_spammers, n_products):
        with pytest.raises(ValueError, match=f"n_products .*got {n_products}"):
            synthetic_review_corpus(n_genuine, n_spammers, n_products, seed=1)

    @pytest.mark.parametrize("n_genuine, n_spammers, n_products", [
        (10, 10, 14), (0, 5, 14), (5, 0, 11), (0, 0, 0)])
    def test_enough_products_accepted(self, n_genuine, n_spammers, n_products):
        records, scores = synthetic_review_corpus(n_genuine, n_spammers,
                                                  n_products, seed=1)
        assert len(scores) == n_genuine + n_spammers
        assert len({r.product_id for r in records}) <= n_products

    def test_script_reports_too_few_products(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(sys, "argv", [
            "make_demo_reviews.py", "--out", str(tmp_path / "demo"),
            "--genuine", "10", "--spammers", "10", "--products", "8"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(SCRIPT, run_name="__main__")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "n_products must be at least 14" in err and "Traceback" not in err
        assert not (tmp_path / "demo").exists()
