import dataclasses
import json
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (lexicon_words, records_of, reference_feature_rows,
                     reference_sentiment)
from spamforest import features
from spamforest.dataio import save_features
from spamforest.features import (MANIFEST_VERSION, REVIEW_FEATURES,
                                 USER_FEATURES, Columns, ReviewRecord,
                                 ReviewTable, build_feature_matrix,
                                 extract_user_features, feature_columns,
                                 sentiment_scores)


def rec(user="u1", product="p1", rating=5, help_=0, unhelp=0, day=0,
        category="books", summary="", text="", name="", memo=""):
    return ReviewRecord(user, product, rating, help_, unhelp, day, category,
                        summary, text, user_name=name, user_memo=memo)


def matrix_of(records):
    """``build_feature_matrix`` of the table holding ``records``."""
    return build_feature_matrix(ReviewTable.from_records(records))


def user_features(revs, categories=()):
    """The first author's profile in ``matrix_of(revs)``, as a
    name -> value dict of the user and category columns. Each of
    ``categories`` that ``revs`` lack joins the catalog through one review
    by another user."""
    present = {r.category for r in revs}
    others = [rec(user="~other", product="~other", category=c)
              for c in categories if c not in present]
    matrix, _ = matrix_of(revs + others)
    width = matrix.n_features - len(REVIEW_FEATURES)
    assert width == len(USER_FEATURES) + len(present | set(categories))
    return dict(zip(matrix.names[:width], matrix.values[0, :width].tolist()))


def matrix_row(records, i):
    """Row ``i`` of ``matrix_of(records)`` as a name -> value dict."""
    matrix, _ = matrix_of(records)
    return dict(zip(matrix.names, matrix.values[i].tolist()))


class TestReviewRecord:
    def test_rating_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="1..5"):
            rec(rating=7)
        with pytest.raises(ValueError, match="1..5"):
            rec(rating=0)

    def test_negative_votes_rejected(self):
        with pytest.raises(ValueError):
            rec(help_=-1)

    def test_votes_beyond_int64_rejected(self):
        # A ReviewTable holds votes as int64.
        assert rec(unhelp=2 ** 63 - 1).unhelpful_votes == 2 ** 63 - 1
        with pytest.raises(ValueError, match="in 0..9223372036854775807"):
            rec(unhelp=2 ** 63)


class TestReviewTable:
    def test_one_column_per_record_field(self):
        assert [f.name for f in dataclasses.fields(ReviewTable)] == \
            [f.name for f in dataclasses.fields(ReviewRecord)]

    def test_from_records_columns_and_take(self):
        revs = [rec(user="a", help_=3, day=-5, name="Al"), rec(user="b", rating=1)]
        table = ReviewTable.from_records(revs)
        assert len(table) == 2
        assert table.user_id.dtype == object and table.user_id.tolist() == ["a", "b"]
        assert table.rating.dtype == np.int64 and table.rating.tolist() == [5, 1]
        assert records_of(table) == revs
        assert records_of(table.take(np.array([1, 0, 1]))) == [revs[1], revs[0], revs[1]]
        empty = ReviewTable.from_records([])
        assert len(empty) == 0 and empty.timestamp.dtype == np.int64


class TestUserFeatures:
    def test_all_fives(self):
        revs = [rec(product=f"p{i}", rating=5) for i in range(3)]
        d = user_features(revs)
        assert d["rating_entropy"] == 0.0
        assert d["positive_ratio"] == 1.0
        assert d["negative_ratio"] == 0.0
        assert d["min_score"] == 5 and d["max_score"] == 5

    def test_uniform_ratings(self):
        revs = [rec(product=f"p{i}", rating=i + 1) for i in range(5)]
        d = user_features(revs)
        for s in range(1, 6):
            assert d[f"score_ratio_{s}"] == pytest.approx(0.2)
        assert d["rating_entropy"] == pytest.approx(math.log(5), abs=1e-12)

    def test_single_review_degenerate_history(self):
        d = user_features([rec(day=100)])
        assert d["day_gap"] == 0.0
        assert d["same_date_indicator"] == 1.0
        assert d["active_ratio"] == 1.0
        assert d["review_time_entropy"] == 0.0

    def test_vote_aggregates(self):
        revs = [rec(product="a", help_=4, unhelp=1),
                rec(product="b", help_=0, unhelp=3)]
        d = user_features(revs)
        assert d["help_sum"] == 4.0 and d["unhelp_sum"] == 4.0
        assert d["help_mean"] == 2.0 and d["unhelp_mean"] == 2.0
        assert d["help_ratio"] == 0.5 and d["unhelp_ratio"] == 0.5
        assert d["help_median"] == 2.0
        assert (d["help_min"], d["help_max"]) == (0.0, 4.0)

    def test_zero_votes_guard(self):
        d = user_features([rec()])
        assert d["help_ratio"] == 0.0 and d["unhelp_ratio"] == 0.0

    def test_year_binning_and_active_ratio(self):
        # Reviews in 1970 and 1972 with nothing in 1971: span 3 years,
        # active 2 of 3.
        revs = [rec(product="a", day=10), rec(product="b", day=740),
                rec(product="c", day=750)]
        d = user_features(revs)
        assert d["active_ratio"] == pytest.approx(2 / 3)
        expected = -(1 / 3 * math.log(1 / 3) + 2 / 3 * math.log(2 / 3))
        assert d["review_time_entropy"] == pytest.approx(expected, abs=1e-12)

    def test_category_structure_sums_to_one(self):
        revs = [rec(product="a", category="books"),
                rec(product="b", category="music"),
                rec(product="c", category="books")]
        d = user_features(revs, categories=["books", "music", "toys"])
        assert d["category_ratio:books"] == pytest.approx(2 / 3)
        assert d["category_ratio:music"] == pytest.approx(1 / 3)
        assert d["category_ratio:toys"] == 0.0

    def test_name_features(self):
        d = user_features([rec(name="Alice Smith")])
        assert d["name_length"] == len("Alice Smith")
        assert d["uncommon_name"] == 0.0
        d = user_features([rec(name="xq7zt")])
        assert d["uncommon_name"] == 1.0
        # user_id stands in when no display name is present
        d = user_features([rec(user="A1B2")])
        assert d["name_length"] == 4

    def test_memo_features(self):
        d = user_features([rec(memo="avid reader")])
        assert d["has_memo"] == 1.0 and d["memo_length"] == 11.0
        d = user_features([rec()])
        assert d["has_memo"] == 0.0 and d["memo_length"] == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="zero records"):
            matrix_of([])

    def test_purity(self):
        revs = [rec(product=f"p{i}", rating=(i % 5) + 1, day=i * 40)
                for i in range(6)]
        assert matrix_of(revs)[0].values.tolist() == \
            matrix_of(revs)[0].values.tolist()

    def test_block_has_one_row_per_user_in_order_of_appearance(self):
        revs = [rec(user="b", product="p1", rating=2, help_=3, day=5),
                rec(user="a", product="p2", rating=5, day=900, category="toys"),
                rec(user="b", product="p2", rating=4, unhelp=1, day=400),
                rec(user="c", name="Alice Smith", memo="hi", day=-30)]
        categories = ["books", "toys"]
        table = ReviewTable.from_records(revs)
        block = extract_user_features(Columns.of(table, categories), table, 2)
        width = len(USER_FEATURES) + len(categories)
        reference = reference_feature_rows(revs, categories)[:, :width]
        assert block.dtype == np.float64
        assert_bitwise_equal(block, reference[[0, 1, 3]])


class TestReviewFeatures:
    def test_first_reviewer(self):
        target = rec(user="a", day=5)
        others = [target, rec(user="b", day=9), rec(user="c", day=30)]
        d = matrix_row(others, 0)
        assert d["comment_rank"] == 1.0
        assert d["comment_gap_ratio"] == 0.0
        assert d["comment_gap_days"] == 0.0

    def test_equal_ratings_zero_entropy(self):
        revs = [rec(user=u, rating=4) for u in ("a", "b", "c")]
        d = matrix_row(revs, 0)
        assert d["product_score_entropy"] == 0.0

    def test_three_day_timeline(self):
        # Product reviewed on days 0, 10, 20; the day-10 review sits at
        # rank 2 with half the gap behind it.
        revs = [rec(user="a", day=0), rec(user="b", day=10),
                rec(user="c", day=20)]
        d = matrix_row(revs, 1)
        assert d["product_time_gap"] == 20.0
        assert d["comment_gap_ratio"] == 0.5
        assert d["comment_rank"] == 2.0
        assert d["comment_rank_ratio"] == pytest.approx(2 / 3)

    def test_product_aggregates(self):
        revs = [rec(user="a", rating=2), rec(user="b", rating=4),
                rec(user="c", rating=4)]
        d = matrix_row(revs, 0)
        assert d["product_mean_rating"] == pytest.approx(10 / 3)
        assert d["product_review_count"] == 3.0
        assert d["user_rate"] == 2.0

    def test_first_day_review_count(self):
        revs = [rec(user="a", day=3), rec(user="b", day=3),
                rec(user="c", day=9)]
        d = matrix_row(revs, 2)
        assert d["product_first_day_reviews"] == 2.0

    def test_text_lengths_in_words(self):
        target = rec(user="a", summary="three word summary",
                     text="five words are in here")
        d = matrix_row([target], 0)
        assert d["summary_length"] == 3.0
        assert d["review_length"] == 5.0


def sentiment_score(text):
    return int(sentiment_scores([text])[0])


class TestSentiment:
    def test_empty_is_neutral(self):
        assert sentiment_score("") == 0

    def test_positive_words(self):
        assert sentiment_score("great excellent wonderful") == 1

    def test_negative_words(self):
        assert sentiment_score("terrible awful") == -1

    def test_tie_is_neutral(self):
        assert sentiment_score("great terrible") == 0

    def test_case_and_punctuation_insensitive(self):
        assert sentiment_score("GREAT, really great!") == 1


def _lexicon_sample():
    positive, negative = lexicon_words()
    both = sorted(positive & negative)
    return sorted(positive)[:40] + sorted(negative)[:40] + both[:5]


# Pieces of text: lexicon words, an apostrophe, characters that lower to
# ASCII letters (U+0130, the Kelvin sign), one whose lowering depends on its
# context (capital sigma), a non-ASCII letter, a NUL, a lone surrogate,
# whitespace, punctuation and the empty string.
TEXT_PIECES = st.sampled_from(
    _lexicon_sample() + ["'", "\u0130", "\u212a", "\u03a3", "\u00ff", "\x00",
                         "\ud800", "\t", "\n", " ", ",", "GREAT", "Bad", "", "s"])
TEXTS = st.lists(st.lists(TEXT_PIECES, max_size=10).map("".join), max_size=40)


class TestSentimentScoresMatchRegex:
    """sentiment_scores against a regex over each lowered text."""

    @settings(max_examples=300, deadline=None)
    @given(TEXTS)
    def test_matches_the_per_text_regex(self, texts):
        scores = sentiment_scores(texts)
        assert scores.dtype == np.int64
        assert scores.tolist() == [reference_sentiment(t) for t in texts]

    def test_many_blocks_match_the_per_text_regex(self):
        rng = np.random.default_rng(3)
        pieces = _lexicon_sample() + [" ", "'", "\u0130", "\u212a", ""]
        texts = ["".join(rng.choice(pieces, size=int(rng.integers(0, 12))))
                 for _ in range(1500)]
        assert sentiment_scores(texts).tolist() == \
            [reference_sentiment(t) for t in texts]


class TestManifest:
    def test_packaged_manifest_matches_registry(self, review_corpus, tmp_path):
        # The manifest save_features writes is the registry's expansion.
        records, _ = review_corpus
        matrix, user_ids = matrix_of(records[:80])
        save_features(tmp_path, matrix, [0] * matrix.n_rows, user_ids)
        manifest = json.loads((tmp_path / "manifest.json").read_text("utf-8"))
        categories = sorted({r.category for r in records[:80]})
        assert manifest == {
            "manifest_version": MANIFEST_VERSION,
            "features": [{"name": n, "scope": s, "kind": k}
                         for n, s, k in feature_columns(categories)]}

    def test_matrix_columns_follow_manifest_order(self, review_corpus):
        records, _ = review_corpus
        matrix, _ = matrix_of(records[:80])
        fixed_user = [n for n, _, _ in USER_FEATURES]
        n_cat = matrix.n_features - len(USER_FEATURES) - len(REVIEW_FEATURES)
        assert matrix.names[:len(fixed_user)] == fixed_user
        cat_block = matrix.names[len(fixed_user):len(fixed_user) + n_cat]
        assert all(n.startswith("category_ratio:") for n in cat_block)
        assert matrix.names[len(fixed_user) + n_cat:] == \
            [n for n, _, _ in REVIEW_FEATURES]
        assert matrix.manifest_version == MANIFEST_VERSION
        categories = sorted({r.category for r in records[:80]})
        assert list(zip(matrix.names, matrix.scopes, matrix.kinds)) == \
            USER_FEATURES + [(f"category_ratio:{c}", "history", "continuous")
                             for c in categories] + REVIEW_FEATURES

    def test_scope_and_kind_tags_cover_all_columns(self, review_corpus):
        records, _ = review_corpus
        matrix, _ = matrix_of(records[:80])
        assert set(matrix.scopes) <= {"history", "rating", "feedback", "time",
                                      "product", "review"}
        assert set(matrix.kinds) <= {"continuous", "categorical"}


records_strategy = st.lists(
    st.builds(
        rec,
        user=st.just("u"),
        product=st.sampled_from(["p1", "p2", "p3"]),
        rating=st.integers(1, 5),
        help_=st.integers(0, 50),
        unhelp=st.integers(0, 50),
        day=st.integers(0, 5000),
        category=st.sampled_from(["books", "music"]),
        summary=st.sampled_from(["", "great", "terrible thing", "ok item"]),
        text=st.sampled_from(["", "love it", "hate hate hate", "plain words"]),
        name=st.sampled_from(["", "alice", "zxq9"]),
        memo=st.sampled_from(["", "hello"]),
    ),
    min_size=1, max_size=12,
)


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(records_strategy)
    def test_ratio_features_bounded_and_entropies_capped(self, revs):
        d = user_features(revs)
        for name, value in d.items():
            if "ratio" in name:
                assert 0.0 <= value <= 1.0, name
        assert 0.0 <= d["rating_entropy"] <= math.log(5) + 1e-12
        assert sum(d[f"score_ratio_{s}"] for s in range(1, 6)) == \
            pytest.approx(1.0, abs=1e-9)
        assert d["positive_ratio"] + d["negative_ratio"] <= 1.0 + 1e-12
        cats = [v for k, v in d.items() if k.startswith("category_ratio:")]
        assert sum(cats) == pytest.approx(1.0, abs=1e-9)

        matrix, _ = matrix_of(revs)
        review = slice(matrix.n_features - len(REVIEW_FEATURES), None)
        for j, name in enumerate(matrix.names[review], start=review.start):
            if "ratio" in name:
                assert np.all((0.0 <= matrix.values[:, j])
                              & (matrix.values[:, j] <= 1.0)), name
        j = matrix.names.index("product_score_entropy")
        assert np.all(matrix.values[:, j] <= math.log(5) + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(records_strategy)
    def test_all_values_finite(self, revs):
        matrix, _ = matrix_of(revs)
        assert np.all(np.isfinite(matrix.values))


# Days around calendar edges: month ends, New Year in several years
# (including before 1970), and the ends of the representable range.
_EDGE_DAYS = [(date(y, m, 1) - date(1970, 1, 1)).days + k
              for y, m in ((1969, 1), (1970, 1), (1970, 3), (1971, 1),
                           (2000, 3), (2024, 1))
              for k in (-1, 0, 1)]
_EDGE_DAYS += [(date.min - date(1970, 1, 1)).days,
               (date.max - date(1970, 1, 1)).days]

corpus_strategy = st.lists(
    st.builds(
        rec,
        user=st.sampled_from(["u1", "u2", "u3", "u4"]),
        product=st.sampled_from(["p1", "p2", "p3", "p4"]),
        rating=st.integers(1, 5),
        help_=st.integers(0, 20),
        unhelp=st.integers(0, 20),
        day=st.one_of(st.sampled_from(_EDGE_DAYS), st.integers(-400, 800)),
        category=st.sampled_from(["books", "music", "toys"]),
        summary=st.sampled_from(["", "great", "terrible thing", "ok item"]),
        text=st.sampled_from(["", "love it", "hate hate hate", "plain words"]),
        name=st.sampled_from(["", "alice", "zxq9"]),
        memo=st.sampled_from(["", "hello"]),
    ),
    min_size=1, max_size=30,
)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestExtractionOracle:
    """build_feature_matrix against the per-review reference in helpers."""

    @settings(max_examples=200, deadline=None)
    @given(corpus_strategy)
    def test_matrix_matches_reference_bitwise(self, records):
        matrix, user_ids = matrix_of(records)
        assert_bitwise_equal(matrix.values, reference_feature_rows(records))
        assert user_ids == [r.user_id for r in records]

    def test_product_dense_corpus_matches_reference_bitwise(self):
        from spamforest.synthetic import synthetic_review_corpus

        records, _ = synthetic_review_corpus(n_genuine=60, n_spammers=60,
                                             n_products=15, seed=5)
        assert len(records) / 15 > 50
        matrix, _ = matrix_of(records)
        assert_bitwise_equal(matrix.values, reference_feature_rows(records))

    def test_user_block_is_one_call(self, monkeypatch, review_corpus):
        records, _ = review_corpus
        blocks = []
        original = features.extract_user_features

        def recording(*args):
            blocks.append(original(*args))
            return blocks[-1]

        monkeypatch.setattr(features, "extract_user_features", recording)
        matrix, _ = matrix_of(records)
        n_users = len({r.user_id for r in records})
        assert [b.shape for b in blocks] == \
            [(n_users, matrix.n_features - len(REVIEW_FEATURES))]

    # numpy sums 8 or more terms pairwise, and a segmented sum would add
    # them in sequence, so entropies over 8 or more bins are rounded by
    # their term count; these corpora reach that regime on purpose.
    @pytest.mark.parametrize("seed", range(6))
    def test_user_over_eight_years_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 30))
        days = rng.choice(np.arange(-3000, 9000, 365), n) + rng.integers(0, 300, n)
        records = [rec(user="u", product=f"p{k % 4}", rating=int(rng.integers(1, 6)),
                       help_=int(rng.integers(0, 9)), day=int(d))
                   for k, d in enumerate(days)]
        records += [rec(user=f"v{k}", product=f"p{k}", day=k) for k in range(3)]
        years = {(date(1970, 1, 1) + timedelta(days=int(d))).year for d in days}
        assert len(years) >= 8
        matrix, _ = matrix_of(records)
        assert_bitwise_equal(matrix.values, reference_feature_rows(records))

    @pytest.mark.parametrize("seed", range(6))
    def test_product_over_eight_months_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 40))
        days = rng.integers(0, 900, n)
        records = [rec(user=f"u{int(rng.integers(0, 6))}", product="p",
                       rating=int(rng.integers(1, 6)), day=int(d))
                   for d in days]
        records += [rec(user="u0", product="q", day=3)]
        months = {(date(1970, 1, 1) + timedelta(days=int(d))).month for d in days}
        assert len(months) >= 8
        matrix, _ = matrix_of(records)
        assert_bitwise_equal(matrix.values, reference_feature_rows(records))
