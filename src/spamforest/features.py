"""Behavioral and review-content features for (user, review) pairs.

Each dataset row describes one review: the writing user's behavioral
profile (history, rating, feedback and time signals, identical across that
user's rows) concatenated with the review's product-context signals. The
registry names the columns: ``USER_FEATURES``, the ``CATEGORY_BLOCK`` rule
(one ``category_ratio:<c>`` column per catalog category) and
``REVIEW_FEATURES`` list every column with its scope tag (one of history,
rating, feedback, time, product, review) and its kind (continuous or
categorical), and ``feature_columns`` expands them in matrix order. The
extraction functions return bare value rows in that order and write no
names. ``dataio.save_features`` writes the expanded columns, with
``MANIFEST_VERSION``, to a feature directory's ``manifest.json``.

Conventions that apply throughout:

* Entropies are in nats; a single-bin distribution has entropy 0.
* Review-time entropy bins by calendar year; product comment-time entropy
  bins by calendar month.
* Every feature named ``*_ratio`` lies in [0, 1]; ratios with a zero
  denominator emit 0.
* Categorical features are emitted as numeric codes and tagged
  ``categorical`` so the screening module routes them to the
  contingency-table test.

All functions here are pure: the same records always produce the same
vector, and extraction may safely run user- or product-parallel.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from importlib import resources

import numpy as np

from .numerics import entropy

__all__ = [
    "ReviewRecord",
    "FeatureMatrix",
    "MANIFEST_VERSION",
    "USER_FEATURES",
    "CATEGORY_BLOCK",
    "REVIEW_FEATURES",
    "SCOPES",
    "feature_columns",
    "extract_user_features",
    "sentiment_score",
    "build_feature_matrix",
]

MANIFEST_VERSION = 1

SCOPES = ("history", "rating", "feedback", "time", "product", "review")

_EPOCH = date(1970, 1, 1)
# Timestamps must name a representable date: date.min .. date.max.
_MIN_DAY = (date.min - _EPOCH).days
_MAX_DAY = (date.max - _EPOCH).days

_WORD_RE = re.compile(r"[a-z']+")


@dataclass(frozen=True)
class ReviewRecord:
    """One raw review. ``timestamp`` counts days since 1970-01-01."""

    user_id: str
    product_id: str
    rating: int
    helpful_votes: int
    unhelpful_votes: int
    timestamp: int
    category: str
    summary_text: str
    review_text: str
    user_name: str = ""
    user_memo: str = ""

    def __post_init__(self):
        if not 1 <= self.rating <= 5:
            raise ValueError(f"rating must be in 1..5, got {self.rating}")
        if self.helpful_votes < 0 or self.unhelpful_votes < 0:
            raise ValueError("vote counts must be nonnegative")
        if not _MIN_DAY <= self.timestamp <= _MAX_DAY:
            raise ValueError(
                f"timestamp must be in {_MIN_DAY}..{_MAX_DAY} days since "
                f"1970-01-01, got {self.timestamp}")


@dataclass
class FeatureMatrix:
    """n x d feature table with per-column names, scopes and kinds."""

    values: np.ndarray
    names: list[str]
    scopes: list[str]
    kinds: list[str]
    manifest_version: int = MANIFEST_VERSION

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        d = self.values.shape[1] if self.values.ndim == 2 else 0
        if not (len(self.names) == len(self.scopes) == len(self.kinds) == d):
            raise ValueError(
                f"column metadata lengths {len(self.names)}/{len(self.scopes)}/"
                f"{len(self.kinds)} do not match width {d}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def columns_for_scope(self, scope: str) -> list[int]:
        return [i for i, s in enumerate(self.scopes) if s == scope]


# (name, scope, kind) in pinned order. The reviewed-product category block
# (one ratio per catalog category) follows the user block; its names are
# data-driven, the CATEGORY_BLOCK prefix plus the category.
USER_FEATURES = [
    ("n_products", "history", "continuous"),
    ("name_length", "history", "continuous"),
    ("uncommon_name", "history", "categorical"),
    ("has_memo", "history", "categorical"),
    ("memo_length", "history", "continuous"),
    ("min_score", "rating", "categorical"),
    ("max_score", "rating", "categorical"),
    ("score_ratio_1", "rating", "continuous"),
    ("score_ratio_2", "rating", "continuous"),
    ("score_ratio_3", "rating", "continuous"),
    ("score_ratio_4", "rating", "continuous"),
    ("score_ratio_5", "rating", "continuous"),
    ("score_count_1", "rating", "continuous"),
    ("score_count_2", "rating", "continuous"),
    ("score_count_3", "rating", "continuous"),
    ("score_count_4", "rating", "continuous"),
    ("score_count_5", "rating", "continuous"),
    ("positive_ratio", "rating", "continuous"),
    ("negative_ratio", "rating", "continuous"),
    ("rating_entropy", "rating", "continuous"),
    ("mean_rating", "rating", "continuous"),
    ("help_sum", "feedback", "continuous"),
    ("unhelp_sum", "feedback", "continuous"),
    ("help_mean", "feedback", "continuous"),
    ("unhelp_mean", "feedback", "continuous"),
    ("help_ratio", "feedback", "continuous"),
    ("unhelp_ratio", "feedback", "continuous"),
    ("help_median", "feedback", "continuous"),
    ("help_min", "feedback", "continuous"),
    ("help_max", "feedback", "continuous"),
    ("unhelp_median", "feedback", "continuous"),
    ("unhelp_min", "feedback", "continuous"),
    ("unhelp_max", "feedback", "continuous"),
    ("day_gap", "time", "continuous"),
    ("review_time_entropy", "time", "continuous"),
    ("same_date_indicator", "time", "continuous"),
    ("active_ratio", "time", "continuous"),
]

CATEGORY_BLOCK = {
    "prefix": "category_ratio:",
    "scope": "history",
    "kind": "continuous",
    "position": "after user features",
}

REVIEW_FEATURES = [
    ("product_mean_rating", "product", "continuous"),
    ("product_review_count", "product", "continuous"),
    ("product_score_entropy", "product", "continuous"),
    ("product_time_gap", "product", "continuous"),
    ("product_time_entropy", "product", "continuous"),
    ("product_first_day_reviews", "product", "continuous"),
    ("user_rate", "review", "categorical"),
    ("review_help_votes", "review", "continuous"),
    ("review_unhelp_votes", "review", "continuous"),
    ("comment_gap_days", "review", "continuous"),
    ("comment_gap_ratio", "review", "continuous"),
    ("comment_rank", "review", "continuous"),
    ("comment_rank_ratio", "review", "continuous"),
    ("summary_length", "review", "continuous"),
    ("review_length", "review", "continuous"),
    ("summary_sentiment", "review", "categorical"),
    ("review_sentiment", "review", "categorical"),
]


def feature_columns(categories) -> list[tuple[str, str, str]]:
    """(name, scope, kind) of every matrix column, in order: ``USER_FEATURES``,
    one ``CATEGORY_BLOCK`` column per entry of ``categories``, then
    ``REVIEW_FEATURES``."""
    block = [(CATEGORY_BLOCK["prefix"] + c, CATEGORY_BLOCK["scope"],
              CATEGORY_BLOCK["kind"]) for c in categories]
    return USER_FEATURES + block + REVIEW_FEATURES


@lru_cache(maxsize=None)
def _read_wordlist(filename: str) -> frozenset[str]:
    text = resources.files("spamforest.data").joinpath(filename).read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def sentiment_score(text: str) -> int:
    """Sign of (positive hits - negative hits) against the bundled lexicon:
    1 positive, -1 negative, 0 on ties or empty text."""
    positive = _read_wordlist("positive_words.txt")
    negative = _read_wordlist("negative_words.txt")
    words = _WORD_RE.findall(text.lower())
    score = sum(w in positive for w in words) - sum(w in negative for w in words)
    return (score > 0) - (score < 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def extract_user_features(reviews: list[ReviewRecord], categories) -> np.ndarray:
    """Behavioral profile of one user over all their reviews.

    Returns one float64 row: the ``USER_FEATURES`` values in registry
    order, then the share of the user's reviews in each of ``categories``
    (the ``CATEGORY_BLOCK``), the corpus-wide catalog.
    """
    if not reviews:
        raise ValueError("cannot extract features from an empty review list")
    users = {r.user_id for r in reviews}
    if len(users) != 1:
        raise ValueError(f"reviews must belong to one user, got {sorted(users)}")

    common_names = _read_wordlist("common_names.txt")

    first = reviews[0]
    name = first.user_name if first.user_name else first.user_id
    name_token = name.lower().split()[0] if name.split() else ""

    ratings = np.array([r.rating for r in reviews])
    helps = np.array([r.helpful_votes for r in reviews], dtype=np.float64)
    unhelps = np.array([r.unhelpful_votes for r in reviews], dtype=np.float64)
    days = np.array([r.timestamp for r in reviews])
    n = len(reviews)

    score_counts = np.bincount(ratings, minlength=6)[1:].astype(np.float64)
    score_ratios = score_counts / n
    total_votes = helps.sum() + unhelps.sum()
    years = days.astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64)
    year_counts = np.bincount(years - years.min())
    category_counts = Counter(r.category for r in reviews)

    row = [
        # history
        len({r.product_id for r in reviews}), len(name),
        0 if name_token in common_names else 1,
        1 if first.user_memo else 0, len(first.user_memo),
        # rating. High rates are scores 4 and 5; low rates are 1 and 2.
        # Score 3 counts toward neither, so the two ratios sum to at most 1.
        ratings.min(), ratings.max(), *score_ratios, *score_counts,
        (ratings >= 4).mean(), (ratings <= 2).mean(), entropy(score_ratios),
        ratings.mean(),
        # feedback
        helps.sum(), unhelps.sum(), helps.mean(), unhelps.mean(),
        _ratio(helps.sum(), total_votes), _ratio(unhelps.sum(), total_votes),
        np.median(helps), helps.min(), helps.max(),
        np.median(unhelps), unhelps.min(), unhelps.max(),
        # time
        days.max() - days.min(), entropy(year_counts / n),
        1 if days.max() == days.min() else 0,
        (year_counts > 0).sum() / len(year_counts),
        # category block
        *(category_counts[c] / n for c in categories),
    ]
    return np.array(row, dtype=np.float64)


def _product_context(days: np.ndarray, ratings: np.ndarray):
    """The product block of one product, and the product's sorted days.

    ``days`` and ``ratings`` hold every review of the product, in any
    order. The block follows ``REVIEW_FEATURES``: mean rating, review
    count, score entropy, time gap, comment-time entropy over calendar
    months (binned through ``datetime64``) and the first-day review count.
    It is the same for every review of the product, so it is computed once.
    """
    n = len(days)
    sorted_days = np.sort(days)
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    block = [ratings.mean(), n, entropy(np.bincount(ratings, minlength=6)[1:] / n),
             sorted_days[-1] - sorted_days[0],
             entropy(np.bincount(months - months.min()) / n),
             (days == sorted_days[0]).sum()]
    return np.array(block, dtype=np.float64), sorted_days


def _review_part(reviews: list[ReviewRecord], sorted_days: np.ndarray) -> np.ndarray:
    """The review-scope features of some reviews of one product, one row each.

    ``sorted_days`` is the product's sorted days from ``_product_context``.
    A review's rank is one plus the number of the product's reviews posted
    on an earlier day, one ``searchsorted``; reviews of the same day share
    the earliest rank.
    """
    own = np.array([(r.timestamp, r.rating, r.helpful_votes, r.unhelpful_votes,
                     len(r.summary_text.split()), len(r.review_text.split()),
                     sentiment_score(r.summary_text), sentiment_score(r.review_text))
                    for r in reviews], dtype=np.int64)
    first_day, gap = sorted_days[0], sorted_days[-1] - sorted_days[0]
    since_first = own[:, 0] - first_day
    rank = 1 + np.searchsorted(sorted_days, own[:, 0], "left")
    return np.column_stack([
        own[:, 1:4], since_first,
        since_first / gap if gap > 0 else np.zeros(len(own)),
        rank, rank / len(sorted_days), own[:, 4:]]).astype(np.float64)


def build_feature_matrix(records: list[ReviewRecord]):
    """One feature row per record: user profile + category block + review part.

    Returns ``(FeatureMatrix, user_ids)`` with ``user_ids[i]`` naming the
    author of row i. The category catalog is every category seen in
    ``records``, sorted. Each user's profile and each product's block
    are computed once, so the cost is linear in the number of records.
    """
    if not records:
        raise ValueError("cannot build a feature matrix from zero records")
    categories = sorted({r.category for r in records})

    by_user: dict[str, list[ReviewRecord]] = {}
    by_product: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_user.setdefault(r.user_id, []).append(r)
        by_product.setdefault(r.product_id, []).append(i)

    user_rows = np.array([extract_user_features(revs, categories=categories)
                          for revs in by_user.values()])
    user_row = {uid: k for k, uid in enumerate(by_user)}
    user_ids = [r.user_id for r in records]
    columns = feature_columns(categories)
    width = len(columns) - len(REVIEW_FEATURES)
    values = np.empty((len(records), len(columns)))
    values[:, :width] = user_rows[[user_row[uid] for uid in user_ids]]

    days = np.array([r.timestamp for r in records])
    ratings = np.array([r.rating for r in records])
    for rows in by_product.values():
        block, sorted_days = _product_context(days[rows], ratings[rows])
        values[rows, width:width + len(block)] = block
        values[rows, width + len(block):] = _review_part(
            [records[i] for i in rows], sorted_days)

    names, scopes, kinds = (list(c) for c in zip(*columns))
    return FeatureMatrix(values, names, scopes, kinds), user_ids
