"""Behavioral and review-content features for (user, review) pairs.

Each dataset row describes one review: the writing user's behavioral
profile (history, rating, feedback and time signals, identical across that
user's rows) concatenated with the review's product-context signals. The
registry names the columns: ``USER_FEATURES``, the ``CATEGORY_BLOCK`` rule
(one ``category_ratio:<c>`` column per catalog category) and
``REVIEW_FEATURES`` list every column with its scope tag (one of history,
rating, feedback, time, product, review) and its kind (continuous or
categorical), and ``feature_columns`` expands them in matrix order. The
extraction functions return bare value blocks in that order and write no
names. ``dataio.save_features`` writes the expanded columns, with
``MANIFEST_VERSION``, to a feature directory's ``manifest.json``.

Reviews arrive as a ``ReviewTable``: one column per ``ReviewRecord``
field, text fields as object arrays of str and integer fields as int64
arrays. ``Columns`` adds integer user, product and category codes to the
table's ratings, votes and days. ``extract_user_features`` builds every
user's profile in one ``(n_users, width)`` block, from ``bincount``s over
the user codes and from rows sorted by user; ``extract_review_features``
builds every row's product block and review part the same way, grouped by
product, with one sort of (product, day) keys for the ranks. Word counts
and sentiment scores are computed over whole text columns
(``sentiment_scores``). No per-review Python object is made: Python loops
run only over the strings of a column (ids, names, memos, texts), mostly
inside ``map``.

Conventions that apply throughout:

* Entropies are in nats; a single-bin distribution has entropy 0.
* Review-time entropy bins by calendar year; product comment-time entropy
  bins by calendar month.
* Every feature named ``*_ratio`` lies in [0, 1]; ratios with a zero
  denominator emit 0.
* Categorical features are emitted as numeric codes and tagged
  ``categorical`` so the screening module routes them to the
  contingency-table test.

All functions here are pure: the same reviews always produce the same
values, bit for bit those of computing each user's and each product's
statistics on its own arrays with ``numerics.entropy``, ``np.median`` and
``mean``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from functools import lru_cache
from importlib import resources
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "ReviewRecord",
    "ReviewTable",
    "FeatureMatrix",
    "MANIFEST_VERSION",
    "USER_FEATURES",
    "CATEGORY_BLOCK",
    "REVIEW_FEATURES",
    "SCOPES",
    "KINDS",
    "feature_columns",
    "Columns",
    "extract_user_features",
    "extract_review_features",
    "sentiment_scores",
    "build_feature_matrix",
]

MANIFEST_VERSION = 1

SCOPES = ("history", "rating", "feedback", "time", "product", "review")
KINDS = ("continuous", "categorical")

_EPOCH = date(1970, 1, 1)
# Timestamps must name a representable date: date.min .. date.max.
_MIN_DAY = (date.min - _EPOCH).days
_MAX_DAY = (date.max - _EPOCH).days
# Vote counts must fit the int64 columns of a ReviewTable.
_MAX_VOTES = np.iinfo(np.int64).max


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
        if not (0 <= self.helpful_votes <= _MAX_VOTES
                and 0 <= self.unhelpful_votes <= _MAX_VOTES):
            raise ValueError(f"vote counts must be in 0..{_MAX_VOTES}")
        if not _MIN_DAY <= self.timestamp <= _MAX_DAY:
            raise ValueError(
                f"timestamp must be in {_MIN_DAY}..{_MAX_DAY} days since "
                f"1970-01-01, got {self.timestamp}")


# Each ReviewRecord field's column dtype in a ReviewTable, in field order.
_COLUMN_DTYPES = tuple(object if f.type == "str" else np.int64
                       for f in fields(ReviewRecord))


@dataclass(eq=False)
class ReviewTable:
    """Reviews as columns: entry i of every column belongs to review i.

    There is one column per ``ReviewRecord`` field, of the same name and in
    the same order: a text field as a 1-D object array of str, an integer
    field as an int64 array. ``len`` is the number of reviews.
    """

    user_id: np.ndarray
    product_id: np.ndarray
    rating: np.ndarray
    helpful_votes: np.ndarray
    unhelpful_votes: np.ndarray
    timestamp: np.ndarray
    category: np.ndarray
    summary_text: np.ndarray
    review_text: np.ndarray
    user_name: np.ndarray
    user_memo: np.ndarray

    @classmethod
    def from_columns(cls, columns) -> "ReviewTable":
        """The table of one sequence of values per field, in field order.
        An integer beyond int64 raises OverflowError."""
        return cls(*(np.array(col, dtype) for col, dtype in zip(columns, _COLUMN_DTYPES)))

    @classmethod
    def from_records(cls, records) -> "ReviewTable":
        """The table of a list of ``ReviewRecord``s."""
        return cls.from_columns([list(map(attrgetter(f.name), records))
                                 for f in fields(ReviewRecord)])

    def in_range(self) -> bool:
        """Whether every review passes ``ReviewRecord``'s range checks."""
        return bool(((self.rating >= 1) & (self.rating <= 5)).all()
                    and (self.helpful_votes >= 0).all()
                    and (self.unhelpful_votes >= 0).all()
                    and ((self.timestamp >= _MIN_DAY) & (self.timestamp <= _MAX_DAY)).all())

    def take(self, rows) -> "ReviewTable":
        """The reviews at the index array ``rows``, in its order."""
        return ReviewTable(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __len__(self) -> int:
        return len(self.user_id)


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


# The words of a text are the [a-z']+ runs of its lowered str. Those are the
# runs of bytes a-z and ' in its UTF-8 encoding, since every non-ASCII
# character encodes to bytes >= 0x80. _WORD_BYTES maps every other byte to
# a space, except 0xFF, which UTF-8 never holds: it separates the texts.
_SEPARATOR = b"\xff"
_WORD_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz'" + _SEPARATOR
                    else ord(" ") for b in range(256))
# The lexicon value that marks a separator token; polarities are -1, 0, 1.
_SEPARATOR_MARK = 2


@lru_cache(maxsize=None)
def _token_polarity() -> dict[bytes, int]:
    """UTF-8 word -> its polarity: 1 positive, -1 negative, 0 if listed as
    both; and the separator token -> ``_SEPARATOR_MARK``."""
    polarity = dict.fromkeys(map(str.encode, _read_wordlist("positive_words.txt")), 1)
    for word in map(str.encode, _read_wordlist("negative_words.txt")):
        polarity[word] = polarity.get(word, 0) - 1
    polarity[_SEPARATOR] = _SEPARATOR_MARK
    return polarity


# Texts scanned at a time: bounds the memory the token list takes.
_SENTIMENT_BLOCK = 256


def sentiment_scores(texts: list[str]) -> np.ndarray:
    """Sign of (positive hits - negative hits) of each text against the
    bundled lexicon, as int64: 1 positive, -1 negative, 0 on ties or no
    words. A word is a run of ``[a-z']`` in the lowered text.

    A block of texts is scanned at once: lowered, UTF-8 encoded (a lone
    surrogate as its 3 bytes), joined by separator tokens, every byte that
    is no word byte mapped to a space by one ``translate`` and split once.
    Each token's polarity is looked up in one pass and each text's sum read
    off a cumulative sum at the separators.
    """
    polarity = _token_polarity()
    scores = np.zeros(len(texts), np.int64)
    for start in range(0, len(texts), _SENTIMENT_BLOCK):
        block = texts[start:start + _SENTIMENT_BLOCK]
        encoded = map(str.encode, map(str.lower, block), repeat("utf-8"),
                      repeat("surrogatepass"))
        tokens = (b" " + _SEPARATOR + b" ").join(encoded).translate(_WORD_BYTES).split()
        values = np.fromiter(map(polarity.get, tokens, repeat(0)), np.int64, len(tokens))
        ends = np.flatnonzero(values == _SEPARATOR_MARK)
        values[ends] = 0
        # The sum through each text's last token, then the differences.
        through = np.concatenate(([0], np.cumsum(values)))[np.append(ends, len(tokens))]
        scores[start:start + len(block)] = np.sign(np.diff(through, prepend=0))
        del tokens  # before the next block's split
    return scores


def _word_counts(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(len, map(str.split, texts)), np.int64, len(texts))


class Columns(NamedTuple):
    """A table's integer columns, one entry per review. ``user`` and
    ``product`` number each distinct id 0, 1, ... in order of first
    appearance; ``category`` is the index in the sorted catalog. The other
    four are the table's own arrays."""

    user: np.ndarray
    product: np.ndarray
    category: np.ndarray
    rating: np.ndarray
    helps: np.ndarray
    unhelps: np.ndarray
    day: np.ndarray

    @classmethod
    def of(cls, table: ReviewTable, categories: list[str]) -> "Columns":
        def coded(keys, index=None):
            keys = keys.tolist()
            if index is None:  # each distinct key in order of first appearance
                index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))

        return cls(coded(table.user_id), coded(table.product_id),
                   coded(table.category, {c: i for i, c in enumerate(categories)}),
                   table.rating, table.helpful_votes, table.unhelpful_votes,
                   table.timestamp)


def _segments(codes: np.ndarray, n_groups: int):
    """Size of each group 0 .. n_groups - 1, and its first position in
    ``codes`` sorted."""
    sizes = np.bincount(codes, minlength=n_groups)
    return sizes, np.cumsum(sizes) - sizes


def _bins(codes: np.ndarray, values: np.ndarray):
    """Group code and count of every distinct (code, value) pair, ordered
    by code, then value."""
    low = values.min()
    span = values.max() - low + 1
    keys, counts = np.unique(codes * span + (values - low), return_counts=True)
    return keys // span, counts


def _grouped_entropy(group: np.ndarray, counts: np.ndarray,
                     totals: np.ndarray) -> np.ndarray:
    """``numerics.entropy(bins / total)`` of every group at once.

    ``group`` and ``counts`` list the nonzero bins, at least one per group;
    ``totals`` holds each group's count total. ``entropy`` sums a group's
    sorted terms as one array, and numpy sums 8 or more terms pairwise, so
    the rounding depends on how many terms there are; a segmented
    ``reduceat`` would add them in sequence. Each group is therefore summed
    as a row of a matrix exactly as wide as its term count, one matrix per
    distinct count, which rounds as the one-array sum does.
    """
    p = counts / totals[group]
    terms = p * np.log(p)
    terms = terms[np.lexsort((terms, group))]
    sizes, starts = _segments(group, len(totals))
    sums = np.empty(len(totals))
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        sums[rows] = terms[starts[rows, None] + np.arange(size)].sum(axis=1)
    return -sums + 0.0


def _vote_stats(votes: np.ndarray, user: np.ndarray, sizes: np.ndarray,
                starts: np.ndarray):
    """Sum, mean, median, min and max of each user's votes, as float64."""
    votes = votes.astype(np.float64)
    total = np.bincount(user, weights=votes, minlength=len(sizes))
    ranked = votes[np.lexsort((votes, user))]
    low, high = starts + (sizes - 1) // 2, starts + sizes // 2
    median = ranked[low]
    even = low < high
    median[even] = (ranked[low[even]] + ranked[high[even]]) / 2
    return total, total / sizes, median, ranked[starts], ranked[starts + sizes - 1]


def extract_user_features(cols: Columns, table: ReviewTable,
                          n_categories: int) -> np.ndarray:
    """Behavioral profile of every user, one float64 row per user code.

    A row holds the ``USER_FEATURES`` values in registry order, then the
    share of the user's reviews in each of the ``n_categories`` catalog
    categories (the ``CATEGORY_BLOCK``). Name and memo come from the user's
    first review. Counts, sums and ratios are ``bincount``s over the user
    codes; minima, maxima and medians are read from rows sorted by user.
    """
    user = cols.user
    n_users = int(user.max()) + 1
    sizes, starts = _segments(user, n_users)
    order = np.argsort(user, kind="stable")

    common_names = _read_wordlist("common_names.txt")
    first = order[starts]
    history = []
    for uid, name, memo in zip(*(col[first].tolist() for col in
                                 (table.user_id, table.user_name, table.user_memo))):
        name = name if name else uid
        name_token = name.lower().split()[0] if name.split() else ""
        history.append((len(name), name_token not in common_names,
                        bool(memo), len(memo)))

    def extremes(values):
        ranked = values[order]
        return np.minimum.reduceat(ranked, starts), np.maximum.reduceat(ranked, starts)

    # High rates are scores 4 and 5; low rates are 1 and 2. Score 3 counts
    # toward neither, so the two ratios sum to at most 1.
    score_counts = np.bincount(user * 5 + cols.rating - 1,
                               minlength=5 * n_users).reshape(n_users, 5)
    rated = score_counts > 0
    help_stats = _vote_stats(cols.helps, user, sizes, starts)
    unhelp_stats = _vote_stats(cols.unhelps, user, sizes, starts)
    total_votes = help_stats[0] + unhelp_stats[0]
    first_day, last_day = extremes(cols.day)
    years = cols.day.astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64)
    year_group, year_counts = _bins(user, years)
    first_year, last_year = extremes(years)
    category_counts = np.bincount(user * n_categories + cols.category,
                                  minlength=n_users * n_categories)
    return np.column_stack([
        # history
        np.bincount(_bins(user, cols.product)[0], minlength=n_users),
        np.array(history, dtype=np.int64),
        # rating
        *extremes(cols.rating), score_counts / sizes[:, None], score_counts,
        (score_counts[:, 3] + score_counts[:, 4]) / sizes,
        (score_counts[:, 0] + score_counts[:, 1]) / sizes,
        _grouped_entropy(np.nonzero(rated)[0], score_counts[rated], sizes),
        np.bincount(user, weights=cols.rating, minlength=n_users) / sizes,
        # feedback
        help_stats[0], unhelp_stats[0], help_stats[1], unhelp_stats[1],
        *(np.divide(s[0], total_votes, out=np.zeros(n_users), where=total_votes > 0)
          for s in (help_stats, unhelp_stats)),
        *help_stats[2:], *unhelp_stats[2:],
        # time
        last_day - first_day, _grouped_entropy(year_group, year_counts, sizes),
        first_day == last_day,
        np.bincount(year_group, minlength=n_users) / (last_year - first_year + 1),
        # category block
        category_counts.reshape(n_users, n_categories) / sizes[:, None],
    ])


def extract_review_features(cols: Columns, table: ReviewTable) -> np.ndarray:
    """The ``REVIEW_FEATURES`` values of every review, one float64 row each.

    The product block (mean rating, review count, score entropy, time gap,
    comment-time entropy over calendar months, first-day count) is computed
    once per product and repeated on its rows. Each review's (product, day)
    key is sorted once: a review's rank is one plus the number of its
    product's reviews posted on an earlier day, one ``searchsorted`` of its
    key, so reviews of the same day share the earliest rank.
    """
    product, day = cols.product, cols.day
    n_products = int(product.max()) + 1
    sizes, starts = _segments(product, n_products)
    keys = product * (day.max() - day.min() + 1) + (day - day.min())
    ranked = np.sort(keys)
    first_key = ranked[starts]
    gap = ranked[starts + sizes - 1] - first_key
    months = day.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    context = np.column_stack([
        np.bincount(product, weights=cols.rating, minlength=n_products) / sizes,
        sizes, _grouped_entropy(*_bins(product, cols.rating), sizes), gap,
        _grouped_entropy(*_bins(product, months), sizes),
        np.searchsorted(ranked, first_key, "right") - starts])

    since_first = keys - first_key[product]
    row_gap = gap[product]
    rank = 1 + np.searchsorted(ranked, keys, "left") - starts[product]
    summaries, reviews = table.summary_text.tolist(), table.review_text.tolist()
    return np.column_stack([
        context[product], cols.rating, cols.helps, cols.unhelps, since_first,
        np.divide(since_first, row_gap, out=np.zeros(len(keys)), where=row_gap > 0),
        rank, rank / sizes[product], _word_counts(summaries), _word_counts(reviews),
        sentiment_scores(summaries + reviews).reshape(2, -1).T])


def build_feature_matrix(table: ReviewTable):
    """One feature row per review: user profile + category block + review part.

    Returns ``(FeatureMatrix, user_ids)`` with ``user_ids[i]`` naming the
    author of row i. The category catalog is every category seen in
    ``table``, sorted. Every block is computed from the columns of all
    reviews at once, so the cost is linear in the number of reviews, up to
    the sorts.
    """
    if not len(table):
        raise ValueError("cannot build a feature matrix from zero records")
    categories = sorted(set(table.category.tolist()))
    cols = Columns.of(table, categories)
    names, scopes, kinds = (list(c) for c in zip(*feature_columns(categories)))
    values = np.empty((len(table), len(names)))
    width = len(names) - len(REVIEW_FEATURES)
    values[:, :width] = extract_user_features(cols, table, len(categories))[cols.user]
    values[:, width:] = extract_review_features(cols, table)
    return FeatureMatrix(values, names, scopes, kinds), table.user_id.tolist()
