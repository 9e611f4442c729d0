"""Seeded synthetic data for tests, the demo scripts, and benchmarks.

Two generators: a plain two-Gaussian point cloud for the learning checks,
and a small review corpus whose "spammers" write bursty, repetitive,
short-summary reviews, so the full extract/analyze/train pipeline has real
signal to find.
"""

from __future__ import annotations

import numpy as np

from .features import ReviewRecord
from .numerics import Rng

__all__ = ["two_gaussian_dataset", "synthetic_review_corpus"]


def two_gaussian_dataset(n_per_class: int = 500, separation: float = 2.0,
                         seed: int = 42):
    """Two unit-variance Gaussian blobs at (-separation, 0) and (+separation, 0).

    Returns (X, y) with labels 0 for the left blob, 1 for the right.
    """
    rng = Rng(seed)
    left = rng.normal((n_per_class, 2), 1.0) + np.array([-separation, 0.0])
    right = rng.normal((n_per_class, 2), 1.0) + np.array([separation, 0.0])
    X = np.vstack([left, right])
    y = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    return X, y


_CATEGORIES = ("books", "music", "electronics", "kitchen", "toys")

_GENUINE_SUMMARIES = (
    "solid product works as described",
    "very happy with this purchase overall",
    "good value and reliable quality",
    "does the job nicely",
)
_GENUINE_TEXTS = (
    "I have used this for a while now and it is reliable and well made. "
    "Delivery was quick and the quality is good.",
    "Works exactly as described. The build quality is solid and I would "
    "recommend it to a friend.",
    "Decent quality for the price. A few small quirks but nothing serious, "
    "and it has held up well.",
)
_SPAM_SUMMARIES = ("best ever", "amazing buy now", "perfect", "great great")
_SPAM_TEXTS = (
    "Amazing amazing amazing. Best product ever. Buy it now.",
    "Perfect. Great. Wonderful. Five stars.",
    "This is the best thing I have ever bought, totally perfect and amazing.",
)
# Each user reviews a number of distinct products drawn from [low, high).
_GENUINE_REVIEWS = (4, 12)
_SPAM_REVIEWS = (6, 15)

_NAMES = ("alice", "david", "susan", "james", "karen", "peter", "laura",
          "kevin", "rachel", "thomas")


def synthetic_review_corpus(n_genuine: int = 40, n_spammers: int = 40,
                            n_products: int = 60, seed: int = 7):
    """A labeled review corpus with behaviorally distinct spammers.

    Genuine users rate across the scale over a long window with verbose
    reviews; spammers blast 4-5 star reviews of near-identical text into a
    short window, early in each product's life. Returns
    ``(records, spam_scores)`` where spam_scores maps user_id to a score in
    [0, 1] (>= 0.5 marks a spammer). ``n_products`` must cover the most
    reviews one user can draw (14 for a spammer, 11 for a genuine user).
    """
    most = max(_SPAM_REVIEWS[1] - 1 if n_spammers > 0 else 0,
               _GENUINE_REVIEWS[1] - 1 if n_genuine > 0 else 0)
    if n_products < most:
        raise ValueError(f"n_products must be at least {most}, the most reviews "
                         f"one user can draw, got {n_products}")
    rng = Rng(seed)
    gen = rng._gen
    records: list[ReviewRecord] = []
    scores: dict[str, float] = {}

    product_birth = {f"p{j:03d}": int(gen.integers(0, 4000))
                     for j in range(n_products)}
    product_ids = sorted(product_birth)

    for i in range(n_genuine):
        uid = f"gen{i:03d}"
        scores[uid] = float(gen.uniform(0.0, 0.4))
        name = _NAMES[int(gen.integers(0, len(_NAMES)))]
        n_rev = int(gen.integers(*_GENUINE_REVIEWS))
        products = gen.choice(product_ids, size=n_rev, replace=False)
        base_day = int(gen.integers(0, 2000))
        for p in products:
            day = product_birth[p] + int(gen.integers(30, 1500))
            records.append(ReviewRecord(
                user_id=uid, product_id=str(p),
                rating=int(gen.integers(1, 6)),
                helpful_votes=int(gen.integers(0, 30)),
                unhelpful_votes=int(gen.integers(0, 4)),
                timestamp=max(day, base_day),
                category=_CATEGORIES[int(gen.integers(0, len(_CATEGORIES)))],
                summary_text=_GENUINE_SUMMARIES[int(gen.integers(0, len(_GENUINE_SUMMARIES)))],
                review_text=_GENUINE_TEXTS[int(gen.integers(0, len(_GENUINE_TEXTS)))],
                user_name=name,
            ))

    for i in range(n_spammers):
        uid = f"spam{i:03d}"
        scores[uid] = float(gen.uniform(0.5, 1.0))
        n_rev = int(gen.integers(*_SPAM_REVIEWS))
        products = gen.choice(product_ids, size=n_rev, replace=False)
        burst_day = int(gen.integers(0, 3500))
        for p in products:
            day = max(product_birth[p] + int(gen.integers(0, 10)), burst_day)
            records.append(ReviewRecord(
                user_id=uid, product_id=str(p),
                rating=int(gen.integers(4, 6)),
                helpful_votes=int(gen.integers(0, 3)),
                unhelpful_votes=int(gen.integers(0, 15)),
                timestamp=day,
                category=_CATEGORIES[int(gen.integers(0, 2))],
                summary_text=_SPAM_SUMMARIES[int(gen.integers(0, len(_SPAM_SUMMARIES)))],
                review_text=_SPAM_TEXTS[int(gen.integers(0, len(_SPAM_TEXTS)))],
                user_name=f"user{int(gen.integers(1000, 99999))}",
            ))

    return records, scores
