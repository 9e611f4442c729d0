"""Write the seeded review corpus of the golden extract fixture.

    python tests/data/golden/extract/make_corpus.py tests/data/golden/extract

writes ``reviews.jsonl`` and ``scores.tsv``. The corpus mixes what the
synthetic generator never draws: blank, whitespace-only, common, uncommon
and non-ASCII names, memos, days before 1970, many calendar years per user
and many months per product, zero and large vote counts, and users with
more reviews than the default cap of 20.
"""

import json
import os
import sys

import numpy as np

WORDS = ("great", "terrible", "love", "hate", "GREAT!", "awful,", "fine",
         "product", "it's", "the", "value", "broken", "excellent", "poor",
         "works", "again", "zoë", "déjà", "vu")
NAMES = ("", "  ", "alice", "Alice Smith", "xq7zt", "Zoë Ångström",
         "KAREN jones", "user12345")
MEMOS = ("", "avid reader", "ex-tester, honest reviews")
CATEGORIES = ("books", "music", "toys", "garden")


def main(out_dir):
    gen = np.random.Generator(np.random.PCG64(20261019))
    products = [f"p{j:02d}" for j in range(24)]
    rows, scores = [], {}
    for i in range(40):
        uid = f"u{i:02d}"
        scores[uid] = 0.5 if i == 7 else round(float(gen.uniform(0, 1)), 4)
        name, memo = NAMES[i % len(NAMES)], MEMOS[i % len(MEMOS)]
        n = int(gen.integers(22, 31)) if i % 9 == 4 else int(gen.integers(1, 13))
        if i == 3:
            n = 15  # spread over years below, under the cap
        base = int(gen.integers(-900, 12000))
        for k in range(n):
            if i == 3:
                day = -500 + 365 * k + int(gen.integers(0, 40))
            elif i % 5 == 0:
                day = base  # every review on one day
            else:
                day = base + int(gen.integers(0, 2500))
            product = ("p00" if i % 4 == 1 and k < 2
                       else products[int(gen.integers(0, len(products)))])
            votes = gen.integers(0, 40, size=2) * gen.integers(0, 2, size=2)
            text = " ".join(WORDS[j] for j in gen.integers(0, len(WORDS),
                                                           int(gen.integers(0, 9))))
            rows.append({
                "user_id": uid, "product_id": product,
                "rating": int(gen.integers(1, 6)),
                "helpful_votes": int(votes[0]), "unhelpful_votes": int(votes[1]),
                "timestamp": day,
                "category": CATEGORIES[int(gen.integers(0, len(CATEGORIES)))],
                "summary_text": " ".join(WORDS[j] for j in gen.integers(
                    0, len(WORDS), int(gen.integers(0, 4)))),
                "review_text": text, "user_name": name, "user_memo": memo})
    # One product reviewed in many calendar months, by several users.
    for k in range(12):
        rows.append({
            "user_id": f"u{30 + k % 6:02d}", "product_id": "p99",
            "rating": 1 + k % 5, "helpful_votes": k, "unhelpful_votes": 0,
            "timestamp": 15000 + 31 * k, "category": "books",
            "summary_text": "", "review_text": "fine value", "user_name": "",
            "user_memo": ""})
    order = gen.permutation(len(rows))
    with open(os.path.join(out_dir, "reviews.jsonl"), "w", encoding="utf-8") as fh:
        for j in order:
            fh.write(json.dumps(rows[j], ensure_ascii=False) + "\n")
    with open(os.path.join(out_dir, "scores.tsv"), "w", encoding="utf-8") as fh:
        for uid, score in sorted(scores.items()):
            fh.write(f"{uid}\t{score}\n")


if __name__ == "__main__":
    main(sys.argv[1])
