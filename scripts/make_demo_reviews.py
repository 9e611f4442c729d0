#!/usr/bin/env python3
"""Write a synthetic labeled review corpus for exercising the pipeline.

Produces <out>/reviews.jsonl and <out>/scores.tsv in the formats the
`spamforest extract` command ingests.
"""

import argparse
import dataclasses
import json
import os

from spamforest.synthetic import synthetic_review_corpus


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--genuine", type=int, default=40)
    parser.add_argument("--spammers", type=int, default=40)
    parser.add_argument("--products", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    try:
        records, scores = synthetic_review_corpus(
            n_genuine=args.genuine, n_spammers=args.spammers,
            n_products=args.products, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    os.makedirs(args.out, exist_ok=True)
    reviews_path = os.path.join(args.out, "reviews.jsonl")
    with open(reviews_path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(dataclasses.asdict(r)) + "\n")
    scores_path = os.path.join(args.out, "scores.tsv")
    with open(scores_path, "w", encoding="utf-8") as fh:
        for uid, score in sorted(scores.items()):
            fh.write(f"{uid}\t{score}\n")

    n_spam = sum(1 for s in scores.values() if s >= 0.5)
    print(f"wrote {len(records)} reviews by {len(scores)} users "
          f"({n_spam} spammers) to {args.out}")


if __name__ == "__main__":
    main()
