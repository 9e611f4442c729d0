#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, then extract features, screen
them, train, evaluate on held-out rows, and run the feature-scope ablation,
all through the CLI entry points. Everything lands under --out."""

import argparse
import os
import sys

from make_demo_reviews import main as make_demo_reviews
from spamforest.cli import main as cli


def run(args):
    print(f"$ spamforest {' '.join(args)}")
    rc = cli(args)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="working directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=80)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    make_demo_reviews(["--out", args.out, "--seed", str(args.seed)])

    config_path = os.path.join(args.out, "train.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(f"n_epoch = {args.epochs}\nseed = {args.seed}\n"
                 f"batch_size = 50\n")

    feat = os.path.join(args.out, "features")
    run(["extract", "--reviews", os.path.join(args.out, "reviews.jsonl"),
         "--scores", os.path.join(args.out, "scores.tsv"), "--out", feat,
         "--seed", str(args.seed)])
    run(["analyze", "--features", feat, "--out",
         os.path.join(args.out, "screening"), "--histograms"])

    from spamforest.dataio import load_features
    n_rows = load_features(feat).n_rows
    train_count = int(n_rows * 0.8)
    model_dir = os.path.join(args.out, "model")
    run(["train", "--features", feat, "--out", model_dir, "--config",
         config_path, "--train-count", str(train_count)])
    run(["evaluate", "--features", os.path.join(model_dir, "heldout"),
         "--model", os.path.join(model_dir, "model.json"), "--out",
         os.path.join(args.out, "evaluation")])
    run(["predict", "--features", os.path.join(model_dir, "heldout"),
         "--model", os.path.join(model_dir, "model.json"), "--out",
         os.path.join(args.out, "predictions")])
    run(["ablate", "--features", feat, "--out",
         os.path.join(args.out, "ablation"), "--config", config_path,
         "--train-count", str(train_count)])

    print(f"\nartifacts under {args.out}: features/, screening/, model/, "
          f"evaluation/metrics.txt, predictions/, ablation/ablation.tsv")


if __name__ == "__main__":
    main()
