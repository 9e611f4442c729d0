"""The benchmark's workloads: seeded inputs, the timed CLI commands, and
the checks on what those commands write.

Every input is generated from the benchmark seed; the program sees only
the generated files. ``setup`` builds a workload's inputs in a directory,
``commands`` lists the CLI invocations of one timed pass, and ``check``
verifies that pass's outputs.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from contextlib import redirect_stdout

import numpy as np

import checks

# Sizes of the full benchmark and of the smoke mode (--smoke).
SIZES = {
    "full": {
        # synthetic_review_corpus(genuine, spammers, products)
        "demo_corpus": (400, 400, 600),     # about 7k reviews, ~12 per product
        "dense_corpus": (200, 200, 30),     # about 3.5k reviews, ~117 per product
        "score_source": (100, 100, 150),    # about 1.7k rows to resample from
        "score_rows": 24000,
        "default_epochs": 2,
        "deep_epochs": 1,
    },
    "tiny": {
        "demo_corpus": (20, 20, 30),
        "dense_corpus": (20, 20, 15),
        "score_source": (10, 10, 15),
        "score_rows": 600,
        "default_epochs": 1,
        "deep_epochs": 1,
    },
}

DEFAULT_CAP = 20  # spamforest extract's default --cap
INGEST_CAP = 10  # below the spammers' 6-14 reviews, so capping subsamples


def run_cli(argv, tracer=None) -> int:
    """spamforest.cli.main in-process, with its progress lines swallowed.

    With a tracer, the call is the root span ``cli.<command>``.
    """
    from spamforest import cli
    with redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        return tracer.run(f"cli.{argv[0]}", cli.main, argv)


def write_corpus(d, corpus, seed) -> dict:
    """Write reviews.jsonl and scores.tsv for a seeded synthetic corpus."""
    from spamforest.synthetic import synthetic_review_corpus
    records, scores = synthetic_review_corpus(*corpus, seed=seed)
    fields = [f.name for f in dataclasses.fields(records[0])]
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "reviews.jsonl"), "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({f: getattr(r, f) for f in fields}) + "\n")
    with open(os.path.join(d, "scores.tsv"), "w", encoding="utf-8") as fh:
        for uid, score in sorted(scores.items()):
            fh.write(f"{uid}\t{score!r}\n")
    per_user: dict[str, int] = {}
    for r in records:
        per_user[r.user_id] = per_user.get(r.user_id, 0) + 1
    return {"reviews": len(records), "users": len(per_user),
            "products": corpus[2], "per_user": per_user}


def capped_rows(per_user: dict, cap: int) -> int:
    return sum(min(n, cap) for n in per_user.values())


def extract_args(d, out, cap=None):
    argv = ["extract", "--reviews", os.path.join(d, "reviews.jsonl"),
            "--scores", os.path.join(d, "scores.tsv"), "--out", out]
    return argv + (["--cap", str(cap)] if cap is not None else [])


def write_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in values.items():
            fh.write(f"{key} = {val}\n")


class Workload:
    name = ""
    why = ""
    hashed: tuple[str, ...] = ()   # pass outputs whose sha256 is recorded

    def setup(self, d, seed, size) -> dict:
        raise NotImplementedError

    def commands(self, d, out, info) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, checker, d, out, info) -> dict:
        raise NotImplementedError

    def check_setup(self, checker, d, info):
        """Checks on the outputs of commands run during setup."""

    def hashes(self, out) -> dict:
        return {rel: checks.sha256(os.path.join(out, rel)) for rel in self.hashed
                if os.path.exists(os.path.join(out, rel))}


class Train(Workload):
    hashed = ("training_log.tsv", "model.json", "heldout/features.tsv")

    def __init__(self, name, why, epochs_key, **config):
        self.name, self.why = name, why
        self.epochs_key, self.config = epochs_key, config

    def setup(self, d, seed, size):
        s = SIZES[size]
        corpus = write_corpus(d, s["demo_corpus"], seed)
        feat = os.path.join(d, "features")
        if run_cli(extract_args(d, feat)) != 0:
            raise RuntimeError("extract failed during setup")
        rows = capped_rows(corpus.pop("per_user"), DEFAULT_CAP)
        n_epoch = s[self.epochs_key]
        write_config(os.path.join(d, "train.cfg"), n_epoch=n_epoch, seed=seed,
                     **self.config)
        train_count = rows * 6 // 7
        return {"corpus": corpus, "feature_rows": rows,
                "features": len(checks.manifest_names(feat)),
                "train_count": train_count, "n_epoch": n_epoch,
                "setup_hashes": {"features.tsv": checks.sha256(
                    os.path.join(feat, "features.tsv"))}}

    def check_setup(self, checker, d, info):
        checker.check("setup features.tsv has one row per capped review",
                      checks.feature_dir_ok, os.path.join(d, "features"),
                      info["feature_rows"])

    def commands(self, d, out, info):
        return [("train", ["train", "--features", os.path.join(d, "features"),
                           "--out", out, "--config", os.path.join(d, "train.cfg"),
                           "--train-count", str(info["train_count"])])]

    def check(self, checker, d, out, info):
        result = {}

        def log_ok():
            result["final_loss"] = checks.training_log_losses(
                os.path.join(out, "training_log.tsv"), info["n_epoch"])[-1]
            return True

        checker.check("training_log.tsv has one finite loss per epoch", log_ok)
        checker.check("heldout/ holds the rows not trained on", checks.feature_dir_ok,
                      os.path.join(out, "heldout"),
                      info["feature_rows"] - info["train_count"])
        return result

    def heldout_accuracy(self, checker, out, side) -> float | None:
        """Accuracy of the trained model on <out>/heldout (not timed)."""
        argv = ["evaluate", "--features", os.path.join(out, "heldout"),
                "--model", os.path.join(out, "model.json"), "--out", side]
        if not checker.check("evaluate on heldout exits 0", lambda: run_cli(argv) == 0):
            return None
        c = checks.metrics_counts(os.path.join(side, "metrics.txt"))
        return (c["tp"] + c["tn"]) / (c["tp"] + c["fp"] + c["tn"] + c["fn"])


class Ingest(Workload):
    name = "ingest"
    why = ("extract + analyze on a product-dense corpus: parsing, user and "
           "product feature blocks, screening and file writes; no model code")
    hashed = ("features/features.tsv", "screening/screening.tsv")

    def setup(self, d, seed, size):
        corpus = write_corpus(d, SIZES[size]["dense_corpus"], seed)
        rows = capped_rows(corpus.pop("per_user"), INGEST_CAP)
        return {"corpus": corpus, "feature_rows": rows, "cap": INGEST_CAP,
                "setup_hashes": {"reviews.jsonl": checks.sha256(
                    os.path.join(d, "reviews.jsonl"))}}

    def commands(self, d, out, info):
        feat = os.path.join(out, "features")
        return [("extract", extract_args(d, feat, INGEST_CAP)),
                ("analyze", ["analyze", "--features", feat,
                             "--out", os.path.join(out, "screening")])]

    def check(self, checker, d, out, info):
        feat = os.path.join(out, "features")
        checker.check("features.tsv has one row per capped review",
                      checks.feature_dir_ok, feat, info["feature_rows"])
        checker.check("screening.tsv has one row per feature", checks.screening_ok,
                      os.path.join(out, "screening", "screening.tsv"), feat)
        return {}


class Score(Workload):
    name = "score"
    why = ("predict + evaluate with a trained model on a large resampled "
           "feature directory: feature parsing and a forward-only pass")
    hashed = ("predictions/predictions.tsv", "evaluation/metrics.txt")

    def setup(self, d, seed, size):
        from spamforest.dataio import load_features, save_features
        from spamforest.features import FeatureMatrix
        s = SIZES[size]
        src = os.path.join(d, "source")
        corpus = write_corpus(src, s["score_source"], seed)
        source_rows = capped_rows(corpus.pop("per_user"), DEFAULT_CAP)
        feat = os.path.join(src, "features")
        if run_cli(extract_args(src, feat)) != 0:
            raise RuntimeError("extract failed during setup")
        cfg = os.path.join(src, "train.cfg")
        write_config(cfg, n_epoch=s["default_epochs"], seed=seed)
        if run_cli(["train", "--features", feat, "--out", os.path.join(d, "model"),
                    "--config", cfg]) != 0:
            raise RuntimeError("train failed during setup")

        ds = load_features(feat)
        pick = np.random.default_rng(seed).integers(0, ds.n_rows, s["score_rows"])
        m = ds.features
        big = FeatureMatrix(m.values[pick], list(m.names), list(m.scopes),
                            list(m.kinds), m.manifest_version)
        save_features(os.path.join(d, "rows"), big, ds.labels[pick],
                      [ds.user_ids[i] for i in pick])
        return {"corpus": corpus, "source_rows": source_rows,
                "feature_rows": int(s["score_rows"]), "features": m.n_features,
                "setup_hashes": {
                    "rows/features.tsv": checks.sha256(
                        os.path.join(d, "rows", "features.tsv")),
                    "model/model.json": checks.sha256(
                        os.path.join(d, "model", "model.json"))}}

    def check_setup(self, checker, d, info):
        checker.check("setup features.tsv has one row per capped review",
                      checks.feature_dir_ok, os.path.join(d, "source", "features"),
                      info["source_rows"])
        checker.check("resampled features.tsv has the requested rows",
                      checks.feature_dir_ok, os.path.join(d, "rows"),
                      info["feature_rows"])

    def commands(self, d, out, info):
        common = ["--features", os.path.join(d, "rows"),
                  "--model", os.path.join(d, "model", "model.json")]
        return [("predict", ["predict", *common,
                             "--out", os.path.join(out, "predictions")]),
                ("evaluate", ["evaluate", *common,
                              "--out", os.path.join(out, "evaluation")])]

    def check(self, checker, d, out, info):
        result = {}
        n = info["feature_rows"]

        def predictions_ok():
            result["n_correct"] = checks.predictions_correct(
                os.path.join(out, "predictions", "predictions.tsv"),
                os.path.join(d, "rows", "labels.tsv"), n)
            return True

        def evaluate_agrees():
            c = checks.metrics_counts(os.path.join(out, "evaluation", "metrics.txt"))
            total = c["tp"] + c["fp"] + c["tn"] + c["fn"]
            accuracy = result["n_correct"] / n
            result["accuracy"] = accuracy
            return (total == n and c["tp"] + c["tn"] == result["n_correct"]
                    and c["accuracy_text"] == f"{accuracy * 100:.2f}%")

        if checker.check("predictions.tsv: finite p_spam in [0, 1], labels "
                         "are the argmax", predictions_ok):
            checker.check("evaluate's accuracy equals predict's", evaluate_agrees)
        return result


WORKLOADS = {w.name: w for w in (
    Train("train_default",
          "train with the default TrainConfig structure on demo-corpus "
          "features: many small batches, so per-call cost dominates",
          "default_epochs"),
    Train("train_deep_forest",
          "train with 10 trees of depth 6, batch 150 on the same features: "
          "the forest (routing, reach, leaf backward) dominates",
          "deep_epochs", n_tree=10, n_depth=6, batch_size=150),
    Ingest(),
    Score(),
)}
