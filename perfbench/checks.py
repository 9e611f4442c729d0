"""Output checks on the files the spamforest commands write.

Every check goes through a ``Checker``, which counts attempts and
failures; the benchmark's ``ops_failed_ratio`` is failures over attempts,
commands included. A check that raises counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, fn, *args):
        """Run ``fn(*args)``; a falsy result or an exception is a failure."""
        self.attempted += 1
        try:
            ok = fn(*args)
            err = "" if ok else "returned false"
        except Exception as exc:  # a broken output file must not stop the run
            ok, err = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.messages.append(f"{what}: {err}")
        return bool(ok)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages[:50]}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_tsv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:] if line]


def manifest_names(feature_dir) -> list[str]:
    with open(os.path.join(feature_dir, "manifest.json"), encoding="utf-8") as fh:
        return [f["name"] for f in json.load(fh)["features"]]


def feature_dir_ok(feature_dir, expected_rows: int) -> bool:
    """features.tsv: one row per expected review, header = manifest names,
    every cell finite; labels.tsv has the same row count."""
    names = manifest_names(feature_dir)
    header, rows = read_tsv(os.path.join(feature_dir, "features.tsv"))
    _, label_rows = read_tsv(os.path.join(feature_dir, "labels.tsv"))
    return (header == names and len(rows) == expected_rows
            and len(label_rows) == expected_rows
            and all(len(r) == len(names) for r in rows)
            and all(math.isfinite(float(v)) for r in rows for v in r))


def screening_ok(report, feature_dir) -> bool:
    """screening.tsv: one row per feature, in manifest order."""
    _, rows = read_tsv(report)
    return [r[0] for r in rows] == manifest_names(feature_dir)


def training_log_losses(path, n_epoch: int) -> list[float]:
    """Losses from training_log.tsv; raises unless there is exactly one
    finite loss per epoch, in epoch order, with an accuracy in [0, 1]."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines() if line]
    if [int(r[0]) for r in rows] != list(range(n_epoch)):
        raise ValueError(f"expected epochs 0..{n_epoch - 1}, got {len(rows)} rows")
    losses = [float(r[1]) for r in rows]
    if not all(math.isfinite(v) for v in losses):
        raise ValueError(f"non-finite loss in {losses}")
    if not all(0.0 <= float(r[2]) <= 1.0 for r in rows):
        raise ValueError("accuracy outside [0, 1]")
    return losses


def predictions_correct(path, labels_path, expected_rows: int) -> int:
    """Number of predictions that match labels.tsv.

    Raises unless there is one row per feature row, every p_spam is finite
    and in [0, 1] (NaN fails), and each label is the argmax of
    (1 - p_spam, p_spam), ties going low.
    """
    header, rows = read_tsv(path)
    _, truth = read_tsv(labels_path)
    if header != ["row", "user_id", "label", "p_spam"]:
        raise ValueError(f"unexpected header {header}")
    if len(rows) != expected_rows or len(truth) != expected_rows:
        raise ValueError(f"{len(rows)} predictions, {len(truth)} labels, "
                         f"expected {expected_rows}")
    correct = 0
    for i, (row, (uid, label)) in enumerate(zip(rows, truth)):
        p = float(row[3])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"row {i}: p_spam {row[3]} not in [0, 1]")
        pred = int(row[2])
        # p_spam within rounding of 1/2 may go either way.
        if abs(p - 0.5) > 1e-12 and pred != int(p > 0.5):
            raise ValueError(f"row {i}: label {pred} is not the argmax of p_spam {p}")
        if int(row[0]) != i or row[1] != uid:
            raise ValueError(f"row {i}: index or user id out of order")
        correct += pred == int(label)
    return correct


def metrics_counts(path) -> dict:
    """tp/fp/tn/fn and the printed accuracy line of metrics.txt."""
    with open(path, encoding="utf-8") as fh:
        fields = dict(line.split("\t", 1) for line in fh.read().splitlines() if line)
    counts = {k: int(fields[k]) for k in ("tp", "fp", "tn", "fn")}
    counts["accuracy_text"] = fields["accuracy"]
    return counts
