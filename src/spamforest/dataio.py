"""Review ingestion, labeling, capping, normalization, the train/test
split, and model/feature-file serialization.

File formats
------------
Reviews: one JSON object per line with fields user_id, product_id, rating
(1-5), helpful_votes, unhelpful_votes, timestamp (days since 1970-01-01),
category, summary_text, review_text, and optional user_name / user_memo.
A delimited-text reader accepts the same fields as named header columns.

Spam scores: one ``user_id<TAB>average_score`` line per user, score in [0, 1].

Feature directory: ``features.tsv`` (numeric matrix, header row of feature
names), ``labels.tsv`` (user_id and label per row), ``manifest.json``
(column names, scopes, kinds, manifest version).

Model file: a single JSON document (format_version, sha256 checksum, config,
normalization stats, manifest version, and every tensor as base64 raw
little-endian float64), so save -> load -> predict is bit-exact. A wrong
format_version raises ModelVersionError; any corruption or truncation
raises ModelIntegrityError and loads nothing.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import (ConfigError, ModelIntegrityError, ModelVersionError,
                     ParseError)
from .features import FeatureMatrix, ReviewRecord
from .forest import ForestParams
from .numerics import Layer, Rng
from .training import Model, TrainConfig, parameter_blocks

__all__ = [
    "LabeledDataset",
    "NormStats",
    "MODEL_FORMAT_VERSION",
    "load_reviews",
    "load_reviews_delimited",
    "load_spam_scores",
    "label_and_cap_users",
    "normalize",
    "apply_normalization",
    "split_train_test",
    "save_model",
    "load_model",
    "save_features",
    "load_features",
]

MODEL_FORMAT_VERSION = 1

REQUIRED_FIELDS = (
    "user_id", "product_id", "rating", "helpful_votes", "unhelpful_votes",
    "timestamp", "category", "summary_text", "review_text",
)
OPTIONAL_FIELDS = ("user_name", "user_memo")

_INT_FIELDS = ("rating", "helpful_votes", "unhelpful_votes", "timestamp")
_STR_FIELDS = ("user_id", "product_id", "category", "summary_text",
               "review_text", "user_name", "user_memo")


@dataclass
class NormStats:
    """Per-column transform x -> (x - center) / scale fit on training rows."""

    method: str
    center: np.ndarray
    scale: np.ndarray

    def to_dict(self) -> dict:
        return {"method": self.method,
                "center": [float(v) for v in self.center],
                "scale": [float(v) for v in self.scale]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(d["method"], np.asarray(d["center"], dtype=np.float64),
                   np.asarray(d["scale"], dtype=np.float64))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.center) / self.scale


@dataclass
class LabeledDataset:
    features: FeatureMatrix
    labels: np.ndarray
    user_ids: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.n_rows
        if self.labels.shape != (n,) or len(self.user_ids) != n:
            raise ValueError(
                f"row counts differ: {n} feature rows, {self.labels.shape[0]} "
                f"labels, {len(self.user_ids)} user ids"
            )
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.features.n_rows


# ---------------------------------------------------------------------------
# Review ingestion


def _record_from_fields(fields: dict, line_number: int) -> ReviewRecord:
    missing = [f for f in REQUIRED_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"missing required field(s) {missing}", line_number)
    clean = {}
    for name in _INT_FIELDS:
        try:
            clean[name] = int(fields[name])
        except (TypeError, ValueError):
            raise ParseError(
                f"field {name!r} must be an integer, got {fields[name]!r}",
                line_number) from None
    for name in _STR_FIELDS:
        if name in fields and fields[name] is not None:
            clean[name] = str(fields[name])
    try:
        return ReviewRecord(**clean)
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from None


def _warn_unknown(fields: dict, seen_unknown: set, line_number: int):
    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    for name in fields:
        if name not in known and name not in seen_unknown:
            seen_unknown.add(name)
            warnings.warn(f"line {line_number}: ignoring unknown field {name!r}")


def load_reviews(path) -> list[ReviewRecord]:
    """Parse newline-delimited JSON review records.

    Empty lines are skipped; any malformed line raises ParseError with its
    line number.
    """
    records = []
    seen_unknown: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", ln) from None
            if not isinstance(fields, dict):
                raise ParseError("expected a JSON object", ln)
            _warn_unknown(fields, seen_unknown, ln)
            records.append(_record_from_fields(fields, ln))
    return records


def load_reviews_delimited(path, delimiter: str = "\t") -> list[ReviewRecord]:
    """Parse a delimited text export whose header row names the fields."""
    records = []
    seen_unknown: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cells = line.split(delimiter)
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, got {len(cells)}", ln)
            fields = dict(zip(header, cells))
            _warn_unknown(fields, seen_unknown, ln)
            records.append(_record_from_fields(fields, ln))
    if header is None:
        raise ParseError("file has no header row", 1)
    return records


def load_spam_scores(path) -> dict[str, float]:
    """Parse ``user_id<TAB>average_score`` lines into a dict."""
    scores = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(
                    f"expected 'user_id<TAB>score', got {line!r}", ln)
            try:
                score = float(parts[1])
            except ValueError:
                raise ParseError(f"score must be a number, got {parts[1]!r}",
                                 ln) from None
            if not 0.0 <= score <= 1.0:
                raise ParseError(f"score must be in [0, 1], got {score}", ln)
            scores[parts[0]] = score
    return scores


# ---------------------------------------------------------------------------
# Labeling and capping


def label_and_cap_users(records: list[ReviewRecord], spam_scores: dict[str, float],
                        cap: int = 20, seed: int = 0):
    """Label users by averaged spam score and cap their review counts.

    A user with average score below 0.5 is genuine (0); 0.5 or above is a
    spammer (1). Users with more than ``cap`` reviews keep a seeded uniform
    subsample of exactly ``cap``, in original order. Returns
    ``(capped_records, row_labels, user_labels)`` with ``row_labels[i]``
    the label of ``capped_records[i]``'s author.
    """
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    by_user: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_user.setdefault(r.user_id, []).append(i)

    missing = sorted(u for u in by_user if u not in spam_scores)
    if missing:
        raise ValueError(f"no spam score for user(s): {missing}")

    user_labels = {u: (0 if spam_scores[u] < 0.5 else 1) for u in by_user}

    rng = Rng(seed)
    keep: set[int] = set()
    for user in sorted(by_user):  # sorted so the draw order is reproducible
        idx = by_user[user]
        keep.update(rng.subsample(idx, cap) if len(idx) > cap else idx)

    capped = [r for i, r in enumerate(records) if i in keep]
    row_labels = np.array([user_labels[r.user_id] for r in capped], dtype=np.int64)
    return capped, row_labels, user_labels


# ---------------------------------------------------------------------------
# Normalization


def normalize(features: FeatureMatrix, method: str):
    """Fit a per-column transform and apply it; returns (matrix, stats).

    zscore: (x - mean) / std. minmax: (x - min) / (max - min). Constant
    columns map to all zeros under both methods (scale 1 guard).
    """
    if method not in ("zscore", "minmax", "none"):
        raise ConfigError(f"unknown normalization method {method!r}")
    values = features.values
    if method == "zscore":
        center = values.mean(axis=0)
        scale = values.std(axis=0)
    elif method == "minmax":
        center = values.min(axis=0)
        scale = values.max(axis=0) - values.min(axis=0)
    else:
        center = np.zeros(values.shape[1])
        scale = np.ones(values.shape[1])
    scale = np.where(scale == 0, 1.0, scale)
    stats = NormStats(method, center, scale)
    return apply_normalization(features, stats), stats


def apply_normalization(features: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Apply previously fit stats (e.g. training stats to test rows)."""
    if len(stats.center) != features.n_features:
        raise ConfigError(
            f"normalization stats cover {len(stats.center)} columns, "
            f"matrix has {features.n_features}"
        )
    return FeatureMatrix(stats.apply(features.values), list(features.names),
                         list(features.scopes), list(features.kinds),
                         features.manifest_version)


# ---------------------------------------------------------------------------
# Train/test split


def split_train_test(n_rows: int, train_count: int, seed: int):
    """Seeded permutation split: ``(train_indices, test_indices)``.

    The first ``train_count`` entries of ``Rng(seed).permutation(n_rows)``
    train, the rest are held out; together they are exactly
    ``range(n_rows)``.
    """
    if train_count > n_rows:
        raise ConfigError(f"train_count {train_count} exceeds {n_rows} rows")
    if train_count < 1:
        raise ConfigError(f"train_count must be >= 1, got {train_count}")
    perm = Rng(seed).permutation(n_rows)
    return perm[:train_count], perm[train_count:]


# ---------------------------------------------------------------------------
# Model serialization


def _tensor_to_json(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _tensor_from_json(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    expected = int(np.prod(d["shape"])) if d["shape"] else 1
    if arr.size != expected:
        raise ModelIntegrityError(
            f"tensor payload holds {arr.size} values, shape {d['shape']} "
            f"needs {expected}")
    return arr.reshape(d["shape"])


def _body_checksum(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(path, model: Model):
    """Write the model as a checksummed, versioned JSON document."""
    body = {
        "config": model.config.to_dict(),
        "n_classes": model.n_classes,
        "manifest_version": model.manifest_version,
        "norm_stats": model.norm_stats.to_dict() if model.norm_stats else None,
        "tensors": {name: _tensor_to_json(arr)
                    for name, arr in parameter_blocks(model)},
    }
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": _body_checksum(body),
        "body": body,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _collect_layers(tensors: dict, prefix: str) -> list[Layer]:
    layers = []
    i = 0
    while f"{prefix}.{i}.W" in tensors:
        layers.append(Layer(_tensor_from_json(tensors[f"{prefix}.{i}.W"]),
                            _tensor_from_json(tensors[f"{prefix}.{i}.b"])))
        i += 1
    return layers


def _stack_trees(tensors: dict, kind: str) -> np.ndarray:
    """Per-tree ``tree.{k}.<kind>`` tensors stacked along a leading tree axis."""
    arrays = []
    while f"tree.{len(arrays)}.{kind}" in tensors:
        arrays.append(_tensor_from_json(tensors[f"tree.{len(arrays)}.{kind}"]))
    if not arrays:
        raise ModelIntegrityError(f"model file has no tree.0.{kind} tensor")
    if len({a.shape for a in arrays}) > 1:
        raise ModelIntegrityError(
            f"per-tree {kind} tensors do not stack to one shape: "
            f"{[a.shape for a in arrays]}")
    return np.stack(arrays)


def load_model(path) -> Model:
    """Load a model file; bit-exact inverse of save_model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelIntegrityError(f"model file is not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelIntegrityError("model file lacks a format_version")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {doc['format_version']} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})")
    body = doc.get("body")
    if not isinstance(body, dict) or doc.get("checksum") != _body_checksum(body):
        raise ModelIntegrityError("model file checksum mismatch")
    missing = [key for key in ("config", "tensors", "n_classes") if key not in body]
    if missing:
        raise ModelIntegrityError(f"model file body lacks {', '.join(missing)}")

    try:
        config = TrainConfig.from_dict(body["config"])
        tensors = body["tensors"]
        encoder = _collect_layers(tensors, "encoder")
        decoder = _collect_layers(tensors, "decoder")
        forest = ForestParams(_stack_trees(tensors, "routing"),
                              _stack_trees(tensors, "leaf_logits"),
                              _collect_layers(tensors, "fc"))
        norm_stats = (NormStats.from_dict(body["norm_stats"])
                      if body.get("norm_stats") else None)
    except (KeyError, TypeError) as exc:
        raise ModelIntegrityError(
            f"model file body is incomplete: {type(exc).__name__} {exc}") from None
    return Model(AutoencoderParams(encoder, decoder), forest, config,
                 norm_stats=norm_stats,
                 manifest_version=body.get("manifest_version"))


# ---------------------------------------------------------------------------
# Feature files


def save_features(out_dir, matrix: FeatureMatrix, labels, user_ids):
    """Write features.tsv, labels.tsv and manifest.json into ``out_dir``."""
    labels = np.asarray(labels, dtype=np.int64)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "features.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\t".join(matrix.names) + "\n")
        for row in matrix.values:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("user_id\tlabel\n")
        for uid, lab in zip(user_ids, labels):
            fh.write(f"{uid}\t{int(lab)}\n")
    manifest = {
        "manifest_version": matrix.manifest_version,
        "features": [
            {"name": n, "scope": s, "kind": k}
            for n, s, k in zip(matrix.names, matrix.scopes, matrix.kinds)
        ],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_features(in_dir) -> LabeledDataset:
    """Read a feature directory written by save_features."""
    manifest_path = os.path.join(in_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    names = [f["name"] for f in manifest["features"]]
    scopes = [f["scope"] for f in manifest["features"]]
    kinds = [f["kind"] for f in manifest["features"]]

    with open(os.path.join(in_dir, "features.tsv"), "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != names:
            raise ParseError("features.tsv header does not match manifest.json", 1)
        rows, line_numbers = [], []
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(names):
                raise ParseError(
                    f"expected {len(names)} columns, got {len(cells)}", ln)
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(str(exc), ln) from None
            line_numbers.append(ln)
    values = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise ParseError(
            f"features.tsv column {j + 1} ({names[j]!r}) is not finite: "
            f"{float(values[i, j])!r}", line_numbers[i])

    user_ids, labels = [], []
    with open(os.path.join(in_dir, "labels.tsv"), "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if header_line.strip() != "user_id\tlabel":
            raise ParseError("labels.tsv must start with 'user_id\\tlabel'", 1)
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ParseError(f"expected 'user_id<TAB>0|1', got {line!r}", ln)
            user_ids.append(parts[0])
            labels.append(int(parts[1]))

    matrix = FeatureMatrix(values, names, scopes, kinds,
                           manifest["manifest_version"])
    return LabeledDataset(matrix, np.array(labels, dtype=np.int64), user_ids)
