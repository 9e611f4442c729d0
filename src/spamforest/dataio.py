"""Review ingestion, labeling, capping, normalization, the train/test
split, and model/feature-file serialization.

File formats
------------
Reviews: one JSON object per line with fields user_id, product_id, rating
(1-5), helpful_votes, unhelpful_votes, timestamp (days since 1970-01-01),
category, summary_text, review_text, and optional user_name / user_memo.
A tab-delimited text reader accepts the same fields as named header columns,
each named once. Both readers open their file once and return a
``ReviewTable``, the reviews as columns in file order. The JSON reader
checks types once per column and ranges with numpy; a file with any line
that needs more (a JSON or UTF-8 error, a non-object, a missing, unknown or
null field, a number where text is due, an integer written as a float, a
value out of range) is re-read from the same handle by the per-line check
the delimited reader always uses, which alone converts, warns and raises.

Spam scores: one ``user_id<TAB>average_score`` line per user, score in [0, 1].

Feature directory: ``features.tsv`` (numeric matrix, header row of feature
names), ``labels.tsv`` (user_id and label per row), ``manifest.json``
(column names, scopes, kinds, manifest version), and ``features.bin``, the
same matrix in binary so that a reader can skip the text parse: an 8-byte
tag, a sha256 digest over the bytes of ``features.tsv`` followed by the
companion's shape and payload, the shape as two ``<i8``, and the matrix as
row-major ``<f8``. ``features.tsv`` is authoritative: the companion is read
only when its digest matches the ``features.tsv`` beside it, and a missing,
stale or corrupt companion is ignored. ``labels.tsv`` is opened once as
UTF-8 text with universal newlines; a body of ``user_id<TAB>0|1`` lines,
each ending in a newline (LF or CRLF), is taken whole, and any other body
is checked line by line, which skips blank lines and names the line of a
malformed one.

Model file: a single JSON document (format_version, sha256 checksum, config,
normalization stats, manifest version, training feature names, and every
tensor as base64 raw little-endian float64), so save -> load -> predict is
bit-exact. A wrong format_version raises ModelVersionError; any corruption
or truncation raises ModelIntegrityError and loads nothing.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import io
import json
import math
import operator
import os
import warnings
from collections import Counter
from contextlib import contextmanager, suppress

import numpy as np

from .errors import (ConfigError, ModelIntegrityError, ModelVersionError,
                     ParseError)
from .features import FeatureMatrix, ReviewRecord, ReviewTable
from .numerics import Rng
from .training import (N_CLASSES, NORMALIZATION_METHODS, Model, TrainConfig,
                       _allocate_model, config_value, parameter_blocks)

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
    "open_text",
]

# 2: the body stores the training feature names ("feature_names").
MODEL_FORMAT_VERSION = 2

# The review schema is ReviewRecord's: field name -> its annotation ("int"
# or "str"), in declaration order; the fields without a default are required.
_REVIEW_FIELDS = {f.name: f.type for f in dataclasses.fields(ReviewRecord)}
REQUIRED_FIELDS = tuple(f.name for f in dataclasses.fields(ReviewRecord)
                        if f.default is dataclasses.MISSING)
_KNOWN_FIELDS = frozenset(_REVIEW_FIELDS)
_field_values = operator.itemgetter(*_REVIEW_FIELDS)
# The one Python type each column's values must have to skip the per-line check.
_COLUMN_TYPES = tuple({"str": str, "int": int}[kind] for kind in _REVIEW_FIELDS.values())


@dataclasses.dataclass
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
    def from_dict(cls, d: dict, n_features: int) -> "NormStats":
        """Inverse of ``to_dict``; checks the stats are of the kind
        ``normalize`` writes, or raises ModelIntegrityError."""
        try:
            stats = cls(d["method"], np.asarray(d["center"], dtype=np.float64),
                        np.asarray(d["scale"], dtype=np.float64))
            valid = (stats.method in NORMALIZATION_METHODS
                     and stats.center.shape == stats.scale.shape == (n_features,)
                     and np.isfinite(stats.center).all()
                     and (np.isfinite(stats.scale) & (stats.scale > 0)).all())
        except (KeyError, TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ModelIntegrityError(
                f"model file norm_stats must name a method in {NORMALIZATION_METHODS} and "
                f"hold {n_features} finite centers and {n_features} finite positive scales")
        return stats


@dataclasses.dataclass
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


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. A ParseError raised in the block,
    and bytes that are not UTF-8, surface as a ParseError reading
    ``<path>: line N: <reason>``, with ``line_number`` kept."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except (UnicodeDecodeError, ParseError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            # A UTF-8 character never spans a newline, so lines decode alone;
            # only a line holding bad bytes changes on a lossy round trip.
            with open(path, "rb") as fh:
                line = next((ln for ln, raw in enumerate(fh, start=1)
                             if raw.decode("utf-8", "ignore").encode() != raw), None)
            exc = ParseError(f"not UTF-8 text ({exc.reason})", line)
        exc.args = (f"{os.fspath(path)}: {exc}",)
        raise exc from None


def _record_from_fields(fields: dict, line_number: int) -> ReviewRecord:
    missing = [f for f in REQUIRED_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"missing required field(s) {missing}", line_number)
    clean = {}
    for name, kind in _REVIEW_FIELDS.items():
        value = fields.get(name)
        if kind == "str":
            if isinstance(value, str):
                clean[name] = value
            elif value is None:
                if name in REQUIRED_FIELDS:
                    raise ParseError(f"required field {name!r} is null", line_number)
            elif isinstance(value, (bool, list, dict)):
                raise ParseError(f"field {name!r} must be a string, got "
                                 f"{json.dumps(value)}", line_number)
            else:  # a JSON number, as numeric ids are
                clean[name] = str(value)
            continue
        try:
            # A JSON number may be written 4.0, but not 4.7, inf or true.
            if isinstance(value, bool) or (
                    isinstance(value, float) and not value.is_integer()):
                raise ValueError
            clean[name] = int(value)
        except (TypeError, ValueError):
            raise ParseError(
                f"field {name!r} must be an integer, got {value!r}",
                line_number) from None
    try:
        return ReviewRecord(**clean)
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from None


def _load_review_lines(rows) -> ReviewTable:
    """The per-line check of both review readers. ``rows`` yields
    ``(line_number, fields)`` pairs; each row is converted and checked on its
    own, unknown fields warn once each, and the first bad row raises."""
    records = []
    seen_unknown: set[str] = set()
    for ln, fields in rows:
        for name in fields:
            if name not in _KNOWN_FIELDS and name not in seen_unknown:
                seen_unknown.add(name)
                warnings.warn(f"line {ln}: ignoring unknown field {name!r}")
        records.append(_record_from_fields(fields, ln))
    return ReviewTable.from_records(records)


def _json_objects(fh):
    """``(line_number, fields)`` for each nonblank line of ``fh``, which
    must hold one JSON object."""
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
        yield ln, fields


def load_reviews(path) -> ReviewTable:
    """Parse newline-delimited JSON review records into a ``ReviewTable``.

    Empty lines are skipped; any malformed line raises ParseError with its
    line number. A file of plain records is decoded in one pass and checked
    per column; any other is read again from the same handle by
    ``_load_review_lines``.
    """
    decode = json.JSONDecoder().raw_decode
    with open_text(path) as fh:
        # A JSON or UTF-8 error, or an integer beyond int64, ends the one pass.
        with suppress(ValueError, OverflowError):
            rows = []
            for line in filter(None, map(str.strip, fh)):
                fields, end = decode(line)
                if (end != len(line) or type(fields) is not dict
                        or fields.keys() != _KNOWN_FIELDS):
                    break
                rows.append(_field_values(fields))
            else:
                columns = list(zip(*rows)) or [()] * len(_REVIEW_FIELDS)
                # A bool is no int and a null no str: each column holds one type.
                if all(set(map(type, col)) <= {kind}
                       for col, kind in zip(columns, _COLUMN_TYPES)):
                    table = ReviewTable.from_columns(columns)
                    if table.in_range():
                        return table
        fh.seek(0)
        return _load_review_lines(_json_objects(fh))


def _delimited_rows(fh):
    """``(line_number, fields)`` for each nonblank line after the header row
    of the tab-delimited ``fh``, the cells keyed by the header's names."""
    header = None
    for ln, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
            repeated = [(c, k) for c, k in Counter(header).items() if k > 1]
            if repeated:
                raise ParseError(f"header names field {repeated[0][0]!r} "
                                 f"{repeated[0][1]} times", ln)
            continue
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", ln)
        yield ln, dict(zip(header, cells))
    if header is None:
        raise ParseError("file has no header row", 1)


def load_reviews_delimited(path) -> ReviewTable:
    """Parse a tab-delimited text export whose header row names each field
    once."""
    with open_text(path) as fh:
        return _load_review_lines(_delimited_rows(fh))


def load_spam_scores(path) -> dict[str, float]:
    """Parse ``user_id<TAB>average_score`` lines into a dict. A user scored
    on two lines raises ParseError naming the second."""
    scores = {}
    scored_on: dict[str, int] = {}
    with open_text(path) as fh:
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
            if parts[0] in scores:
                raise ParseError(f"user {parts[0]!r} was already scored on line "
                                 f"{scored_on[parts[0]]}", ln)
            scores[parts[0]] = score
            scored_on[parts[0]] = ln
    return scores


# ---------------------------------------------------------------------------
# Labeling and capping


def label_and_cap_users(table: ReviewTable, spam_scores: dict[str, float],
                        cap: int = 20, seed: int = 0):
    """Label users by averaged spam score and cap their review counts.

    A user with average score below 0.5 is genuine (0); 0.5 or above is a
    spammer (1). Users with more than ``cap`` reviews keep a seeded uniform
    subsample of exactly ``cap``, in original order: one ``Rng.subsample``
    draw per such user, in sorted user order. Returns
    ``(capped_table, row_labels)`` with ``row_labels[i]`` the label of
    review i's author in ``capped_table``.
    """
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    ids = table.user_id.tolist()
    users = sorted(dict.fromkeys(ids))  # sorted so the draw order is reproducible

    missing = [u for u in users if u not in spam_scores]
    if missing:
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise ValueError(
            f"no spam score for {len(missing)} user(s): {missing[:5]}{more}")

    rank = {u: i for i, u in enumerate(users)}
    codes = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    sizes = np.bincount(codes, minlength=len(users))
    # order[start:start + size] are one user's rows, in original order.
    order = np.argsort(codes, kind="stable")
    drawn = []
    rng = Rng(seed)
    for start, size in zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist()):
        if size > cap:
            drawn += rng.subsample(range(start, start + size), cap)
    keep = sizes[codes] <= cap
    keep[order[np.array(drawn, dtype=np.int64)]] = True

    kept = np.flatnonzero(keep)
    user_labels = np.array([0 if spam_scores[u] < 0.5 else 1 for u in users],
                           dtype=np.int64)
    return table.take(kept), user_labels[codes[kept]]


# ---------------------------------------------------------------------------
# Normalization


def normalize(features: FeatureMatrix, method: str):
    """Fit a per-column transform and apply it; returns (matrix, stats).

    zscore: (x - mean) / std. minmax: (x - min) / (max - min). Constant
    columns map to all zeros under both methods (scale 1 guard). A column
    whose center or scale overflows float64 raises ValueError naming it.
    """
    if method not in NORMALIZATION_METHODS:
        raise ConfigError(f"unknown normalization method {method!r}")
    values = features.values
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "zscore":
            center = values.mean(axis=0)
            scale = values.std(axis=0)
        elif method == "minmax":
            center = values.min(axis=0)
            scale = values.max(axis=0) - values.min(axis=0)
        else:
            center = np.zeros(values.shape[1])
            scale = np.ones(values.shape[1])
    bad = np.flatnonzero(~(np.isfinite(center) & np.isfinite(scale)))
    if len(bad):
        raise ValueError(f"feature column {bad[0] + 1} ({features.names[bad[0]]!r}) "
                         f"overflows float64 under {method} normalization")
    scale = np.where(scale == 0, 1.0, scale)
    stats = NormStats(method, center, scale)
    return apply_normalization(features, stats), stats


def apply_normalization(features: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Apply previously fit stats (e.g. training stats to test rows).

    A cell that normalizes to a non-finite value (a finite input far outside
    the training range can overflow) raises ValueError naming its column.
    """
    if len(stats.center) != features.n_features:
        raise ConfigError(
            f"normalization stats cover {len(stats.center)} columns, "
            f"matrix has {features.n_features}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # In place after the subtraction: the same bits as the out-of-place
        # quotient, with one full-size temporary fewer.
        values = features.values - stats.center
        values /= stats.scale
        # A column sum is finite only if every cell is, so the scan needs no
        # full-size mask; only columns whose sum is not finite are checked.
        suspects = np.flatnonzero(~np.isfinite(values.sum(axis=0)))
    for j in suspects:
        if not np.isfinite(values[:, j]).all():
            raise ValueError(f"feature column {j + 1} ({features.names[j]!r}) "
                             f"is not finite after {stats.method} normalization")
    return FeatureMatrix(values, list(features.names),
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


def _tensor_from_json(name: str, d: dict) -> np.ndarray:
    try:
        arr = np.frombuffer(base64.b64decode(d["data"], validate=True), dtype="<f8")
    except ValueError as exc:  # binascii.Error is a ValueError
        raise ModelIntegrityError(
            f"tensor {name} data is not base64 of float64 values: {exc}") from None
    shape = d["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
            and arr.size == math.prod(shape)):
        raise ModelIntegrityError(
            f"tensor {name} has {arr.size} values, which do not fill shape {shape!r}")
    if not np.isfinite(arr).all():
        raise ModelIntegrityError(f"tensor {name} holds a non-finite value")
    return arr.reshape(shape)


def _is_manifest_version(value) -> bool:
    return value is None or type(value) is int  # type(): a JSON true is no integer


def _body_checksum(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(path, model: Model):
    """Write the model as a checksummed, versioned JSON document."""
    body = {
        "config": dataclasses.asdict(model.config),
        "n_classes": N_CLASSES,
        "manifest_version": model.manifest_version,
        "feature_names": model.feature_names,
        "norm_stats": model.norm_stats.to_dict() if model.norm_stats else None,
        "tensors": {name: _tensor_to_json(arr)
                    for name, arr in parameter_blocks(model)},
    }
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "checksum": _body_checksum(body),
        "body": body,
    }
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> Model:
    """Load a model file; bit-exact inverse of save_model."""
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelIntegrityError(f"model file is not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelIntegrityError("model file lacks a format_version")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {doc['format_version']} unsupported "
            f"(expected {MODEL_FORMAT_VERSION}); train the model again to "
            f"write a current file")
    body = doc.get("body")
    if not isinstance(body, dict) or doc.get("checksum") != _body_checksum(body):
        raise ModelIntegrityError("model file checksum mismatch")
    missing = [key for key in ("config", "tensors", "n_classes", "feature_names")
               if key not in body]
    if missing:
        raise ModelIntegrityError(f"model file body lacks {', '.join(missing)}")
    n_classes = body["n_classes"]
    if type(n_classes) is not int or n_classes != N_CLASSES:
        raise ModelIntegrityError(
            f"model file n_classes must be {N_CLASSES}, got {n_classes!r}")
    if not isinstance(body["config"], dict):
        raise ModelIntegrityError("model file config must be an object")
    try:
        config = TrainConfig(**{key: config_value(key, value)
                                for key, value in body["config"].items()})
    except ConfigError as exc:
        raise ModelIntegrityError(f"model file config: {exc}") from None

    try:
        tensors = {name: _tensor_from_json(name, t)
                   for name, t in body["tensors"].items()}
        if "encoder.0.W" not in tensors or tensors["encoder.0.W"].ndim != 2:
            raise ModelIntegrityError(
                "model file needs a 2-D tensor encoder.0.W (width, n_features)")
        # The all-zero model the config describes, filled from the file below.
        model = _allocate_model(config, tensors["encoder.0.W"].shape[1])
        model.norm_stats = (None if body.get("norm_stats") is None else
                            NormStats.from_dict(body["norm_stats"], model.n_features))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelIntegrityError(
            f"model file body is incomplete: {type(exc).__name__} {exc}") from None
    blocks = dict(parameter_blocks(model))
    for name in sorted(blocks.keys() | tensors.keys()):
        if name not in blocks or name not in tensors:
            held = "lacks" if name in blocks else "holds an extra"
            raise ModelIntegrityError(
                f"model file {held} tensor {name} for the model its config describes")
        if tensors[name].shape != blocks[name].shape:
            raise ModelIntegrityError(
                f"tensor {name} has shape {list(tensors[name].shape)}; the "
                f"model its config describes needs {list(blocks[name].shape)}")
        blocks[name][...] = tensors[name]
    model.manifest_version = body.get("manifest_version")
    if not _is_manifest_version(model.manifest_version):
        raise ModelIntegrityError(
            f"model file manifest_version must be an integer or null, "
            f"got {model.manifest_version!r}")
    model.feature_names = names = body["feature_names"]
    if names is not None and (
            not isinstance(names, list) or len(names) != model.n_features
            or not all(isinstance(n, str) for n in names)):
        raise ModelIntegrityError(
            f"model file feature_names must be {model.n_features} strings")
    return model


# ---------------------------------------------------------------------------
# Feature files


# Rows of features.tsv formatted and written at a time: the writer's
# memory is bounded by one block, however many distinct values a matrix has.
_WRITE_BLOCK_ROWS = 256


def _write_cells(fh, values: np.ndarray):
    """Write ``values`` one tab-separated line per row, each cell as the
    ``repr`` of its float. In each block of rows, ``repr`` runs once per
    distinct float64 bit pattern (so -0.0 and 0.0 stay distinct), and the
    lines are joined from those strings."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    for start in range(0, len(bits), _WRITE_BLOCK_ROWS):
        block = bits[start:start + _WRITE_BLOCK_ROWS]
        # np.unique(block), which numpy 2.x computes several times slower.
        distinct = np.sort(block, axis=None)
        first = np.ones(distinct.shape, dtype=bool)
        first[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[first]
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                        dtype=object)
        fh.writelines(["\t".join(row) + "\n"
                       for row in text[np.searchsorted(distinct, block)].tolist()])


# features.bin: tag, digest, shape, payload (see the module docstring).
_COMPANION_TAG = b"SFFEAT\x00\x01"
_COMPANION_HEADER_BYTES = len(_COMPANION_TAG) + 32 + 16


def _companion_digest(tsv_path, shape: bytes, payload) -> bytes:
    """sha256 over the bytes of ``tsv_path``, then ``shape`` and ``payload``
    (any buffer, hashed in place)."""
    h = hashlib.sha256()
    with open(tsv_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    h.update(shape)
    h.update(payload)
    return h.digest()


def _read_companion(tsv_path, n_cols: int):
    """The matrix ``features.bin`` holds, or None unless it has at least one
    row, ``n_cols`` columns, exactly its size and a digest that matches
    ``tsv_path`` as it is now."""
    try:
        bin_path = os.path.join(os.path.dirname(tsv_path), "features.bin")
        with open(bin_path, "rb") as fh:
            header = fh.read(_COMPANION_HEADER_BYTES)
            if (len(header) != _COMPANION_HEADER_BYTES
                    or not header.startswith(_COMPANION_TAG)):
                return None
            shape = header[-16:]
            rows, cols = (int(n) for n in np.frombuffer(shape, "<i8"))
            if (rows < 1 or cols != n_cols or os.fstat(fh.fileno()).st_size
                    != _COMPANION_HEADER_BYTES + 8 * rows * cols):
                return None
            values = np.fromfile(fh, "<f8", rows * cols)
    except OSError:
        return None
    digest = header[len(_COMPANION_TAG):-16]
    if _companion_digest(tsv_path, shape, values.data) != digest:
        return None
    return values.reshape(rows, cols)


def save_features(out_dir, matrix: FeatureMatrix, labels, user_ids):
    """Write features.tsv, features.bin, labels.tsv and manifest.json into
    ``out_dir``."""
    labels = np.asarray(labels, dtype=np.int64)
    os.makedirs(out_dir, exist_ok=True)
    tsv_path = os.path.join(out_dir, "features.tsv")
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(matrix.names) + "\n")
        _write_cells(fh, matrix.values)
    values = np.ascontiguousarray(matrix.values, "<f8")
    shape = np.array(values.shape, "<i8").tobytes()
    with open(os.path.join(out_dir, "features.bin"), "wb") as fh:
        fh.write(_COMPANION_TAG + _companion_digest(tsv_path, shape, values.data)
                 + shape)
        fh.write(values.data)
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("user_id\tlabel\n")
        # A generator, so no list of every line is held at once.
        fh.writelines(f"{uid}\t{lab}\n" for uid, lab in zip(user_ids, labels.tolist()))
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


def _parse_feature_rows(path, names: list[str]) -> np.ndarray:
    """The body of ``features.tsv`` parsed line by line, naming the line of
    a malformed or non-finite cell; ``load_features``' fallback."""
    with open_text(path) as fh:
        fh.readline()
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
        if not rows:
            raise ParseError("header but no data rows")
        values = np.array(rows, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            i, j = bad[0]
            raise ParseError(f"column {j + 1} ({names[j]!r}) is not finite: "
                             f"{float(values[i, j])!r}", line_numbers[i])
    return values


def _read_labels(path):
    """``(user_ids, labels)`` from a labels.tsv, labels as int64.

    The file is opened once, in text mode, and its body read whole. A body
    of ``<user_id><TAB>0`` or ``<user_id><TAB>1`` lines, each ending in a
    newline, is taken at once: the user ids from one split, the labels from
    the byte before each newline. Any other body is checked line by line,
    which skips blank and whitespace-only lines and names the line of a
    malformed one.
    """
    with open_text(path) as fh:
        if fh.readline().strip() != "user_id\tlabel":
            raise ParseError("header must be 'user_id\\tlabel'", 1)
        body = fh.read()
        rows = body.count("\n")
        # One tab per line, and every newline preceded by a label preceded
        # by that tab.
        if (body.endswith("\n") and body.count("\t") == rows
                and body.count("\t0\n") + body.count("\t1\n") == rows):
            codes = np.frombuffer(body.encode(), np.uint8)
            labels = codes[np.flatnonzero(codes == ord("\n")) - 1] - ord("0")
            return (body.replace("\t", "\n").split("\n")[:-1:2],
                    labels.astype(np.int64))
        user_ids, labels = [], []
        for ln, line in enumerate(io.StringIO(body, newline="\n"), start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ParseError(f"expected 'user_id<TAB>0|1', got {line!r}", ln)
            user_ids.append(parts[0])
            labels.append(int(parts[1]))
    return user_ids, np.array(labels, dtype=np.int64)


def load_features(in_dir) -> LabeledDataset:
    """Read a feature directory written by save_features. The matrix comes
    from features.bin when its digest matches features.tsv, else from
    parsing features.tsv; non-finite values fall to the line-numbered
    parse either way. labels.tsv is read by ``_read_labels``, which raises
    the line-numbered ParseError of a malformed row."""
    with open_text(os.path.join(in_dir, "manifest.json")) as fh:
        try:
            manifest = json.load(fh)
            version = manifest["manifest_version"]
            names, scopes, kinds = ([f[key] for f in manifest["features"]]
                                    for key in ("name", "scope", "kind"))
            repeated = [(n, k) for n, k in Counter(names).items() if k > 1]
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON ({exc.msg})", exc.lineno) from None
        except KeyError as exc:
            raise ParseError(f"lacks {exc}") from None
        except TypeError:
            raise ParseError("must be an object whose 'features' list holds "
                             "name/scope/kind objects") from None
        if not _is_manifest_version(version):
            raise ParseError(
                f"manifest_version must be an integer or null, got {version!r}")
        if repeated:
            raise ParseError(f"feature name {repeated[0][0]!r} appears "
                             f"{repeated[0][1]} times")

    path = os.path.join(in_dir, "features.tsv")
    with open_text(path) as fh:
        if fh.readline().rstrip("\n").split("\t") != names:
            raise ParseError("header does not match manifest.json", 1)
        values = _read_companion(path, len(names))
        if values is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # an empty body only warns
                try:  # np.loadtxt rounds as float() does
                    values = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2)
                except (ValueError, UserWarning):
                    values = None
    if values is None or values.shape[1] != len(names) or not np.isfinite(values).all():
        values = _parse_feature_rows(path, names)

    labels_path = os.path.join(in_dir, "labels.tsv")
    user_ids, labels = _read_labels(labels_path)
    if len(labels) != values.shape[0]:
        raise ParseError(f"{labels_path}: holds {len(labels)} label rows, "
                         f"features.tsv holds {values.shape[0]} feature rows")

    matrix = FeatureMatrix(values, names, scopes, kinds, version)
    return LabeledDataset(matrix, labels, user_ids)
