"""Span tracing around the calls between spamforest modules.

The hooks live here, not in the package: ``install`` replaces each target
attribute with a wrapper that records a span (name, parent, start, end)
and bumps exact work counters, and ``uninstall`` puts the originals back.
Names bound with ``from .x import f`` are wrapped in the importing
module's namespace, because that is where the caller looks them up.

A target that no longer exists (moved or renamed) is reported as
unattached, and one whose arguments no longer match what the counters
read is reported as misread; neither raises.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). A span name of None is resolved per call
# by a namer in _NAMERS keyed on "module:attribute".
HOOKS = [
    ("spamforest.cli", "load_reviews", "dataio.load_reviews"),
    ("spamforest.cli", "load_spam_scores", "dataio.load_scores"),
    ("spamforest.cli", "label_and_cap_users", "dataio.label_and_cap"),
    ("spamforest.cli", "save_features", "dataio.save_features"),
    ("spamforest.cli", "load_features", "dataio.load_features"),
    ("spamforest.cli", "load_model", "dataio.load_model"),
    ("spamforest.cli", "save_model", "dataio.save_model"),
    ("spamforest.cli", "normalize", "dataio.normalize"),
    ("spamforest.cli", "apply_normalization", "dataio.normalize"),
    ("spamforest.cli", "split_shuffle_batch", "dataio.split"),
    ("spamforest.cli", "build_feature_matrix", "features.assembly"),
    ("spamforest.features", "extract_user_features", "features.user_block"),
    ("spamforest.features", "extract_review_features", "features.review_block"),
    ("spamforest.cli", "screen_features", "stats.screen"),
    ("spamforest.stats", "rank_sum_test", "stats.rank_sum"),
    ("spamforest.stats", "chi_squared_test", "stats.chi_squared"),
    ("spamforest.cli", "write_screening_report", "stats.report_write"),
    ("spamforest.cli", "train", "training.train"),
    ("spamforest.cli", "predict", "training.predict"),
    ("spamforest.training", "init_model", "training.init_model"),
    ("spamforest.training", "gradients", None),
    ("spamforest.training", "rmsprop_step", "training.optimizer_step"),
    ("spamforest.training", "joint_loss", "training.joint_loss"),
    ("spamforest.training", "predict", "training.predict"),
    ("spamforest.training", "_forward_cache", "training.forward"),
    ("spamforest.training", "sigmoid_chain", None),
    ("spamforest.training", "_backward_layers", None),
    ("spamforest.training", "sigmoid", "numerics.sigmoid"),
    ("spamforest.numerics", "sigmoid", "numerics.sigmoid"),
    ("spamforest.training", "_reach_probabilities", "forest.reach"),
    ("spamforest.forest", "TreeParams.leaf_distributions", "forest.leaf_softmax"),
    ("spamforest.cli", "confusion", "metrics.confusion"),
    ("spamforest.cli", "compute_metrics", "metrics.compute"),
    ("spamforest.cli", "write_metrics_report", "metrics.report_write"),
]


def _stack_name(tracer, layers, suffix):
    # The autoencoder and the fully connected stack share sigmoid_chain and
    # _backward_layers; the layer list passed in tells them apart.
    model = tracer.model
    if model is not None:
        if layers is model.autoencoder.encoder or layers is model.autoencoder.decoder:
            return f"autoencoder.{suffix}"
        if layers is model.forest.fc:
            return f"forest.fc_{suffix}"
    return f"numerics.sigmoid_chain_{suffix}"


def _gradients_name(tracer, args):
    # The training loop calls gradients once per mini-batch and once on the
    # whole training set (for the leaf step); the row count tells them apart.
    n_rows = np.shape(args[0])[0]
    if tracer.train_rows is not None and n_rows == tracer.train_rows \
            and tracer.train_batch < n_rows:
        return "training.full_gradients"
    return "training.batch_gradients"


_NAMERS = {
    "spamforest.training:gradients": _gradients_name,
    "spamforest.training:sigmoid_chain":
        lambda tracer, args: _stack_name(tracer, args[1], "forward"),
    "spamforest.training:_backward_layers":
        lambda tracer, args: _stack_name(tracer, args[0], "backward"),
}


def _count(tracer, name, args):
    c = tracer.counts
    if name == "numerics.sigmoid":
        c["numerics.sigmoid_elements"] += int(np.size(args[0]))
    elif name == "features.review_block":
        c["features.product_rows_scanned"] += len(args[1])
    elif name == "dataio.load_features":
        c["dataio.features_bytes_read"] += _dir_bytes(args[0])
    elif name == "training.forward" and tracer.train_rows is not None:
        c["training.forward_rows"] += int(np.shape(args[0])[0])
    elif name == "training.train":
        tracer.train_rows = int(np.shape(args[0])[0])
        tracer.train_batch = args[2].batch_size
        c["training.row_epochs"] += tracer.train_rows * args[2].n_epoch
    if name in ("training.forward", "training.batch_gradients",
                "training.full_gradients"):
        tracer.model = args[1] if name == "training.forward" else args[2]


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in ("features.tsv", "labels.tsv", "manifest.json")
               if os.path.exists(os.path.join(path, f)))


class Tracer:
    """In-memory span recorder. Spans are [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.model = None
        self.train_rows = None
        self.train_batch = None
        self.unattached: list[str] = []
        self.misread: set[str] = set()   # hooks whose arguments no longer parse
        self._saved: list[tuple] = []

    # -- hook management ---------------------------------------------------

    def install(self):
        self.unattached = []
        for module_name, attr, name in HOOKS:
            key = f"{module_name}:{attr}"
            owner, leaf = _resolve_owner(module_name, attr)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.unattached.append(key)
                continue
            namer = _NAMERS.get(key)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, key, name, namer))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, key, name, namer):
        tracer = self

        def traced(*args, **kwargs):
            try:
                span_name = name if namer is None else namer(tracer, args)
                _count(tracer, span_name, args)
            except (IndexError, AttributeError, TypeError):
                # The target's arguments changed: still time it, but say so.
                span_name = name or key
                tracer.misread.add(key)
            tracer.counts[span_name + "_calls"] += 1
            return tracer.run(span_name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- recording ---------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(idx)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
            if name == "training.train":
                self.train_rows = None

    def mark(self):
        """Position to reduce from: spans and counts recorded after it."""
        return len(self.spans), dict(self.counts)

    def reduce(self, since):
        """Self and inclusive seconds per span name, plus counts, since a mark.

        Self time is a span's duration minus its direct children's. The
        inclusive total counts only outermost spans of each name.
        """
        start, counts_before = since
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for s in spans:
            p = s[1] - start
            if p >= 0:
                child[p] += s[3] - s[2]
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        roots = []
        for i, s in enumerate(spans):
            dur = s[3] - s[2]
            self_s[s[0]] = self_s.get(s[0], 0.0) + dur - child[i]
            if not _has_ancestor_named(spans, i, s[0], start):
                incl_s[s[0]] = incl_s.get(s[0], 0.0) + dur
            if s[1] < start:
                roots.append((s[0], dur, _tree_self_sum(spans, i, start, child)))
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return {"self_s": self_s, "incl_s": incl_s, "counts": counts,
                "roots": roots}

    def dump(self, path):
        """Write every recorded span as gzipped TSV: name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{t0!r}\t{t1!r}\n")


def _has_ancestor_named(spans, i, name, start):
    p = spans[i][1] - start
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1] - start
    return False


def _tree_self_sum(spans, root, start, child):
    """Sum of self times over the subtree rooted at ``root`` (pre-order)."""
    total = 0.0
    end = spans[root][3]
    j = root
    while j < len(spans) and (j == root or spans[j][2] < end):
        total += spans[j][3] - spans[j][2] - child[j]
        j += 1
    return total


def _resolve_owner(module_name, attr):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return owner, leaf


# Per-layer metrics of one traced pass: (name, unit, how, key). "self" is
# the summed self time of spans named key, "incl" their summed duration
# (outermost only), "count" an exact counter. Each metric's note in
# README.md names the end-to-end metric it should move.
LAYER_METRICS = [
    ("cli.self_s", "s", "self", "cli.*"),
    ("cli.extract_self_s", "s", "self", "cli.extract"),
    ("cli.analyze_self_s", "s", "self", "cli.analyze"),
    ("cli.train_self_s", "s", "self", "cli.train"),
    ("cli.predict_self_s", "s", "self", "cli.predict"),
    ("cli.evaluate_self_s", "s", "self", "cli.evaluate"),
    ("dataio.load_reviews_s", "s", "self", "dataio.load_reviews"),
    ("dataio.load_scores_s", "s", "self", "dataio.load_scores"),
    ("dataio.label_and_cap_s", "s", "self", "dataio.label_and_cap"),
    ("dataio.save_features_s", "s", "self", "dataio.save_features"),
    ("dataio.load_features_s", "s", "self", "dataio.load_features"),
    ("dataio.features_bytes_read", "bytes", "count", "dataio.features_bytes_read"),
    ("dataio.load_model_s", "s", "self", "dataio.load_model"),
    ("dataio.save_model_s", "s", "self", "dataio.save_model"),
    ("dataio.normalize_s", "s", "self", "dataio.normalize"),
    ("features.user_block_s", "s", "self", "features.user_block"),
    ("features.user_block_calls", "count", "count", "features.user_block_calls"),
    ("features.review_block_s", "s", "self", "features.review_block"),
    ("features.review_block_calls", "count", "count", "features.review_block_calls"),
    ("features.product_rows_scanned", "count", "count",
     "features.product_rows_scanned"),
    ("features.assembly_self_s", "s", "self", "features.assembly"),
    ("stats.rank_sum_s", "s", "self", "stats.rank_sum"),
    ("stats.rank_sum_calls", "count", "count", "stats.rank_sum_calls"),
    ("stats.chi_squared_s", "s", "self", "stats.chi_squared"),
    ("stats.chi_squared_calls", "count", "count", "stats.chi_squared_calls"),
    ("stats.screen_self_s", "s", "self", "stats.screen"),
    ("stats.report_write_s", "s", "self", "stats.report_write"),
    ("training.train_self_s", "s", "self", "training.train"),
    ("training.init_model_s", "s", "self", "training.init_model"),
    ("training.batch_gradients_s", "s", "incl", "training.batch_gradients"),
    ("training.batch_gradients_calls", "count", "count",
     "training.batch_gradients_calls"),
    ("training.full_gradients_s", "s", "incl", "training.full_gradients"),
    ("training.gradients_self_s", "s", "self",
     "training.batch_gradients|training.full_gradients"),
    ("training.optimizer_step_s", "s", "self", "training.optimizer_step"),
    ("training.optimizer_step_calls", "count", "count",
     "training.optimizer_step_calls"),
    ("training.joint_loss_s", "s", "incl", "training.joint_loss"),
    ("training.predict_s", "s", "incl", "training.predict"),
    ("training.forward_self_s", "s", "self", "training.forward"),
    ("training.forward_rows_per_row_epoch", "rows/row-epoch", "ratio",
     "training.forward_rows/training.row_epochs"),
    ("numerics.sigmoid_s", "s", "self", "numerics.sigmoid"),
    ("numerics.sigmoid_calls", "count", "count", "numerics.sigmoid_calls"),
    ("numerics.sigmoid_elements", "count", "count", "numerics.sigmoid_elements"),
    ("autoencoder.forward_s", "s", "self", "autoencoder.forward"),
    ("autoencoder.backward_s", "s", "self", "autoencoder.backward"),
    ("forest.reach_s", "s", "self", "forest.reach"),
    ("forest.reach_calls", "count", "count", "forest.reach_calls"),
    ("forest.fc_forward_s", "s", "self", "forest.fc_forward"),
    ("forest.fc_backward_s", "s", "self", "forest.fc_backward"),
    ("forest.leaf_softmax_s", "s", "self", "forest.leaf_softmax"),
    ("metrics.confusion_s", "s", "self", "metrics.confusion"),
]


def layer_values(reduced) -> dict:
    """LAYER_METRICS values for one traced pass, from ``Tracer.reduce``."""
    out = {}
    for name, _unit, how, key in LAYER_METRICS:
        if how == "count":
            out[name] = reduced["counts"].get(key, 0)
        elif how == "ratio":
            num, den = (reduced["counts"].get(k, 0) for k in key.split("/"))
            out[name] = num / den if den else 0.0
        else:
            table = reduced["self_s" if how == "self" else "incl_s"]
            keys = key.split("|")
            out[name] = sum(v for k, v in table.items()
                            if k in keys or (key.endswith("*")
                                             and k.startswith(key[:-1])))
    return out


# Metrics about the trace itself, reported with the per-layer metrics.
TRACE_METRICS = [
    ("trace.traced_pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattached_hooks", "count"),
]
