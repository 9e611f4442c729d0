"""Shared test oracles, deliberately independent of the library code paths
they check: the gradient checker evaluates only the public loss, the tree
follower walks the heap by hand instead of reusing the reach recursion and
takes the leaf softmax with its own exp, the feature reference
recomputes every row from ``datetime.date`` objects and per-review scans,
the sentiment reference runs a regex over each text, the review reference
reads ``reviews.jsonl`` line by line into ``ReviewRecord``s, and the labels
reference reads ``labels.tsv`` line by line. ``FullDisk`` stands in for a disk
that fills up. ``backprop_forward`` is no oracle: it gathers what the
training backward's forward computes, for tests to compare."""

import base64
import dataclasses
import errno
import hashlib
import json
import re
import warnings
from datetime import date, timedelta
from functools import lru_cache
from importlib import resources

import numpy as np

from spamforest.dataio import open_text
from spamforest.errors import ParseError
from spamforest.features import ReviewRecord
from spamforest.forest import forest_forward, leaf_mixture
from spamforest.numerics import entropy, sigmoid
from spamforest.training import _forward_cache, joint_loss, parameter_blocks


def rewrite_model_body(path, change):
    """Apply ``change`` to a model file's body and re-sign it with a valid
    checksum, so that load_model checks the changed body itself."""
    doc = json.loads(path.read_text())
    change(doc["body"])
    canonical = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))


def zeros_tensor(shape):
    """A model file's tensor entry holding zeros of ``shape``."""
    data = np.zeros(shape, dtype="<f8").tobytes()
    return {"shape": list(shape), "data": base64.b64encode(data).decode("ascii")}


def load_with_tensor_shape(tmp_path, model, name, shape):
    """``load_model`` of ``model`` saved with tensor ``name`` replaced by
    zeros of ``shape`` and re-signed, so that load_model checks that shape."""
    from spamforest.dataio import load_model, save_model

    path = tmp_path / "model.json"
    save_model(path, model)
    rewrite_model_body(path, lambda body: body["tensors"].update(
        {name: zeros_tensor(shape)}))
    return load_model(path)


def finite_difference_check(model, X, y, h=1e-5):
    """Max relative error between analytic gradients and central differences.

    Relative error per coordinate is |ga - gn| / max(1e-8, |ga| + |gn|).
    Returns (max_rel_err, {block_name: block_max}).
    """
    from spamforest.training import gradients

    grads = gradients(X, y, model)
    per_block = {}
    worst = 0.0
    for name, arr in parameter_blocks(model):
        block_worst = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = joint_loss(X, y, model)
            arr[idx] = orig - h
            lm = joint_loss(X, y, model)
            arr[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = grads[name][idx]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            block_worst = max(block_worst, rel)
        per_block[name] = block_worst
        worst = max(worst, block_worst)
    return worst, per_block


def follow_tree(x_t, routing, leaf_logits):
    """Deterministic tree evaluator: at each node go left iff w . x_t > 0.

    ``routing`` (2^D - 1, d) and ``leaf_logits`` (2^D, C) are one tree's
    slices of the stacked forest tensors. Returns the reached leaf's class
    distribution. This is the hard-routing limit that soft routing should
    approach as weights are scaled up.
    """
    n_dec = routing.shape[0]
    node = 0
    while node < n_dec:
        go_left = float(routing[node] @ x_t) > 0
        node = 2 * node + 1 + (0 if go_left else 1)
    e = np.exp(leaf_logits[node - n_dec] - leaf_logits[node - n_dec].max())
    return e / e.sum()


def follow_forest(x_t, forest):
    """Average of follow_tree over the trees of a stacked forest."""
    dists = [follow_tree(x_t, forest.routing[k], forest.leaf_logits[k])
             for k in range(forest.n_trees)]
    return np.mean(dists, axis=0)


# The row-major forest kernels, (K, rows, nodes), that the node-major
# kernels in spamforest.forest replaced without changing a bit: the
# reference that tests/test_forest.py holds them to.


def _reference_levels(depth):
    spans = [(2 ** level - 1, 2 ** (level + 1) - 1) for level in range(depth)]
    return tuple((slice(lo, hi), slice(2 * lo + 1, 2 * hi, 2),
                  slice(2 * lo + 2, 2 * hi + 1, 2)) for lo, hi in spans)


def _reference_route(z, d, r, depth):
    sigmoid(z, out=d)
    for nodes, left, right in _reference_levels(depth):
        r[:, :, left] = r[:, :, nodes] * d[:, :, nodes]
        r[:, :, right] = r[:, :, nodes] * (1.0 - d[:, :, nodes])


def reference_forest_forward(XT, forest):
    """``forest.forest_forward`` with decisions and reach stored row-major."""
    n_dec = forest.n_decision_nodes
    decisions = np.empty((forest.n_trees, XT.shape[0], n_dec))
    reach = np.empty((forest.n_trees, XT.shape[0], 2 * n_dec + 1))
    reach[:, :, 0] = 1.0
    _reference_route(XT @ forest.routing.transpose(0, 2, 1), decisions, reach,
                     forest.depth)
    mu = reach[:, :, n_dec:]
    return {"decisions": decisions, "reach": reach, "mu": mu,
            **leaf_mixture(mu, forest)}


def backprop_forward(X, model):
    """The mini-batch backward's forward of ``X``: ``training._forward_cache``
    plus, under "forest", the per-tree ``probs`` of one ``forest_forward``
    over all trees (each tree half of ``_forest_pass`` gives its trees' bits)
    and their tree mean ``forest_probs``."""
    cache = _forward_cache(X, model)
    probs = forest_forward(cache["fc_acts"][-1], model.forest)["probs"]
    cache["forest"] = {"probs": probs, "forest_probs": probs.mean(axis=0)}
    return cache


def reference_forest_backward(XT, y, g_py, cache, forest):
    """``forest.forest_backward`` on a ``reference_forest_forward`` cache,
    with the reach gradient stored row-major: the routing gradient and each
    tree's term of dL/dXT."""
    n_dec = forest.n_decision_nodes
    d, reach = cache["decisions"], cache["reach"]
    pi_y = cache["leaf_dists"][:, :, y].transpose(0, 2, 1)

    g_reach = np.empty_like(reach)
    g_reach[:, :, n_dec:] = g_py[:, :, None] * pi_y
    for nodes, left, right in reversed(_reference_levels(forest.depth)):
        g_reach[:, :, nodes] = (g_reach[:, :, left] * d[:, :, nodes]
                                + g_reach[:, :, right] * (1.0 - d[:, :, nodes]))
    g_d = (g_reach[:, :, 1::2] - g_reach[:, :, 2::2]) * reach[:, :, :n_dec]
    g_f = g_d * d * (1.0 - d)
    return g_f.transpose(0, 2, 1) @ XT, g_f @ forest.routing


def rank_sum_brute_force(group_a, group_b):
    """Exact one-sided p-values by enumerating every group assignment.

    Uses mid-ranks like the implementation but enumerates subsets with
    itertools instead of dynamic programming.
    """
    from itertools import combinations

    pooled = list(group_a) + list(group_b)
    n, n_a = len(pooled), len(group_a)
    # mid-ranks by sorting with ties averaged
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    observed = sum(ranks[:n_a])
    sums = [sum(ranks[i] for i in combo)
            for combo in combinations(range(n), n_a)]
    total = len(sums)
    p_less = sum(s <= observed for s in sums) / total
    p_greater = sum(s >= observed for s in sums) / total
    return p_less, p_greater, min(1.0, 2.0 * min(p_less, p_greater))


def signed_rank_brute_force(diffs):
    """Exact one-sided p-values by enumerating every sign pattern."""
    from itertools import product

    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    abs_d = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: abs_d[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[order[j + 1]] == abs_d[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    sums = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in product((False, True), repeat=n)]
    total = len(sums)
    p_less = sum(s <= observed for s in sums) / total
    p_greater = sum(s >= observed for s in sums) / total
    return p_less, p_greater, min(1.0, 2.0 * min(p_less, p_greater))


def _wordlist(filename):
    text = resources.files("spamforest.data").joinpath(filename).read_text("utf-8")
    return {w.strip() for w in text.splitlines() if w.strip()}


def _reference_sentiment(text, positive, negative):
    words = re.findall(r"[a-z']+", text.lower())
    score = sum(w in positive for w in words) - sum(w in negative for w in words)
    return (score > 0) - (score < 0)


@lru_cache(maxsize=None)
def lexicon_words():
    """The bundled (positive, negative) word sets."""
    return _wordlist("positive_words.txt"), _wordlist("negative_words.txt")


def reference_sentiment(text):
    """The sentiment of one text by a regex over its lowered str."""
    return _reference_sentiment(text, *lexicon_words())


def _review_date(r):
    return date(1970, 1, 1) + timedelta(days=int(r.timestamp))


def _reference_user_row(reviews, categories, common_names):
    """The user profile plus category block, from per-review Python loops."""
    first = reviews[0]
    name = first.user_name if first.user_name else first.user_id
    name_token = name.lower().split()[0] if name.split() else ""
    ratings = np.array([r.rating for r in reviews])
    helps = np.array([r.helpful_votes for r in reviews], dtype=np.float64)
    unhelps = np.array([r.unhelpful_votes for r in reviews], dtype=np.float64)
    n = len(reviews)
    score_counts = np.array([(ratings == s).sum() for s in range(1, 6)],
                            dtype=np.float64)
    score_ratios = score_counts / n
    total_votes = helps.sum() + unhelps.sum()

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    days = np.array([r.timestamp for r in reviews])
    years = [_review_date(r).year for r in reviews]
    span = max(years) - min(years) + 1
    year_counts = np.zeros(span)
    for yr in years:
        year_counts[yr - min(years)] += 1
    row = [len({r.product_id for r in reviews}), len(name),
           0 if name_token in common_names else 1,
           1 if first.user_memo else 0, len(first.user_memo),
           ratings.min(), ratings.max(), *score_ratios, *score_counts,
           (ratings >= 4).mean(), (ratings <= 2).mean(), entropy(score_ratios),
           ratings.mean(), helps.sum(), unhelps.sum(), helps.mean(),
           unhelps.mean(), ratio(helps.sum(), total_votes),
           ratio(unhelps.sum(), total_votes), np.median(helps), helps.min(),
           helps.max(), np.median(unhelps), unhelps.min(), unhelps.max(),
           days.max() - days.min(), entropy(year_counts / n),
           1 if days.max() == days.min() else 0,
           (year_counts > 0).sum() / span]
    row += [sum(r.category == c for r in reviews) / n for c in categories]
    return [float(v) for v in row]


def _reference_review_row(review, product_reviews, positive, negative):
    """The product block and review part of one row, scanning every review
    of the product again, as the quadratic extraction did."""
    ratings = np.array([r.rating for r in product_reviews])
    days = np.array([r.timestamp for r in product_reviews])
    n = len(product_reviews)
    first_day, gap = days.min(), days.max() - days.min()
    score_ratios = np.array([(ratings == s).sum() for s in range(1, 6)]) / n
    month_idx = [_review_date(r).year * 12 + _review_date(r).month - 1
                 for r in product_reviews]
    month_counts = np.zeros(max(month_idx) - min(month_idx) + 1)
    for m in month_idx:
        month_counts[m - min(month_idx)] += 1
    rank = 1 + int((days < review.timestamp).sum())
    since_first = review.timestamp - first_day
    row = [ratings.mean(), n, entropy(score_ratios), gap,
           entropy(month_counts / n), (days == first_day).sum(),
           review.rating, review.helpful_votes, review.unhelpful_votes,
           since_first, since_first / gap if gap > 0 else 0.0, rank, rank / n,
           len(review.summary_text.split()), len(review.review_text.split()),
           _reference_sentiment(review.summary_text, positive, negative),
           _reference_sentiment(review.review_text, positive, negative)]
    return [float(v) for v in row]


def reference_feature_rows(records, categories=None):
    """Feature matrix values of ``records`` by the per-review formulas.

    Every row recomputes its product's statistics over all of that
    product's reviews, so the cost is quadratic in reviews per product.
    Column order is the manifest's: user block, category block, product
    block, review part.
    """
    if categories is None:
        categories = sorted({r.category for r in records})
    positive = _wordlist("positive_words.txt")
    negative = _wordlist("negative_words.txt")
    common_names = _wordlist("common_names.txt")
    by_user, by_product = {}, {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
        by_product.setdefault(r.product_id, []).append(r)
    user_rows = {uid: _reference_user_row(revs, categories, common_names)
                 for uid, revs in by_user.items()}
    return np.array([user_rows[r.user_id] + _reference_review_row(
        r, by_product[r.product_id], positive, negative) for r in records],
        dtype=np.float64)


def reference_read_labels(path):
    """``(user_ids, labels)`` of a labels.tsv by the per-line loop that
    ``load_features`` ran before it read the body in one pass; it raises
    the ParseError, with its line number, that the loader must raise."""
    user_ids, labels = [], []
    with open_text(path) as fh:
        header_line = fh.readline()
        if header_line.strip() != "user_id\tlabel":
            raise ParseError("header must be 'user_id\\tlabel'", 1)
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ParseError(f"expected 'user_id<TAB>0|1', got {line!r}", ln)
            user_ids.append(parts[0])
            labels.append(int(parts[1]))
    return user_ids, labels


# The per-line review reader that load_reviews ran before it read files as
# columns, kept verbatim; it builds ReviewRecords, whose __post_init__ is the
# range check the package still uses.
_REVIEW_FIELDS = {f.name: f.type for f in dataclasses.fields(ReviewRecord)}
_REQUIRED_FIELDS = tuple(f.name for f in dataclasses.fields(ReviewRecord)
                         if f.default is dataclasses.MISSING)


def _record_from_fields(fields: dict, line_number: int) -> ReviewRecord:
    missing = [f for f in _REQUIRED_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"missing required field(s) {missing}", line_number)
    clean = {}
    for name, kind in _REVIEW_FIELDS.items():
        value = fields.get(name)
        if kind == "str":
            if isinstance(value, str):
                clean[name] = value
            elif value is None:
                if name in _REQUIRED_FIELDS:
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


def _warn_unknown(fields: dict, seen_unknown: set, line_number: int):
    for name in fields:
        if name not in _REVIEW_FIELDS and name not in seen_unknown:
            seen_unknown.add(name)
            warnings.warn(f"line {line_number}: ignoring unknown field {name!r}")


def reference_load_reviews(path) -> list[ReviewRecord]:
    """Parse newline-delimited JSON review records.

    Empty lines are skipped; any malformed line raises ParseError with its
    line number.
    """
    records = []
    seen_unknown: set[str] = set()
    with open_text(path) as fh:
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


def records_of(table) -> list[ReviewRecord]:
    """The ReviewRecords a ReviewTable holds, in order."""
    columns = [getattr(table, name).tolist() for name in _REVIEW_FIELDS]
    return [ReviewRecord(*values) for values in zip(*columns)]


def write_delimited_reviews(jsonl_path, tsv_path):
    """Write a JSON-lines review file as the tab-delimited export
    ``extract --delimited`` reads: a header naming every ReviewRecord
    field, then each record's values in that order."""
    names = list(_REVIEW_FIELDS)
    lines = ["\t".join(names)]
    with open(jsonl_path, encoding="utf-8") as fh:
        for line in filter(str.strip, fh):
            fields = json.loads(line)
            cells = [str(fields.get(name, "")) for name in names]
            if any("\t" in c or "\n" in c or "\r" in c for c in cells):
                raise ValueError(f"a value of {line!r} does not fit one cell")
            lines.append("\t".join(cells))
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class FullDisk:
    """A disk with room for ``room`` more characters (bytes in binary mode).
    Its ``open``, patched in as ``dataio.open``, opens a file for writing as
    a ``FailingWriter`` on this disk."""

    def __init__(self, room):
        self.room = room

    def open(self, path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return FailingWriter(fh, self) if "w" in mode else fh


class FailingWriter:
    """A file on a ``FullDisk``: a write that does not fit writes the part
    that does, then raises ENOSPC."""

    def __init__(self, fh, disk):
        self.fh, self.disk = fh, disk

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self.disk.room:
            self.fh.write(data[:self.disk.room])
            self.fh.flush()
            self.disk.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.disk.room -= len(data)
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
