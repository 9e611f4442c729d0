import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import tempfile
import threading
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (FullDisk, records_of, reference_load_reviews,
                     reference_read_labels, rewrite_model_body, zeros_tensor)
from spamforest import dataio
from spamforest.dataio import (MODEL_FORMAT_VERSION, LabeledDataset,
                               NormStats, apply_normalization,
                               label_and_cap_users, load_features, load_model,
                               load_reviews, load_reviews_delimited,
                               load_spam_scores, normalize, save_features,
                               save_model, split_train_test)
from spamforest.errors import (ConfigError, ModelIntegrityError,
                               ModelVersionError, ParseError)
from spamforest.features import FeatureMatrix, ReviewRecord, ReviewTable
from spamforest.numerics import Rng
from spamforest.training import (TrainConfig, init_model, parameter_blocks,
                                 predict, train)


def rec(user="u1", product="p1", rating=4, day=10, category="books"):
    return ReviewRecord(user, product, rating, 2, 1, day, category,
                        "fine", "quite fine overall", user_name="alice")


def table(records) -> ReviewTable:
    return ReviewTable.from_records(records)


def record_json(r: ReviewRecord) -> str:
    return json.dumps({
        "user_id": r.user_id, "product_id": r.product_id, "rating": r.rating,
        "helpful_votes": r.helpful_votes, "unhelpful_votes": r.unhelpful_votes,
        "timestamp": r.timestamp, "category": r.category,
        "summary_text": r.summary_text, "review_text": r.review_text,
        "user_name": r.user_name, "user_memo": r.user_memo,
    })


class TestLoadReviews:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text("")
        assert records_of(load_reviews(path)) == []

    def test_write_then_read_round_trip(self, tmp_path):
        originals = [rec(user=f"u{i}", product=f"p{i}", day=i) for i in range(3)]
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join(record_json(r) for r in originals) + "\n")
        assert records_of(load_reviews(path)) == originals

    def test_rating_out_of_range_names_constraint_and_line(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        good = record_json(rec())
        bad = good.replace('"rating": 4', '"rating": 7')
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2.*1..5") as err:
            load_reviews(path)
        assert err.value.line_number == 2

    def test_malformed_json_line_numbered(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text(record_json(rec()) + "\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            load_reviews(path)

    # json.loads raises RecursionError, not a JSONDecodeError, on JSON nested
    # this deeply: as a whole line, and as a value inside a valid object.
    @pytest.mark.parametrize("bad", [
        "[" * 100000 + "]" * 100000,
        '{"nested": ' + "[" * 100000 + "]" * 100000 + ", " + record_json(rec())[1:],
    ], ids=["line", "value"])
    def test_json_nested_too_deeply_line_numbered(self, tmp_path, bad):
        path = tmp_path / "reviews.jsonl"
        path.write_text(record_json(rec()) + "\n" + bad + "\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert str(err.value) == f"{path}: line 2: invalid JSON (nested too deeply)"
        assert err.value.line_number == 2

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text('{"user_id": "u"}\n')
        with pytest.raises(ParseError, match="missing required"):
            load_reviews(path)

    @pytest.mark.parametrize("day", [-719163, 2932897, 10 ** 9])
    def test_timestamp_beyond_date_range_line_numbered(self, tmp_path, day):
        path = tmp_path / "reviews.jsonl"
        good = record_json(rec())
        bad = good.replace('"timestamp": 10', f'"timestamp": {day}')
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2.*timestamp") as err:
            load_reviews(path)
        assert err.value.line_number == 2

    def test_timestamp_range_ends_accepted(self, tmp_path):
        # date.min and date.max, in days since 1970-01-01.
        records = [rec(day=-719162), rec(day=2932896)]
        assert [(date(1970, 1, 1) + timedelta(days=r.timestamp)).isoformat()
                for r in records] == ["0001-01-01", "9999-12-31"]
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join(record_json(r) for r in records) + "\n")
        assert records_of(load_reviews(path)) == records

    @pytest.mark.parametrize("field, raw", [
        ("rating", "4.7"), ("timestamp", "100.9"), ("rating", "true"),
        ("helpful_votes", "Infinity"), ("unhelpful_votes", "-Infinity")])
    def test_non_integer_json_number_names_line_and_field(self, tmp_path,
                                                          field, raw):
        good = record_json(rec())
        value = json.loads(good)[field]
        bad = good.replace(f'"{field}": {value}', f'"{field}": {raw}')
        assert bad != good
        path = tmp_path / "reviews.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError,
                           match=f"line 2: field '{field}' must be an integer"
                           ) as err:
            load_reviews(path)
        assert err.value.line_number == 2

    # A null required text field, and a JSON boolean, array or object in any
    # text field, is a ParseError naming the line and field.
    @pytest.mark.parametrize("field, value, reason", [
        pytest.param(field, None, f"required field '{field}' is null", id=field)
        for field in ("user_id", "product_id", "category", "summary_text",
                      "review_text")] + [
        pytest.param(field, value, f"field '{field}' must be a string, got {shown}",
                     id=f"{field}-{type(value).__name__}")
        for field, value, shown in [
            ("user_id", True, "true"), ("product_id", False, "false"),
            ("category", {"a": 1}, '{"a": 1}'), ("summary_text", [], "[]"),
            ("review_text", ["x", 2], '["x", 2]'), ("user_name", True, "true"),
            ("user_memo", {}, "{}")]])
    def test_null_required_text_names_line_and_field(self, tmp_path, field,
                                                     value, reason):
        good = record_json(rec())
        bad = json.dumps(dict(json.loads(good), **{field: value}))
        path = tmp_path / "reviews.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError,
                           match=re.escape(f"line 2: {reason}")
                           ) as err:
            load_reviews(path)
        assert err.value.line_number == 2

    def test_json_number_in_text_field_kept_as_string(self, tmp_path):
        obj = dict(json.loads(record_json(rec())), user_id=17, product_id=2.5)
        path = tmp_path / "reviews.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert records_of(load_reviews(path)) == [dataclasses.replace(
            rec(), user_id="17", product_id="2.5")]

    def test_null_optional_text_keeps_default(self, tmp_path):
        obj = dict(json.loads(record_json(rec())), user_name=None, user_memo=None)
        path = tmp_path / "reviews.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert records_of(load_reviews(path)) == [dataclasses.replace(rec(), user_name="")]

    @pytest.mark.parametrize("raw", ["4", "4.0", '"4"'])
    def test_integral_json_rating_accepted(self, tmp_path, raw):
        path = tmp_path / "reviews.jsonl"
        path.write_text(record_json(rec()).replace('"rating": 4',
                                                   f'"rating": {raw}') + "\n")
        assert records_of(load_reviews(path)) == [rec()]

    def test_unknown_field_warns_but_parses(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        obj = json.loads(record_json(rec()))
        obj["color"] = "red"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.warns(UserWarning, match="color"):
            records = load_reviews(path)
        assert len(records) == 1


def review_outcome(load, path):
    """What ``load(path)`` gives: its columns as lists and their dtypes, or
    its ParseError's text and line; with the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except ParseError as exc:
            result = ("ParseError", str(exc), exc.line_number)
        else:
            if isinstance(result, ReviewTable):
                result = {f.name: (getattr(result, f.name).dtype.kind,
                                   getattr(result, f.name).tolist())
                          for f in dataclasses.fields(ReviewRecord)}
            else:  # the reference's list of ReviewRecords
                result = {f.name: ("O" if f.type == "str" else "i",
                                   [getattr(r, f.name) for r in result])
                          for f in dataclasses.fields(ReviewRecord)}
    return result, [str(w.message) for w in caught]


REVIEW_FIELD_NAMES = [f.name for f in dataclasses.fields(ReviewRecord)]
# Values a mutated field takes: each kind the per-line check converts or
# rejects (null, numeric ids, integral and fractional floats, bools,
# numeric strings, values beyond int64 and out of range, non-ASCII text
# with a lone surrogate, containers).
FIELD_VALUES = [None, 17, 2.5, 4.0, 4.5, True, "4", 2 ** 63, -2 ** 63 - 1, -1, 0,
                6, 10 ** 9, -719163, 2932896, "x", "zo\u00eb \ud800 great", [1], {}]
GOOD_LINE = record_json(rec())
# Lines that are no plain record: blank and whitespace-only, invalid JSON,
# JSON that is no object, extra data, and an array split over two lines.
RAW_LINES = ["", "   ", "\t \x0c", "{not json", "[1, 2]", "null", '"text"',
             GOOD_LINE + " x", GOOD_LINE + GOOD_LINE,
             '{"review_text": [1\n2]}, ' + GOOD_LINE]


@st.composite
def review_line(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(RAW_LINES))
    fields = json.loads(record_json(rec(
        user=draw(st.sampled_from(["u1", "u2", "é"])),
        product=draw(st.sampled_from(["p1", "p2"])),
        rating=draw(st.integers(1, 5)), day=draw(st.integers(-800, 5000)))))
    for op, name, value in draw(st.lists(st.tuples(
            st.sampled_from(["set", "drop", "unknown"]),
            st.sampled_from(REVIEW_FIELD_NAMES), st.sampled_from(FIELD_VALUES)),
            max_size=2)):
        if op == "set":
            fields[name] = value
        elif op == "drop":
            fields.pop(name, None)
        else:
            fields["extra_" + name[:4]] = value
    return json.dumps(fields, ensure_ascii=draw(st.booleans()))


review_bodies = st.lists(st.tuples(review_line(), st.sampled_from(["\n", "\r\n", "\r"])),
                         max_size=8).map(lambda lines: "".join(a + b for a, b in lines))


def count_opens(monkeypatch) -> list[str]:
    """The names of the files ``dataio`` opens from now on, in order."""
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dataio, "open", counting_open, raising=False)
    return opened


class TestLoadReviewsMatchesLineReader:
    """load_reviews against the per-line reader it replaced: the same
    columns, or the same ParseError text and line, and the same warnings in
    the same order."""

    @settings(max_examples=300, deadline=None)
    @given(review_bodies)
    def test_same_columns_or_error_and_warnings(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "reviews.jsonl")
            # A raw lone surrogate makes bytes that are not UTF-8.
            path.write_bytes(body.encode("utf-8", "surrogatepass"))
            assert review_outcome(load_reviews, path) == \
                review_outcome(reference_load_reviews, path)

    @pytest.mark.parametrize("bad", [
        GOOD_LINE.replace('"rating": 4', '"rating": 9'),
        GOOD_LINE.replace('"helpful_votes": 2', f'"helpful_votes": {2 ** 63}'),
        GOOD_LINE.replace('"rating": 4', f'"rating": {2 ** 63}'),
        GOOD_LINE.replace('"timestamp": 10', '"timestamp": 4.0') + "\n" + GOOD_LINE[:-1]],
        ids=["rating-9", "votes-2**63", "rating-2**63", "float-day-then-cut-line"])
    def test_earliest_bad_line_wins_over_a_later_json_error(self, tmp_path, bad):
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join([GOOD_LINE, bad, GOOD_LINE, "{not json", GOOD_LINE]))
        ref = review_outcome(reference_load_reviews, path)
        assert ref[0][0] == "ParseError" and ref[0][2] in (2, 3)
        assert review_outcome(load_reviews, path) == ref

    def test_plain_file_reads_in_one_pass(self, tmp_path, monkeypatch):
        # The per-line reader runs only for a file that needs it.
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join([GOOD_LINE] * 3) + "\n\n")
        monkeypatch.setattr(dataio, "_load_review_lines", None)
        assert records_of(load_reviews(path)) == [rec()] * 3

    @pytest.mark.parametrize("lines", [
        [GOOD_LINE] * 3,
        [GOOD_LINE, GOOD_LINE.replace('"user_id": "u1"', '"user_id": 17'), GOOD_LINE],
        [GOOD_LINE, GOOD_LINE.replace('"rating": 4', '"rating": 9'), "{not json"],
    ], ids=["plain", "numeric-user-id", "rating-9-then-json-error"])
    def test_reviews_file_opened_once(self, tmp_path, monkeypatch, lines):
        # A file the column check refuses is read again from the same handle.
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join(lines) + "\n")
        opened = count_opens(monkeypatch)
        got = review_outcome(load_reviews, path)
        assert opened == ["reviews.jsonl"]
        assert got == review_outcome(reference_load_reviews, path)


class TestLoadReviewsDelimited:
    def test_round_trip(self, tmp_path):
        originals = [rec(user=f"u{i}", day=i) for i in range(2)]
        cols = ["user_id", "product_id", "rating", "helpful_votes",
                "unhelpful_votes", "timestamp", "category", "summary_text",
                "review_text", "user_name"]
        lines = ["\t".join(cols)]
        for r in originals:
            lines.append("\t".join(str(getattr(r, c)) for c in cols))
        path = tmp_path / "reviews.tsv"
        path.write_text("\n".join(lines) + "\n")
        assert records_of(load_reviews_delimited(path)) == originals

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "reviews.tsv"
        path.write_text("user_id\tproduct_id\nonly-one-cell\n")
        with pytest.raises(ParseError, match="line 2"):
            load_reviews_delimited(path)

    def test_timestamp_beyond_date_range_line_numbered(self, tmp_path):
        cols = ["user_id", "product_id", "rating", "helpful_votes",
                "unhelpful_votes", "timestamp", "category", "summary_text",
                "review_text"]
        good = rec()
        lines = ["\t".join(cols),
                 "\t".join(str(getattr(good, c)) for c in cols),
                 "\t".join(str(10 ** 9 if c == "timestamp" else getattr(good, c))
                           for c in cols)]
        path = tmp_path / "reviews.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3.*timestamp") as err:
            load_reviews_delimited(path)
        assert err.value.line_number == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "reviews.tsv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            load_reviews_delimited(path)

    def test_field_named_twice_in_header_rejected(self, tmp_path):
        # Before this was refused, the last rating column won silently.
        cols = ["user_id", "product_id", "rating", "helpful_votes",
                "unhelpful_votes", "timestamp", "category", "summary_text",
                "review_text", "rating"]
        path = tmp_path / "reviews.tsv"
        path.write_text("\n\n" + "\t".join(cols) + "\n"
                        + "u\tp\t4\t0\t0\t1\tbooks\ts\tr\t2\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: line 3: header names field 'rating' 2 times")) as err:
            load_reviews_delimited(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("rating", ["4", " 5", "+3", "\u0664", "4.5", "", "9"])
    def test_converts_and_warns_as_the_json_per_line_check(self, tmp_path, monkeypatch,
                                                           rating):
        # The same fields as JSON strings, after a blank first line so the
        # line numbers agree: the same columns, or the same error, and the
        # unknown column warns once, naming the line of its first row.
        rows = [dict(json.loads(GOOD_LINE), user_id=f"u{i}", color="red")
                for i in range(2)]
        rows[1]["rating"] = rating
        names = list(rows[0])
        path = tmp_path / "reviews.txt"
        path.write_text("\n" + "".join(
            json.dumps({n: str(row[n]) for n in names}) + "\n" for row in rows))
        want = review_outcome(load_reviews, path)
        path.write_text("".join("\t".join(map(str, cells)) + "\n" for cells in
                                [names] + [[row[n] for n in names] for row in rows]))
        opened = count_opens(monkeypatch)
        got = review_outcome(load_reviews_delimited, path)
        assert opened == ["reviews.txt"]
        assert got == want
        assert got[1] == ["line 2: ignoring unknown field 'color'"]


class TestSpamScores:
    def test_parse(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("u1\t0.25\nu2\t0.75\n")
        assert load_spam_scores(path) == {"u1": 0.25, "u2": 0.75}

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("u1\t1.5\n")
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            load_spam_scores(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("u1 0.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_spam_scores(path)

    def test_user_scored_twice_names_the_second_line(self, tmp_path):
        # Before this was refused, the last line won: {'a': 0.8, 'b': 0.9}.
        path = tmp_path / "scores.tsv"
        path.write_text("a\t0.1\nb\t0.9\na\t0.8\n")
        with pytest.raises(ParseError, match=re.escape(
                "line 3: user 'a' was already scored on line 1")) as err:
            load_spam_scores(path)
        assert err.value.line_number == 3


class TestLabelAndCap:
    def test_threshold_boundary(self):
        records = table([rec(user="low"), rec(user="high")])
        _, labels = label_and_cap_users(records, {"low": 0.49, "high": 0.5})
        npt.assert_array_equal(labels, [0, 1])

    def test_cap_downsamples_deterministically(self):
        records = table([rec(user="u", product=f"p{i}", day=i) for i in range(30)])
        scores = {"u": 0.9}
        capped1, labels1 = label_and_cap_users(records, scores, cap=20, seed=5)
        capped2, _ = label_and_cap_users(records, scores, cap=20, seed=5)
        capped3, _ = label_and_cap_users(records, scores, cap=20, seed=6)
        assert len(capped1) == 20
        assert records_of(capped1) == records_of(capped2)
        assert records_of(capped1) != records_of(capped3)
        assert np.all(labels1 == 1)

    def test_under_cap_kept_in_full(self):
        records = table([rec(user="u", product=f"p{i}") for i in range(5)])
        capped, _ = label_and_cap_users(records, {"u": 0.1})
        assert records_of(capped) == records_of(records)

    def test_missing_score_lists_users(self):
        records = table([rec(user="known"), rec(user="ghost1"), rec(user="ghost2")])
        with pytest.raises(ValueError, match="ghost1.*ghost2"):
            label_and_cap_users(records, {"known": 0.2})

    def test_all_zero_scores(self):
        records = table([rec(user=f"u{i}") for i in range(4)])
        _, labels = label_and_cap_users(records,
                                        {f"u{i}": 0.0 for i in range(4)})
        assert np.all(labels == 0)


def small_matrix(values):
    values = np.asarray(values, dtype=float)
    d = values.shape[1]
    return FeatureMatrix(values, [f"f{i}" for i in range(d)],
                         ["rating"] * d, ["continuous"] * d)


class TestNormalize:
    def test_zscore_moments(self, rng):
        matrix = small_matrix(rng.normal((100, 3), 5.0) + 7.0)
        normed, stats = normalize(matrix, "zscore")
        assert np.all(np.abs(normed.values.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(normed.values.std(axis=0) - 1.0) < 1e-10)
        assert stats.method == "zscore"

    def test_minmax_range(self, rng):
        matrix = small_matrix(rng.normal((50, 2), 3.0))
        normed, _ = normalize(matrix, "minmax")
        npt.assert_allclose(normed.values.min(axis=0), 0.0, atol=1e-15)
        npt.assert_allclose(normed.values.max(axis=0), 1.0, atol=1e-15)

    def test_constant_column_zeros(self):
        matrix = small_matrix(np.column_stack([np.full(10, 3.0),
                                               np.arange(10.0)]))
        for method in ("zscore", "minmax"):
            normed, _ = normalize(matrix, method)
            npt.assert_array_equal(normed.values[:, 0], 0.0)

    def test_none_is_identity(self, rng):
        matrix = small_matrix(rng.normal((20, 2)))
        normed, _ = normalize(matrix, "none")
        npt.assert_array_equal(normed.values, matrix.values)

    def test_train_stats_reapply_to_test_rows(self, rng):
        train_m = small_matrix(rng.normal((80, 2), 2.0) + 1.0)
        test_m = small_matrix(rng.normal((20, 2), 2.0) + 1.0)
        before = test_m.values.copy()
        _, stats = normalize(train_m, "zscore")
        test_normed = apply_normalization(test_m, stats)
        manual = (test_m.values - train_m.values.mean(axis=0)) / \
            train_m.values.std(axis=0)
        npt.assert_allclose(test_normed.values, manual, atol=1e-12)
        quotient = (before - stats.center) / stats.scale
        npt.assert_array_equal(test_normed.values.view(np.int64),
                               quotient.view(np.int64))
        npt.assert_array_equal(test_m.values.view(np.int64), before.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_equals_out_of_place_quotient_bit_for_bit(self, n_rows, n_cols, seed):
        # Magnitudes from 1e-300 to 1e300, signed, so that the subtraction
        # and the division round, cancel and approach overflow.
        r = np.random.default_rng(seed)
        def draw(shape):
            return (r.choice([-1.0, 1.0], shape) * r.uniform(1, 10, shape)
                    * 10.0 ** r.integers(-300, 300, shape).astype(float))
        values = draw((n_rows, n_cols))
        center = draw(n_cols)
        scale = np.abs(draw(n_cols))
        matrix = small_matrix(values)
        before = matrix.values.copy()
        stats = NormStats("zscore", center, scale)
        with np.errstate(over="ignore"):
            quotient = (values - center) / scale
        if not np.isfinite(quotient).all():
            with pytest.raises(ValueError, match="is not finite after zscore"):
                apply_normalization(matrix, stats)
        else:
            got = apply_normalization(matrix, stats).values
            npt.assert_array_equal(got.view(np.int64), quotient.view(np.int64))
        npt.assert_array_equal(matrix.values.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("cell, center", [(1e300, 0.0), (-1e308, 1e308)],
                             ids=["quotient-overflows", "difference-overflows"])
    def test_overflowing_cell_rejected_naming_column(self, cell, center):
        values = np.array([[1.0, 2.0, 3.0], [4.0, cell, 6.0]])
        stats = NormStats("zscore", np.array([0.0, center, 0.0]),
                          np.array([1.0, 1e-300 if cell == 1e300 else 1.0, 1.0]))
        matrix = small_matrix(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=re.escape(
                    "feature column 2 ('f1') is not finite after zscore "
                    "normalization")):
                apply_normalization(matrix, stats)
        npt.assert_array_equal(matrix.values, values)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ConfigError):
            normalize(small_matrix(rng.normal((5, 1))), "rank")

    def test_stats_width_checked(self, rng):
        stats = NormStats("zscore", np.zeros(3), np.ones(3))
        with pytest.raises(ConfigError):
            apply_normalization(small_matrix(rng.normal((4, 2))), stats)


    @pytest.mark.parametrize("method", ["zscore", "minmax"])
    def test_overflowing_stats_rejected_naming_column(self, method):
        values = np.column_stack([np.arange(4.0), [1e308, -1e308, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"column 2 \('f1'\)"):
                normalize(small_matrix(values), method)

    @pytest.mark.parametrize("method", ["zscore", "minmax", "none"])
    def test_column_subset_equals_columns_of_whole_fit(self, rng, method):
        # run_ablation fits once and slices each scope's columns, where it
        # used to fit each scope on values[:, cols][rows], a C-ordered copy.
        # numpy sums the rows of a C-ordered block one by one, but a lone
        # contiguous column, or the columns of an F-ordered array, pairwise,
        # so only C-ordered subsets of two or more columns match bit for bit.
        values = rng.normal((300, 9)) * np.arange(1.0, 10.0) + np.arange(9.0) * 100
        whole, whole_stats = normalize(small_matrix(values), method)
        for cols in ([0, 1], [2, 5, 8], [3, 4, 6, 7], list(range(9))):
            subset = np.ascontiguousarray(values[:, cols])
            part, stats = normalize(small_matrix(subset), method)
            for got, want in ((part.values, whole.values[:, cols]),
                              (stats.center, whole_stats.center[cols]),
                              (stats.scale, whole_stats.scale[cols])):
                npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSplitShuffleBatch:
    """``split_train_test``, the seeded split the CLI commands run."""

    def test_first_rows_of_the_seeded_permutation_train(self):
        train_idx, test_idx = split_train_test(10, 7, seed=2)
        perm = Rng(2).permutation(10)
        npt.assert_array_equal(train_idx, perm[:7])
        npt.assert_array_equal(test_idx, perm[7:])

    def test_deterministic_per_seed(self):
        a1, t1 = split_train_test(50, 30, seed=9)
        a2, t2 = split_train_test(50, 30, seed=9)
        npt.assert_array_equal(a1, a2)
        npt.assert_array_equal(t1, t2)

    def test_is_a_permutation(self):
        train_idx, test = split_train_test(40, 25, seed=3)
        assert len(train_idx) == 25
        assert sorted(np.concatenate([train_idx, test])) == list(range(40))

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            split_train_test(10, 11, seed=0)
        with pytest.raises(ConfigError):
            split_train_test(10, 0, seed=0)


@pytest.fixture(scope="module")
def trained_desk():
    r = Rng(77)
    X = r.normal((40, 6))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    cfg = TrainConfig(n_epoch=8, batch_size=10, seed=3, n_tree=2, n_depth=2)
    result = train(X, y, cfg)
    result.model.manifest_version = 1
    return result.model, X


class TestModelSerialization:
    def test_round_trip_bit_exact(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        for (name_a, a), (name_b, b) in zip(parameter_blocks(model),
                                            parameter_blocks(loaded)):
            assert name_a == name_b
            npt.assert_array_equal(a, b)
        assert loaded.config == model.config
        assert loaded.manifest_version == model.manifest_version

    def test_predictions_identical_after_reload(self, trained_desk, tmp_path):
        model, X = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        before_labels, before_probs = predict(model, X)
        after_labels, after_probs = predict(loaded, X)
        npt.assert_array_equal(before_labels, after_labels)
        npt.assert_array_equal(before_probs, after_probs)

    def test_non_finite_stats_not_written(self, trained_desk, tmp_path):
        model, _ = trained_desk
        model = dataclasses.replace(model, norm_stats=NormStats(
            "zscore", np.zeros(model.n_features), np.full(model.n_features, np.inf)))
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_model(path, model)
        assert not path.exists()

    def test_truncated_file_is_integrity_error(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(ModelIntegrityError):
            load_model(path)

    def test_tampered_payload_is_integrity_error(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["body"]["config"]["seed"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIntegrityError, match="checksum"):
            load_model(path)

    def test_version_mismatch_is_version_error(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="99"):
            load_model(path)

    def test_norm_stats_survive_round_trip(self, trained_desk, tmp_path):
        model, _ = trained_desk
        # One center and one scale per feature column, as load_model checks.
        model.norm_stats = NormStats("zscore",
                                     np.array([0.5, -1.0, 0.0, 2.5, -3.0, 1.0]),
                                     np.array([2.0, 3.0, 1.0, 0.5, 4.0, 1.5]))
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.norm_stats.method == "zscore"
        npt.assert_array_equal(loaded.norm_stats.center, model.norm_stats.center)
        npt.assert_array_equal(loaded.norm_stats.scale, model.norm_stats.scale)
        model.norm_stats = None


    rewrite_body = staticmethod(rewrite_model_body)

    def test_feature_names_survive_round_trip(self, trained_desk, tmp_path):
        model, _ = trained_desk
        named = dataclasses.replace(model, feature_names=[f"f{j}" for j in range(6)])
        path = tmp_path / "model.json"
        save_model(path, named)
        assert json.loads(path.read_text())["format_version"] == MODEL_FORMAT_VERSION == 2
        assert load_model(path).feature_names == named.feature_names

    def test_feature_names_of_wrong_width_is_integrity_error(self, trained_desk,
                                                              tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body.update(feature_names=["x"] * 5))
        with pytest.raises(ModelIntegrityError, match="6 strings"):
            load_model(path)

    def test_version_1_file_is_version_error(self, trained_desk, tmp_path):
        # A version 1 body is a version 2 body without feature_names.
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body.pop("feature_names"))
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="version 1 .*expected 2"):
            load_model(path)

    def test_tree_tensors_load_stacked(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        forest = load_model(path).forest
        assert forest.routing.shape == (2, 3, model.forest.routing.shape[2])
        assert forest.leaf_logits.shape == (2, 4, 2)
        npt.assert_array_equal(forest.routing, model.forest.routing)
        npt.assert_array_equal(forest.leaf_logits, model.forest.leaf_logits)

    @pytest.mark.parametrize("key", ["config", "tensors", "n_classes",
                                     "feature_names"])
    def test_missing_body_key_is_integrity_error(self, trained_desk, tmp_path,
                                                 key):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body.pop(key))
        with pytest.raises(ModelIntegrityError, match=key):
            load_model(path)

    def test_tensor_entry_without_data_is_integrity_error(self, trained_desk,
                                                          tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body["tensors"]["encoder.0.W"].pop("data"))
        with pytest.raises(ModelIntegrityError, match="incomplete"):
            load_model(path)

    def test_unstackable_tree_tensors_is_integrity_error(self, trained_desk,
                                                         tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)

        def shrink_tree1(body):
            # Tree 1's routing keeps two of its three decision rows.
            tensor = body["tensors"]["tree.1.routing"]
            rows, width = tensor["shape"]
            raw = base64.b64decode(tensor["data"])
            tensor["shape"] = [rows - 1, width]
            tensor["data"] = base64.b64encode(
                raw[: (rows - 1) * width * 8]).decode("ascii")

        self.rewrite_body(path, shrink_tree1)
        with pytest.raises(ModelIntegrityError,
                           match=r"tensor tree\.1\.routing has shape \[2, \d+\]; "
                                 r"the model its config describes needs \[3, \d+\]"):
            load_model(path)

    def test_config_with_more_trees_than_tensors_is_integrity_error(self,
                                                                     tmp_path):
        # The config says 5 trees; the file holds tree 0-3's tensors only.
        model = init_model(TrainConfig(n_tree=5, n_depth=2, seed=1), 6, Rng(1))
        path = tmp_path / "model.json"
        save_model(path, model)

        def drop_tree4(body):
            for kind in ("routing", "leaf_logits"):
                del body["tensors"][f"tree.4.{kind}"]

        self.rewrite_body(path, drop_tree4)
        with pytest.raises(ModelIntegrityError, match=r"lacks tensor tree\.4\."):
            load_model(path)

    def test_extra_tensor_is_integrity_error(self, trained_desk, tmp_path):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)

        def add_tree2(body):
            body["tensors"]["tree.2.routing"] = body["tensors"]["tree.1.routing"]

        self.rewrite_body(path, add_tree2)
        with pytest.raises(ModelIntegrityError,
                           match=r"holds an extra tensor tree\.2\.routing"):
            load_model(path)

    @pytest.mark.parametrize("shape", [["6", 3], [3.0, 6], [18], []],
                             ids=["string", "float", "1-d", "scalar"])
    def test_malformed_first_encoder_shape_is_integrity_error(self, trained_desk,
                                                              tmp_path, shape):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)

        def reshape(body):
            # The (3, 6) tensor's 18 values, or one value for the scalar.
            tensor = body["tensors"]["encoder.0.W"]
            tensor["shape"] = shape
            if shape == []:
                tensor["data"] = base64.b64encode(b"\0" * 8).decode("ascii")

        self.rewrite_body(path, reshape)
        with pytest.raises(ModelIntegrityError, match=r"encoder\.0\.W"):
            load_model(path)

    def test_first_encoder_without_columns_names_the_tensor(self, tmp_path, capsys):
        # A (width, 0) encoder.0.W is 2-D, but describes a model of no input
        # feature; the error names the tensor, not the train-time check.
        path = tmp_path / "model.json"
        path.write_bytes((GOLDEN / "model.json").read_bytes())
        width = load_model(path).autoencoder.encoder[0].W.shape[0]
        rewrite_model_body(path, lambda body: body["tensors"].update(
            {"encoder.0.W": zeros_tensor((width, 0))}))
        message = ("model file tensor encoder.0.W has 0 columns (n_features); "
                   "a model needs at least one")
        with pytest.raises(ModelIntegrityError, match=re.escape(message)):
            load_model(path)
        from spamforest.cli import main
        out = tmp_path / "out"
        assert main(["predict", "--features", str(GOLDEN / "features"),
                     "--model", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (out / "predictions.tsv").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("n_tree", 2.0, r"model file config: n_tree must be an integer, got 2\.0"),
        ("seed", True, "seed must be an integer, got True"),
        ("init_scale", "x", "init_scale must be a number, got 'x'"),
        ("learning_rate", False, "learning_rate must be a number, got False"),
        ("ae_widths", "30", "ae_widths must be integers or null, got '30'"),
        ("ae_widths", [3.0, 2], r"ae_widths must be integers or null, got \[3\.0, 2\]"),
        ("reshuffle_each_epoch", "no",
         "reshuffle_each_epoch must be true or false, got 'no'"),
        ("normalization", 1, "normalization must be text, got 1"),
        ("fc_width", "3", "fc_width must be an integer or null, got '3'"),
        ("n_epoch", None, "n_epoch must be an integer, got None"),
        ("bogus", 1, "unknown config key 'bogus'"),
    ])
    def test_mistyped_config_is_integrity_error_naming_key(self, trained_desk,
                                                           tmp_path, key, value,
                                                           match):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body["config"].update({key: value}))
        with pytest.raises(ModelIntegrityError, match=match):
            load_model(path)

    def test_whole_number_float_config_loads_as_float(self, trained_desk, tmp_path):
        # A hand-edited file may write a whole number without its fraction.
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body["config"].update(learning_rate=1))
        loaded = load_model(path).config.learning_rate
        assert loaded == 1.0 and type(loaded) is float

    @pytest.mark.parametrize("value", ["1", 1.0, True, [1]])
    def test_mistyped_manifest_version_is_integrity_error(self, trained_desk,
                                                          tmp_path, value):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body.update(manifest_version=value))
        with pytest.raises(ModelIntegrityError,
                           match="manifest_version must be an integer or null"):
            load_model(path)

    @pytest.mark.parametrize("change, match", [
        ({"data": "abc"}, r"tensor fc\.0\.b data is not base64"),
        ({"data": "AAAA!AAAAAAAAAAA"}, r"tensor fc\.0\.b data is not base64"),
        ({"data": base64.b64encode(b"\0" * 12).decode("ascii")},
         r"tensor fc\.0\.b data is not base64 of float64 values"),
        ({"n_classes": -1}, "n_classes must be 2, got -1"),
        ({"n_classes": 0}, "n_classes must be 2, got 0"),
        ({"n_classes": 2.0}, r"n_classes must be 2, got 2\.0"),
        ({"n_classes": True}, "n_classes must be 2, got True"),
        ({"config": [5, 3]}, "model file config must be an object"),
        ({"n_classes": 1}, "n_classes must be 2, got 1"),
        ({"n_classes": 3}, "n_classes must be 2, got 3"),
    ], ids=["not-base64", "non-alphabet", "partial-float64", "negative-classes",
            "zero-classes", "float-classes", "bool-classes", "list-config",
            "one-class", "three-classes"])
    def test_malformed_tensor_data_or_classes_names_it(self, trained_desk,
                                                       tmp_path, change, match):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)

        def apply(body):
            if "data" in change:
                body["tensors"]["fc.0.b"].update(change)
            else:
                body.update(change)

        self.rewrite_body(path, apply)
        with pytest.raises(ModelIntegrityError, match=match):
            load_model(path)


    @pytest.mark.parametrize("name, index, value", [
        ("tree.0.leaf_logits", (1, 0), np.nan),
        ("encoder.0.W", ..., np.inf),
        ("tree.1.routing", (2, 1), -np.inf),
    ], ids=["nan-leaf", "inf-encoder", "neg-inf-routing"])
    def test_non_finite_tensor_is_integrity_error(self, trained_desk, tmp_path,
                                                  name, index, value):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        blocks = dict(parameter_blocks(model))

        def poison(body):
            arr = blocks[name].copy()
            arr[index] = value
            body["tensors"][name]["data"] = base64.b64encode(
                arr.astype("<f8").tobytes()).decode("ascii")

        self.rewrite_body(path, poison)
        with pytest.raises(ModelIntegrityError,
                           match=rf"tensor {re.escape(name)} holds a non-finite value"):
            load_model(path)

    @pytest.mark.parametrize("change", [
        lambda stats: stats.update(center=["a"] * 6),
        lambda stats: stats["center"].__setitem__(0, None),
        lambda stats: stats["scale"].__setitem__(1, 0.0),
        lambda stats: stats["scale"].__setitem__(2, -1.0),
        lambda stats: stats["scale"].__setitem__(3, float("inf")),
        lambda stats: stats.update(method="bogus"),
        lambda stats: stats.update(center=stats["center"][:5]),
        lambda stats: stats.update(scale=1.0),
        lambda stats: stats.pop("scale"),
        lambda stats: stats.clear(),
    ], ids=["string-center", "null-center", "zero-scale", "negative-scale",
            "inf-scale", "bogus-method", "short-center", "scalar-scale",
            "missing-scale", "empty"])
    def test_malformed_norm_stats_is_integrity_error(self, trained_desk,
                                                     tmp_path, change):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, dataclasses.replace(model, norm_stats=NormStats(
            "zscore", np.linspace(-1.0, 1.0, 6), np.linspace(0.5, 3.0, 6))))
        self.rewrite_body(path, lambda body: change(body["norm_stats"]))
        with pytest.raises(ModelIntegrityError,
                           match=r"norm_stats must name a method in .* and hold "
                                 r"6 finite centers and 6 finite positive scales"):
            load_model(path)

    @pytest.mark.parametrize("norm_stats", [[], "zscore", 0])
    def test_norm_stats_of_wrong_type_is_integrity_error(self, trained_desk,
                                                         tmp_path, norm_stats):
        model, _ = trained_desk
        path = tmp_path / "model.json"
        save_model(path, model)
        self.rewrite_body(path, lambda body: body.update(norm_stats=norm_stats))
        with pytest.raises(ModelIntegrityError, match="norm_stats"):
            load_model(path)


def theta_layout_holds(model):
    """Every theta block (all but the leaf logits) is a view of
    ``model.theta``, and together they cover it exactly."""
    theta = [arr for name, arr in parameter_blocks(model)
             if not name.endswith(".leaf_logits")]
    return (model.theta.ndim == 1
            and all(np.shares_memory(arr, model.theta) for arr in theta)
            and sum(arr.size for arr in theta) == model.theta.size)


class TestParameterLayout:
    @pytest.mark.parametrize("structure", [
        dict(fc_layer_count=0, n_tree=1, n_depth=1),
        dict(fc_layer_count=2, n_tree=3, n_depth=3, ae_layer_count=1),
        dict(ae_widths=(5, 3, 2), ae_layer_count=3, fc_width=4),
    ])
    def test_init_train_and_load_models_are_views_of_theta(self, tmp_path,
                                                           structure):
        cfg = TrainConfig(n_epoch=1, batch_size=5, seed=2, **structure)
        initial = init_model(cfg, 6, Rng(cfg.seed))
        trained = train(Rng(4).normal((10, 6)), np.array([0, 1] * 5), cfg).model
        save_model(tmp_path / "model.json", trained)
        loaded = load_model(tmp_path / "model.json")
        for model in (initial, trained, loaded):
            assert theta_layout_holds(model)
            assert not np.shares_memory(model.forest.leaf_logits, model.theta)
        npt.assert_array_equal(loaded.theta, trained.theta)


GOLDEN = Path(__file__).parent / "data" / "golden"


class TestGoldenModelFile:
    """A feature directory, model.json and predictions.tsv written by an
    earlier version of the package: ``train`` (2 trees of depth 2, batch 6,
    seed 3, both learning rates 0.5, 5 epochs) and ``predict`` on all 24
    rows of ``two_gaussian_dataset(12, seed=5)`` plus the column x0 - x1.
    Today's code must read and rewrite them byte for byte."""

    def test_save_of_load_rewrites_the_model_file(self, tmp_path):
        save_model(tmp_path / "model.json", load_model(GOLDEN / "model.json"))
        assert (tmp_path / "model.json").read_bytes() == \
            (GOLDEN / "model.json").read_bytes()

    def test_predict_reproduces_predictions(self, tmp_path):
        from spamforest.cli import main

        assert main(["predict", "--features", str(GOLDEN / "features"),
                     "--model", str(GOLDEN / "model.json"),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "predictions.tsv").read_bytes() == \
            (GOLDEN / "predictions.tsv").read_bytes()

    def test_predict_reproduces_predictions_through_features_bin(self,
                                                                 tmp_path):
        # golden/features has no features.bin, so the test above parses
        # features.tsv; a copy re-saved by save_features reads its companion.
        from spamforest.cli import main

        ds = load_features(GOLDEN / "features")
        save_features(tmp_path / "feat", ds.features, ds.labels, ds.user_ids)
        assert (tmp_path / "feat" / "features.bin").is_file()
        assert main(["predict", "--features", str(tmp_path / "feat"),
                     "--model", str(GOLDEN / "model.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "predictions.tsv").read_bytes() == \
            (GOLDEN / "predictions.tsv").read_bytes()

    def test_train_reproduces_the_model_file(self, tmp_path):
        # The config stored in the golden model file, as config-file lines.
        from spamforest.cli import main

        config = json.loads((GOLDEN / "model.json").read_text())["body"]["config"]
        (tmp_path / "config.txt").write_text("".join(
            f"{key} = {'none' if value is None else value}\n"
            for key, value in config.items()))
        assert main(["train", "--features", str(GOLDEN / "features"),
                     "--config", str(tmp_path / "config.txt"),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "model.json").read_bytes() == \
            (GOLDEN / "model.json").read_bytes()


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e308,
     -1e308, 1.7976931348623157e308])
FLOAT_FORMATS = st.sampled_from([repr, "{:.17g}".format, "{:.6e}".format,
                                 "{:.25e}".format, "{:.3f}".format])
# Decimal strings float() reads as finite numbers, rounding cases included.
DECIMAL_STRINGS = st.from_regex(
    r"\A[-+]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})([eE][-+]?[0-9]{1,3})?\Z"
).filter(lambda text: np.isfinite(float(text)))


def feature_dir(base, rows):
    """A feature directory whose features.tsv body is the given lines."""
    n_cols = len(rows[0].split("\t")) if rows else 3
    names = ["a", "b", "c", "d", "e"][:n_cols]
    matrix = FeatureMatrix(np.zeros((len(rows), n_cols)), names,
                           ["rating"] * n_cols, ["continuous"] * n_cols)
    save_features(base / "feat", matrix, np.zeros(len(rows), dtype=int),
                  [f"u{i}" for i in range(len(rows))])
    (base / "feat" / "features.tsv").write_text(
        "\t".join(names) + "\n" + "".join(row + "\n" for row in rows))
    return base / "feat"


class TestFeatureFiles:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(FINITE_FLOATS, max_size=30), st.integers(1, 4))
    def test_cells_are_repr_and_load_back_bit_for_bit(self, cells, width):
        # -0.0 and 0.0 share a matrix, so their distinct bit patterns must
        # keep distinct strings.
        cells = cells + [-0.0, 0.0, 5e-324, 1e16, 2.0 ** 53 + 2]
        cells += [0.0] * (-len(cells) % width)
        values = np.array(cells).reshape(-1, width)
        names = [f"c{j}" for j in range(width)]
        matrix = FeatureMatrix(values, names, ["rating"] * width,
                               ["continuous"] * width)
        # Loaded twice: from features.bin, with the text parsers patched
        # out, and from features.tsv alone once the companion is deleted.
        with tempfile.TemporaryDirectory() as out:
            save_features(out, matrix, np.zeros(len(values), dtype=int),
                          [f"u{i}" for i in range(len(values))])
            lines = Path(out, "features.tsv").read_text().splitlines()
            with mock.patch.object(np, "loadtxt", side_effect=AssertionError), \
                    mock.patch.object(dataio, "_parse_feature_rows",
                                      side_effect=AssertionError):
                from_companion = load_features(out).features.values
            Path(out, "features.bin").unlink()
            from_text = load_features(out).features.values
        assert [line.split("\t") for line in lines[1:]] == \
            [[repr(float(x)) for x in row] for row in values]
        for loaded in (from_companion, from_text):
            npt.assert_array_equal(loaded.view(np.int64), values.view(np.int64))

    def test_round_trip(self, tmp_path, rng):
        matrix = FeatureMatrix(rng.normal((6, 3)), ["a", "b", "c"],
                               ["rating", "time", "review"],
                               ["continuous", "continuous", "categorical"])
        labels = np.array([0, 1, 0, 1, 1, 0])
        uids = [f"u{i}" for i in range(6)]
        save_features(tmp_path / "feat", matrix, labels, uids)
        ds = load_features(tmp_path / "feat")
        npt.assert_array_equal(ds.features.values, matrix.values)
        assert ds.features.names == matrix.names
        assert ds.features.scopes == matrix.scopes
        assert ds.features.kinds == matrix.kinds
        npt.assert_array_equal(ds.labels, labels)
        assert ds.user_ids == uids

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, rng,
                                                        cell):
        matrix = FeatureMatrix(rng.normal((4, 3)), ["a", "b", "c"],
                               ["rating", "time", "review"],
                               ["continuous"] * 3)
        save_features(tmp_path / "feat", matrix, np.array([0, 1, 0, 1]),
                      [f"u{i}" for i in range(4)])
        path = tmp_path / "feat" / "features.tsv"
        lines = path.read_text().splitlines()
        cells = lines[3].split("\t")
        cells[2] = cell
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=r"features.tsv: line 4: column 3 \('c'\)") as err:
            load_features(tmp_path / "feat")
        assert err.value.line_number == 4

    @pytest.mark.parametrize("text, message", [
        ('{"manifest_version": 1}', "manifest.json: lacks 'features'"),
        ('{"features": [{"name": "a", "scope": "rating", "kind": "continuous"}]}',
         "manifest.json: lacks 'manifest_version'"),
        ('{"manifest_version": 1, "features": [{"scope": "rating", '
         '"kind": "continuous"}]}', "manifest.json: lacks 'name'"),
        ('{"manifest_version": 1, "features": [{"name": "a", '
         '"kind": "continuous"}]}', "manifest.json: lacks 'scope'"),
        ('{"manifest_version": 1, "features": [{"name": "a", '
         '"scope": "rating"}]}', "manifest.json: lacks 'kind'"),
        ('{"manifest_version": 1, "features": "abc"}',
         "manifest.json: must be an object"),
        ("[]", "manifest.json: must be an object"),
        ('{"features": [', "manifest.json: line 1: not valid JSON"),
        *((f'{{"manifest_version": {version}, "features": [{{"name": "a", '
           f'"scope": "rating", "kind": "continuous"}}]}}',
           re.escape(f"manifest.json: manifest_version must be an integer or "
                     f"null, got {json.loads(version)!r}"))
          for version in ('"1"', "1.5", "true", "[1]")),
        ('{"manifest_version": 1, "features": [' + ", ".join(
            f'{{"name": "{name}", "scope": "rating", "kind": "continuous"}}'
            for name in ("x0", "x1", "x0")) + "]}",
         "manifest.json: feature name 'x0' appears 2 times"),
        *((f'{{"manifest_version": 1, "features": [{{"name": "a", '
           f'"scope": {scope}, "kind": {kind}}}]}}',
           re.escape(f"manifest.json: feature 'a' has {message}"))
          for scope, kind, message in [
              ('"nonsense"', '"continuous"', "scope 'nonsense'; a scope is one of "
               "history, rating, feedback, time, product, review"),
              ('"rating"', '"weird"',
               "kind 'weird'; a kind is one of continuous, categorical"),
              ('"rating"', '["continuous"]',
               "kind ['continuous']; a kind is one of continuous, categorical")]),
    ], ids=["no-features", "no-version", "no-name", "no-scope", "no-kind",
            "features-string", "top-level-list", "invalid-json",
            "version-string", "version-float", "version-bool", "version-list",
            "repeated-name", "unknown-scope", "unknown-kind", "kind-not-a-string"])
    def test_malformed_manifest_is_parse_error(self, tmp_path, rng, text,
                                                message):
        matrix = FeatureMatrix(rng.normal((2, 1)), ["a"], ["rating"],
                               ["continuous"])
        save_features(tmp_path / "feat", matrix, np.array([0, 1]), ["u0", "u1"])
        (tmp_path / "feat" / "manifest.json").write_text(text)
        with pytest.raises(ParseError, match=message):
            load_features(tmp_path / "feat")

    # Each body replaces line 4 (the third data row) of a 3-column file.
    # The outcomes are those of the line-by-line float() parse: a ParseError
    # message, or the value the replaced row's second cell loads as.
    @pytest.mark.parametrize("row, outcome", [
        ("1\t2", "line 4: expected 3 columns, got 2"),
        ("1\t2\t3\t4", "line 4: expected 3 columns, got 4"),
        ("1\t\t3", "line 4: could not convert string to float: ''"),
        ("1\t#\t3", "line 4: could not convert string to float: '#'"),
        ("#1\t2\t3", "line 4: could not convert string to float: '#1'"),
        ("1\tnan\t3", "line 4: column 2 ('b') is not finite: nan"),
        ("1\tinf\t3", "line 4: column 2 ('b') is not finite: inf"),
        ("1\t1e400\t3", "line 4: column 2 ('b') is not finite: inf"),
        ("1\t1_0\t3", 10.0),
        ("1\t \u0661 \t3", 1.0),
        ("1\t 2.5\t3", 2.5),
    ], ids=["too-few", "too-many", "empty-cell", "hash-cell", "hash-row",
            "nan", "inf", "overflow", "underscore", "arabic-digit",
            "padded"])
    def test_malformed_body_matches_line_parse(self, tmp_path, row, outcome):
        feat = feature_dir(tmp_path, ["0.5\t1.5\t2.5"] * 2 + [row, "4\t5\t6"])
        if isinstance(outcome, str):
            with pytest.raises(ParseError) as err:
                load_features(feat)
            assert str(err.value) == f"{feat / 'features.tsv'}: {outcome}"
            assert err.value.line_number == 4
        else:
            values = load_features(feat).features.values
            assert values.shape == (4, 3) and values[2, 1] == outcome

    @pytest.mark.parametrize("body", [
        "0.5\t1.5\t2.5\n \t \n  \n4\t5\t6\n",
        "0.5\t1.5\t2.5\n4\t5\t6\n\n",
        "0.5\t1.5\t2.5\r\n4\t5\t6\r\n",
    ], ids=["whitespace-lines", "trailing-blank-line", "crlf"])
    def test_blank_lines_and_crlf_accepted(self, tmp_path, body):
        feat = feature_dir(tmp_path, ["0\t0\t0"] * 2)
        with open(feat / "features.tsv", "w", encoding="utf-8", newline="") as fh:
            fh.write("a\tb\tc\n" + body)
        ds = load_features(feat)
        npt.assert_array_equal(ds.features.values, [[0.5, 1.5, 2.5], [4, 5, 6]])

    def test_every_row_short_names_first_line(self, tmp_path):
        feat = feature_dir(tmp_path, ["0\t0\t0"] * 2)
        (feat / "features.tsv").write_text("a\tb\tc\n1\t2\n3\t4\n")
        with pytest.raises(ParseError) as err:
            load_features(feat)
        assert str(err.value) == \
            f"{feat / 'features.tsv'}: line 2: expected 3 columns, got 2"

    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_header_only_file_as_line_parse_without_warning(self, tmp_path,
                                                            n_cols):
        feat = feature_dir(tmp_path, ["0\t" * (n_cols - 1) + "0"])
        names = ["a", "b", "c"][:n_cols]
        (feat / "features.tsv").write_text("\t".join(names) + "\n")
        (feat / "labels.tsv").write_text("user_id\tlabel\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError) as err:
                load_features(feat)
        assert str(err.value) == f"{feat / 'features.tsv'}: header but no data rows"
        assert not caught

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n_cols: st.lists(
        st.lists(st.tuples(FINITE_FLOATS, FLOAT_FORMATS).map(
            lambda vf: vf[1](vf[0])) | DECIMAL_STRINGS,
            min_size=n_cols, max_size=n_cols), min_size=1, max_size=6)))
    def test_bulk_parse_bitwise_equals_float(self, cells):
        # float() on each cell is the reference; the line-by-line fallback
        # is patched out so that the bulk parse alone must produce the rows.
        expected = np.array([[float(c) for c in row] for row in cells])
        with tempfile.TemporaryDirectory() as tmp:
            feat = feature_dir(Path(tmp), ["\t".join(row) for row in cells])
            with mock.patch.object(dataio, "_parse_feature_rows",
                                   side_effect=AssertionError("fell back")):
                values = load_features(feat).features.values
        npt.assert_array_equal(values.view(np.int64), expected.view(np.int64))

    def test_labeled_dataset_row_checks(self, rng):
        matrix = FeatureMatrix(rng.normal((3, 2)), ["a", "b"],
                               ["rating", "rating"],
                               ["continuous", "continuous"])
        with pytest.raises(ValueError, match="row counts"):
            LabeledDataset(matrix, np.array([0, 1]), ["u1", "u2", "u3"])
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledDataset(matrix, np.array([0, 1, 2]), ["u1", "u2", "u3"])


COMPANION_TAG = b"SFFEAT\x00\x02"


def companion_bytes(tsv_path, values) -> bytes:
    """features.bin for ``values`` beside ``tsv_path``, laid out as the
    dataio docstring says: tag, sha256 over the sha256 of the features.tsv
    bytes, the shape and the sha256 of the payload, then the shape as two
    <i8 and the <f8 payload."""
    shape = np.array(np.shape(values), "<i8").tobytes()
    payload = np.ascontiguousarray(values, "<f8").tobytes()
    digest = hashlib.sha256(hashlib.sha256(Path(tsv_path).read_bytes()).digest()
                            + shape + hashlib.sha256(payload).digest())
    return COMPANION_TAG + digest.digest() + shape + payload


def companion_v1_bytes(tsv_path, values) -> bytes:
    """features.bin as format 1 laid it out: tag SFFEAT\\x00\\x01 and one
    sha256 over the features.tsv bytes, the shape and the payload."""
    shape = np.array(np.shape(values), "<i8").tobytes()
    payload = np.ascontiguousarray(values, "<f8").tobytes()
    digest = hashlib.sha256(Path(tsv_path).read_bytes() + shape + payload)
    return b"SFFEAT\x00\x01" + digest.digest() + shape + payload


def _replace_cell(feat, line, column, text):
    path = feat / "features.tsv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line - 1].rstrip("\n").split("\t")
    cells[column] = text
    lines[line - 1] = "\t".join(cells) + "\n"
    path.write_text("".join(lines))


def _rewrite_bytes(path, edit):
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))


def _append_row(feat, values):
    with open(feat / "features.tsv", "a", encoding="utf-8") as fh:
        fh.write("1.5\t-2.5\t3.5\n")
    with open(feat / "labels.tsv", "a", encoding="utf-8") as fh:
        fh.write("u9\t1\n")


def _delete_row(feat, values):
    path = feat / "features.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + lines[3:]))


def _truncate_byte(data):
    del data[-1]


def _flip_payload_byte(data):
    data[len(COMPANION_TAG) + 48 + 11] ^= 0x10


def _corrupt_tag(data):
    data[0] ^= 0xFF


def _header_only(feat, values):
    save_features(feat, small_matrix(np.zeros((0, values.shape[1]))),
                  np.zeros(0, dtype=int), [])


# Each edit of a directory save_features wrote; the companion must never
# change what load_features returns or raises.
COMPANION_EDITS = {
    "edit-cell": lambda feat, values: _replace_cell(feat, 3, 1, "0.125"),
    "append-row": _append_row,
    "delete-row": _delete_row,
    "nan-cell": lambda feat, values: _replace_cell(feat, 4, 2, "nan"),
    "truncated-companion": lambda feat, values: _rewrite_bytes(
        feat / "features.bin", _truncate_byte),
    "flipped-payload-byte": lambda feat, values: _rewrite_bytes(
        feat / "features.bin", _flip_payload_byte),
    "corrupt-tag": lambda feat, values: _rewrite_bytes(
        feat / "features.bin", _corrupt_tag),
    "wrong-column-count": lambda feat, values: (feat / "features.bin").write_bytes(
        companion_bytes(feat / "features.tsv", values[:, :-1])),
    "no-companion": lambda feat, values: (feat / "features.bin").unlink(),
    "format-1-companion": lambda feat, values: (feat / "features.bin").write_bytes(
        companion_v1_bytes(feat / "features.tsv", values)),
    "header-only-tsv": _header_only,
}


def load_outcome(feat):
    """What load_features returns for ``feat``, or the ParseError it raises."""
    try:
        ds = load_features(feat)
    except ParseError as exc:
        return "error", str(exc), exc.line_number
    return ("loaded", ds.features.values.shape, ds.features.values.tobytes(),
            ds.labels.tolist(), ds.user_ids)


class TestFeatureCompanion:
    def test_save_writes_the_documented_layout(self, tmp_path, rng):
        values = rng.normal((4, 3))
        save_features(tmp_path, small_matrix(values), np.array([0, 1, 0, 1]),
                      ["u0", "u1", "u2", "u3"])
        assert (tmp_path / "features.bin").read_bytes() == \
            companion_bytes(tmp_path / "features.tsv", values)

    @staticmethod
    def count_handoffs(monkeypatch, root):
        """The files under ``root`` at each ``beside`` handoff of dataio."""
        handoffs, beside = [], dataio.beside

        def counted(worker, caller):
            handoffs.append(sorted(p.name for p in root.rglob("*") if p.is_file()))
            return beside(worker, caller)

        monkeypatch.setattr(dataio, "beside", counted)
        return handoffs

    def test_save_hands_off_once_when_features_tsv_is_complete(self, tmp_path,
                                                               rng, monkeypatch):
        # A save derives the digest by the load's call, once features.tsv is
        # in place.
        handoffs = self.count_handoffs(monkeypatch, tmp_path)
        values = rng.normal((4, 3))
        save_features(tmp_path, small_matrix(values), np.array([0, 1, 0, 1]),
                      ["u0", "u1", "u2", "u3"])
        assert handoffs == [["features.tsv"]]
        assert (tmp_path / "features.bin").read_bytes() == \
            companion_bytes(tmp_path / "features.tsv", values)

    def test_failed_features_tsv_write_hands_off_nothing(self, tmp_path, rng,
                                                         monkeypatch):
        handoffs = self.count_handoffs(monkeypatch, tmp_path)
        monkeypatch.setattr(dataio, "open", FullDisk(10).open, raising=False)
        with pytest.raises(OSError) as err:
            save_features(tmp_path, small_matrix(rng.normal((4, 3))),
                          np.array([0, 1, 0, 1]), ["u0", "u1", "u2", "u3"])
        assert err.value.filename == str(tmp_path / "features.tsv")
        assert handoffs == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit", COMPANION_EDITS.values(),
                             ids=COMPANION_EDITS.keys())
    def test_features_tsv_wins(self, tmp_path, rng, edit):
        # The outcome with the companion in place must be the outcome of
        # parsing features.tsv alone, the same error and line included.
        values = rng.normal((5, 3))
        save_features(tmp_path, small_matrix(values), np.array([0, 1, 0, 1, 1]),
                      [f"u{i}" for i in range(5)])
        edit(tmp_path, values)
        with_companion = load_outcome(tmp_path)
        (tmp_path / "features.bin").unlink(missing_ok=True)
        assert with_companion == load_outcome(tmp_path)

    def test_non_finite_matrix_raises_the_line_numbered_error(self, tmp_path):
        # The companion's digest matches, but its values pass the same
        # finiteness gate as the text parse.
        values = np.array([[1.0, 2.0], [3.0, np.inf], [5.0, 6.0]])
        save_features(tmp_path, small_matrix(values), np.zeros(3, dtype=int),
                      ["u0", "u1", "u2"])
        with pytest.raises(ParseError) as err:
            load_features(tmp_path)
        assert str(err.value) == \
            f"{tmp_path / 'features.tsv'}: line 3: column 2 ('f1') is not finite: inf"
        assert err.value.line_number == 3

    def test_fresh_directory_loads_without_a_text_parse(self, tmp_path, rng,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("features.tsv was parsed")

        values = rng.normal((6, 4))
        save_features(tmp_path, small_matrix(values), np.zeros(6, dtype=int),
                      [f"u{i}" for i in range(6)])
        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(dataio, "_parse_feature_rows", refuse)
        loaded = load_features(tmp_path).features.values
        npt.assert_array_equal(loaded.view(np.int64), values.view(np.int64))
        assert loaded.flags.writeable


# The regions of a features.bin, as [start, end) byte offsets; None is its end.
COMPANION_REGIONS = {"tag": (0, 8), "digest": (8, 40), "shape": (40, 56),
                     "payload": (56, None)}
# One mutation of a saved features.bin: a byte of a region xor a nonzero
# mask, truncation to a length, bytes appended, or the format-1 companion
# of the same matrix with its correct format-1 digest.
COMPANION_MUTATIONS = (
    st.tuples(st.just("flip"), st.sampled_from(sorted(COMPANION_REGIONS)),
              st.integers(0, 1 << 20), st.integers(1, 255))
    | st.tuples(st.just("truncate"), st.integers(0, 1 << 20))
    | st.tuples(st.just("append"), st.binary(min_size=1, max_size=24))
    | st.just(("format-1",)))


def mutate_companion(feat, values, mutation):
    path = feat / "features.bin"
    data = bytearray(path.read_bytes())
    if mutation[0] == "flip":
        _, region, offset, mask = mutation
        start, end = COMPANION_REGIONS[region]
        end = len(data) if end is None else end
        data[start + offset % (end - start)] ^= mask
    elif mutation[0] == "truncate":
        del data[mutation[1] % len(data):]
    elif mutation[0] == "append":
        data += mutation[1]
    else:
        data = companion_v1_bytes(feat / "features.tsv", values)
    path.write_bytes(bytes(data))


class TestCompanionFuzz:
    """A mutated features.bin is ignored: load_features, and predict through
    the CLI, give what they give with no companion at all."""

    @settings(max_examples=150, deadline=None)
    @given(COMPANION_MUTATIONS, st.integers(1, 6), st.integers(1, 4))
    def test_load_outcome_is_the_text_parse(self, mutation, rows, cols):
        values = Rng(rows * 10 + cols).normal((rows, cols))
        with tempfile.TemporaryDirectory() as tmp:
            feat = Path(tmp)
            save_features(feat, small_matrix(values), np.zeros(rows, dtype=int),
                          [f"u{i}" for i in range(rows)])
            mutate_companion(feat, values, mutation)
            with_companion = load_outcome(feat)
            (feat / "features.bin").unlink()
            assert with_companion == load_outcome(feat)

    @staticmethod
    def predict(feat, out):
        from spamforest.cli import main

        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            rc = main(["predict", "--features", str(feat),
                       "--model", str(GOLDEN / "model.json"), "--out", str(out)])
        return rc, err.getvalue(), stdout.getvalue(), (out / "predictions.tsv").read_bytes()

    @pytest.mark.parametrize("mutation", [
        ("flip", "tag", 7, 0x03), ("flip", "digest", 31, 0x80),
        ("flip", "shape", 0, 0x01), ("flip", "payload", 500, 0x10),
        ("truncate", 100), ("append", b"\x00" * 8), ("format-1",)],
        ids=["tag", "digest", "shape", "payload", "truncated", "appended",
             "format-1"])
    def test_predict_writes_the_same_bytes(self, tmp_path, mutation):
        ds = load_features(GOLDEN / "features")
        feat = tmp_path / "feat"
        save_features(feat, ds.features, ds.labels, ds.user_ids)
        mutate_companion(feat, ds.features.values, mutation)
        with_companion = self.predict(feat, tmp_path / "out")
        (feat / "features.bin").unlink()
        assert with_companion == self.predict(feat, tmp_path / "out")
        assert with_companion[0] == 0


class DigestFailed(Exception):
    pass


class TestCompanionThreads:
    """The payload digest runs on a worker that ends with each call, and
    what it raises reaches the caller."""

    def test_no_thread_outlives_a_save_or_load(self, tmp_path, rng):
        values = rng.normal((50, 7))
        before = threading.active_count()
        save_features(tmp_path, small_matrix(values), np.zeros(50, dtype=int),
                      [f"u{i}" for i in range(50)])
        assert threading.active_count() == before
        loaded = load_features(tmp_path).features.values
        assert threading.active_count() == before
        npt.assert_array_equal(loaded.view(np.int64), values.view(np.int64))

    @staticmethod
    def fail_payload_digest(monkeypatch):
        """Make every digest computed off the calling thread raise."""
        caller, sha256 = threading.current_thread(), dataio._sha256

        def digest(data):
            if threading.current_thread() is not caller:
                raise DigestFailed("payload digest failed")
            return sha256(data)

        monkeypatch.setattr(dataio, "_sha256", digest)

    def test_save_raises_the_payload_digest_error(self, tmp_path, rng,
                                                  monkeypatch):
        self.fail_payload_digest(monkeypatch)
        before = threading.active_count()
        with pytest.raises(DigestFailed, match="payload digest failed"):
            save_features(tmp_path, small_matrix(rng.normal((5, 3))),
                          np.zeros(5, dtype=int), [f"u{i}" for i in range(5)])
        assert threading.active_count() == before
        assert sorted(os.listdir(tmp_path)) == ["features.tsv"]

    def test_load_raises_the_payload_digest_error(self, tmp_path, rng,
                                                  monkeypatch):
        save_features(tmp_path, small_matrix(rng.normal((5, 3))),
                      np.zeros(5, dtype=int), [f"u{i}" for i in range(5)])
        self.fail_payload_digest(monkeypatch)
        before = threading.active_count()
        with pytest.raises(DigestFailed, match="payload digest failed"):
            load_features(tmp_path)
        assert threading.active_count() == before


class TestWholeFilesOnly:
    """save_features moves each file into place only when it is complete."""

    @staticmethod
    def fail_partway(monkeypatch):
        write_cells = dataio._write_cells

        def write_two_rows_then_fail(fh, values):
            write_cells(fh, values[:2])
            fh.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataio, "_write_cells", write_two_rows_then_fail)

    def test_failed_first_save_leaves_no_file(self, tmp_path, rng, monkeypatch):
        self.fail_partway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            save_features(tmp_path / "feat", small_matrix(rng.normal((9, 3))),
                          np.zeros(9, dtype=int), [f"u{i}" for i in range(9)])
        assert os.listdir(tmp_path / "feat") == []

    def test_failed_save_keeps_the_previous_directory(self, tmp_path, rng,
                                                      monkeypatch):
        save_features(tmp_path, small_matrix(rng.normal((9, 3))),
                      np.zeros(9, dtype=int), [f"u{i}" for i in range(9)])
        before = {name: (tmp_path / name).read_bytes()
                  for name in os.listdir(tmp_path)}
        self.fail_partway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            save_features(tmp_path, small_matrix(rng.normal((12, 3))),
                          np.ones(12, dtype=int), [f"v{i}" for i in range(12)])
        assert {name: (tmp_path / name).read_bytes()
                for name in os.listdir(tmp_path)} == before
        assert sorted(before) == ["features.bin", "features.tsv", "labels.tsv",
                                  "manifest.json"]


# The characters a labels.tsv body is built from: both line ends text mode
# knows, the separators str.strip and str.splitlines know but it does not
# (\x0b, \x85, \u2028), labels valid and not, and id characters.
LABEL_CHARS = ["\t", "\n", "\r", " ", "0", "1", "2", "a", "\u00e9", "\x0b",
               "\x85", "\u2028"]
LABEL_IDS = st.lists(st.sampled_from([c for c in LABEL_CHARS if c not in "\t\n"]),
                     max_size=4).map("".join)
# A body is either well-formed lines with any ids, or lines that are each
# well formed or any string of LABEL_CHARS.
WELL_FORMED_LINES = st.tuples(LABEL_IDS, st.sampled_from("01")).map("\t".join)
LABEL_BODIES = st.lists(WELL_FORMED_LINES, max_size=8) | st.lists(
    WELL_FORMED_LINES | st.lists(st.sampled_from(LABEL_CHARS), max_size=6).map("".join),
    max_size=8)
LABELS_HEADER = "user_id\tlabel\n"


def labels_outcome(read, path):
    """``(user_ids, labels)`` as lists, or the ParseError text and line."""
    try:
        user_ids, labels = read(path)
    except ParseError as exc:
        return "error", str(exc), exc.line_number
    return "read", list(user_ids), [int(v) for v in labels]


class TestLabelsReader:
    """dataio._read_labels against the per-line loop it replaced
    (helpers.reference_read_labels): the same ids and labels, or the same
    ParseError text and line number."""

    @staticmethod
    def check(path, data: bytes):
        path.write_bytes(data)
        got = labels_outcome(dataio._read_labels, path)
        assert got == labels_outcome(reference_read_labels, path)
        return got

    @settings(max_examples=300, deadline=None)
    @given(LABEL_BODIES, st.booleans(),
           st.sampled_from([LABELS_HEADER, "user_id\tlabel\r\n", " user_id\tlabel\n",
                            "user_id\tlabel", "user_id label\n"]))
    def test_matches_per_line_reference(self, lines, final_newline, header):
        body = "\n".join(lines) + ("\n" if final_newline and lines else "")
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp, "labels.tsv"), (header + body).encode())

    @pytest.mark.parametrize("body, outcome", [
        ("u0\t1\r\nu1\t0\r\n", ("read", ["u0", "u1"], [1, 0])),
        ("\nu0\t1\nu1\t0\n", ("read", ["u0", "u1"], [1, 0])),
        ("u0\t1\n \t \nu1\t0\n", ("read", ["u0", "u1"], [1, 0])),
        ("u0\t1\n\x85\u2028\nu1\t0\n", ("read", ["u0", "u1"], [1, 0])),
        ("\t1\nu1\t0\n", ("read", ["", "u1"], [1, 0])),
        ("a b\t1\n\u00e9 \u00fc\x0b\t0\nx\u2028y\x85\t1\n",
         ("read", ["a b", "\u00e9 \u00fc\x0b", "x\u2028y\x85"], [1, 0, 1])),
        ("u0\t1\nu1\t0", ("read", ["u0", "u1"], [1, 0])),
        ("", ("read", [], [])),
        ("u0\t1\nu1\t0\t1\n", ("error", "line 3: expected 'user_id<TAB>0|1', "
                                  "got 'u1\\t0\\t1\\n'", 3)),
        ("u0\t2\n", ("error", "line 2: expected 'user_id<TAB>0|1', got "
                      "'u0\\t2\\n'", 2)),
        ("u0\t1 \n", ("error", "line 2: expected 'user_id<TAB>0|1', got "
                       "'u0\\t1 \\n'", 2)),
        ("u0\ra\t1\n", ("error", "line 2: expected 'user_id<TAB>0|1', got "
                         "'u0\\n'", 2)),
        ("u0\t1\nu1\n", ("error", "line 3: expected 'user_id<TAB>0|1', got "
                          "'u1\\n'", 3)),
    ], ids=["crlf", "blank-first-line", "whitespace-only-line",
            "unicode-space-line", "empty-user-id", "spaces-and-non-ascii-ids",
            "no-final-newline", "header-only", "third-column", "label-2",
            "label-trailing-space", "carriage-return-in-id", "no-label"])
    def test_fixed_cases(self, tmp_path, body, outcome):
        path = tmp_path / "labels.tsv"
        got = self.check(path, (LABELS_HEADER + body).encode())
        if outcome[0] == "error":
            outcome = ("error", f"{path}: {outcome[1]}", outcome[2])
        assert got == outcome

    @pytest.mark.parametrize("data, line", [
        (b"user_id\tlabel\nu0\t1\n\xffu1\t0\n", 3),
        (b"user_id\tlabel\r\nu0\t1\n", None),
        (b"\xef\xbb\xbfuser_id\tlabel\nu0\t1\n", 1),
    ], ids=["not-utf-8", "crlf-header", "bom"])
    def test_bytes_cases(self, tmp_path, data, line):
        got = self.check(tmp_path / "labels.tsv", data)
        assert (got[2] if got[0] == "error" else None) == line

    def test_save_features_output_read_in_one_pass(self, tmp_path, monkeypatch):
        # Every id save_features can write without a tab, newline or
        # carriage return comes back as written from a single open of
        # labels.tsv and one split of its body, with the LF line ends
        # written and with CRLF ones. Only the line-by-line check uses io.
        uids = ["u0", "", "a b", "\u00e9", "x\x0by", "\x85", "p\u2028q", "1", "0 "]
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
        save_features(tmp_path, small_matrix(np.zeros((len(uids), 1))), labels, uids)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(dataio, "open", counting_open, raising=False)
        monkeypatch.setattr(dataio, "io", None)
        path = tmp_path / "labels.tsv"
        lf = path.read_bytes()
        for data in (lf, lf.replace(b"\n", b"\r\n")):
            path.write_bytes(data)
            opened.clear()
            ds = load_features(tmp_path)
            assert opened.count("labels.tsv") == 1
            assert ds.user_ids == uids
            assert ds.labels.dtype == np.int64
            npt.assert_array_equal(ds.labels, labels)
