import base64
import dataclasses
import json
import re
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from helpers import rewrite_model_body
from spamforest import dataio
from spamforest.dataio import (MODEL_FORMAT_VERSION, LabeledDataset,
                               NormStats, apply_normalization,
                               label_and_cap_users, load_features, load_model,
                               load_reviews, load_reviews_delimited,
                               load_spam_scores, normalize, save_features,
                               save_model, split_train_test)
from spamforest.errors import (ConfigError, ModelIntegrityError,
                               ModelVersionError, ParseError)
from spamforest.features import FeatureMatrix, ReviewRecord
from spamforest.numerics import Rng
from spamforest.training import (TrainConfig, init_model, parameter_blocks,
                                 predict, train)


def rec(user="u1", product="p1", rating=4, day=10, category="books"):
    return ReviewRecord(user, product, rating, 2, 1, day, category,
                        "fine", "quite fine overall", user_name="alice")


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
        assert load_reviews(path) == []

    def test_write_then_read_round_trip(self, tmp_path):
        originals = [rec(user=f"u{i}", product=f"p{i}", day=i) for i in range(3)]
        path = tmp_path / "reviews.jsonl"
        path.write_text("\n".join(record_json(r) for r in originals) + "\n")
        assert load_reviews(path) == originals

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
        assert load_reviews(path) == records

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
        assert load_reviews(path) == [dataclasses.replace(rec(), user_id="17",
                                                          product_id="2.5")]

    def test_null_optional_text_keeps_default(self, tmp_path):
        obj = dict(json.loads(record_json(rec())), user_name=None, user_memo=None)
        path = tmp_path / "reviews.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert load_reviews(path) == [dataclasses.replace(rec(), user_name="")]

    @pytest.mark.parametrize("raw", ["4", "4.0", '"4"'])
    def test_integral_json_rating_accepted(self, tmp_path, raw):
        path = tmp_path / "reviews.jsonl"
        path.write_text(record_json(rec()).replace('"rating": 4',
                                                   f'"rating": {raw}') + "\n")
        assert load_reviews(path) == [rec()]

    def test_unknown_field_warns_but_parses(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        obj = json.loads(record_json(rec()))
        obj["color"] = "red"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.warns(UserWarning, match="color"):
            records = load_reviews(path)
        assert len(records) == 1


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
        assert load_reviews_delimited(path) == originals

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
        records = [rec(user="low"), rec(user="high")]
        _, labels = label_and_cap_users(records, {"low": 0.49, "high": 0.5})
        npt.assert_array_equal(labels, [0, 1])

    def test_cap_downsamples_deterministically(self):
        records = [rec(user="u", product=f"p{i}", day=i) for i in range(30)]
        scores = {"u": 0.9}
        capped1, labels1 = label_and_cap_users(records, scores, cap=20, seed=5)
        capped2, _ = label_and_cap_users(records, scores, cap=20, seed=5)
        capped3, _ = label_and_cap_users(records, scores, cap=20, seed=6)
        assert len(capped1) == 20
        assert capped1 == capped2
        assert capped1 != capped3
        assert np.all(labels1 == 1)

    def test_under_cap_kept_in_full(self):
        records = [rec(user="u", product=f"p{i}") for i in range(5)]
        capped, _ = label_and_cap_users(records, {"u": 0.1})
        assert capped == records

    def test_missing_score_lists_users(self):
        records = [rec(user="known"), rec(user="ghost1"), rec(user="ghost2")]
        with pytest.raises(ValueError, match="ghost1.*ghost2"):
            label_and_cap_users(records, {"known": 0.2})

    def test_all_zero_scores(self):
        records = [rec(user=f"u{i}") for i in range(4)]
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
        _, stats = normalize(train_m, "zscore")
        test_normed = apply_normalization(test_m, stats)
        manual = (test_m.values - train_m.values.mean(axis=0)) / \
            train_m.values.std(axis=0)
        npt.assert_allclose(test_normed.values, manual, atol=1e-12)

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
        with tempfile.TemporaryDirectory() as out:
            save_features(out, matrix, np.zeros(len(values), dtype=int),
                          [f"u{i}" for i in range(len(values))])
            lines = Path(out, "features.tsv").read_text().splitlines()
            loaded = load_features(out).features.values
        assert [line.split("\t") for line in lines[1:]] == \
            [[repr(float(x)) for x in row] for row in values]
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
    ], ids=["no-features", "no-version", "no-name", "no-scope", "no-kind",
            "features-string", "top-level-list", "invalid-json",
            "version-string", "version-float", "version-bool", "version-list",
            "repeated-name"])
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
