import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (reference_load_reviews, reference_read_labels,
                     rewrite_model_body, write_delimited_reviews, zeros_tensor)
from spamforest.cli import load_config_file, main, run_ablation
from spamforest.dataio import (LabeledDataset, load_features, load_spam_scores,
                               save_features)
from spamforest.errors import ParseError
from spamforest.features import FeatureMatrix, ReviewRecord
from spamforest.numerics import Rng
from spamforest.training import TrainConfig

GOLDEN = Path(__file__).parent / "data" / "golden"


def record_json(r: ReviewRecord) -> str:
    return json.dumps({
        "user_id": r.user_id, "product_id": r.product_id, "rating": r.rating,
        "helpful_votes": r.helpful_votes, "unhelpful_votes": r.unhelpful_votes,
        "timestamp": r.timestamp, "category": r.category,
        "summary_text": r.summary_text, "review_text": r.review_text,
        "user_name": r.user_name, "user_memo": r.user_memo,
    })


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory, review_corpus):
    base = tmp_path_factory.mktemp("corpus")
    records, scores = review_corpus
    reviews = base / "reviews.jsonl"
    reviews.write_text("\n".join(record_json(r) for r in records) + "\n")
    score_file = base / "scores.tsv"
    score_file.write_text(
        "".join(f"{uid}\t{s}\n" for uid, s in sorted(scores.items())))
    return reviews, score_file


@pytest.fixture(scope="module")
def gaussian_features(tmp_path_factory):
    # Raw (unnormalized) features; the train command fits normalization.
    from spamforest.synthetic import two_gaussian_dataset

    X, y = two_gaussian_dataset(500, seed=42)
    matrix = FeatureMatrix(X, ["x0", "x1"], ["rating", "rating"],
                           ["continuous", "continuous"])
    base = tmp_path_factory.mktemp("gauss")
    save_features(base / "feat", matrix, y, [f"u{i}" for i in range(len(y))])
    return base / "feat"


class TestExtract:
    def test_three_users_three_rows(self, tmp_path):
        recs = [ReviewRecord(f"u{i}", f"p{i}", 4, 1, 0, i * 10, "books",
                             "fine", "good product", user_name="alice")
                for i in range(3)]
        reviews = tmp_path / "r.jsonl"
        reviews.write_text("\n".join(record_json(r) for r in recs) + "\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("u0\t0.1\nu1\t0.9\nu2\t0.2\n")
        out = tmp_path / "out"
        assert main(["extract", "--reviews", str(reviews), "--scores",
                     str(scores), "--out", str(out)]) == 0
        ds = load_features(out)
        assert ds.n_rows == 3
        npt.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.features.manifest_version == 1
        assert (out / "config.txt").exists()

    def test_missing_score_file_exits_2(self, tmp_path, capsys):
        reviews = tmp_path / "r.jsonl"
        reviews.write_text("")
        missing = tmp_path / "nope.tsv"
        rc = main(["extract", "--reviews", str(reviews), "--scores",
                   str(missing), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "nope.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("field, raw", [
        ("rating", "4.7"), ("timestamp", "100.9"), ("rating", "true"),
        ("helpful_votes", "Infinity"), ("unhelpful_votes", "-Infinity")])
    def test_non_integer_json_number_exits_2(self, tmp_path, capsys, field,
                                             raw):
        recs = [ReviewRecord(f"u{i}", "p0", 4, 1, 2, 100, "books", "fine",
                             "good product") for i in range(2)]
        lines = [record_json(r) for r in recs]
        value = json.loads(lines[1])[field]
        lines[1] = lines[1].replace(f'"{field}": {value}', f'"{field}": {raw}')
        reviews = tmp_path / "r.jsonl"
        reviews.write_text("\n".join(lines) + "\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("u0\t0.1\nu1\t0.9\n")
        rc = main(["extract", "--reviews", str(reviews), "--scores",
                   str(scores), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"line 2: field '{field}' must be an integer" in \
            capsys.readouterr().err

    def test_lone_surrogate_category_exits_2_before_any_output(self, tmp_path, capsys):
        # JSON may escape a lone surrogate, which no UTF-8 file can hold;
        # the category names a features.tsv column.
        recs = [ReviewRecord(f"u{i}", "p0", 4, 1, 2, 100, category, "fine",
                             "good product")
                for i, category in enumerate(["books\ud800", "books"])]
        reviews = tmp_path / "r.jsonl"
        reviews.write_text("\n".join(record_json(r) for r in recs) + "\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("u0\t0.1\nu1\t0.9\n")
        out = tmp_path / "out"
        rc = main(["extract", "--reviews", str(reviews), "--scores",
                   str(scores), "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            2, f"error: {reviews}: category 'books\\ud800' is not UTF-8 text\n")
        assert not (out / "features.tsv").exists()

    def test_rerun_byte_identical(self, corpus_files, tmp_path):
        reviews, scores = corpus_files
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["extract", "--reviews", str(reviews), "--scores",
                         str(scores), "--out", str(out), "--seed", "3"]) == 0
        for name in ("features.tsv", "labels.tsv", "manifest.json",
                     "config.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_delimited_input_matches_jsonl(self, tmp_path):
        recs = [ReviewRecord(f"u{i}", f"p{i}", 3, 2, 1, i * 7, "music",
                             "fine item", "works well", user_name="david")
                for i in range(4)]
        jsonl = tmp_path / "r.jsonl"
        jsonl.write_text("\n".join(record_json(r) for r in recs) + "\n")
        cols = ["user_id", "product_id", "rating", "helpful_votes",
                "unhelpful_votes", "timestamp", "category", "summary_text",
                "review_text", "user_name"]
        tsv = tmp_path / "r.tsv"
        tsv.write_text("\t".join(cols) + "\n" + "\n".join(
            "\t".join(str(getattr(r, c)) for c in cols) for r in recs) + "\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("".join(f"u{i}\t0.2\n" for i in range(4)))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["extract", "--reviews", str(jsonl), "--scores",
                     str(scores), "--out", str(out_a)]) == 0
        assert main(["extract", "--reviews", str(tsv), "--scores",
                     str(scores), "--out", str(out_b), "--delimited"]) == 0
        assert (out_a / "features.tsv").read_bytes() == \
            (out_b / "features.tsv").read_bytes()

    def test_reproduces_the_golden_feature_directory(self, tmp_path):
        # golden/extract holds the corpus make_corpus.py writes and the
        # feature directory an earlier version of the package extracted from
        # it, with the default cap and seed; 4 of its 40 users are capped.
        # features.bin pins the binary companion's format as well.
        golden = GOLDEN / "extract"
        assert main(["extract", "--reviews", str(golden / "reviews.jsonl"),
                     "--scores", str(golden / "scores.tsv"),
                     "--out", str(tmp_path)]) == 0
        for name in ("features.tsv", "features.bin", "labels.tsv",
                     "manifest.json"):
            assert (tmp_path / name).read_bytes() == \
                (golden / name).read_bytes(), name

    def test_delimited_export_reproduces_the_golden_feature_directory(self, tmp_path):
        golden = GOLDEN / "extract"
        reviews = tmp_path / "reviews.tsv"
        write_delimited_reviews(golden / "reviews.jsonl", reviews)
        assert main(["extract", "--delimited", "--reviews", str(reviews),
                     "--scores", str(golden / "scores.tsv"),
                     "--out", str(tmp_path / "out")]) == 0
        for name in ("features.tsv", "features.bin", "labels.tsv",
                     "manifest.json"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (golden / name).read_bytes(), name


class TestAnalyze:
    def test_report_rows_equal_feature_count(self, corpus_files, tmp_path):
        reviews, scores = corpus_files
        feat = tmp_path / "feat"
        assert main(["extract", "--reviews", str(reviews), "--scores",
                     str(scores), "--out", str(feat)]) == 0
        out = tmp_path / "screen"
        assert main(["analyze", "--features", str(feat), "--out", str(out),
                     "--histograms"]) == 0
        ds = load_features(feat)
        lines = (out / "screening.tsv").read_text().splitlines()
        assert len(lines) - 1 == ds.features.n_features
        assert (out / "histograms").is_dir()

    def test_reproduces_the_golden_screening_report(self, tmp_path):
        # golden/screening.tsv is the report an earlier version of the
        # package wrote for golden/extract: rank-sum rows and chi-squared
        # rows with df 1 to 4.
        assert main(["analyze", "--features", str(GOLDEN / "extract"),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "screening.tsv").read_bytes() == \
            (GOLDEN / "screening.tsv").read_bytes()

    def test_label_equal_feature_flagged_significant(self, tmp_path):
        labels = np.array([0] * 20 + [1] * 20)
        matrix = FeatureMatrix(
            np.column_stack([labels.astype(float), np.ones(40)]),
            ["mirror", "constant"], ["rating", "rating"],
            ["categorical", "continuous"])
        save_features(tmp_path / "feat", matrix, labels,
                      [f"u{i}" for i in range(40)])
        out = tmp_path / "screen"
        assert main(["analyze", "--features", str(tmp_path / 'feat'),
                     "--out", str(out)]) == 0
        rows = [l.split("\t") for l in
                (out / "screening.tsv").read_text().splitlines()[1:]]
        by_name = {r[0]: r for r in rows}
        assert by_name["mirror"][6] == "yes"
        assert by_name["constant"][6] == "no"
        assert "degenerate" in by_name["constant"][7]

    def test_malformed_manifest_exits_2(self, gaussian_features, tmp_path,
                                        capsys):
        feat = tmp_path / "feat"
        feat.mkdir()
        for name in ("features.tsv", "labels.tsv"):
            (feat / name).write_bytes((gaussian_features / name).read_bytes())
        (feat / "manifest.json").write_text('{"manifest_version": 1}\n')
        rc = main(["analyze", "--features", str(feat),
                   "--out", str(tmp_path / "screen")])
        assert rc == 2
        assert f"{feat / 'manifest.json'}: lacks 'features'" in capsys.readouterr().err

    def test_paired_mode_flag(self, tmp_path):
        labels = np.array([0] * 8 + [1] * 8)
        r = Rng(3)
        matrix = FeatureMatrix(r.normal((16, 1)).reshape(16, 1), ["f"],
                               ["rating"], ["continuous"])
        save_features(tmp_path / "feat", matrix, labels,
                      [f"u{i}" for i in range(16)])
        out = tmp_path / "screen"
        assert main(["analyze", "--features", str(tmp_path / "feat"),
                     "--out", str(out), "--paired"]) == 0
        row = (out / "screening.tsv").read_text().splitlines()[1]
        assert row.split("\t")[1].startswith("signed-rank")


def poison_tensor(name, index, value):
    """A model body change that sets ``[index]`` of tensor ``name``'s flat
    float64 data to ``value``."""
    def change(body):
        tensor = body["tensors"][name]
        arr = np.frombuffer(base64.b64decode(tensor["data"]), dtype="<f8").copy()
        arr[index] = value
        tensor["data"] = base64.b64encode(arr.tobytes()).decode("ascii")
    return change


def with_classes(n_classes):
    """A model body change to ``n_classes`` classes, with every leaf-logit
    tensor re-shaped to match."""
    def change(body):
        body["n_classes"] = n_classes
        for name, tensor in body["tensors"].items():
            if name.endswith(".leaf_logits"):
                body["tensors"][name] = zeros_tensor([tensor["shape"][0], n_classes])
    return change


@pytest.fixture(scope="module")
def run_dir(gaussian_features, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "train.cfg"
    cfg.write_text("n_epoch = 200\nseed = 3\n")
    rc = main(["train", "--features", str(gaussian_features), "--out",
               str(out), "--config", str(cfg), "--train-count", "800"])
    assert rc == 0
    return out


class TestTrainEvaluatePredict:
    def test_train_outputs(self, run_dir):
        assert (run_dir / "model.json").exists()
        log_lines = (run_dir / "training_log.tsv").read_text().splitlines()
        assert len(log_lines) == 200
        assert (run_dir / "heldout" / "features.tsv").exists()
        assert (run_dir / "config.txt").exists()

    def test_heldout_accuracy_at_least_090(self, run_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--features", str(run_dir / "heldout"),
                   "--model", str(run_dir / "model.json"), "--out", str(out)])
        assert rc == 0
        report = dict(line.split("\t") for line in
                      (out / "metrics.txt").read_text().splitlines())
        assert float(report["accuracy"].rstrip("%")) >= 90.0

    def test_predictions_consistent_with_metrics(self, run_dir, tmp_path):
        pred_out = tmp_path / "pred"
        rc = main(["predict", "--features", str(run_dir / "heldout"),
                   "--model", str(run_dir / "model.json"), "--out",
                   str(pred_out)])
        assert rc == 0
        rows = [l.split("\t") for l in
                (pred_out / "predictions.tsv").read_text().splitlines()[1:]]
        ds = load_features(run_dir / "heldout")
        assert len(rows) == ds.n_rows
        pred_labels = np.array([int(r[2]) for r in rows])
        acc = float((pred_labels == ds.labels).mean())

        eval_out = tmp_path / "eval2"
        assert main(["evaluate", "--features", str(run_dir / "heldout"),
                     "--model", str(run_dir / "model.json"), "--out",
                     str(eval_out)]) == 0
        report = dict(line.split("\t") for line in
                      (eval_out / "metrics.txt").read_text().splitlines())
        assert abs(float(report["accuracy"].rstrip("%")) / 100 - acc) < 1e-9

    def test_swapped_positive_class_swaps_counts(self, run_dir, tmp_path):
        outs = []
        for cls in ("1", "0"):
            out = tmp_path / f"eval_{cls}"
            assert main(["evaluate", "--features", str(run_dir / "heldout"),
                         "--model", str(run_dir / "model.json"), "--out",
                         str(out), "--positive-class", cls]) == 0
            outs.append(dict(line.split("\t") for line in
                             (out / "metrics.txt").read_text().splitlines()))
        pos1, pos0 = outs
        assert pos1["tp"] == pos0["tn"] and pos1["fn"] == pos0["fp"]
        assert pos1["accuracy"] == pos0["accuracy"]

    def test_manifest_mismatch_exits_2(self, run_dir, tmp_path, capsys):
        ds = load_features(run_dir / "heldout")
        bumped = FeatureMatrix(ds.features.values, ds.features.names,
                               ds.features.scopes, ds.features.kinds,
                               manifest_version=2)
        save_features(tmp_path / "feat2", bumped, ds.labels, ds.user_ids)
        rc = main(["evaluate", "--features", str(tmp_path / "feat2"),
                   "--model", str(run_dir / "model.json"), "--out",
                   str(tmp_path / "eval")])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_train_count_beyond_rows_exits_2(self, gaussian_features, tmp_path):
        rc = main(["train", "--features", str(gaussian_features), "--out",
                   str(tmp_path / "out"), "--train-count", "99999"])
        assert rc == 2

    def test_incomplete_model_exits_2(self, run_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text((run_dir / "model.json").read_text())
        rewrite_model_body(model, lambda body: body.pop("config"))
        rc = main(["predict", "--features", str(run_dir / "heldout"),
                   "--model", str(model), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config" in err

    @pytest.mark.parametrize("change, named", [
        (lambda body: body["tensors"]["fc.0.b"].update(data="abc"),
         "tensor fc.0.b data is not base64"),
        (lambda body: body["tensors"]["fc.0.b"].update(data="AAAAAAAAAAAAAAAA"),
         "tensor fc.0.b data is not base64 of float64 values"),
        (lambda body: body.update(n_classes=-1),
         "n_classes must be 2, got -1"),
        (poison_tensor("tree.0.leaf_logits", 0, np.nan),
         "tensor tree.0.leaf_logits holds a non-finite value"),
        (poison_tensor("encoder.0.W", ..., np.inf),
         "tensor encoder.0.W holds a non-finite value"),
        (lambda body: body["norm_stats"]["center"].__setitem__(0, "a"),
         "norm_stats must name a method"),
        (lambda body: body["norm_stats"]["center"].__setitem__(0, None),
         "norm_stats must name a method"),
        (lambda body: body["norm_stats"]["scale"].__setitem__(1, 0.0),
         "norm_stats must name a method"),
        (lambda body: body["norm_stats"].update(method="bogus"),
         "norm_stats must name a method"),
        (lambda body: body["config"].update(n_tree=2.0),
         "model file config: n_tree must be an integer, got 2.0"),
        (lambda body: body["config"].update(init_scale="x"),
         "model file config: init_scale must be a number, got 'x'"),
        (lambda body: body["config"].update(ae_widths="30"),
         "model file config: ae_widths must be integers or null, got '30'"),
        (lambda body: body["config"].update(reshuffle_each_epoch="no"),
         "model file config: reshuffle_each_epoch must be true or false, got 'no'"),
        (lambda body: body.update(manifest_version="1"),
         "model file manifest_version must be an integer or null, got '1'"),
        (with_classes(1), "n_classes must be 2, got 1"),
        (with_classes(3), "n_classes must be 2, got 3"),
    ], ids=["not-base64", "partial-float64", "negative-classes", "nan-leaf",
            "inf-encoder", "string-center", "null-center", "zero-scale",
            "bogus-method", "float-n-tree", "string-init-scale",
            "string-ae-widths", "string-reshuffle", "string-manifest-version",
            "one-class", "three-classes"])
    def test_malformed_model_body_exits_2_naming_it(self, run_dir, tmp_path,
                                                    capsys, change, named):
        model = tmp_path / "model.json"
        model.write_text((run_dir / "model.json").read_text())
        rewrite_model_body(model, change)
        rc = main(["predict", "--features", str(run_dir / "heldout"),
                   "--model", str(model), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    # The added column copies the first one's values under a new name.
    @pytest.mark.parametrize("edit, n_given", [
        (lambda cells, added: cells[:-1], 2),
        (lambda cells, added: cells + [added], 4),
    ], ids=["column-dropped", "column-added"])
    def test_feature_width_differs_from_unnamed_model_exits_2(
            self, tmp_path, capsys, command, edit, n_given):
        # A model file without feature_names and norm_stats has only its
        # tensor shapes to check the feature columns against.
        model = tmp_path / "model.json"
        model.write_text((GOLDEN / "model.json").read_text())
        rewrite_model_body(model, lambda body: body.update(feature_names=None,
                                                           norm_stats=None))
        golden, feat = GOLDEN / "features", tmp_path / "feat"
        feat.mkdir()
        (feat / "labels.tsv").write_bytes((golden / "labels.tsv").read_bytes())
        manifest = json.loads((golden / "manifest.json").read_text())
        features = manifest["features"]
        manifest["features"] = edit(features, dict(features[0], name="added"))
        (feat / "manifest.json").write_text(json.dumps(manifest))
        header, *rows = [line.split("\t") for line in
                         (golden / "features.tsv").read_text().splitlines()]
        (feat / "features.tsv").write_text("".join(
            "\t".join(edit(cells, "added" if cells is header else cells[0])) + "\n"
            for cells in [header] + rows))
        rc = main([command, "--features", str(feat), "--model", str(model),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {feat / 'features.tsv'}: holds {n_given} feature columns, "
            f"but the model was trained with 3\n")
        assert not (tmp_path / "out").exists()

    def test_predict_imports_no_numpy_random(self, run_dir, tmp_path):
        # Scoring draws nothing, so it should not pay for importing
        # numpy.random (about 6 MB of RSS). Modules loaded before the call,
        # as numpy < 2 loads numpy.random, do not count.
        code = (
            "import sys\n"
            "from spamforest.cli import main\n"
            "before = set(sys.modules)\n"
            f"assert main(['predict', '--features', {str(run_dir / 'heldout')!r}, "
            f"'--model', {str(run_dir / 'model.json')!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[:2] == ['numpy', 'random']))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "predictions.tsv").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_exits_2(self, run_dir, tmp_path, capsys,
                                        command, cell):
        ds = load_features(run_dir / "heldout")
        feat = tmp_path / "feat"
        save_features(feat, ds.features, ds.labels, ds.user_ids)
        lines = (feat / "features.tsv").read_text().splitlines()
        cells = lines[3].split("\t")
        cells[1] = cell
        lines[3] = "\t".join(cells)
        (feat / "features.tsv").write_text("\n".join(lines) + "\n")
        args = [command, "--features", str(feat), "--out", str(tmp_path / "out")]
        if command == "predict":
            args += ["--model", str(run_dir / "model.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "features.tsv" in err and "column 2" in err
        assert not (tmp_path / "out" / "predictions.tsv").exists()


    @pytest.mark.parametrize("normalization", ["zscore", "minmax"])
    def test_overflowing_normalization_exits_2(self, gaussian_features,
                                               tmp_path, capsys, normalization):
        ds = load_features(gaussian_features)
        values = ds.features.values.copy()
        values[3, 1], values[7, 1] = 1e308, -1e308
        feat = tmp_path / "feat"
        save_features(feat, dataclasses.replace(ds.features, values=values),
                      ds.labels, ds.user_ids)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_epoch = 1\nnormalization = {normalization}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["train", "--features", str(feat), "--out", str(out),
                       "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "column 2 ('x1')" in err and normalization in err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_overflow_past_training_range_exits_2(self, tmp_path, capsys,
                                                  command):
        # Columns with a standard deviation near 1e-3 turn a 1e308 cell into
        # inf under the training stats; the score must not come out NaN.
        X = Rng(5).normal((60, 3), 1e-3)
        y = np.array([0, 1] * 30)
        names = ["c0", "c1", "c2"]
        matrix = FeatureMatrix(X, names, ["rating"] * 3, ["continuous"] * 3)
        save_features(tmp_path / "feat", matrix, y, [f"u{i}" for i in range(60)])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\nbatch_size = 20\nnormalization = zscore\n")
        assert main(["train", "--features", str(tmp_path / "feat"), "--out",
                     str(tmp_path / "model"), "--config", str(cfg)]) == 0
        X[4] = 1e308
        save_features(tmp_path / "far", dataclasses.replace(matrix, values=X),
                      y, [f"u{i}" for i in range(60)])
        capsys.readouterr()
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--features", str(tmp_path / "far"), "--model",
                       str(tmp_path / "model" / "model.json"), "--out", str(out)])
        assert rc == 2
        assert "column 1 ('c0')" in capsys.readouterr().err
        assert not (out / "predictions.tsv").exists()
        assert not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_zero_train_count_exits_2(self, gaussian_features, tmp_path, capsys,
                                      command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\n")
        rc = main([command, "--features", str(gaussian_features), "--out",
                   str(tmp_path / "out"), "--config", str(cfg),
                   "--train-count", "0"])
        assert rc == 2
        assert "train_count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "analyze", "predict"])
    def test_header_only_features_exits_2(self, gaussian_features, run_dir,
                                          tmp_path, capsys, command):
        feat = tmp_path / "feat"
        feat.mkdir()
        for name in ("manifest.json", "labels.tsv", "features.tsv"):
            head = (gaussian_features / name).read_text()
            if name != "manifest.json":
                head = head.splitlines(keepends=True)[0]
            (feat / name).write_text(head)
        args = [command, "--features", str(feat), "--out", str(tmp_path / "out")]
        if command == "predict":
            args += ["--model", str(run_dir / "model.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "features.tsv" in err and "no data rows" in err


class TestNonUtf8Input:
    def test_bad_byte_names_file_and_line(self, corpus_files, tmp_path, capsys):
        reviews, scores = corpus_files
        lines = reviews.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"review_text": "', b'"review_text": "\xff', 1)
        bad = tmp_path / "reviews.jsonl"
        bad.write_bytes(b"".join(lines))
        rc = main(["extract", "--reviews", str(bad), "--scores", str(scores),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 3: ")
        assert "UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["features.tsv", "labels.tsv",
                                      "manifest.json"])
    def test_feature_directory_files(self, gaussian_features, tmp_path, capsys,
                                     name):
        ds = load_features(gaussian_features)
        feat = tmp_path / "feat"
        save_features(feat, ds.features, ds.labels, ds.user_ids)
        lines = (feat / name).read_bytes().splitlines(keepends=True)
        lines[2] = b"\xfe" + lines[2]
        (feat / name).write_bytes(b"".join(lines))
        assert main(["analyze", "--features", str(feat), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {feat / name}: line 3: ")

    def test_config_and_model_files(self, run_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"n_epoch = 1\n# note\nseed = 2 # \xe9\n")
        assert main(["train", "--features", str(run_dir / "heldout"), "--out",
                     str(tmp_path / "out"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: line 3: ")
        model = tmp_path / "model.json"
        lines = (run_dir / "model.json").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"', b'"\xc3', 1)
        model.write_bytes(b"".join(lines))
        assert main(["predict", "--features", str(run_dir / "heldout"),
                     "--model", str(model), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: line 3: ")


class TestOSErrors:
    @pytest.mark.parametrize("case", ["model-is-directory", "features-is-file",
                                      "reviews-is-directory", "out-is-file"])
    def test_os_error_exits_2_naming_the_path(self, run_dir, corpus_files,
                                              tmp_path, capsys, case):
        heldout, model = str(run_dir / "heldout"), str(run_dir / "model.json")
        out = str(tmp_path / "out")
        if case == "model-is-directory":
            path = str(tmp_path)
            args = ["predict", "--features", heldout, "--model", path]
        elif case == "features-is-file":
            path = model
            args = ["predict", "--features", path, "--model", model]
        elif case == "reviews-is-directory":
            path = str(tmp_path)
            args = ["extract", "--reviews", path, "--scores",
                    str(corpus_files[1])]
        else:
            out = path = str(tmp_path / "taken")
            (tmp_path / "taken").write_text("")
            args = ["predict", "--features", heldout, "--model", model]
        assert main(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path in err and "Traceback" not in err


@pytest.fixture(scope="module")
def corpus_run(corpus_files, tmp_path_factory):
    """Features extracted from the review corpus and a model trained on them."""
    reviews, scores = corpus_files
    base = tmp_path_factory.mktemp("corpus_run")
    assert main(["extract", "--reviews", str(reviews), "--scores", str(scores),
                 "--out", str(base / "feat")]) == 0
    cfg = base / "train.cfg"
    cfg.write_text("n_epoch = 2\nseed = 1\n")
    assert main(["train", "--features", str(base / "feat"), "--out",
                 str(base / "run"), "--config", str(cfg)]) == 0
    return base


class TestFlags:
    """Each command declares only the flags it reads."""

    REQUIRED = {"extract": ["--reviews", "r.jsonl", "--scores", "s.tsv"],
                "analyze": ["--features", "feat"],
                "evaluate": ["--features", "feat", "--model", "m.json"],
                "predict": ["--features", "feat", "--model", "m.json"]}

    @pytest.mark.parametrize("command, flag", [
        ("extract", "--config"), ("analyze", "--config"), ("analyze", "--seed"),
        ("evaluate", "--config"), ("evaluate", "--seed"),
        ("predict", "--config"), ("predict", "--seed")])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                    command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out), *self.REQUIRED[command], flag, "99"])
        assert exc.value.code == 2
        # argparse's usage line and one error line, before any command runs.
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: spamforest ")
        assert err[-1] == f"spamforest: error: unrecognized arguments: {flag} 99"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "analyze", "train",
                                         "evaluate", "predict", "ablate"])
    def test_help_lists_config_and_seed_only_where_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert ("--config" in text) == (command in ("train", "ablate"))
        assert ("--seed" in text) == (command in ("extract", "train", "ablate"))


class TestFeatureNames:
    def score(self, command, features, model, out):
        return main([command, "--features", str(features), "--model",
                     str(model), "--out", str(out)])

    def test_model_stores_training_names(self, corpus_run):
        doc = json.loads((corpus_run / "run" / "model.json").read_text())
        assert doc["format_version"] == 2
        assert doc["body"]["feature_names"] == \
            load_features(corpus_run / "feat").features.names

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_swapped_category_columns_exit_2(self, corpus_run, tmp_path,
                                             capsys, command):
        model = corpus_run / "run" / "model.json"
        assert self.score(command, corpus_run / "feat", model, tmp_path / "ok") == 0
        ds = load_features(corpus_run / "feat")
        m = ds.features
        a, b = [j for j, n in enumerate(m.names)
                if n.startswith("category_ratio:")][:2]
        order = list(range(m.n_features))
        order[a], order[b] = b, a
        swapped = FeatureMatrix(m.values[:, order], [m.names[j] for j in order],
                                [m.scopes[j] for j in order],
                                [m.kinds[j] for j in order], m.manifest_version)
        save_features(tmp_path / "feat", swapped, ds.labels, ds.user_ids)
        capsys.readouterr()
        assert self.score(command, tmp_path / "feat", model, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"column {a + 1} is {m.names[b]!r}" in err
        assert f"trained with {m.names[a]!r}" in err
        assert not (tmp_path / "out").exists()

    def test_version_1_model_exits_2(self, corpus_run, tmp_path, capsys):
        doc = json.loads((corpus_run / "run" / "model.json").read_text())
        del doc["body"]["feature_names"]
        canonical = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        doc["format_version"] = 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert self.score("predict", corpus_run / "feat", model, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "version 1" in err


class TestConfigFile:
    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "n_epoch = 12\nlearning_rate = 0.125\n"
            "normalization = minmax\nae_widths = 4,2\n"
            "reshuffle_each_epoch = true\nfc_width = none\n# comment\n")
        values = load_config_file(cfg)
        assert values == {"n_epoch": 12, "learning_rate": 0.125,
                          "normalization": "minmax", "ae_widths": (4, 2),
                          "reshuffle_each_epoch": True, "fc_width": None}
        TrainConfig(**values)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_speed = 3\n")
        with pytest.raises(ParseError, match="learning_speed"):
            load_config_file(cfg)

    def test_bad_config_through_cli_exits_2(self, gaussian_features, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = fast\n")
        rc = main(["train", "--features", str(gaussian_features), "--out",
                   str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["learning_rate", "leaf_learning_rate",
                                     "epsilon", "init_scale"])
    def test_non_finite_rate_through_cli_exits_2(self, gaussian_features,
                                                 tmp_path, capsys, key, raw):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_epoch = 1\n{key} = {raw}\n")
        rc = main(["train", "--features", str(gaussian_features), "--out",
                   str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{key} must be finite and positive" in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_depth_beyond_bound_through_cli_exits_2(self, gaussian_features,
                                                    tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\nn_depth = 40\n")
        rc = main(["train", "--features", str(gaussian_features), "--out",
                   str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2
        assert "n_depth must be <=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, gaussian_features, tmp_path, capsys,
                                   where):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\n" + ("seed = -1\n" if where == "config" else ""))
        args = ["train", "--features", str(gaussian_features), "--out",
                str(tmp_path / "out"), "--config", str(cfg)]
        if where == "flag":
            args += ["--seed", "-1"]
        assert main(args) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_seed_overrides_config(self, tmp_path, gaussian_features):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["train", "--features", str(gaussian_features), "--out",
                     str(out), "--config", str(cfg), "--seed", "9",
                     "--train-count", "100"]) == 0
        assert "seed = 9" in (out / "config.txt").read_text()

    def test_normalization_none_trains(self, gaussian_features, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 1\nnormalization = none\n")
        out = tmp_path / "out"
        assert main(["train", "--features", str(gaussian_features), "--out",
                     str(out), "--config", str(cfg)]) == 0
        assert "normalization = none\n" in (out / "config.txt").read_text()
        assert json.loads((out / "model.json").read_text())["body"][
            "norm_stats"]["method"] == "none"

    @pytest.mark.parametrize("line, key", [
        ("seed = none", "seed"), ("n_tree = none", "n_tree"),
        ("n_epoch =", "n_epoch"),
        ("reshuffle_each_epoch = none", "reshuffle_each_epoch")])
    def test_none_for_a_non_optional_key_exits_2(self, gaussian_features,
                                                 tmp_path, capsys, line, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_epoch = 1\n{line}\n")
        assert main(["train", "--features", str(gaussian_features), "--out",
                     str(tmp_path / "out"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: line 2: {key} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["none", "None", ""])
    def test_none_reads_as_none_for_optional_keys(self, tmp_path, raw):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"ae_widths = {raw}\nfc_width = {raw}\n")
        assert load_config_file(cfg) == {"ae_widths": None, "fc_width": None}


class TestParseErrorsNameTheFile:
    """A malformed line in any text input is reported as
    ``error: <path>: line N: <reason>``."""

    REVIEW = record_json(ReviewRecord("u0", "p0", 4, 1, 2, 100, "books",
                                      "fine", "good")) + "\n"

    @pytest.mark.parametrize("reviews, scores, delimited, bad, where", [
        (REVIEW, "u0\t0.1\nu1\tabc\n", False, "scores",
         "line 2: score must be a number"),
        (REVIEW + "{not json\n", "u0\t0.1\n", False, "reviews",
         "line 2: invalid JSON"),
        ("user_id\tproduct_id\nu0\n", "u0\t0.1\n", True, "reviews",
         "line 2: expected 2 columns, got 1"),
        ("\n", "u0\t0.1\n", True, "reviews", "line 1: file has no header row"),
        (REVIEW + REVIEW.replace('"user_id": "u0"', '"user_id": null'),
         "u0\t0.1\n", False, "reviews", "line 2: required field 'user_id' is null"),
        (REVIEW + REVIEW.replace('"user_id": "u0"', '"user_id": true'),
         "u0\t0.1\n", False, "reviews",
         "line 2: field 'user_id' must be a string, got true\n"),
        ("\n", "u0\t0.1\n", False, "reviews", "holds no review records"),
        ("user_id\tproduct_id\n", "u0\t0.1\n", True, "reviews",
         "holds no review records"),
        (REVIEW, "u1\t0.1\n", False, "scores", "no spam score for 1 user(s): ['u0']\n"),
        ("".join(map(REVIEW.replace, ['"u0"'] * 7, [f'"u{i}"' for i in range(7)])),
         "u9\t0.1\n", False, "scores",
         "no spam score for 7 user(s): ['u0', 'u1', 'u2', 'u3', 'u4'] and 2 more\n"),
        (REVIEW, "u0\t0.1\nu1\t0.9\nu0\t0.8\n", False, "scores",
         "line 3: user 'u0' was already scored on line 1\n"),
        ("user_id\tproduct_id\tuser_id\nu0\tp0\tu1\n", "u0\t0.1\n", True,
         "reviews", "line 1: header names field 'user_id' 2 times\n"),
        (REVIEW + REVIEW.replace('"helpful_votes": 1', f'"helpful_votes": {2 ** 63}'),
         "u0\t0.1\n", False, "reviews",
         "line 2: vote counts must be in 0..9223372036854775807\n"),
    ], ids=["scores", "reviews-jsonl", "reviews-delimited", "delimited-no-header",
            "reviews-null-field", "reviews-bool-field", "reviews-empty",
            "delimited-header-only", "scores-miss-user", "scores-miss-users-capped",
            "scores-user-twice", "delimited-field-twice", "reviews-votes-beyond-int64"])
    def test_extract_inputs(self, tmp_path, capsys, reviews, scores, delimited,
                            bad, where):
        paths = {"reviews": tmp_path / "reviews", "scores": tmp_path / "scores"}
        paths["reviews"].write_text(reviews)
        paths["scores"].write_text(scores)
        args = ["extract", "--reviews", str(paths["reviews"]), "--scores",
                str(paths["scores"]), "--out", str(tmp_path / "out")]
        assert main(args + ["--delimited"] * delimited) == 2
        assert capsys.readouterr().err.startswith(f"error: {paths[bad]}: {where}")

    @pytest.mark.parametrize("config, where", [
        ("n_epoch = fast\n", "line 1: n_epoch must be an integer, got 'fast'\n"),
        ("n_epoch = 1\nn_tree = 0\n", "line 2: n_tree must be >= 1, got 0\n"),
        ("# structure\nnormalization = zz\nn_epoch = 1\n",
         "line 2: normalization must be one of "),
        ("n_epoch = 1\nseed = -1\n",
         "line 2: seed must be a non-negative integer, got -1\n"),
        ("n_epoch = 3\nn_tree = 2\nn_epoch = 5\n",
         "line 3: key 'n_epoch' was already given on line 1\n"),
        ("ae_widths = 4,2,1\nn_epoch = 1\nae_layer_count = 2\n",
         "line 1: ae_widths has 3 entries for 2 encoder layers\n"),
    ], ids=["config-not-an-integer", "config-n-tree-zero", "config-normalization",
            "config-negative-seed", "config-key-twice", "config-ae-widths-count"])
    def test_config_file(self, gaussian_features, tmp_path, capsys, config, where):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        assert main(["train", "--features", str(gaussian_features), "--out",
                     str(tmp_path / "out"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {where}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, where", [
        ("features.tsv", lambda lines: lines[:2] + ["x\tx\n"] + lines[3:],
         "line 3: could not convert string to float: 'x'"),
        ("labels.tsv", lambda lines: lines[:2] + ["x\tx\n"] + lines[3:],
         "line 3: expected 'user_id<TAB>0|1'"),
        ("labels.tsv", lambda lines: lines[:-1],
         "holds 999 label rows, features.tsv holds 1000 feature rows"),
        ("labels.tsv",
         lambda lines: lines[:1] + [ln.split("\t")[0] + "\t0\n" for ln in lines[1:]],
         "every row has label 0; screening compares the two classes"),
        ("manifest.json",
         lambda lines: [ln.replace('"manifest_version": 1', '"manifest_version": "1"')
                        for ln in lines],
         "manifest_version must be an integer or null, got '1'"),
        ("manifest.json",
         lambda lines: [ln.replace('"name": "x1"', '"name": "x0"') for ln in lines],
         "feature name 'x0' appears 2 times\n"),
    ], ids=["features.tsv-line 3: could not convert string to float: 'x'",
            "labels.tsv-line 3: expected 'user_id<TAB>0|1'",
            "labels-row-short", "labels-one-class", "manifest-version-string",
            "manifest-repeated-name"])
    def test_feature_directory(self, gaussian_features, tmp_path, capsys,
                               name, edit, where):
        feat = tmp_path / "feat"
        feat.mkdir()
        for f in ("features.tsv", "labels.tsv", "manifest.json"):
            (feat / f).write_bytes((gaussian_features / f).read_bytes())
        lines = (feat / name).read_text().splitlines(keepends=True)
        (feat / name).write_text("".join(edit(lines)))
        assert main(["analyze", "--features", str(feat), "--out",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {feat / name}: {where}")


# Text a mutated labels.tsv line is made of: ids, labels valid and not,
# both line ends and characters only str.strip treats as whitespace.
LABEL_TEXT = st.lists(st.sampled_from(["u", "7", "0", "1", "2", "\t", " ", "\n",
                                       "\r", "\u00e9", "\x85", "\u2028"]),
                      max_size=6).map("".join)
LABEL_EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete", "crlf", "swap-label"]),
    st.integers(0, 30), LABEL_TEXT), max_size=3)


def edit_lines(lines, edits, final_newline):
    """``lines`` (with their ends) after each (op, index, text) edit."""
    lines = list(lines)
    for op, i, text in edits:
        if not lines:
            lines = [text]
            continue
        i %= len(lines)
        if op == "replace":
            lines[i] = text
        elif op == "insert":
            lines.insert(i, text)
        elif op == "delete":
            del lines[i]
        elif op == "crlf":
            lines[i] = lines[i].replace("\n", "\r\n")
        else:
            lines[i] = lines[i].translate(str.maketrans("01", "10"))
    body = "".join(lines)
    return body if final_newline else body.rstrip("\n")


class TestLabelsFuzz:
    """Mutated golden labels.tsv files through ``evaluate``: every run exits
    0 or 2 without a traceback, a malformed line is named with its file and
    line, and a row-count mismatch names both counts."""

    @settings(max_examples=120, deadline=None)
    @given(LABEL_EDITS, st.booleans())
    def test_evaluate_exits_0_or_2_naming_the_fault(self, edits, final_newline):
        golden = GOLDEN / "features"
        lines = (golden / "labels.tsv").read_text().splitlines(keepends=True)
        n_rows = len(lines) - 1
        with tempfile.TemporaryDirectory() as tmp:
            feat = Path(tmp, "feat")
            feat.mkdir()
            for name in ("features.tsv", "manifest.json"):
                (feat / name).write_bytes((golden / name).read_bytes())
            path = feat / "labels.tsv"
            path.write_bytes(edit_lines(lines, edits, final_newline).encode())
            try:
                labels = reference_read_labels(path)[1]
            except ParseError as exc:
                expected = (2, f"error: {exc}\n")
                assert f"{path}: line {exc.line_number}: " in str(exc)
            else:
                expected = (0, "") if len(labels) == n_rows else (
                    2, f"error: {path}: holds {len(labels)} label rows, "
                       f"features.tsv holds {n_rows} feature rows\n")
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                rc = main(["evaluate", "--features", str(feat), "--model",
                           str(GOLDEN / "model.json"), "--out", str(Path(tmp, "out"))])
        assert (rc, err.getvalue()) == expected
        assert "Traceback" not in err.getvalue() + out.getvalue()


# Values a mutated review field takes: ones the reader converts (numeric
# ids, 4.0, "4") and ones it rejects (null, 4.5, true, out of range,
# beyond int64, containers).
REVIEW_VALUES = [None, 17, 4.0, 4.5, True, "4", 2 ** 63, -1, 6, 10 ** 9, "",
                 "x", [1]]
REVIEW_EDITS = st.lists(st.tuples(
    st.sampled_from(["set", "drop", "unknown", "truncate", "blank", "crlf",
                     "cr", "delete", "array"]),
    st.integers(0, 400),
    st.sampled_from([f.name for f in dataclasses.fields(ReviewRecord)]),
    st.sampled_from(REVIEW_VALUES)), max_size=3)


def edit_reviews(lines, edits):
    """JSON-lines ``lines`` (with their ends) after each (op, index, field,
    value) edit; a field edit of a line that is no JSON object does nothing."""
    lines = list(lines)
    for op, i, name, value in edits:
        i %= len(lines)
        try:
            fields = json.loads(lines[i])
        except ValueError:
            fields = None
        if op in ("set", "drop", "unknown") and isinstance(fields, dict):
            if op == "set":
                fields[name] = value
            elif op == "drop":
                fields.pop(name, None)
            else:
                fields["color"] = value
            lines[i] = json.dumps(fields) + "\n"
        elif op == "truncate":
            lines[i] = lines[i][:len(lines[i]) // 2] + "\n"
        elif op == "blank":
            lines.insert(i, " \t\n")
        elif op == "crlf":
            lines[i] = lines[i].replace("\n", "\r\n")
        elif op == "cr":
            lines[i] = lines[i].replace("\n", "\r")
        elif op == "delete":
            del lines[i]
        else:
            lines[i] = "[" + lines[i].rstrip("\n") + "]\n"
        if not lines:
            lines = ["\n"]
    return "".join(lines)


class TestReviewsFuzz:
    """Mutated golden reviews.jsonl files through ``extract``: every run
    exits 0, or exits 2 naming the file and line exactly as the per-line
    reader raises; no run prints a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(REVIEW_EDITS)
    def test_extract_exits_0_or_2_naming_the_fault(self, edits):
        golden = GOLDEN / "extract"
        lines = (golden / "reviews.jsonl").read_text().splitlines(keepends=True)
        scores = golden / "scores.tsv"
        scored = set(load_spam_scores(scores))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "reviews.jsonl")
            path.write_text(edit_reviews(lines, edits), newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unknown fields warn
                try:
                    records = reference_load_reviews(path)
                except ParseError as exc:
                    assert f"{path}: line {exc.line_number}: " in str(exc)
                    expected = (2, f"error: {exc}\n")
                else:
                    unscored = {r.user_id for r in records} - scored
                    expected = ((2, f"error: {path}: holds no review records\n")
                                if not records else
                                (2, f"error: {scores}: no spam score for "
                                    f"{len(unscored)} user(s)") if unscored else
                                (0, ""))
                err, out = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                    rc = main(["extract", "--reviews", str(path), "--scores",
                               str(scores), "--out", str(Path(tmp, "out"))])
        assert (rc, err.getvalue()[:len(expected[1])]) == expected
        assert rc == 0 or err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() + out.getvalue()


# Cells a delimited edit writes: ones the reader converts (" 5", "+3") and
# ones it refuses ("4.5", "", out of range, beyond int64).
DELIMITED_VALUES = ["4", " 5", "+3", "4.5", "", "x", "-1", "9", str(2 ** 63), "zoë"]
DELIMITED_EDITS = st.lists(st.tuples(
    st.sampled_from(["cell", "drop", "extra", "blank", "rename", "crlf"]),
    st.integers(0, 400), st.integers(0, 20), st.sampled_from(DELIMITED_VALUES)),
    max_size=3)


def edit_delimited(lines, edits):
    """Tab-delimited ``lines`` (header first, with their ends) after each
    (op, line, cell, value) edit. "rename" gives header cell j the name of
    the next column, so that field is named twice."""
    lines = list(lines)
    for op, i, j, value in edits:
        i %= len(lines)
        cells = lines[i].rstrip("\r\n").split("\t")
        j %= len(cells)
        if op == "cell":
            cells[j] = value
        elif op == "drop":
            del cells[j]
        elif op == "extra":
            cells.insert(j, value)
        elif op == "rename":
            i, cells = 0, lines[0].rstrip("\r\n").split("\t")
            cells[j % len(cells)] = cells[(j + 1) % len(cells)]
        if op == "blank":
            lines.insert(i, " \t\n")
        elif op == "crlf":
            lines[i] = lines[i].rstrip("\r\n") + "\r\n"
        else:
            lines[i] = "\t".join(cells) + "\n"
    return "".join(lines)


class TestDelimitedReviewsFuzz:
    """Mutated delimited exports of the golden reviews through ``extract
    --delimited``: every run exits 0, or exits 2 with one error line naming
    the file and the line, or saying the file holds no records or a user
    has no score; no run prints a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(DELIMITED_EDITS)
    def test_extract_exits_0_or_2_naming_the_fault(self, edits):
        golden = GOLDEN / "extract"
        scores = golden / "scores.tsv"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "reviews.tsv")
            write_delimited_reviews(golden / "reviews.jsonl", path)
            lines = path.read_text().splitlines(keepends=True)
            path.write_text(edit_delimited(lines, edits), newline="")
            n_lines = len(path.read_text().split("\n"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unknown fields warn
                err, out = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                    rc = main(["extract", "--delimited", "--reviews", str(path),
                               "--scores", str(scores), "--out", str(Path(tmp, "out"))])
        message = err.getvalue()
        assert "Traceback" not in message + out.getvalue()
        if rc == 0:
            assert message == ""
            return
        assert rc == 2 and message.count("\n") == 1, message
        named = re.fullmatch(rf"error: {re.escape(str(path))}: line (\d+): .+\n", message)
        if named:
            assert 1 <= int(named.group(1)) <= n_lines
        else:
            assert message == f"error: {path}: holds no review records\n" or \
                message.startswith(f"error: {scores}: no spam score for "), message


def scoped_dataset(seed=4, n=240):
    """Six scopes, two features each; only the rating columns carry signal."""
    r = Rng(seed)
    labels = np.array([0, 1] * (n // 2), dtype=np.int64)
    cols, names, scopes = [], [], []
    for scope in ("history", "rating", "feedback", "time", "product", "review"):
        for j in range(2):
            if scope == "rating":
                col = labels * 2.0 + r.normal((n,), 0.2)
            else:
                col = r.normal((n,), 1.0)
            cols.append(col)
            names.append(f"{scope}_{j}")
            scopes.append(scope)
    matrix = FeatureMatrix(np.column_stack(cols), names, scopes,
                           ["continuous"] * len(names))
    return LabeledDataset(matrix, labels, [f"u{i}" for i in range(n)])


@pytest.fixture(scope="module")
def ablation_rows():
    ds = scoped_dataset()
    cfg = TrainConfig(n_epoch=40, batch_size=20, seed=2)
    return run_ablation(ds, cfg, train_count=180)


class TestAblate:
    def test_full_row_present_and_flagged(self, ablation_rows):
        full = [r for r in ablation_rows if r[0] == "full"]
        assert len(full) == 1
        assert full[0][3] is True
        assert full[0][1] == 12

    def test_at_most_seven_rows(self, ablation_rows):
        assert len(ablation_rows) == 7

    def test_signal_scope_beats_noise_scopes(self, ablation_rows):
        by_scope = {r[0]: r[2] for r in ablation_rows}
        for scope in ("history", "feedback", "time", "product", "review"):
            assert by_scope["rating"] > by_scope[scope]

    def test_scope_without_features_skipped_with_warning(self, tmp_path):
        ds = scoped_dataset()
        trimmed_cols = [i for i, s in enumerate(ds.features.scopes)
                        if s != "time"]
        matrix = FeatureMatrix(ds.features.values[:, trimmed_cols],
                               [ds.features.names[i] for i in trimmed_cols],
                               [ds.features.scopes[i] for i in trimmed_cols],
                               [ds.features.kinds[i] for i in trimmed_cols])
        trimmed = LabeledDataset(matrix, ds.labels, ds.user_ids)
        cfg = TrainConfig(n_epoch=5, batch_size=20, seed=2)
        with pytest.warns(UserWarning, match="time"):
            rows = run_ablation(trimmed, cfg, train_count=180)
        assert len(rows) == 6

    def test_cli_command_writes_table(self, tmp_path):
        ds = scoped_dataset(n=120)
        save_features(tmp_path / "feat", ds.features, ds.labels, ds.user_ids)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_epoch = 10\nbatch_size = 20\nseed = 2\n")
        out = tmp_path / "abl"
        rc = main(["ablate", "--features", str(tmp_path / "feat"), "--out",
                   str(out), "--config", str(cfg), "--train-count", "100"])
        assert rc == 0
        lines = (out / "ablation.tsv").read_text().splitlines()
        assert lines[0] == "scope\tn_features\taccuracy\treference"
        assert len(lines) - 1 <= 7
        assert any(l.startswith("full\t") and l.endswith("yes") for l in lines)
