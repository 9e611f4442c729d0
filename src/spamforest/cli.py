"""Batch command-line interface.

Subcommands: extract, analyze, train, evaluate, predict, ablate. Every
command takes --out (output directory). train and ablate take --config
(key = value text mirroring TrainConfig field names); extract, train and
ablate take --seed (the subsample seed for extract, an override of the
config seed for the other two). The effective configuration is echoed into
every output directory as config.txt, so a run is reproducible from its
own outputs.

Exit codes: 0 success, 1 numeric/runtime failure, 2 input or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

from .dataio import (LabeledDataset, _replace_when_written, apply_normalization,
                     label_and_cap_users, load_features, load_model, load_reviews,
                     load_reviews_delimited, load_spam_scores, naming, normalize,
                     open_text, save_features, save_model, split_train_test)
from .errors import (INPUT_ERRORS, ConfigError, FeatureMismatchError, ModelVersionError,
                     ParseError)
from .features import SCOPES, build_feature_matrix
from .metrics import compute_metrics, confusion, write_metrics_report
from .stats import screen_features, write_histograms, write_screening_report
from .training import Model, TrainConfig, _allocate_model, config_value, predict, train

__all__ = ["main", "run_ablation", "load_config_file"]

# perfbench/tracing.py times the train/test split by wrapping the module
# attribute split_shuffle_batch, so the commands call the split by that name.
split_shuffle_batch = split_train_test


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines (# comments allowed) into config kwargs,
    each key given once, that TrainConfig accepts. An error names the line
    of the key it is about."""
    values, lines = {}, {}
    with open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {line!r}", ln)
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            try:
                values[key] = config_value(key, raw, text=True)
            except ConfigError as exc:
                raise ParseError(str(exc), ln) from None
            if key in lines:
                raise ParseError(f"key {key!r} was already given on line "
                                 f"{lines[key]}", ln)
            lines[key] = ln
        try:
            TrainConfig(**values)
        except ConfigError as exc:
            # Every TrainConfig message begins with the key it is about.
            raise ParseError(str(exc), lines.get(str(exc).split(" ", 1)[0])) from None
    return values


def _resolve_config(args, n_features: int) -> TrainConfig:
    """The TrainConfig of ``--config`` and ``--seed``. A config file whose
    model is too large to allocate is refused here, naming the file."""
    values = load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        values["seed"] = args.seed
    config = TrainConfig(**values)
    if args.config:
        with naming(args.config):
            _allocate_model(config, n_features)
    return config


def _echo_config(out_dir, command: str, config: TrainConfig | None, extras: dict):
    lines = [f"command = {command}"]
    if config is not None:
        for key, val in sorted(dataclasses.asdict(config).items()):
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{key} = {val}")
    for key, val in sorted(extras.items()):
        lines.append(f"{key} = {val}")
    with _replace_when_written(os.path.join(out_dir, "config.txt")) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _rows(matrix, idx):
    return dataclasses.replace(matrix, values=matrix.values[idx])


def cmd_extract(args) -> int:
    loader = load_reviews_delimited if args.delimited else load_reviews
    reviews = loader(args.reviews)
    scores = load_spam_scores(args.scores)
    if len(reviews) == 0:
        raise ParseError(f"{args.reviews}: holds no review records")
    # Each category names a features.tsv column, so it must encode as UTF-8
    # and hold none of the header's separators: a tab or a line break.
    for c in sorted(set(reviews.category.tolist())):
        if c.encode(errors="replace").decode() != c:
            raise ParseError(f"{args.reviews}: category {c!r} is not UTF-8 text")
        if any(ch in c for ch in "\t\n\r"):
            raise ParseError(f"{args.reviews}: category {c!r} holds a tab or a line break")
    with naming(args.scores, ParseError):  # authors the scores file lacks
        capped, row_labels = label_and_cap_users(reviews, scores,
                                                 cap=args.cap, seed=args.seed)
    matrix, user_ids = build_feature_matrix(capped)
    save_features(args.out, matrix, row_labels, user_ids)
    _echo_config(args.out, "extract", None,
                 {"cap": args.cap, "seed": args.seed, "reviews": args.reviews,
                  "scores": args.scores})
    print(f"wrote {matrix.n_rows} rows x {matrix.n_features} features to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    ds = load_features(args.features)
    if ds.labels.min() == ds.labels.max():
        raise ValueError(
            f"{os.path.join(args.features, 'labels.tsv')}: every row has label "
            f"{ds.labels[0]}; screening compares the two classes")
    results = screen_features(ds.features, ds.labels)
    report = os.path.join(args.out, "screening.tsv")
    write_screening_report(results, report)
    if args.histograms:
        write_histograms(ds.features, ds.labels,
                         os.path.join(args.out, "histograms"))
    _echo_config(args.out, "analyze", None, {"features": args.features})
    n_sig = sum(r.significant_at_05 for r in results)
    print(f"screened {len(results)} features, {n_sig} significant at 0.05; "
          f"report at {report}")
    return 0


def cmd_train(args) -> int:
    ds = load_features(args.features)
    config = _resolve_config(args, ds.features.n_features)
    # the split checks the range
    train_count = ds.n_rows if args.train_count is None else args.train_count

    train_idx, test_idx = split_shuffle_batch(ds.n_rows, train_count, config.seed)
    with naming(os.path.join(args.features, "features.tsv")):
        normed, stats = normalize(_rows(ds.features, train_idx), config.normalization)

    result = train(normed.values, ds.labels[train_idx], config)
    with _replace_when_written(os.path.join(args.out, "training_log.tsv")) as fh:
        fh.writelines(f"{e}\t{loss!r}\t{acc!r}\n" for e, (loss, acc) in
                      enumerate(zip(result.losses, result.accuracies)))
    result.model.norm_stats = stats
    result.model.manifest_version = ds.features.manifest_version
    result.model.feature_names = list(ds.features.names)
    model_path = os.path.join(args.out, "model.json")
    save_model(model_path, result.model)

    if len(test_idx) > 0:
        save_features(os.path.join(args.out, "heldout"), _rows(ds.features, test_idx),
                      ds.labels[test_idx], [ds.user_ids[i] for i in test_idx])

    _echo_config(args.out, "train", config,
                 {"features": args.features, "train_count": train_count})
    final = result.accuracies[-1] if result.accuracies else float("nan")
    print(f"trained {config.n_epoch} epochs; final training accuracy "
          f"{final:.4f}; model at {model_path}")
    return 0


def _check_columns(features_dir, model_path, model: Model, given: list[str]):
    """Reject columns other than the model's: by count, and by stored name.
    The error names both files."""
    path = os.path.join(features_dir, "features.tsv")
    if len(given) != model.n_features:
        raise FeatureMismatchError(
            f"{path}: holds {len(given)} feature columns, but the model "
            f"{model_path} was trained with {model.n_features}")
    trained = model.feature_names or given
    j = next((j for j, (t, g) in enumerate(zip(trained, given)) if t != g), None)
    if j is not None:
        raise FeatureMismatchError(
            f"{path}: feature column {j + 1} is {given[j]!r}, but the model "
            f"{model_path} was trained with {trained[j]!r} there")


def _load_and_normalize(features_dir, model_path) -> tuple[Model, LabeledDataset]:
    """The model at ``model_path`` and the feature directory checked against
    it and normalized with its stats."""
    model = load_model(model_path)
    ds = load_features(features_dir)
    if (model.manifest_version is not None
            and model.manifest_version != ds.features.manifest_version):
        raise ModelVersionError(
            f"{os.path.join(features_dir, 'manifest.json')}: the model "
            f"{model_path} was trained against manifest version "
            f"{model.manifest_version}, features carry "
            f"{ds.features.manifest_version}")
    _check_columns(features_dir, model_path, model, ds.features.names)
    with naming(f"{os.path.join(features_dir, 'features.tsv')} under {model_path}"):
        matrix = ds.features if model.norm_stats is None else \
            apply_normalization(ds.features, model.norm_stats)
    return model, LabeledDataset(matrix, ds.labels, ds.user_ids)


def cmd_evaluate(args) -> int:
    model, ds = _load_and_normalize(args.features, args.model)
    labels, _ = predict(model, ds.features.values)
    counts = confusion(labels, ds.labels, positive_class=args.positive_class)
    metrics = compute_metrics(counts)
    report = os.path.join(args.out, "metrics.txt")
    write_metrics_report(metrics, report)
    _echo_config(args.out, "evaluate", None,
                 {"features": args.features, "model": args.model,
                  "positive_class": args.positive_class})
    print(f"accuracy {metrics.accuracy*100:.2f}%  precision {metrics.precision*100:.2f}%  "
          f"recall {metrics.recall*100:.2f}%  f1 {metrics.f1*100:.2f}%")
    print(f"report at {report}")
    return 0


def cmd_predict(args) -> int:
    model, ds = _load_and_normalize(args.features, args.model)
    labels, probs = predict(model, ds.features.values)
    path = os.path.join(args.out, "predictions.tsv")
    with _replace_when_written(path) as fh:
        fh.write("row\tuser_id\tlabel\tp_spam\n")
        # Python ints and floats format as numpy scalars do, but faster; a
        # generator, so no list of every line is held at once.
        fh.writelines(f"{i}\t{uid}\t{lab}\t{p!r}\n" for i, (uid, lab, p) in
                      enumerate(zip(ds.user_ids, labels.tolist(),
                                    probs[:, 1].tolist())))
    _echo_config(args.out, "predict", None,
                 {"features": args.features, "model": args.model})
    print(f"wrote {len(labels)} predictions to {path}")
    return 0


def run_ablation(ds: LabeledDataset, config: TrainConfig, train_count: int,
                 features_file=None):
    """Train one model per feature scope plus the full set, shared seed.

    Returns rows ``(scope, n_features, accuracy, is_reference)``; accuracy
    is measured on the held-out rows when ``train_count`` leaves any,
    otherwise on the training rows. Scopes without features are skipped
    with a warning. A normalization error names ``features_file``, the
    file ``ds`` was read from, when given.
    """
    train_idx, test_idx = split_shuffle_batch(ds.n_rows, train_count, config.seed)
    eval_idx = test_idx if len(test_idx) > 0 else train_idx
    # Normalization fits and applies column by column, so one fit serves
    # every column subset.
    with naming(features_file):
        normed, stats = normalize(_rows(ds.features, train_idx), config.normalization)
        evaluated = apply_normalization(_rows(ds.features, eval_idx), stats)

    def run_subset(cols):
        result = train(normed.values[:, cols], ds.labels[train_idx], config)
        labels, _ = predict(result.model, evaluated.values[:, cols])
        return float((labels == ds.labels[eval_idx]).mean())

    rows = []
    for scope in SCOPES:
        cols = ds.features.columns_for_scope(scope)
        if not cols:
            warnings.warn(f"scope {scope!r} has no features; skipped")
            continue
        rows.append((scope, len(cols), run_subset(cols), False))
    rows.append(("full", ds.features.n_features,
                 run_subset(list(range(ds.features.n_features))), True))
    return rows


def cmd_ablate(args) -> int:
    ds = load_features(args.features)
    config = _resolve_config(args, ds.features.n_features)
    # the split checks the range
    train_count = ds.n_rows if args.train_count is None else args.train_count
    rows = run_ablation(ds, config, train_count,
                        os.path.join(args.features, "features.tsv"))
    with _replace_when_written(os.path.join(args.out, "ablation.tsv")) as fh:
        fh.write("scope\tn_features\taccuracy\treference\n")
        for scope, n_feat, acc, ref in rows:
            fh.write(f"{scope}\t{n_feat}\t{float(acc)!r}\t{'yes' if ref else 'no'}\n")
    _echo_config(args.out, "ablate", config,
                 {"features": args.features, "train_count": train_count})
    for scope, n_feat, acc, ref in rows:
        marker = " (reference)" if ref else ""
        print(f"{scope:10s} {n_feat:4d} features  accuracy {acc:.4f}{marker}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spamforest",
        description="Review-spam detection: feature extraction, screening, "
                    "training, evaluation, prediction, ablation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, training=False):
        p.add_argument("--out", required=True, help="output directory")
        if training:  # train and ablate read a TrainConfig
            p.add_argument("--config", help="config file (key = value lines)")
            p.add_argument("--seed", type=int, help="overrides the config seed")

    p = sub.add_parser("extract", help="compute features from raw reviews")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the per-user review subsample (default 0)")
    p.add_argument("--reviews", required=True, help="review file (JSON lines)")
    p.add_argument("--scores", required=True, help="user_id<TAB>score file")
    p.add_argument("--cap", type=int, default=20,
                   help="max reviews kept per user (default 20)")
    p.add_argument("--delimited", action="store_true",
                   help="reviews file is delimited text with a header row")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="screen features against labels")
    common(p)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--histograms", action="store_true",
                   help="also write per-feature histogram CSVs")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train a model on a feature directory")
    common(p, training=True)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--train-count", type=int, dest="train_count",
                   help="rows used for training; the rest are written to "
                        "<out>/heldout (default: all rows)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="confusion metrics of a model on features")
    common(p)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--positive-class", type=int, default=1, dest="positive_class",
                   choices=(0, 1), help="label treated as positive (default 1)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-row labels and probabilities")
    common(p)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--model", required=True, help="model file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="accuracy per feature scope plus full set")
    common(p, training=True)
    p.add_argument("--features", required=True, help="feature directory")
    p.add_argument("--train-count", type=int, dest="train_count",
                   help="rows used for training (default: all rows)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
