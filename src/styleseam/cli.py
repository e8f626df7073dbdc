"""Command-line pipeline: stats, train, predict, evaluate, ensemble, solutions.

Conventions: logs go to stderr, data to stdout or files; exit code 0 means
success, 1 internal failure, 2 user/format error. All randomness funnels
through --seed so reruns are byte-identical.

A setting resolves as: explicit flag, then --config file key, then
$STYLE_SEAM_DATASET (dataset root only), then the flag's default: the
TruncationConfig / TrainConfig field default, except that `predict` takes
its truncation from the model file and rejects a setting that disagrees.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import corpus, evaluation, model as model_mod
from .corpus import Difficulty
from .errors import StyleSeamError, UsageError
from .model import EnsembleMode, TrainConfig
from .tokenization import TruncationConfig, TruncationStrategy

logger = logging.getLogger("styleseam")

DATASET_ENV_VAR = "STYLE_SEAM_DATASET"

MODEL_FILENAME = "model.json"
PREDICTIONS_FILENAME = "predictions.ndjson"
REPORT_FILENAME = "report.json"

DIFFICULTIES = ("easy", "medium", "hard", "all")
STRATEGIES = tuple(s.value for s in TruncationStrategy)

# The keys a --config file may hold: each is the dest of the flag it stands
# in for, mapped to the JSON type or the choices that flag accepts.
CONFIG_KEYS: dict[str, type | tuple[str, ...]] = {
    "dataset_root": str,
    "difficulty": DIFFICULTIES,
    "split": corpus.SPLITS,
    "strategy": STRATEGIES,
    "budget": int,
    "seed": int,
    "epochs": int,
    "stopwords": str,
}


def _difficulties(args: argparse.Namespace) -> list[Difficulty]:
    if args.difficulty == "all":
        return list(Difficulty)
    return [Difficulty(args.difficulty)]


def _single_difficulty(args: argparse.Namespace) -> Difficulty:
    if args.difficulty == "all":
        raise UsageError("this command needs a single difficulty, not 'all'")
    return Difficulty(args.difficulty)


def _out_dir(args: argparse.Namespace) -> Path:
    """--out, created once there are results to write, so that a failed command leaves no directory."""
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _given(args: argparse.Namespace, *keys: str) -> dict[str, object]:
    """The settings among `keys` that a flag or config key supplied."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**_given(args, "epochs", "seed"))


def _split(args: argparse.Namespace, difficulty: Difficulty) -> tuple[Path, corpus.Listing]:
    """The directory of one split and its listing; a split without problem files is an error."""
    if args.dataset_root is None:
        raise UsageError(f"no dataset root given; pass --dataset-root or set {DATASET_ENV_VAR}")
    if not args.dataset_root.is_dir():
        raise FileNotFoundError(f"dataset root not found: {args.dataset_root}")
    directory = corpus.split_directory(args.dataset_root, difficulty, args.split)
    listing = corpus.list_split(directory)
    if not listing[0]:
        raise UsageError(f"no documents found in {directory}")
    return directory, listing


def _write_predictions(records: list[model_mod.PredictionRecord], out: Path) -> int:
    model_mod.save_predictions(records, out / PREDICTIONS_FILENAME)
    written = evaluation.write_solutions(records, out)
    logger.info("wrote %d records and %d solution files to %s", len(records), written, out)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Per-split document/pair/label counts as JSON (stdout) and a table (stderr)."""
    payload: dict[str, dict[str, dict[str, int | None]]] = {}
    for difficulty in _difficulties(args):
        directory, listing = _split(args, difficulty)
        truths = corpus.load_truth(directory, listing=listing, check_lengths=False) or None  # none: unlabeled
        docs = corpus.iter_documents(directory, difficulty, listing)  # lengths are checked as documents stream
        stats = corpus.compute_stats(docs, truths)
        docs_n, pairs_n, zeros, ones = stats.document_count, stats.pair_count, stats.zeros_count, stats.ones_count
        payload[difficulty.value] = {args.split: {"documents": docs_n, "pairs": pairs_n, "zeros": zeros, "ones": ones}}
        labels = "unlabeled" if ones is None else f"zeros {zeros}, ones {ones}"
        print(f"{difficulty}/{args.split}: docs {docs_n}, pairs {pairs_n}, {labels}", file=sys.stderr)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Fit vocabulary and linear model on a labeled split; write the model file, which holds both."""
    from . import features  # only train and predict load numpy
    if args.split == "test":
        raise UsageError("cannot train on the unlabeled test split")
    truncation = TruncationConfig(**_given(args, "budget", "strategy"))
    train_config = _train_config(args)
    difficulty = _single_difficulty(args)

    directory, listing = _split(args, difficulty)
    truths = corpus.load_truth(directory, listing=listing, check_lengths=False)  # checked as documents stream
    docs = corpus.iter_documents(directory, difficulty, listing)
    fit = model_mod.train_split(docs, truths, features.load_stopwords(args.stopwords), truncation, train_config)
    logger.info("fitted vocabulary: %d terms over %d paragraphs", fit.vocabulary.size, fit.vocabulary.document_count)
    scores = (fit.objective, fit.correct / fit.pair_count, fit.correct, fit.pair_count)
    logger.info("final training objective %.6f, training accuracy %.4f (%d/%d)", *scores)
    out = _out_dir(args)
    model_mod.save_model(model_mod.SavedModel(fit.model, fit.vocabulary, truncation), out / MODEL_FILENAME)
    logger.info("wrote %s", out / MODEL_FILENAME)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Run a trained model over a split, truncated as in training; write predictions and solution files."""
    difficulty = _single_difficulty(args)
    saved = model_mod.load_model(args.model)
    given, cfg = _given(args, "strategy", "budget"), saved.truncation
    if any(value != getattr(cfg, key) for key, value in given.items()):
        flags = " ".join(f"--{key} {value}" for key, value in given.items())
        raise UsageError(f"{flags}: {args.model} was trained with --strategy {cfg.strategy} --budget {cfg.budget}")

    directory, listing = _split(args, difficulty)
    records = model_mod.predict_split(saved, corpus.iter_documents(directory, difficulty, listing))
    return _write_predictions(records, _out_dir(args))


def cmd_random_baseline(args: argparse.Namespace) -> int:
    """Seeded coin-flip predictions for a split, in the same output layout."""
    seed = _train_config(args).seed
    difficulty = _single_difficulty(args)
    directory, listing = _split(args, difficulty)
    records = model_mod.random_baseline(corpus.pair_keys(corpus.iter_documents(directory, difficulty, listing)), seed)
    return _write_predictions(records, _out_dir(args))


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score solution files against truth files; JSON to stdout, table to stderr."""
    gold = {t.doc_id: list(t.changes) for t in corpus.load_truth(args.truth_dir)}
    if not gold:
        raise UsageError(f"no truth files found in {args.truth_dir}")
    predicted = evaluation.read_solutions(args.pred_dir)
    entry = evaluation.macro_f1(gold, predicted, per_document=args.per_document)
    report = {args.difficulty: entry}
    print(evaluation.format_report_table(report), file=sys.stderr)
    text = evaluation.report_to_json(report)
    print(text)
    if args.out is not None:
        (_out_dir(args) / REPORT_FILENAME).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    """Combine prediction files; write the merged exchange-format file."""
    member_lists = [model_mod.load_external_predictions(path) for path in args.files]
    combined = model_mod.ensemble(member_lists, args.mode)
    out = _out_dir(args)
    model_mod.save_predictions(combined, out / PREDICTIONS_FILENAME)
    logger.info("wrote %d combined records to %s", len(combined), out / PREDICTIONS_FILENAME)
    return 0


def cmd_solutions(args: argparse.Namespace) -> int:
    """Turn an exchange-format predictions file into per-document solution files."""
    records = model_mod.load_external_predictions(args.predictions_file)
    out = _out_dir(args)
    written = evaluation.write_solutions(records, out)
    logger.info("wrote %d solution files to %s", written, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="styleseam",
        description="Paragraph-level writing style change detection toolkit",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", type=Path, help="JSON file of settings keyed by flag name, '_' for '-'")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument(
        "--dataset-root",
        type=Path,
        default=os.environ.get(DATASET_ENV_VAR) or None,
        help=f"dataset root directory (default: ${DATASET_ENV_VAR})",
    )
    dataset.add_argument("--difficulty", choices=DIFFICULTIES, default="all")
    dataset.add_argument("--split", choices=corpus.SPLITS, default="train")
    truncation = argparse.ArgumentParser(add_help=False)
    truncation.add_argument("--strategy", type=TruncationStrategy, choices=STRATEGIES)
    default_budget, default_seed = TruncationConfig._field_defaults["budget"], TrainConfig._field_defaults["seed"]
    truncation.add_argument(
        "--budget", type=int, help=f"total token budget per pair (default {default_budget}, or the model's)"
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help=f"seed for all randomness (default {default_seed})")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *parents):
        p = sub.add_parser(name, parents=list(parents), help=func.__doc__, description=func.__doc__)
        p.set_defaults(func=func, parser=p)
        return p

    command("stats", cmd_stats, config, dataset)

    p = command("train", cmd_train, config, dataset, truncation, seed)
    p.add_argument("--epochs", type=int)
    p.add_argument("--stopwords", type=Path, help="stopword file (default: bundled list)")
    p.add_argument("--out", type=Path, required=True, help="output directory for model artifacts")

    p = command("predict", cmd_predict, config, dataset, truncation)
    p.add_argument("--model", type=Path, required=True, help="model file from train")
    p.add_argument("--out", type=Path, required=True)

    p = command("random-baseline", cmd_random_baseline, config, dataset, seed)
    p.add_argument("--out", type=Path, required=True)

    p = command("evaluate", cmd_evaluate)
    p.add_argument("pred_dir", type=Path, help="directory of solution-problem-<N>.json files")
    p.add_argument("truth_dir", type=Path, help="directory of truth-problem-<N>.json files")
    p.add_argument("--difficulty", default="all", help="label for the report entry")
    p.add_argument("--per-document", action="store_true", help="average F1 per document (diagnostic)")
    p.add_argument("--out", type=Path, help="directory for report.json")

    p = command("ensemble", cmd_ensemble)
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("--mode", type=EnsembleMode, choices=list(EnsembleMode), required=True)
    p.add_argument("--out", type=Path, required=True)

    p = command("solutions", cmd_solutions)
    p.add_argument("predictions_file", type=Path)
    p.add_argument("--out", type=Path, required=True)

    return parser


def _config_values(path: Path, args: argparse.Namespace) -> dict[str, object]:
    """The values of a config file for the settings this command has.

    Keys of other commands' settings are skipped, so one file can serve
    several commands; unknown keys and mistyped values are errors.
    """
    raw = corpus.read_json(path, "config file")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise UsageError(f"config file {path} has unknown keys: {unknown}")
    values = {}
    for key, value in raw.items():
        if not hasattr(args, key):
            continue
        spec = CONFIG_KEYS[key]
        if isinstance(spec, tuple):
            if not isinstance(value, str) or value not in spec:
                raise UsageError(f"config file {path}: {key} must be one of {list(spec)}, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, spec):
            raise UsageError(f"config file {path}: {key} must be {spec.__name__}, got {value!r}")
        values[key] = value
    return values


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # Config values become the command's defaults, so explicit flags still win.
            args.parser.set_defaults(**_config_values(args.config, args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (StyleSeamError, OSError) as exc:
        logger.error("%s", exc)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        logger.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
