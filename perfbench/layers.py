"""Which styleseam calls the traced run wraps, and the per-layer metrics they give.

Layers are the package modules. Each public function the CLI reaches gets
a span named ``<module>.<function>``; ``features.word_tokens`` and
``model.warmup_schedule`` (one call per SGD step) are hot, so they only
count calls. Counts are taken at the same boundaries as the spans.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from statistics import median

from tracer import Tracer, self_times

# name -> (unit, better); the full per-layer set, printed by every traced run.
METRICS: dict[str, tuple[str, str]] = {
    "corpus.load_documents_s": ("s", "lower"),
    "corpus.load_truth_s": ("s", "lower"),
    "corpus.build_pairs_s": ("s", "lower"),
    "corpus.bytes_read": ("bytes", "lower"),
    "corpus.read_amplification": ("ratio", "lower"),
    "tokenization.tokenize_s": ("s", "lower"),
    "tokenization.tokenize_calls": ("count", "lower"),
    "tokenization.tokens": ("count", "lower"),
    "tokenization.truncate_s": ("s", "lower"),
    "tokenization.pairs_cut": ("count", "higher"),
    "tokenization.cut_ratio": ("ratio", "higher"),
    "features.fit_vocabulary_s": ("s", "lower"),
    "features.vocab_terms": ("count", "lower"),
    "features.pair_features_s": ("s", "lower"),
    "features.pair_features_calls": ("count", "lower"),
    "features.nnz": ("count", "lower"),
    "features.word_tokens_calls": ("count", "lower"),
    "features.scans_per_paragraph": ("ratio", "lower"),
    "features.vocab_io_s": ("s", "lower"),
    "model.train_linear_svm_s": ("s", "lower"),
    "model.sgd_steps": ("count", "lower"),
    "model.dimension": ("count", "lower"),
    "model.hinge_objective_s": ("s", "lower"),
    "model.predict_s": ("s", "lower"),
    "model.predict_calls": ("count", "lower"),
    "model.model_io_s": ("s", "lower"),
    "model.ensemble_s": ("s", "lower"),
    "model.predictions_io_s": ("s", "lower"),
    "model.random_baseline_s": ("s", "lower"),
    "evaluation.write_solutions_s": ("s", "lower"),
    "evaluation.solution_files": ("count", "lower"),
    "evaluation.read_solutions_s": ("s", "lower"),
    "evaluation.macro_f1_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Times of layers that some workload never calls read exactly 0.0 s on every
# run of that workload; they are printed and saved, but only the times every
# workload exercises go into BENCHMARK.json's per_layer list.
WORKLOAD_SPECIFIC_TIMES = frozenset(
    {
        "tokenization.tokenize_s",
        "tokenization.truncate_s",
        "features.fit_vocabulary_s",
        "features.pair_features_s",
        "features.vocab_io_s",
        "model.train_linear_svm_s",
        "model.hinge_objective_s",
        "model.predict_s",
        "model.model_io_s",
        "model.ensemble_s",
        "model.random_baseline_s",
    }
)
REPORTED = [name for name in METRICS if name not in WORKLOAD_SPECIFIC_TIMES]

SPANS = {
    "corpus": ("load_documents", "load_truth", "build_pairs"),
    "tokenization": ("tokenize", "truncate"),
    "features": ("load_stopwords", "fit_vocabulary", "pair_features", "save_vocabulary", "load_vocabulary"),
    "model": (
        "train_linear_svm",
        "hinge_objective",
        "predict",
        "save_model",
        "load_model",
        "random_baseline",
        "ensemble",
        "load_external_predictions",
        "save_predictions",
    ),
    "evaluation": ("write_solutions", "read_solutions", "macro_f1"),
    "cli": ("main",),
}


@dataclass
class Instrumented:
    """One traced pass: the tracer plus what its hooks collect beyond counters."""

    tracer: Tracer = field(default_factory=Tracer)
    paragraphs: set[str] = field(default_factory=set)
    files_read: dict[str, int] = field(default_factory=dict)


def install(modules: dict[str, object]) -> Instrumented:
    """Wrap the SPANS functions of `modules` (short name -> module); undo with tracer.uninstall()."""
    state = Instrumented()
    tracer, counters = state.tracer, state.tracer.counters

    def on_tokenize(args, kwargs, tokens):
        counters["tokenization.tokens"] += len(tokens)

    def on_truncate(args, kwargs, kept):
        left, right = args[0], args[1]
        if len(kept[0]) + len(kept[1]) < len(left) + len(right):
            counters["tokenization.pairs_cut"] += 1

    def on_vocabulary(args, kwargs, vocab):
        counters["features.vocab_terms"] = vocab.size

    def on_pair_features(args, kwargs, vector):
        counters["features.nnz"] += len(vector.indices)
        state.paragraphs.add(args[0].left)
        state.paragraphs.add(args[0].right)

    def on_model(args, kwargs, model):
        counters["model.dimension"] = model.dimension

    def on_write_solutions(args, kwargs, written):
        counters["evaluation.solution_files"] += written

    hooks = {
        "tokenization.tokenize": on_tokenize,
        "tokenization.truncate": on_truncate,
        "features.fit_vocabulary": on_vocabulary,
        "features.pair_features": on_pair_features,
        "model.train_linear_svm": on_model,
        "model.load_model": on_model,
        "evaluation.write_solutions": on_write_solutions,
    }
    for layer, functions in SPANS.items():
        module = modules[layer]
        for function in functions:
            name = f"{layer}.{function}"
            tracer.install(module, function, tracer.span(name, getattr(module, function), hooks.get(name)))
    features, model = modules["features"], modules["model"]
    tracer.install(
        features,
        "word_tokens",
        tracer.counted("features.word_tokens", features.word_tokens, inside="features.pair_features"),
    )
    tracer.install(model, "warmup_schedule", tracer.counted("model.sgd_steps", model.warmup_schedule))

    read_text = pathlib.Path.read_text

    def counting_read_text(path, *args, **kwargs):
        text = read_text(path, *args, **kwargs)
        if tracer.current.startswith("corpus."):
            size = os.stat(path).st_size
            counters["corpus.bytes_read"] += size
            state.files_read[str(path)] = size
        return text

    tracer.install(pathlib.Path, "read_text", counting_read_text)
    return state


def metrics(state: Instrumented) -> dict[str, float]:
    """Per-layer figures of one traced pass (startup and overhead are added by the caller)."""
    spans = state.tracer.spans
    counters = state.tracer.counters
    own = self_times(spans)
    calls: dict[str, int] = {}
    for _, _, name, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1

    def seconds(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    # The CLI tokenizes both sides of every pair once before truncating.
    pairs_tokenized = calls.get("tokenization.tokenize", 0) / 2
    distinct_bytes = sum(state.files_read.values())
    return {
        "corpus.load_documents_s": seconds("corpus.load_documents"),
        "corpus.load_truth_s": seconds("corpus.load_truth"),
        "corpus.build_pairs_s": seconds("corpus.build_pairs"),
        "corpus.bytes_read": counters["corpus.bytes_read"],
        "corpus.read_amplification": counters["corpus.bytes_read"] / distinct_bytes if distinct_bytes else 0.0,
        "tokenization.tokenize_s": seconds("tokenization.tokenize"),
        "tokenization.tokenize_calls": calls.get("tokenization.tokenize", 0),
        "tokenization.tokens": counters["tokenization.tokens"],
        "tokenization.truncate_s": seconds("tokenization.truncate"),
        "tokenization.pairs_cut": counters["tokenization.pairs_cut"],
        "tokenization.cut_ratio": counters["tokenization.pairs_cut"] / pairs_tokenized if pairs_tokenized else 0.0,
        "features.fit_vocabulary_s": seconds("features.fit_vocabulary"),
        "features.vocab_terms": counters["features.vocab_terms"],
        "features.pair_features_s": seconds("features.pair_features"),
        "features.pair_features_calls": calls.get("features.pair_features", 0),
        "features.nnz": counters["features.nnz"],
        "features.word_tokens_calls": counters["features.word_tokens"],
        "features.scans_per_paragraph": (
            counters["features.word_tokens@features.pair_features"] / len(state.paragraphs)
            if state.paragraphs
            else 0.0
        ),
        "features.vocab_io_s": seconds(
            "features.load_stopwords", "features.save_vocabulary", "features.load_vocabulary"
        ),
        "model.train_linear_svm_s": seconds("model.train_linear_svm"),
        "model.sgd_steps": counters["model.sgd_steps"],
        "model.dimension": counters["model.dimension"],
        "model.hinge_objective_s": seconds("model.hinge_objective"),
        "model.predict_s": seconds("model.predict"),
        "model.predict_calls": calls.get("model.predict", 0),
        "model.model_io_s": seconds("model.save_model", "model.load_model"),
        "model.ensemble_s": seconds("model.ensemble"),
        "model.predictions_io_s": seconds("model.load_external_predictions", "model.save_predictions"),
        "model.random_baseline_s": seconds("model.random_baseline"),
        "evaluation.write_solutions_s": seconds("evaluation.write_solutions"),
        "evaluation.solution_files": counters["evaluation.solution_files"],
        "evaluation.read_solutions_s": seconds("evaluation.read_solutions"),
        "evaluation.macro_f1_s": seconds("evaluation.macro_f1"),
        "cli.self_s": seconds("cli.main"),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in passes) for name in passes[0]}
