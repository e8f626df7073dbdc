"""The benchmark's traced run wraps styleseam functions by module attribute.

`perfbench/layers.py` names, per module, the functions it wraps, and
counts SGD steps through `model.warmup_schedule`, one call per batch of
`model.BATCH_SIZE` pairs. A rename, a move to another module or a call
that bypasses the module namespace would make `--trace 1` fail or read
zeros without any test noticing; these tests read the benchmark's tables
and change nothing under `perfbench/`. Its `load_model` hook reads
`.dimension` from what `load_model` returns.
"""

from __future__ import annotations

import importlib
import math
import pathlib
import sys

import pytest

from styleseam import model as model_mod

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
COUNTED = {"features": ("word_tokens",), "model": ("warmup_schedule",)}


@pytest.fixture(scope="module")
def layers():
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("layers")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write


@pytest.fixture
def modules(layers) -> dict[str, object]:
    return {layer: importlib.import_module(f"styleseam.{layer}") for layer in layers.SPANS}


def wrapped_names(layers) -> list[tuple[str, str]]:
    names = [(layer, function) for layer, functions in layers.SPANS.items() for function in functions]
    return names + [(layer, function) for layer, functions in COUNTED.items() for function in functions]


def test_every_traced_function_exists(layers, modules):
    for layer, function in wrapped_names(layers):
        assert callable(getattr(modules[layer], function, None)), f"styleseam.{layer}.{function}"


def test_traced_train_counts_and_uninstall_restores(layers, modules, pan_fixture, tmp_path):
    owners = [(modules[layer], function) for layer, function in wrapped_names(layers)]
    owners.append((pathlib.Path, "read_text"))
    originals = [getattr(owner, attr) for owner, attr in owners]
    dataset = ["--dataset-root", str(pan_fixture), "--difficulty", "easy"]

    state = layers.install(modules)
    try:
        assert all(getattr(owner, attr) is not original for (owner, attr), original in zip(owners, originals))
        assert modules["cli"].main(["train", *dataset, "--out", str(tmp_path)]) == 0
        trained = layers.metrics(state)
        state.tracer.counters["model.dimension"] = 0  # so only the load_model hook can set it again
        model = str(tmp_path / "model.json")
        argv = ["predict", *dataset, "--split", "validation", "--model", model, "--out", str(tmp_path / "pred")]
        assert modules["cli"].main(argv) == 0
    finally:
        state.tracer.uninstall()
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(owners, originals))

    traced = layers.metrics(state)
    pairs = 7  # easy/train of the bundled fixture
    assert traced["model.sgd_steps"] == model_mod.TrainConfig().epochs * math.ceil(pairs / model_mod.BATCH_SIZE)
    assert traced["features.vocab_terms"] > 0
    assert trained["model.dimension"] == 2 * (trained["features.vocab_terms"] + 5)
    assert traced["model.dimension"] == trained["model.dimension"] > 0  # read off the model file predict loaded
    assert traced["model.predict_calls"] == 1 and traced["evaluation.solution_files"] > 0
    assert traced["features.word_tokens_calls"] > 0
    assert traced["corpus.bytes_read"] > 0
