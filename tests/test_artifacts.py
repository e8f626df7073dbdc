"""The model and vocabulary files: streamed writers and the readers `predict` runs.

`save_model` and `save_vocabulary` write their lists a chunk at a time;
the bytes must be those of one `json.dumps` of the whole payload, which
the writers built before they streamed and which is kept here as the
reference. The fuzz test mutates trained files JSON-aware and requires
that `predict` either succeeds or exits 2 with one ERROR line, never 1.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from styleseam import cli
from styleseam.corpus import WRITE_CHUNK
from styleseam.features import VOCABULARY_FORMAT_VERSION, Vocabulary, save_vocabulary
from styleseam.model import MODEL_FORMAT_VERSION, LinearModel, save_model

SPECIAL_WEIGHTS = [-0.0, 5e-324, 1e308, 1 / 3]
# A quote, a backslash, non-ASCII characters and a lone surrogate: each chunk escapes them as json.dumps does.
SPECIAL_TERMS = ['say"', "back\\slash", "naïve", "東京", "\ud800lone", "\U0001f600"]
SIZES = [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1]


def reference_model_bytes(model: LinearModel) -> bytes:
    payload = {"version": MODEL_FORMAT_VERSION, "dimension": model.dimension, "bias": model.bias, "lambda": model.l2}
    return json.dumps({**payload, "weights": model.weights.tolist()}).encode("utf-8")


def reference_vocabulary_bytes(vocab: Vocabulary) -> bytes:
    payload = {
        "version": VOCABULARY_FORMAT_VERSION,
        "document_count": vocab.document_count,
        "terms": [[term, col, df] for col, (term, df) in enumerate(zip(vocab.terms, vocab.doc_freq.tolist()))],
        "stopwords": sorted(vocab.stopwords),
    }
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize("dimension", [0, 1, *SIZES, 2 * WRITE_CHUNK + 1])
def test_save_model_writes_the_bytes_of_one_dumps(tmp_path, dimension):
    rng = np.random.default_rng(dimension)
    weights = rng.normal(size=dimension) * 10.0 ** rng.integers(-300, 300, size=dimension)
    for position, weight in zip((0, WRITE_CHUNK - 1, WRITE_CHUNK, dimension - 1), SPECIAL_WEIGHTS):
        if 0 <= position < dimension:
            weights[position] = weight
    model = LinearModel(weights=weights, bias=-1 / 3, l2=1e-4)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_bytes() == reference_model_bytes(model)


@pytest.mark.parametrize("stopwords", [frozenset(), frozenset({"the", "ünd", 'a"b'})])
@pytest.mark.parametrize("size", [0, 1, *SIZES])
def test_save_vocabulary_writes_the_bytes_of_one_dumps(tmp_path, size, stopwords):
    # Sorted, and every chunk holds every kind of special term.
    terms = tuple(f"t{i:05d}{SPECIAL_TERMS[i % len(SPECIAL_TERMS)]}" for i in range(size))
    rng = np.random.default_rng(size)
    vocab = Vocabulary(terms, rng.integers(1, 2**40, size=size, dtype=np.int64), 2**40, stopwords)
    path = tmp_path / "vocabulary.json"
    save_vocabulary(vocab, path)
    assert path.read_bytes() == reference_vocabulary_bytes(vocab)


# Raw JSON text for the replaced values; 1e400 and 10**400 cannot come from json.dumps of a Python value.
REPLACEMENTS = ["null", "true", "false", '"x"', "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1",
                str(2**63)]
MARK = "\x00replaced"


@pytest.fixture(scope="module")
def artifacts(synth_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-trained")
    argv = ["train", "--dataset-root", str(synth_corpus), "--difficulty", "easy", "--epochs", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    texts = {name: (out / name).read_text(encoding="utf-8") for name in (cli.MODEL_FILENAME, cli.VOCABULARY_FILENAME)}
    return synth_corpus, tmp_path_factory.mktemp("fuzz-run"), texts


@st.composite
def mutations(draw):
    """(file, steps, action): which artifact, where in it (see `mutate`) and which change."""
    name = draw(st.sampled_from([cli.MODEL_FILENAME, cli.VOCABULARY_FILENAME]))
    return name, draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3)), draw(st.integers(0, 2**31))


def mutate(text: str, steps: list[int], action: int | str) -> str:
    """`text` with one value changed, deleted or duplicated.

    Each step picks a key or index of the current container, modulo its
    size, and the walk stops at the last step or at a scalar or empty
    value. An int `action` picks, modulo their number, a change that fits
    the container; a str is the raw JSON text to put there.
    """
    payload = json.loads(text)
    container = payload
    for depth, step in enumerate(steps):
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        key = keys[step % len(keys)]
        value = container[key]
        if depth == len(steps) - 1 or not isinstance(value, (dict, list)) or not value:
            break
        container = value
    actions = ["delete", *REPLACEMENTS] if isinstance(container, dict) else ["duplicate", "delete", *REPLACEMENTS]
    chosen = action if isinstance(action, str) else actions[action % len(actions)]
    if chosen == "delete":
        del container[key]
    elif chosen == "duplicate":
        container.insert(key, container[key])
    else:
        container[key] = MARK
        return json.dumps(payload).replace(json.dumps(MARK), chosen)
    return json.dumps(payload)


@settings(max_examples=100, deadline=None)
@given(mutations())
@example((cli.VOCABULARY_FILENAME, [0], "1" + "0" * 400))  # document_count 10**400: idf overflows a float
@example((cli.MODEL_FILENAME, [3], "1"))  # version 1, whose reader is gone
def test_predict_on_mutated_artifacts_exits_0_or_2(artifacts, mutation):
    corpus_root, run, texts = artifacts
    name, steps, action = mutation
    files = dict(texts)
    files[name] = mutate(texts[name], steps, action)
    for filename, text in files.items():
        (run / filename).write_text(text, encoding="utf-8")
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("styleseam")
    logger.addHandler(handler)
    try:
        argv = ["predict", "--dataset-root", str(corpus_root), "--difficulty", "easy", "--split", "validation"]
        code = cli.main([*argv, "--model", str(run / cli.MODEL_FILENAME), "--out", str(run / "out")])
    finally:
        logger.removeHandler(handler)
    errors = [r for r in records if r.levelno >= logging.ERROR]
    assert code in (0, 2), [r.getMessage() for r in errors]
    assert (code == 2) == (len(errors) == 1)
    assert all(r.exc_info is None for r in errors)
