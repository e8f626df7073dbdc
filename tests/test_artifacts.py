"""The model file's streamed writer, and every JSON input under mutation.

`save_model` writes its lists a chunk at a time, the vocabulary's fields
as `save_vocabulary` gives them; the bytes must be those of one
`json.dumps` of the whole payload, which the writers built before they
streamed and which is kept here as the reference. A write that fails
partway leaves the previous file as it was. The fuzz tests mutate each
kind of JSON input JSON-aware: a trained model file through `predict`,
truth, solution and prediction files through the commands that read them,
and a `--config` file through `train`. Each run either succeeds or exits 2
with one ERROR line, never 1.
"""

from __future__ import annotations

import json
import logging
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from styleseam import cli, corpus
from styleseam.corpus import WRITE_CHUNK, write_json
from styleseam.features import HANDCRAFTED_WIDTH, Vocabulary, save_vocabulary
from styleseam.model import MODEL_FORMAT_VERSION, LinearModel, SavedModel, save_model
from styleseam.tokenization import TruncationConfig, TruncationStrategy

SPECIAL_WEIGHTS = [-0.0, 5e-324, 1e308, 1 / 3]
# A quote, a backslash, non-ASCII characters and a lone surrogate: each chunk escapes them as json.dumps does.
SPECIAL_TERMS = ['say"', "back\\slash", "naïve", "東京", "\ud800lone", "\U0001f600"]
SIZES = [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1]


def special_vocabulary(size: int, stopwords: frozenset[str] = frozenset()) -> Vocabulary:
    """`size` sorted terms, every chunk of them holding every kind of special term, with large frequencies."""
    terms = tuple(f"t{i:05d}{SPECIAL_TERMS[i % len(SPECIAL_TERMS)]}" for i in range(size))
    rng = np.random.default_rng(size)
    return Vocabulary(terms, rng.integers(1, 2**40, size=size, dtype=np.int64), 2**40, stopwords)


def reference_vocabulary_fields(vocab: Vocabulary) -> dict[str, object]:
    return {
        "document_count": vocab.document_count,
        "stopwords": sorted(vocab.stopwords),
        "terms": list(vocab.terms),
        "doc_freq": vocab.doc_freq.tolist(),
    }


def reference_model_bytes(saved: SavedModel) -> bytes:
    model, truncation = saved.model, saved.truncation
    payload = {"version": MODEL_FORMAT_VERSION, "strategy": truncation.strategy.value, "budget": truncation.budget}
    payload.update({"bias": model.bias, "lambda": model.l2, **reference_vocabulary_fields(saved.vocabulary)})
    return json.dumps({**payload, "weights": model.weights.tolist()}).encode("utf-8")


@pytest.mark.parametrize("terms", [0, 1, *SIZES, 2 * WRITE_CHUNK + 1])
def test_save_model_writes_the_bytes_of_one_dumps(tmp_path, terms):
    dimension = 2 * (terms + HANDCRAFTED_WIDTH)
    rng = np.random.default_rng(terms)
    weights = rng.normal(size=dimension) * 10.0 ** rng.integers(-300, 300, size=dimension)
    for position, weight in zip((0, WRITE_CHUNK - 1, WRITE_CHUNK, dimension - 1), SPECIAL_WEIGHTS):
        if 0 <= position < dimension:
            weights[position] = weight
    model = LinearModel(weights=weights, bias=-1 / 3, l2=1e-4)
    truncation = TruncationConfig(7, TruncationStrategy.LONGEST_FIRST)
    saved = SavedModel(model, special_vocabulary(terms, frozenset({"the", "ünd"})), truncation)
    path = tmp_path / "model.json"
    save_model(saved, path)
    assert path.read_bytes() == reference_model_bytes(saved)


@pytest.mark.parametrize("stopwords", [frozenset(), frozenset({"the", "ünd", 'a"b'})])
@pytest.mark.parametrize("size", [0, 1, *SIZES])
def test_save_vocabulary_writes_the_bytes_of_one_dumps(tmp_path, size, stopwords):
    """The fields `save_vocabulary` hands `save_model` stream as one dumps of the two lists would spell them."""
    vocab = special_vocabulary(size, stopwords)
    path = tmp_path / "fields.json"
    write_json(path, save_vocabulary(vocab))
    assert path.read_bytes() == json.dumps(reference_vocabulary_fields(vocab)).encode("utf-8")


# Raw JSON text for the replaced values; 1e400 and 10**400 cannot come from json.dumps of a Python value.
REPLACEMENTS = ["null", "true", "false", '"x"', "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1",
                str(2**63)]
MARK = "\x00replaced"


@pytest.fixture(scope="module")
def artifacts(synth_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-trained")
    argv = ["train", "--dataset-root", str(synth_corpus), "--difficulty", "easy", "--epochs", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorted(out.iterdir()) == [out / cli.MODEL_FILENAME]
    text = (out / cli.MODEL_FILENAME).read_text(encoding="utf-8")
    assert sorted(json.loads(text)) == KEYS  # so the pinned examples change what they say
    return synth_corpus, tmp_path_factory.mktemp("fuzz-run"), text


@st.composite
def mutations(draw):
    """(steps, action): where in the model file (see `mutate`) and which change."""
    return draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3)), draw(st.integers(0, 2**31))


# The first step of a walk picks among the model file's keys in sorted order.
KEYS = [
    "bias", "budget", "doc_freq", "document_count", "lambda", "stopwords", "strategy", "terms", "version", "weights"
]


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
@example(([KEYS.index("document_count")], "1" + "0" * 400))  # document_count 10**400: idf overflows a float
@example(([KEYS.index("version")], "2"))  # version 2, whose reader is gone
@example(([KEYS.index("budget")], "1"))  # a budget TruncationConfig rejects
@example(([KEYS.index("strategy")], '"middle"'))  # an unknown strategy
@example(([KEYS.index("terms"), 0], '"\\uffff"'))  # the first term now sorts after the second
@example(([KEYS.index("doc_freq"), 0], "1000000"))  # a document frequency above document_count
def test_predict_on_mutated_artifacts_exits_0_or_2(artifacts, mutation):
    corpus_root, run, text = artifacts
    steps, action = mutation
    (run / cli.MODEL_FILENAME).write_text(mutate(text, steps, action), encoding="utf-8")
    argv = ["predict", "--dataset-root", corpus_root, "--difficulty", "easy", "--split", "validation"]
    assert_exit_0_or_2([*argv, "--model", run / cli.MODEL_FILENAME, "--out", run / "out"])


def assert_exit_0_or_2(argv: list[object]) -> None:
    """`cli.main(argv)` exits 0, or 2 with exactly one ERROR line and no traceback."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("styleseam")
    logger.addHandler(handler)
    try:
        code = cli.main([str(arg) for arg in argv])
    finally:
        logger.removeHandler(handler)
    errors = [r for r in records if r.levelno >= logging.ERROR]
    assert code in (0, 2), [r.getMessage() for r in errors]
    assert (code == 2) == (len(errors) == 1)
    assert all(r.exc_info is None for r in errors)


@pytest.fixture(scope="module")
def inputs(pan_fixture, tmp_path_factory):
    """A copy of the fixture's easy/train split, a solution and a prediction for each of its pairs, and a config."""
    work = tmp_path_factory.mktemp("fuzz-inputs")
    split = work / "dataset" / "easy" / "train"
    shutil.copytree(pan_fixture / "easy" / "train", split)
    changes = {t.doc_id: t.changes for t in corpus.load_truth(split)}
    (work / "solutions").mkdir()
    for doc_id, labels in changes.items():
        (work / "solutions" / f"solution-problem-{doc_id}.json").write_text(json.dumps({"changes": labels}))
    lines = [
        json.dumps({"doc_id": doc_id, "pair_index": i, "score": 0.25 + label / 2, "source": "m"})
        for doc_id, labels in sorted(changes.items()) for i, label in enumerate(labels)
    ]
    for name in ("predictions.ndjson", "reference.ndjson"):
        (work / name).write_text("".join(line + "\n" for line in lines))
    (work / "stopwords.txt").write_text("the\nand\n")
    config = {
        "budget": 16, "dataset_root": str(work / "dataset"), "difficulty": "easy", "epochs": 1, "seed": 9,
        "split": "train", "stopwords": str(work / "stopwords.txt"), "strategy": "longest_first",
    }
    assert sorted(config) == CONFIG_KEYS  # so the pinned examples change what they say
    (work / "run.json").write_text(json.dumps(config))
    return work, sorted(changes)


# The first step of a walk in the config file picks among its keys in sorted order.
CONFIG_KEYS = ["budget", "dataset_root", "difficulty", "epochs", "seed", "split", "stopwords", "strategy"]


def mutate_file(path, steps: list[int], action: int | str, line: int | None = None) -> str:
    """Rewrite `path` with one value changed by `mutate`, in its whole text or in one of its lines; return the text."""
    text = path.read_text(encoding="utf-8")
    if line is None:
        path.write_text(mutate(text, steps, action), encoding="utf-8")
    else:
        lines = text.splitlines()
        lines[line % len(lines)] = mutate(lines[line % len(lines)], steps, action)
        path.write_text("".join(f"{entry}\n" for entry in lines), encoding="utf-8")
    return text


@pytest.mark.parametrize("kind", ["truth", "solution", "predictions"])
@settings(max_examples=20, deadline=None)
@given(mutations(), st.integers(0, 2**31))
def test_commands_on_mutated_exchange_files_exit_0_or_2(inputs, kind, mutation, at):
    """A truth file through `evaluate` and `train`, a solution file through `evaluate`, and one line of a
    predictions file through `solutions` and `ensemble`."""
    work, doc_ids = inputs
    split, out, predictions = work / "dataset" / "easy" / "train", work / "out", work / "predictions.ndjson"
    doc_id = doc_ids[at % len(doc_ids)]
    evaluate = ["evaluate", work / "solutions", split]
    path, line, runs = {
        "truth": (split / f"truth-problem-{doc_id}.json", None, [
            evaluate, ["train", "--dataset-root", work / "dataset", "--difficulty", "easy", "--out", out],
        ]),
        "solution": (work / "solutions" / f"solution-problem-{doc_id}.json", None, [evaluate]),
        "predictions": (predictions, at, [
            ["solutions", predictions, "--out", out],
            ["ensemble", predictions, *[work / "reference.ndjson"] * 2, "--mode", "majority", "--out", out],
        ]),
    }[kind]
    original = mutate_file(path, *mutation, line)
    try:
        for argv in runs:
            assert_exit_0_or_2(argv)
    finally:
        path.write_text(original, encoding="utf-8")


TOO_MANY_EPOCHS = "1" + "0" * 400  # above MAX_EPOCHS, and a step count no float holds


@settings(max_examples=40, deadline=None)
@given(mutations(), st.just(()))
@example(([CONFIG_KEYS.index("epochs")], TOO_MANY_EPOCHS), ())
@example(([CONFIG_KEYS.index("epochs")], str(2**63)), ())  # a count that would train for ever
@example(([CONFIG_KEYS.index("epochs")], "delete"), ("--epochs", TOO_MANY_EPOCHS))
def test_train_on_mutated_config_exits_0_or_2(inputs, mutation, flags):
    work, _ = inputs
    config = work / "run.json"
    original = mutate_file(config, *mutation)
    try:
        assert_exit_0_or_2(["train", "--config", config, *flags, "--out", work / "trained"])
    finally:
        config.write_text(original, encoding="utf-8")


def test_failed_model_write_leaves_the_previous_file(tmp_path, monkeypatch):
    """`write_json` writes beside the model file and renames: a writer that raises partway leaves the old bytes."""
    path = tmp_path / cli.MODEL_FILENAME
    saved = SavedModel(LinearModel(np.arange(12.0), 0.5, 1e-4), special_vocabulary(1), TruncationConfig())
    save_model(saved, path)
    before = path.read_bytes()
    dumps, calls = json.dumps, []

    def failing_dumps(value, *args, **kwargs):
        calls.append(value)
        if len(calls) == 5:
            raise OSError("disk full")
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(corpus.json, "dumps", failing_dumps)
    bigger = SavedModel(LinearModel(np.ones(14), -1.0, 1e-3), special_vocabulary(2), TruncationConfig())
    with pytest.raises(OSError, match="disk full"):
        save_model(bigger, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]  # the temporary file is gone
    save_model(bigger, path)
    assert path.read_bytes() == reference_model_bytes(bigger)
