"""Recorded outputs of train, predict and evaluate on the synthetic corpus (seed 77).

The digests were taken from the pipeline before featurization moved to a
paragraph table; any change to how features are computed must keep them.
The non-ASCII corpus's digests were taken before train and predict streamed
their documents and cut a truncated side's row out of its paragraph's scan.
The `stats` and `random-baseline` digests were taken before those two
commands streamed their documents.
The first digest of each entry is that of the vocabulary file train wrote
until the model file came to hold the vocabulary: the vocabulary of
`model.json`, spelled in that file's layout, must keep it.
`model.json` and `predictions.ndjson` are pinned since no value they hold
goes through a BLAS dot, whose last bits depend on the CPU's kernel (see
`test_cross_kernel.py`). They, the objective lines and the longest_first
solution files and report of the synthetic corpus were taken when the
SGD's order came to be drawn from `random.Random`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from pathlib import Path

import pytest

from styleseam import cli
from styleseam.features import Vocabulary
from styleseam.model import load_model
from synthdata import generate_corpus

# (strategy, budget) -> (the vocabulary, model.json, predictions.ndjson, solution files, report.json, objective line)
EXPECTED = {
    ("transition", 512): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "3db450c568429b9ce690ce18254b00eeff0534074634561d7b488777234c1a14",
        "7626480f3d43380dd755197439c7116ca56f389e65eb968d7cd8749a0ba6cdfc",
        "58aaedf04e8593608daa46f26ae14d75c4e0337258d38eb9b6344d6606e144d7",
        "2e9fc0a37600eeffef67098ae99bf6d06236b1cc6e4389aa749e3539382edc0b",
        "final training objective 0.421127, training accuracy 0.8576 (247/288)",
    ),
    ("longest_first", 16): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "d02fe81c6efd88200f5f81c7b002218241b1a02a87aec7dd23bb89e1b3a012f1",
        "affd0217dbb3522e0ed4f115e8cb45122559cd17b43fef2452c81afae7dcd9ef",
        "bdcab1b2cb7a64a5491307c998ce982fe2a0de939a251a83dd4c5af2d2916c8b",
        "925858b3fddfb517e316d2960f2ab09faabad6db805db131f8da463bb9add360",
        "final training objective 0.588631, training accuracy 0.7118 (205/288)",
    ),
    ("transition", 9): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "11a111e5f8016a2b611dffbfb29ff0a127afb1ba83345e2f8b6e06a64db4dbd8",
        "5be76928fc5dcf9ba428bfb1152aabd7d79f816c5174b11586d7cc94d4c4338f",
        "3ac2eb47050594909c73857def1e6b7cbb7e04bf065a8cfcb70c02149459df0f",
        "4a71432524bbf496389005181f07a223ae5ca0387644a0c2f84114c202b17988",
        "final training objective 0.680206, training accuracy 0.5694 (164/288)",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_vocabulary_bytes(vocab: Vocabulary) -> bytes:
    """The bytes of the version-1 vocabulary file of `vocab`: one `json.dumps`, terms as [term, column, df]."""
    payload = {
        "version": 1,
        "document_count": vocab.document_count,
        "terms": [[term, col, df] for col, (term, df) in enumerate(zip(vocab.terms, vocab.doc_freq.tolist()))],
        "stopwords": sorted(vocab.stopwords),
    }
    return json.dumps(payload).encode("utf-8")


def _manifest(directory: Path) -> bytes:
    """Every solution file's name and sha256, one line each, for one digest over them all."""
    solutions = sorted(directory.glob("solution-problem-*.json"))
    return "".join(f"{path.name} {_sha256(path.read_bytes())}\n" for path in solutions).encode()


# Non-ASCII words the non-ASCII corpus inserts: a sigma before punctuation lowercases to a final
# sigma once truncation joins its kept tokens with spaces, and "İ" lowercases to two characters.
NON_ASCII_WORDS = ["ΑΣ.Β", "ΟΔΟΣ.", "(ΣΑΣ)", "İstanbul", "İ", "naïve", "Straße", "ΌΣΟΣ?", "café's", "東京"]

NON_ASCII_EXPECTED = {
    ("longest_first", 16): (
        "3a5cd728737ae5a08a2ec434e45751741621275e89e9c60e89202355b3eacbe9",
        "75d38e10eda1a45ae401d7eaca4217c2eaff6fa0e8da1613af268863be41d917",
        "2bc4c3bbbe13d3cf2e19b567b9babd73a63ea9a85ee7e4b1e2afb506d6b4fe93",
        "c5f9cf053aca7322f6af30f5cc3b16a26c83e8223061bf574db4c120730c677f",
        "98ff33c520827b8457dbcb9a8670da81fa2aaa25d37787f2671af74567c833d1",
        "final training objective 0.253050, training accuracy 0.9233 (265/287)",
    ),
    ("transition", 9): (
        "3a5cd728737ae5a08a2ec434e45751741621275e89e9c60e89202355b3eacbe9",
        "51aaddd811f19ee968899eb472a9b8fd9678dac7aac03baabba2432012e7f973",
        "734b480b920d839b52abc8bbafd9d25eb3500cbccd792e2b348380bca6055a11",
        "675d8b757820bbe44b6fc3d2378e62cff3505e79b38fee7732d89b8cc4bcd028",
        "c052968a5435237496c075b1ecf4548ce193ae99ea8ff004a8cb3bf2e75aa4c6",
        "final training objective 0.386027, training accuracy 0.8920 (256/287)",
    ),
    ("transition", 512): (
        "3a5cd728737ae5a08a2ec434e45751741621275e89e9c60e89202355b3eacbe9",
        "cc59d93d6b80fc7c6082afbd7c807752d75efbe86de338cb63b36564e51cdce5",
        "619c5f573f5c6d31cc77b2986716223b8722921757ded250575fef4f6e87dcf2",
        "b19a3e223d5f89eae8ff0161d77ffae39af241a148259ac67cd69d995ce1f01c",
        "de4547736df6ba8ecae3f1d6a6f848fc7ee69b2624374fcef1d6591504488c30",
        "final training objective 0.156104, training accuracy 0.9547 (274/287)",
    ),
}


@pytest.fixture(scope="module")
def non_ascii_corpus(tmp_path_factory) -> Path:
    """The synthetic corpus (seed 53) with a non-ASCII word put into about half its paragraphs."""
    root = generate_corpus(tmp_path_factory.mktemp("non_ascii"), n_train=100, n_validation=40, seed=53)
    rng = random.Random(53)
    for path in sorted(root.glob("easy/*/problem-*.txt"), key=lambda path: (path.parent.name, path.name)):
        paragraphs = path.read_text(encoding="utf-8").splitlines()
        for i, paragraph in enumerate(paragraphs):
            if rng.random() < 0.5:
                words = paragraph.split(" ")
                words.insert(rng.randrange(len(words) + 1), rng.choice(NON_ASCII_WORDS))
                paragraphs[i] = " ".join(words)
        path.write_text("\n".join(paragraphs) + "\n", encoding="utf-8")
    return root


# corpus -> (stats stdout and stderr of train and validation, random-baseline's predictions.ndjson and solution files)
SPLIT_EXPECTED = {
    "pan_fixture": (
        "76d8e852517866db0979d0ba83ddc55b287a478c6cc11272448b3a7790fb0080",
        "59c3ebc2176d02c9c5fdb5c753a9fcf22dd00b0c87cae6a7ba8469c3d92a4488",
        "08b3cb983dc8e1beb934a50617215260f4bb8c5a85b29b02190169179835c221",
    ),
    "synth_corpus": (
        "0538fc12f7e19d72b55a1e0e0f10da8ada0219605d1aa862e3c0be89840ce085",
        "8f7c772cf4cccea670301152a6512c52896cadc76bc60a13078b3d7d1233d695",
        "edde3ba81166fd06baebd040d2be490e2df1e7cbb644ff099be100f1d9b582f0",
    ),
    "non_ascii_corpus": (
        "53a5d568732036accb6c05b4a9503a13ff65606ef34ceaf94fd7d60baddee3ee",
        "269d5f05ecd72541d7330c1a906f0cde48a163bfd58d237e237e4a5ae478f392",
        "5345cc04f5975b0e41fa9830bc6906fa6a89ee0687ef205c88ad45af7b99adb5",
    ),
}


@pytest.mark.parametrize("corpus", list(SPLIT_EXPECTED))
def test_stats_and_random_baseline_match_recorded_digests(request, tmp_path, capsys, corpus):
    """`stats` over every difficulty the corpus has, and `random-baseline` on its easy validation split."""
    root = request.getfixturevalue(corpus)
    difficulty = "all" if corpus == "pan_fixture" else "easy"
    stats = ""
    for split in ("train", "validation"):
        assert cli.main(["stats", "--dataset-root", str(root), "--difficulty", difficulty, "--split", split]) == 0
        captured = capsys.readouterr()
        stats += f"{captured.out}\0{captured.err}\0"
    out = tmp_path / "random"
    data = ["--dataset-root", str(root), "--difficulty", "easy", "--split", "validation"]
    assert cli.main(["random-baseline", *data, "--seed", "7", "--out", str(out)]) == 0
    predictions = (out / cli.PREDICTIONS_FILENAME).read_bytes()
    actual = (_sha256(stats.encode()), _sha256(predictions), _sha256(_manifest(out)))
    assert actual == SPLIT_EXPECTED[corpus]


@pytest.mark.parametrize(("strategy", "budget"), list(EXPECTED))
def test_outputs_match_recorded_digests(synth_corpus, tmp_path, caplog, capsys, strategy, budget):
    assert _outputs(synth_corpus, 50, tmp_path, caplog, capsys, strategy, budget) == EXPECTED[(strategy, budget)]


@pytest.mark.parametrize(("strategy", "budget"), list(NON_ASCII_EXPECTED))
def test_non_ascii_outputs_match_recorded_digests(non_ascii_corpus, tmp_path, caplog, capsys, strategy, budget):
    """Cut pairs with non-ASCII sides, at budgets that cut nearly every pair, and uncut at 512."""
    actual = _outputs(non_ascii_corpus, 40, tmp_path, caplog, capsys, strategy, budget, ["--epochs", "20"])
    assert actual == NON_ASCII_EXPECTED[(strategy, budget)]


def _outputs(root, documents, tmp_path, caplog, capsys, strategy, budget, flags=()) -> tuple[str, ...]:
    """Digests of the vocabulary, model.json, predictions.ndjson, the solution files and report.json, and train's
    objective line."""
    data = ["--dataset-root", str(root), "--difficulty", "easy"]
    truncation = ["--strategy", strategy, "--budget", str(budget)]
    model_dir, pred_dir = tmp_path / "model", tmp_path / "pred"
    with caplog.at_level(logging.INFO, logger="styleseam"):
        assert cli.main(["train", *data, *truncation, *flags, "--out", str(model_dir)]) == 0
    messages = [record.getMessage() for record in caplog.records]
    [objective] = [m for m in messages if m.startswith("final training objective")]
    assert cli.main(
        ["predict", *data, "--split", "validation", *truncation,
         "--model", str(model_dir / cli.MODEL_FILENAME), "--out", str(pred_dir)]
    ) == 0
    truth_dir = root / "easy" / "validation"
    evaluate = ["evaluate", str(pred_dir), str(truth_dir), "--difficulty", "easy", "--out", str(pred_dir)]
    assert cli.main(evaluate) == 0
    capsys.readouterr()

    assert len(list(pred_dir.glob("solution-problem-*.json"))) == documents
    return (
        _sha256(reference_vocabulary_bytes(load_model(model_dir / cli.MODEL_FILENAME).vocabulary)),
        _sha256((model_dir / cli.MODEL_FILENAME).read_bytes()),
        _sha256((pred_dir / cli.PREDICTIONS_FILENAME).read_bytes()),
        _sha256(_manifest(pred_dir)),
        _sha256((pred_dir / cli.REPORT_FILENAME).read_bytes()),
        objective,
    )
