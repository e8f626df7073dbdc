"""Recorded outputs of train, predict and evaluate on the synthetic corpus (seed 77).

The digests were taken from the pipeline before featurization moved to a
paragraph table; any change to how features are computed must keep them.
`model.json` and `predictions.ndjson` are not pinned: their last bits depend
on the CPU's BLAS dot kernel.
"""

from __future__ import annotations

import hashlib
import logging

import pytest

from styleseam import cli

# (strategy, budget) -> (vocabulary.json, solution files, report.json, objective line)
EXPECTED = {
    ("transition", 512): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "58aaedf04e8593608daa46f26ae14d75c4e0337258d38eb9b6344d6606e144d7",
        "2e9fc0a37600eeffef67098ae99bf6d06236b1cc6e4389aa749e3539382edc0b",
        "final training objective 0.418356, training accuracy 0.8576 (247/288)",
    ),
    ("longest_first", 16): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "9e406928f3fac4a9a40e8fd299dac5d42de064a77ae8564f57ca4fa13e1daf3d",
        "7d30c1807f3e6d90cef7a33a5ef06cd843dcc13e2171b720a9d3d56acf80ba1b",
        "final training objective 0.586455, training accuracy 0.7257 (209/288)",
    ),
    ("transition", 9): (
        "812d7783d5eb6f6c2c0284509b7fe0473e6a00583e3727fe9a10d94ae284d223",
        "3ac2eb47050594909c73857def1e6b7cbb7e04bf065a8cfcb70c02149459df0f",
        "4a71432524bbf496389005181f07a223ae5ca0387644a0c2f84114c202b17988",
        "final training objective 0.676660, training accuracy 0.5833 (168/288)",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("strategy", "budget"), list(EXPECTED))
def test_outputs_match_recorded_digests(synth_corpus, tmp_path, caplog, capsys, strategy, budget):
    data = ["--dataset-root", str(synth_corpus), "--difficulty", "easy"]
    truncation = ["--strategy", strategy, "--budget", str(budget)]
    model_dir, pred_dir = tmp_path / "model", tmp_path / "pred"
    with caplog.at_level(logging.INFO, logger="styleseam"):
        assert cli.main(["train", *data, *truncation, "--out", str(model_dir)]) == 0
    messages = [record.getMessage() for record in caplog.records]
    [objective] = [m for m in messages if m.startswith("final training objective")]
    assert cli.main(
        ["predict", *data, "--split", "validation", *truncation,
         "--model", str(model_dir / cli.MODEL_FILENAME), "--out", str(pred_dir)]
    ) == 0
    truth_dir = synth_corpus / "easy" / "validation"
    evaluate = ["evaluate", str(pred_dir), str(truth_dir), "--difficulty", "easy", "--out", str(pred_dir)]
    assert cli.main(evaluate) == 0
    capsys.readouterr()

    solutions = sorted(pred_dir.glob("solution-problem-*.json"))
    assert len(solutions) == 50
    # One digest over every solution file's name and sha256.
    manifest = "".join(f"{path.name} {_sha256(path.read_bytes())}\n" for path in solutions)
    actual = (
        _sha256((model_dir / cli.VOCABULARY_FILENAME).read_bytes()),
        _sha256(manifest.encode()),
        _sha256((pred_dir / cli.REPORT_FILENAME).read_bytes()),
        objective,
    )
    assert actual == EXPECTED[(strategy, budget)]
