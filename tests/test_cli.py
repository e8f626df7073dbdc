from __future__ import annotations

import json
import logging
import re
import shutil
import warnings
from pathlib import Path

import pytest

from styleseam import cli, corpus
from synthdata import generate_corpus


NEGATIVE_SEED = "seed must be a non-negative integer, got -1"


def run_cli(capsys, *args: str) -> tuple[int, str]:
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture(scope="session")
def trained(synth_corpus, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("trained")
    code = cli.main(
        [
            "train",
            "--dataset-root", str(synth_corpus),
            "--difficulty", "easy",
            "--split", "train",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestStats:
    def test_fixture_counts(self, capsys, pan_fixture):
        code, out = run_cli(
            capsys, "stats", "--dataset-root", pan_fixture, "--difficulty", "easy", "--split", "train"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["easy"]["train"] == {"documents": 4, "pairs": 7, "zeros": 3, "ones": 4}

    def test_all_difficulties(self, capsys, pan_fixture):
        code, out = run_cli(
            capsys, "stats", "--dataset-root", pan_fixture, "--difficulty", "all", "--split", "validation"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"easy", "medium", "hard"}
        assert payload["medium"]["validation"]["zeros"] == 4

    def test_missing_directory_is_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "stats", "--dataset-root", tmp_path / "nope")
        assert code == 2

    def test_empty_directory_is_exit_2(self, capsys, tmp_path):
        (tmp_path / "easy" / "train").mkdir(parents=True)
        code, _ = run_cli(capsys, "stats", "--dataset-root", tmp_path, "--difficulty", "easy")
        assert code == 2

    def test_env_var_fallback(self, capsys, pan_fixture, monkeypatch):
        monkeypatch.setenv(cli.DATASET_ENV_VAR, str(pan_fixture))
        code, out = run_cli(capsys, "stats", "--difficulty", "hard", "--split", "train")
        assert code == 0
        assert json.loads(out)["hard"]["train"]["pairs"] == 7

    def test_no_root_at_all_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.DATASET_ENV_VAR, raising=False)
        code, _ = run_cli(capsys, "stats")
        assert code == 2

    def test_unlabeled_split_reports_null_counts(self, capsys, tmp_path):
        test_dir = tmp_path / "easy" / "test"
        test_dir.mkdir(parents=True)
        (test_dir / "problem-1.txt").write_text("A\nB\nC\n", encoding="utf-8")
        code, out = run_cli(
            capsys, "stats", "--dataset-root", tmp_path, "--difficulty", "easy", "--split", "test"
        )
        assert code == 0
        assert json.loads(out)["easy"]["test"] == {
            "documents": 1,
            "pairs": 2,
            "zeros": None,
            "ones": None,
        }


    def test_table_line_gives_label_counts_or_unlabeled(self, capsys, pan_fixture, tmp_path):
        test_dir = tmp_path / "easy" / "test"
        test_dir.mkdir(parents=True)
        (test_dir / "problem-1.txt").write_text("A\nB\nC\n", encoding="utf-8")
        assert cli.main(["stats", "--dataset-root", str(tmp_path), "--difficulty", "easy", "--split", "test"]) == 0
        assert cli.main(["stats", "--dataset-root", str(pan_fixture), "--difficulty", "easy", "--split", "train"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if ": docs " in line]
        assert lines == ["easy/test: docs 1, pairs 2, unlabeled", "easy/train: docs 4, pairs 7, zeros 3, ones 4"]


class TestTrain:
    def test_writes_artifacts(self, trained):
        assert (trained / cli.MODEL_FILENAME).is_file()
        assert (trained / cli.VOCABULARY_FILENAME).is_file()

    def test_test_split_rejected(self, capsys, synth_corpus, tmp_path):
        code, _ = run_cli(
            capsys,
            "train",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "test",
            "--out", tmp_path,
        )
        assert code == 2

    def test_all_difficulty_rejected(self, capsys, synth_corpus, tmp_path):
        code, _ = run_cli(
            capsys,
            "train",
            "--dataset-root", synth_corpus,
            "--difficulty", "all",
            "--out", tmp_path,
        )
        assert code == 2

    def test_divergence_is_exit_2_without_model(self, capsys, caplog, synth_corpus, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(
                capsys,
                "train",
                "--dataset-root", synth_corpus,
                "--difficulty", "easy",
                "--peak-lr", "1e300",
                "--epochs", "1",
                "--out", tmp_path,
            )
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]  # the error alone explains it
        assert "training diverged in epoch 1" in caplog.text
        assert not (tmp_path / cli.MODEL_FILENAME).exists()

    @pytest.mark.parametrize(
        ("command", "settings", "message"),
        [
            pytest.param("train", ["--seed", "-1"], NEGATIVE_SEED, id="train-seed"),
            pytest.param("train", {"seed": -1}, NEGATIVE_SEED, id="train-config-seed"),
            pytest.param("random-baseline", ["--seed", "-1"], NEGATIVE_SEED, id="random-baseline-seed"),
            pytest.param("train", ["--peak-lr", "nan"], "peak_lr must be positive and finite, got nan", id="nan-rate"),
            pytest.param("train", ["--peak-lr", "inf"], "peak_lr must be positive and finite, got inf", id="inf-rate"),
        ],
    )
    def test_bad_setting_is_exit_2(self, capsys, caplog, pan_fixture, tmp_path, command, settings, message):
        if isinstance(settings, dict):
            (tmp_path / "run.json").write_text(json.dumps(settings))
            settings = ["--config", tmp_path / "run.json"]
        out = tmp_path / "out"
        dataset = ["--dataset-root", pan_fixture, "--difficulty", "easy"]
        code, _ = run_cli(capsys, command, *dataset, *settings, "--out", out)
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert [r.getMessage() for r in errors] == [message] and errors[0].exc_info is None
        assert not out.exists()


    @pytest.mark.parametrize("key", ["peak_lr", "warmup_ratio"])
    def test_config_integer_too_large_for_a_float_is_exit_2(self, capsys, caplog, pan_fixture, tmp_path, key):
        config = tmp_path / "run.json"
        config.write_text(f'{{"{key}": 1{"0" * 400}}}')
        out = tmp_path / "out"
        dataset = ["--dataset-root", pan_fixture, "--difficulty", "easy"]
        code, _ = run_cli(capsys, "train", *dataset, "--config", config, "--out", out)
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert [r.getMessage() for r in errors] == [f"config file {config}: {key} is an integer too large for a float"]
        assert errors[0].exc_info is None
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_epochs_too_many_for_a_float_is_exit_2(self, capsys, caplog, pan_fixture, tmp_path, route):
        epochs = "1" + "0" * 400  # its step count overflows the float of the warmup schedule
        settings = ["--epochs", epochs]
        if route == "config":
            (tmp_path / "run.json").write_text(f'{{"epochs": {epochs}}}')
            settings = ["--config", tmp_path / "run.json"]
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "train", "--dataset-root", pan_fixture, "--difficulty", "easy", *settings, "--out", out)
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert [r.getMessage() for r in errors] == ["too many training steps to take as a float; give fewer epochs"]
        assert errors[0].exc_info is None
        assert not out.exists()


class TestPredictAndEvaluate:
    @pytest.mark.parametrize("doc_freq", [-1, "3"])
    def test_bad_document_frequency_is_exit_2(self, capsys, synth_corpus, trained, tmp_path, doc_freq):
        payload = json.loads((trained / cli.VOCABULARY_FILENAME).read_text())
        payload["terms"][0][2] = doc_freq
        vocab = tmp_path / "vocabulary.json"
        vocab.write_text(json.dumps(payload))
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--vocab", vocab,
            "--out", tmp_path / "out",
        )
        assert code == 2

    @pytest.mark.parametrize("content", ["[]", '"x"', "3"])
    def test_model_without_object_is_exit_2(self, capsys, caplog, synth_corpus, trained, tmp_path, content):
        model = tmp_path / "model.json"
        model.write_text(content)
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", model,
            "--vocab", trained / cli.VOCABULARY_FILENAME,
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert "unsupported model version None" in caplog.text

    @pytest.mark.parametrize("bad", ["too-short", '"0.5"', "true", "1e400", "NaN"])
    def test_bad_version_2_weights_are_exit_2(self, capsys, caplog, synth_corpus, trained, tmp_path, bad):
        text = (trained / cli.MODEL_FILENAME).read_text()
        assert json.loads(text)["version"] == 2
        head, weights = text.split('"weights": [')
        weights = weights[weights.index(",") + 1 :] if bad == "too-short" else f"{bad}, " + weights
        model = tmp_path / "model.json"
        model.write_text(head + '"weights": [' + weights)
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", model,
            "--vocab", trained / cli.VOCABULARY_FILENAME,
            "--out", tmp_path / "out",
        )
        assert code == 2
        [error] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.exc_info is None and str(model) in error.getMessage()

    def test_out_of_order_vocabulary_is_exit_2(self, capsys, caplog, synth_corpus, trained, tmp_path):
        payload = json.loads((trained / cli.VOCABULARY_FILENAME).read_text())
        payload["terms"][1][0] = payload["terms"][0][0]  # a repeated term
        vocab = tmp_path / "vocabulary.json"
        vocab.write_text(json.dumps(payload))
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--vocab", vocab,
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert "entry 1 out of term order" in caplog.text

    def test_document_count_too_large_for_a_float_is_exit_2(self, capsys, caplog, synth_corpus, trained, tmp_path):
        payload = json.loads((trained / cli.VOCABULARY_FILENAME).read_text())
        payload["document_count"] = 10**400
        vocab = tmp_path / "vocabulary.json"
        vocab.write_text(json.dumps(payload))
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--vocab", vocab,
            "--out", tmp_path / "out",
        )
        assert code == 2
        [error] = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.exc_info is None and f"vocabulary file {vocab} is malformed" in error.getMessage()

    def test_nan_margin_is_exit_2_without_predictions(self, capsys, caplog, synth_corpus, trained, tmp_path):
        # Finite weights, so load_model accepts them, whose dot products overflow to NaN.
        payload = json.loads((trained / cli.MODEL_FILENAME).read_text())
        payload["weights"] = [1.7e308 if i % 2 == 0 else -1.7e308 for i in range(payload["dimension"])]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(
                capsys,
                "predict",
                "--dataset-root", synth_corpus,
                "--difficulty", "easy",
                "--split", "validation",
                "--model", model,
                "--vocab", trained / cli.VOCABULARY_FILENAME,
                "--out", out,
            )
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]  # the error alone explains it
        assert "nan" in caplog.text.lower()
        assert not (out / cli.PREDICTIONS_FILENAME).exists()

    def test_pipeline(self, capsys, synth_corpus, trained, tmp_path):
        out = tmp_path / "pred"
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--out", out,
        )
        assert code == 0
        assert (out / cli.PREDICTIONS_FILENAME).is_file()
        solutions = sorted(out.glob("solution-problem-*.json"))
        assert len(solutions) == 50

        truth_dir = synth_corpus / "easy" / "validation"
        code, report_out = run_cli(
            capsys, "evaluate", out, truth_dir, "--difficulty", "easy", "--out", out
        )
        assert code == 0
        payload = json.loads(report_out)
        assert payload["easy"]["pairs"] > 0
        assert (out / cli.REPORT_FILENAME).is_file()

    def test_solution_label_count_matches_paragraphs(self, capsys, synth_corpus, trained, tmp_path):
        out = tmp_path / "pred"
        run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--out", out,
        )
        doc = (synth_corpus / "easy" / "validation" / "problem-1.txt").read_text().splitlines()
        changes = json.loads((out / "solution-problem-1.json").read_text())["changes"]
        assert len(changes) == len(doc) - 1

    def test_gold_as_predictions_scores_one(self, capsys, pan_fixture, tmp_path):
        truth_dir = pan_fixture / "easy" / "validation"
        for truth_file in truth_dir.glob("truth-problem-*.json"):
            doc_id = truth_file.stem.split("-")[-1]
            changes = json.loads(truth_file.read_text())["changes"]
            (tmp_path / f"solution-problem-{doc_id}.json").write_text(json.dumps({"changes": changes}))
        code, out = run_cli(capsys, "evaluate", tmp_path, truth_dir, "--difficulty", "easy")
        assert code == 0
        assert json.loads(out)["easy"]["macro_f1"] == 1.0

    def test_coverage_gap_is_exit_2(self, capsys, pan_fixture, tmp_path):
        truth_dir = pan_fixture / "easy" / "validation"
        (tmp_path / "solution-problem-1.json").write_text('{"changes": [0, 0]}')
        code, _ = run_cli(capsys, "evaluate", tmp_path, truth_dir)
        assert code == 2

    def test_two_solution_files_for_one_document_is_exit_2(self, capsys, caplog, pan_fixture, tmp_path):
        truth_dir = pan_fixture / "easy" / "validation"
        (tmp_path / "solution-problem-1.json").write_text('{"changes": [0]}')
        (tmp_path / "solution-problem-01.json").write_text('{"changes": [1]}')
        code, out = run_cli(capsys, "evaluate", tmp_path, truth_dir)
        assert (code, out) == (2, "")
        assert "both name document 1" in caplog.text

    def test_dimension_mismatch_is_exit_2(self, capsys, synth_corpus, trained, tmp_path):
        from styleseam.features import save_vocabulary
        from tables import fit_texts

        tiny = tmp_path / "tiny-vocab.json"
        save_vocabulary(fit_texts(["alpha beta"]), tiny)
        code, _ = run_cli(
            capsys,
            "predict",
            "--dataset-root", synth_corpus,
            "--difficulty", "easy",
            "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME,
            "--vocab", tiny,
            "--out", tmp_path / "out",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["predict", "random-baseline"])
    def test_one_paragraph_document_is_scored(self, capsys, pan_fixture, tmp_path, command):
        """No solution file is written for a document without pairs, and evaluate needs none."""
        shutil.copytree(pan_fixture / "easy", tmp_path / "data" / "easy")
        validation = tmp_path / "data" / "easy" / "validation"
        (validation / "problem-9.txt").write_text("A single paragraph and so no pairs.\n")
        (validation / "truth-problem-9.json").write_text('{"authors": 1, "changes": []}')
        dataset = ["--dataset-root", tmp_path / "data", "--difficulty", "easy"]
        if command == "predict":
            assert run_cli(capsys, "train", *dataset, "--out", tmp_path / "model")[0] == 0
            dataset += ["--model", tmp_path / "model" / cli.MODEL_FILENAME]
        out = tmp_path / "out"
        assert run_cli(capsys, command, *dataset, "--split", "validation", "--out", out)[0] == 0
        assert sorted(path.name for path in out.glob("solution-problem-*.json")) == [
            f"solution-problem-{n}.json" for n in (1, 2, 3)
        ]
        reports = []
        for truth_dir in (validation, pan_fixture / "easy" / "validation"):
            code, report = run_cli(capsys, "evaluate", out, truth_dir, "--difficulty", "easy")
            assert code == 0
            reports.append(json.loads(report)["easy"])
        with_it, without_it = reports
        assert with_it == {**without_it, "documents": 4}

    def test_predict_rerun_identical(self, capsys, synth_corpus, trained, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                capsys,
                "predict",
                "--dataset-root", synth_corpus,
                "--difficulty", "easy",
                "--split", "validation",
                "--model", trained / cli.MODEL_FILENAME,
                "--out", out,
            )
            outputs.append((out / cli.PREDICTIONS_FILENAME).read_bytes())
        assert outputs[0] == outputs[1]


class TestBadDocumentLateInASplit:
    """train and predict stream a split's documents, so a bad last one surfaces after the others were scanned.

    Each still exits 2 with the error it gave when every document was read first, and leaves no output directory.
    """

    @staticmethod
    def _split(tmp_path, case: str) -> Path:
        root = generate_corpus(tmp_path / "data", n_train=20, n_validation=10, seed=5)
        for split, last in (("train", 20), ("validation", 10)):
            directory = root / "easy" / split
            truth = directory / f"truth-problem-{last}.json"
            if case == "empty problem file":
                (directory / f"problem-{last}.txt").write_text("\n\n", encoding="utf-8")
            elif case == "truth of the wrong length":
                record = json.loads(truth.read_text(encoding="utf-8"))
                truth.write_text(json.dumps({**record, "changes": record["changes"] + [0]}), encoding="utf-8")
            else:
                truth.unlink()
        return root

    @pytest.mark.parametrize(
        ("case", "message"),
        [
            ("empty problem file", "problem-20.txt contains no nonempty paragraphs"),
            ("truth of the wrong length", r"document 20: 3 changes for 3 paragraphs \(expected 2\)"),
            ("no truth file", "document 20 has no matching truth record"),
        ],
    )
    def test_train_exits_2_and_writes_nothing(self, capsys, caplog, tmp_path, case, message):
        root = self._split(tmp_path, case)
        code, _ = run_cli(capsys, "train", "--dataset-root", root, "--difficulty", "easy", "--out", tmp_path / "model")
        assert code == 2
        [error] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert re.search(message, error), error
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("case", ["empty problem file", "truth of the wrong length", "no truth file"])
    def test_predict_exits_2_on_an_empty_document_and_reads_no_truth(self, capsys, caplog, trained, tmp_path, case):
        root = self._split(tmp_path, case)
        out = tmp_path / "pred"
        code, _ = run_cli(
            capsys, "predict", "--dataset-root", root, "--difficulty", "easy", "--split", "validation",
            "--model", trained / cli.MODEL_FILENAME, "--out", out,
        )
        if case != "empty problem file":  # predict reads no truth file
            assert code == 0 and len(list(out.glob("solution-problem-*.json"))) == 10
            return
        assert code == 2
        [error] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.endswith("problem-10.txt contains no nonempty paragraphs")
        assert not out.exists()


class TestRandomBaselineCommand:
    def test_outputs_and_determinism(self, capsys, pan_fixture, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _ = run_cli(
                capsys,
                "random-baseline",
                "--dataset-root", pan_fixture,
                "--difficulty", "easy",
                "--split", "validation",
                "--seed", "5000",
                "--out", out,
            )
            assert code == 0
            outputs.append((out / cli.PREDICTIONS_FILENAME).read_bytes())
        assert outputs[0] == outputs[1]
        assert len(list((tmp_path / "a").glob("solution-problem-*.json"))) == 3


class TestEnsembleCommand:
    def _write_member(self, path: Path, scores: list[float], source: str) -> None:
        lines = [
            json.dumps({"doc_id": 1, "pair_index": i, "score": s, "source": source})
            for i, s in enumerate(scores)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_three_file_softmax_mean(self, capsys, tmp_path):
        files = []
        for name, scores in (("a", [0.2, 1.0]), ("b", [0.3, 1.0]), ("c", [0.9, 0.0])):
            path = tmp_path / f"{name}.ndjson"
            self._write_member(path, scores, name)
            files.append(path)
        out = tmp_path / "combined"
        code, _ = run_cli(capsys, "ensemble", *files, "--mode", "softmax_mean", "--out", out)
        assert code == 0
        lines = [json.loads(l) for l in (out / cli.PREDICTIONS_FILENAME).read_text().splitlines()]
        assert lines[0]["score"] == pytest.approx(1.4 / 3.0)

    def test_unanimous_majority_identity(self, capsys, tmp_path):
        source_file = tmp_path / "one.ndjson"
        self._write_member(source_file, [1.0, 0.0, 1.0], "m")
        copies = [source_file]
        for i in (2, 3):
            copy = tmp_path / f"copy{i}.ndjson"
            shutil.copy(source_file, copy)
            copies.append(copy)
        out = tmp_path / "combined"
        code, _ = run_cli(capsys, "ensemble", *copies, "--mode", "majority", "--out", out)
        assert code == 0
        lines = [json.loads(l) for l in (out / cli.PREDICTIONS_FILENAME).read_text().splitlines()]
        assert [l["score"] for l in lines] == [1.0, 0.0, 1.0]

    def test_even_count_majority_is_exit_2(self, capsys, tmp_path):
        files = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.ndjson"
            self._write_member(path, [1.0], name)
            files.append(path)
        code, _ = run_cli(capsys, "ensemble", *files, "--mode", "majority", "--out", tmp_path / "x")
        assert code == 2

    def test_coverage_mismatch_is_exit_2(self, capsys, tmp_path):
        a, b, c = tmp_path / "a.ndjson", tmp_path / "b.ndjson", tmp_path / "c.ndjson"
        self._write_member(a, [1.0, 0.0], "a")
        self._write_member(b, [1.0], "b")
        self._write_member(c, [0.0, 1.0], "c")
        code, _ = run_cli(capsys, "ensemble", a, b, c, "--mode", "majority", "--out", tmp_path / "x")
        assert code == 2

    def test_negative_pair_index_is_exit_2(self, capsys, caplog, tmp_path):
        files = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.ndjson"
            path.write_text(json.dumps({"doc_id": 1, "pair_index": -1, "score": 0.9, "source": name}) + "\n")
            files.append(path)
        out = tmp_path / "combined"
        code, _ = run_cli(capsys, "ensemble", *files, "--mode", "majority", "--out", out)
        assert code == 2
        assert "pair_index must be an integer >= 0" in caplog.text
        assert not (out / cli.PREDICTIONS_FILENAME).exists()


class TestSolutionsCommand:
    def test_conversion(self, capsys, tmp_path):
        preds = tmp_path / "preds.ndjson"
        preds.write_text(
            '{"doc_id": 4, "pair_index": 0, "score": 0.9, "source": "m"}\n'
            '{"doc_id": 4, "pair_index": 1, "score": 0.1, "source": "m"}\n'
        )
        out = tmp_path / "solutions"
        code, _ = run_cli(capsys, "solutions", preds, "--out", out)
        assert code == 0
        assert json.loads((out / "solution-problem-4.json").read_text()) == {"changes": [1, 0]}

    def test_negative_doc_id_is_exit_2(self, capsys, caplog, tmp_path):
        preds = tmp_path / "preds.ndjson"
        preds.write_text('{"doc_id": -3, "pair_index": 0, "score": 0.9, "source": "m"}\n')
        out = tmp_path / "solutions"
        code, _ = run_cli(capsys, "solutions", preds, "--out", out)
        assert code == 2
        assert "doc_id must be an integer >= 0" in caplog.text
        assert not list(tmp_path.rglob("solution-problem-*.json"))


class TestConfigFile:
    def test_config_supplies_values(self, capsys, pan_fixture, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"dataset_root": str(pan_fixture), "difficulty": "medium", "split": "train"})
        )
        code, out = run_cli(capsys, "stats", "--config", config)
        assert code == 0
        assert json.loads(out)["medium"]["train"]["pairs"] == 9

    def test_flags_override_config(self, capsys, pan_fixture, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset_root": str(pan_fixture), "difficulty": "medium"}))
        code, out = run_cli(capsys, "stats", "--config", config, "--difficulty", "hard")
        assert code == 0
        payload = json.loads(out)
        assert "hard" in payload and "medium" not in payload

    def test_unknown_key_is_exit_2(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"dataset_roots": "/nope"}')
        code, _ = run_cli(capsys, "stats", "--config", config)
        assert code == 2

    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(b"\xff\xfe{}")
        code, _ = run_cli(capsys, "stats", "--config", config)
        assert code == 2

    @pytest.mark.parametrize(
        "values",
        [
            {"epochs": 2.7, "seed": True},
            {"epochs": 2.7},
            {"seed": True},
            {"budget": "16"},
            {"peak_lr": "0.1"},
            {"difficulty": "extreme"},
            {"strategy": "middle"},
            {"stopwords": None},
        ],
    )
    def test_mistyped_value_is_exit_2(self, capsys, pan_fixture, tmp_path, values):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset_root": str(pan_fixture), "difficulty": "easy", **values}))
        code, _ = run_cli(capsys, "train", "--config", config, "--out", tmp_path / "model")
        assert code == 2
        assert not (tmp_path / "model").exists()

    def test_other_commands_keys_are_not_checked(self, capsys, pan_fixture, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset_root": str(pan_fixture), "difficulty": "easy", "epochs": 0}))
        code, out = run_cli(capsys, "stats", "--config", config)
        assert code == 0
        assert json.loads(out)["easy"]["train"]["pairs"] == 7

    def test_one_file_serves_train_and_predict(self, capsys, pan_fixture, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "dataset_root": str(pan_fixture),
                    "difficulty": "easy",
                    "strategy": "longest_first",
                    "budget": 16,
                    "epochs": 3,
                    "peak_lr": 1,
                    "seed": 9,
                }
            )
        )
        model = tmp_path / "model"
        assert run_cli(capsys, "train", "--config", config, "--out", model)[0] == 0
        code, _ = run_cli(
            capsys,
            "predict",
            "--config", config,
            "--split", "validation",
            "--model", model / cli.MODEL_FILENAME,
            "--out", tmp_path / "pred",
        )
        assert code == 0
        flags = tmp_path / "flags"
        code, _ = run_cli(
            capsys,
            "train",
            "--dataset-root", pan_fixture,
            "--difficulty", "easy",
            "--strategy", "longest_first",
            "--budget", "16",
            "--epochs", "3",
            "--peak-lr", "1",
            "--seed", "9",
            "--out", flags,
        )
        assert code == 0
        for name in (cli.MODEL_FILENAME, cli.VOCABULARY_FILENAME):
            assert (model / name).read_bytes() == (flags / name).read_bytes()


class TestRejectedFlags:
    """Each command accepts only the flags it uses."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--model", "m.json", "--out", "o", "--seed", "1"],
            ["stats", "--seed", "1"],
            ["evaluate", "p", "t", "--config", "c.json"],
            ["ensemble", "a.ndjson", "--mode", "majority", "--out", "o", "--config", "c.json"],
            ["solutions", "p.ndjson", "--out", "o", "--config", "c.json"],
        ],
    )
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "train"])
def test_stray_file_warned_once(capsys, caplog, pan_fixture, tmp_path, command):
    argv = [command, "--dataset-root", pan_fixture, "--difficulty", "easy", "--split", "train"]
    code, _ = run_cli(capsys, *argv, *(["--out", tmp_path] if command == "train" else []))
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if "ignoring stray file" in r.getMessage()]
    assert len(warnings) == 1
    assert warnings[0].endswith("dataset-info.md")


@pytest.mark.parametrize("command", ["stats", "train"])
def test_truth_files_are_read_before_the_first_document(capsys, caplog, tmp_path, command):
    """With a bad problem file and a bad truth file, the truth file's error is the one reported."""
    split = tmp_path / "easy" / "train"
    split.mkdir(parents=True)
    (split / "problem-1.txt").write_text("\n", encoding="utf-8")
    (split / "problem-2.txt").write_text("A\nB\n", encoding="utf-8")
    (split / "truth-problem-1.json").write_text('{"changes": []}', encoding="utf-8")
    (split / "truth-problem-2.json").write_text("{", encoding="utf-8")
    out = ["--out", tmp_path / "out"] if command == "train" else []
    code, _ = run_cli(capsys, command, "--dataset-root", tmp_path, "--difficulty", "easy", *out)
    assert code == 2
    [error] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert error.startswith(f"truth file {split / 'truth-problem-2.json'} is not valid JSON"), error


@pytest.mark.parametrize("command", ["stats", "random-baseline"])
def test_split_commands_read_no_whole_split(capsys, monkeypatch, pan_fixture, tmp_path, command):
    """`stats` and `random-baseline` take a split's documents one at a time, as `train` and `predict` do."""

    def refuse(*args, **kwargs):
        raise AssertionError("a command held a whole split")

    monkeypatch.setattr(corpus, "load_documents", refuse)
    monkeypatch.setattr(corpus, "build_pairs", refuse)
    argv = [command, "--dataset-root", pan_fixture, "--difficulty", "easy", "--split", "validation"]
    code, _ = run_cli(capsys, *argv, *(["--out", tmp_path / "out"] if command == "random-baseline" else []))
    assert code == 0


def test_non_utf8_problem_next_to_truth_is_exit_2(capsys, tmp_path):
    truth_dir = tmp_path / "truth"
    truth_dir.mkdir()
    (truth_dir / "problem-1.txt").write_bytes(b"A\n\xff\n")
    (truth_dir / "truth-problem-1.json").write_text('{"authors": 2, "changes": [1]}')
    (tmp_path / "solution-problem-1.json").write_text('{"changes": [1]}')
    code, _ = run_cli(capsys, "evaluate", tmp_path, truth_dir)
    assert code == 2


def test_synthetic_corpus_is_loadable(synth_corpus, capsys):
    code, out = run_cli(
        capsys, "stats", "--dataset-root", synth_corpus, "--difficulty", "easy", "--split", "train"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["easy"]["train"]["documents"] == 100
    # both labels must be present or the training baseline is degenerate
    assert payload["easy"]["train"]["zeros"] > 10
    assert payload["easy"]["train"]["ones"] > 10


MODEL = json.dumps({"version": 2, "dimension": 12, "bias": 0.0, "lambda": 0.0001, "weights": [0.0] * 12})
VOCABULARY = '{"version": 1, "document_count": 1, "terms": [["a", 0, 1]], "stopwords": []}'
PREDICTION = '{"doc_id": 1, "pair_index": 0, "score": 0.9, "source": "m"}\n'


def _truth_case(tmp_path, pan_fixture):
    (tmp_path / "solution-problem-1.json").write_text('{"changes": [1]}')
    (tmp_path / "truth").mkdir()
    bad = tmp_path / "truth" / "truth-problem-1.json"
    return bad, ["evaluate", tmp_path, bad.parent]


def _problem_case(tmp_path, pan_fixture):
    (tmp_path / "easy" / "train").mkdir(parents=True)
    bad = tmp_path / "easy" / "train" / "problem-1.txt"
    return bad, ["stats", "--dataset-root", tmp_path, "--difficulty", "easy"]


def _solution_case(tmp_path, pan_fixture):
    bad = tmp_path / "solution-problem-1.json"
    return bad, ["evaluate", tmp_path, pan_fixture / "easy" / "validation"]


def _solutions_predictions_case(tmp_path, pan_fixture):
    bad = tmp_path / "predictions.ndjson"
    return bad, ["solutions", bad, "--out", tmp_path / "out"]


def _ensemble_predictions_case(tmp_path, pan_fixture):
    (tmp_path / "good.ndjson").write_text(PREDICTION)
    bad = tmp_path / "predictions.ndjson"
    files = [tmp_path / "good.ndjson", bad]
    return bad, ["ensemble", *files, "--mode", "softmax_mean", "--out", tmp_path / "out"]


def _predict_argv(tmp_path, pan_fixture, model, vocab):
    split = ["--dataset-root", pan_fixture, "--difficulty", "easy", "--split", "validation"]
    return ["predict", *split, "--model", model, "--vocab", vocab, "--out", tmp_path / "out"]


def _model_case(tmp_path, pan_fixture):
    (tmp_path / "vocabulary.json").write_text(VOCABULARY)
    bad = tmp_path / "model.json"
    return bad, _predict_argv(tmp_path, pan_fixture, bad, tmp_path / "vocabulary.json")


def _vocabulary_case(tmp_path, pan_fixture):
    (tmp_path / "model.json").write_text(MODEL)
    bad = tmp_path / "vocabulary.json"
    return bad, _predict_argv(tmp_path, pan_fixture, tmp_path / "model.json", bad)


def _stopwords_case(tmp_path, pan_fixture):
    bad = tmp_path / "stopwords.txt"
    split = ["--dataset-root", pan_fixture, "--difficulty", "easy"]
    return bad, ["train", *split, "--stopwords", bad, "--out", tmp_path / "out"]


def _config_case(tmp_path, pan_fixture):
    bad = tmp_path / "run.json"
    return bad, ["stats", "--config", bad]


# Every input file the CLI reads, with the command that reads it; the text
# files (problem, stopwords) take any decodable content.
INPUT_FILES = {
    "truth": (_truth_case, True),
    "problem": (_problem_case, False),
    "solution": (_solution_case, True),
    "predictions-solutions": (_solutions_predictions_case, True),
    "predictions-ensemble": (_ensemble_predictions_case, True),
    "model": (_model_case, True),
    "vocabulary": (_vocabulary_case, True),
    "stopwords": (_stopwords_case, False),
    "config": (_config_case, True),
}
BAD_CONTENTS = {"undecodable": b"\xff\xfe", "invalid-json": b"{not json", "deeply-nested": b"[" * 100_000}
BAD_INPUTS = [
    pytest.param(kind, content, id=f"{kind}-{content}")
    for kind, (_, is_json) in INPUT_FILES.items()
    for content in BAD_CONTENTS
    if is_json or content == "undecodable"
]


@pytest.mark.parametrize(("kind", "content"), BAD_INPUTS)
def test_bad_input_file_is_exit_2_naming_it(capsys, caplog, pan_fixture, tmp_path, kind, content):
    case, _ = INPUT_FILES[kind]
    bad, argv = case(tmp_path, pan_fixture)
    bad.write_bytes(BAD_CONTENTS[content])
    code = cli.main([str(a) for a in argv])
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 2
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert str(bad) in message and "\n" not in message
    assert "Traceback" not in caplog.text + capsys.readouterr().err
