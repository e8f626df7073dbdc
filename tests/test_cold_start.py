"""Which commands load numpy: each case runs one CLI command in a fresh interpreter.

Only `train` and `predict` do numeric work. The commands that count
documents or exchange predictions (`stats`, `random-baseline`, `ensemble`,
`solutions`, `evaluate`) and a bare `import styleseam` must start without
numpy, which is most of the package's import time, and without
`dataclasses`, which no module of the package imports: its records are
`NamedTuple`s or small `__slots__` classes, which cost no class-body
machinery at start-up. `train` and `predict` never load `numpy.random`.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import styleseam
from styleseam import cli

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
SEEDS = (1, 2, 3)


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports styleseam from this tree; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def run_command(argv: list[object], *, loads_numpy: bool) -> None:
    argv = [str(a) for a in argv]
    check = "in" if loads_numpy else "not in"
    unloaded = "" if loads_numpy else "; assert 'dataclasses' not in sys.modules, 'dataclasses in sys.modules'"
    run_fresh(
        f"import sys, styleseam.cli as c; code = c.main({argv!r}); "
        f"assert code == 0, code; assert 'numpy' {check} sys.modules, 'numpy {check} sys.modules'{unloaded}"
    )


@pytest.fixture(scope="module")
def members(synth_corpus, tmp_path_factory) -> list[Path]:
    """Three random-baseline prediction files for the validation split, made in this process."""
    root = tmp_path_factory.mktemp("members")
    files = []
    for seed in SEEDS:
        out = root / f"seed-{seed}"
        code = cli.main(
            [
                "random-baseline",
                "--dataset-root", str(synth_corpus),
                "--difficulty", "easy",
                "--split", "validation",
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        assert code == 0
        files.append(out / cli.PREDICTIONS_FILENAME)
    return files


def test_import_styleseam_leaves_numpy_unloaded():
    run_fresh("import sys, styleseam; assert 'numpy' not in sys.modules; assert 'dataclasses' not in sys.modules")


def test_no_module_imports_dataclasses():
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "styleseam").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert not imports


def test_stats(synth_corpus):
    run_command(["stats", "--dataset-root", synth_corpus, "--difficulty", "easy"], loads_numpy=False)


def test_random_baseline(synth_corpus, tmp_path):
    argv = ["random-baseline", "--dataset-root", synth_corpus, "--difficulty", "easy", "--split", "validation"]
    run_command([*argv, "--seed", 7, "--out", tmp_path], loads_numpy=False)
    assert (tmp_path / cli.PREDICTIONS_FILENAME).is_file()


@pytest.mark.parametrize("mode", ["majority", "softmax_mean"])
def test_ensemble(members, tmp_path, mode):
    run_command(["ensemble", *members, "--mode", mode, "--out", tmp_path], loads_numpy=False)
    assert (tmp_path / cli.PREDICTIONS_FILENAME).is_file()


def test_solutions_then_evaluate(synth_corpus, members, tmp_path):
    run_command(["solutions", members[0], "--out", tmp_path], loads_numpy=False)
    truth_dir = synth_corpus / "easy" / "validation"
    run_command(["evaluate", tmp_path, truth_dir, "--out", tmp_path], loads_numpy=False)
    assert (tmp_path / cli.REPORT_FILENAME).is_file()


def test_train_and_predict_load_numpy_and_succeed(synth_corpus, tmp_path):
    model_dir, out = tmp_path / "model", tmp_path / "pred"
    dataset = ["--dataset-root", synth_corpus, "--difficulty", "easy"]
    run_command(["train", *dataset, "--epochs", 1, "--out", model_dir], loads_numpy=True)
    run_command(
        ["predict", *dataset, "--split", "validation", "--model", model_dir / cli.MODEL_FILENAME, "--out", out],
        loads_numpy=True,
    )
    assert len(list(out.glob("solution-problem-*.json"))) == 50


def test_train_and_predict_leave_numpy_random_unloaded(pan_fixture, tmp_path):
    """The SGD draws its order from the stdlib's `random`, so `numpy.random`, train's largest import, stays out."""
    dataset = ["--dataset-root", str(pan_fixture), "--difficulty", "easy"]
    train = ["train", *dataset, "--out", str(tmp_path)]
    predict = ["predict", *dataset, "--split", "validation", "--model", str(tmp_path / cli.MODEL_FILENAME),
               "--out", str(tmp_path / "pred")]
    run_fresh(
        f"import sys, styleseam.cli as c; assert c.main({train!r}) == 0 and c.main({predict!r}) == 0; "
        "assert 'numpy' in sys.modules and 'numpy.random' not in sys.modules"
    )


def test_every_export_resolves():
    for name in styleseam.__all__:
        assert getattr(styleseam, name) is not None, name
    assert set(styleseam.__all__) <= set(dir(styleseam))
    namespace: dict[str, object] = {}
    exec("from styleseam import *", namespace)
    assert set(styleseam.__all__) <= set(namespace)
    assert styleseam.fit_vocabulary is styleseam.features.fit_vocabulary
    assert not hasattr(styleseam, "no_such_export")


def _readme_library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_imports_resolve():
    """Every name the README's Library example imports from styleseam is exported and resolves."""
    names = [
        alias.name
        for node in ast.walk(ast.parse(_readme_library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "styleseam"
        for alias in node.names
    ]
    assert len(names) > 20
    assert not set(names) - set(styleseam.__all__)
    for name in names:
        assert getattr(styleseam, name) is not None, name


def test_readme_library_example_runs(pan_fixture, tmp_path, monkeypatch):
    """The README's Library example runs as written, with its data/ paths on the bundled dataset."""
    example = _readme_library_example()
    assert example.count('"data/') == 2
    monkeypatch.chdir(tmp_path)  # the example writes its solutions to ./out
    namespace: dict[str, object] = {}
    exec(example.replace('"data/', f'"{pan_fixture.as_posix()}/'), namespace)
    stats, fit, records, entry = (namespace[name] for name in ("stats", "fit", "records", "entry"))
    assert stats.pair_count == fit.pair_count == len(namespace["features"]) == 7  # easy/train of the bundled dataset
    assert 0 <= fit.correct <= fit.pair_count
    assert entry.pair_count == len(records) > 0 and 0.0 <= entry.macro_f1 <= 1.0
