"""Every file styleseam reads goes through the readers in `corpus.py`.

Those readers turn undecodable bytes, invalid JSON and too-deep nesting
into a FormatError that names the file. A module that decodes or parses a
file itself skips that, so this test parses the package source and fails
on any `json.load`/`json.loads`, `.read_text(`, `.read_bytes(` or
read-mode `open(` call outside the readers. The bundled stopword list,
read through `importlib.resources`, is the one exception.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "styleseam"
READERS = {"read_text", "read_json", "read_json_lines", "_parse_json"}


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else None


def _is_bundled_resource(receiver: ast.expr) -> bool:
    """`resources.files(...)...` : a read of package data, not of an input file."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "files" and _name(node.value) == "resources"
        for node in ast.walk(receiver)
    )


def _opens_for_reading(call: ast.Call, mode_position: int) -> bool:
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > mode_position:
        mode = call.args[mode_position]
    if mode is None:
        return True  # the default mode is "r"
    writes = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax")
    return not writes


def _file_read(call: ast.Call) -> str | None:
    """How `call` reads or parses a file itself, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" and _opens_for_reading(call, 1):
        return "open()"
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("load", "loads") and _name(func.value) == "json":
        return f"json.{func.attr}()"
    if func.attr in ("read_text", "read_bytes") and not _is_bundled_resource(func.value):
        return f".{func.attr}()"
    if func.attr == "open" and _name(func.value) != "os" and _opens_for_reading(call, 0):
        return ".open()"
    return None


def _violations(path: Path) -> list[tuple[str, str]]:
    """(how, where) of each file read in `path` that bypasses the readers."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.Call):
                how = _file_read(child)
                if how and not (path.name == "corpus.py" and function in READERS):
                    found.append((how, f"{path.name}:{child.lineno} in {function or 'module scope'}"))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_files_are_read_only_through_corpus_readers(path):
    assert _violations(path) == []


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("def f(p):\n    return json.loads(p.read_text())\n", ["json.loads()", ".read_text()"]),
        ("def f(p):\n    return open(p).read()\n", ["open()"]),
        ("def f(p):\n    return p.read_bytes()\n", [".read_bytes()"]),
        ("def f(p):\n    return open(p, 'rb').read()\n", ["open()"]),
        ("def f(p):\n    return p.open(encoding='utf-8')\n", [".open()"]),
        ("def f(p):\n    open(p, 'w').write('x')\n    p.open(mode='ab')\n", []),
        ("def f():\n    return resources.files('x').joinpath('y').read_text('utf-8')\n", []),
    ],
)
def test_guard_detects_file_reads(tmp_path, source, expected):
    """The guard itself: each way of reading a file is caught, and writes are not."""
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    assert [how for how, _ in _violations(path)] == expected
