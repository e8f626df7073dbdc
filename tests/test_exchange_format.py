"""The exchange-format reader and writer against the plain ones in `reference_exchange`.

The reader parses a line with the JSON scanner and falls back to
`json.loads` only for a line the scanner rejects, so a file must give the
same values, the same records, or the same error, message and all. The fuzz
test mutates one valid prediction line JSON-aware, as the model-file fuzz
test does, and ends the lines with LF, CRLF or CR. The writer must write the
bytes of one `json.dumps` per line.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_exchange as ref
from styleseam.corpus import read_json_lines
from styleseam.model import PredictionRecord, load_external_predictions, save_predictions
from test_artifacts import mutate, mutations

LINES = [
    json.dumps({"doc_id": 2, "pair_index": 0, "score": 0.25, "source": "m"}),
    json.dumps({"doc_id": 1, "pair_index": 1, "score": 1, "source": "m"}),
    json.dumps({"doc_id": 1, "pair_index": 0, "score": 0.5, "source": 'say "hi" \\ naïve'}),
]
FIELDS = sorted(json.loads(LINES[1]))  # the first step of a `mutate` walk picks among these


def with_line(text: str, at: int = 1, end: str = "\n") -> str:
    """The file of LINES with line `at` replaced by `text`, each line ended by `end`."""
    lines = [*LINES]
    lines[at] = text
    return "".join(line + end for line in lines)


@st.composite
def mutated_files(draw) -> str:
    at = draw(st.integers(0, len(LINES) - 1))
    steps, action = draw(mutations())
    pad = draw(st.sampled_from(["", " ", "\t", "\u2028", "\ufeff"]))  # stripped, but for the BOM
    return with_line(pad + mutate(LINES[at], steps, action), at, draw(st.sampled_from(["\n", "\r\n", "\r"])))


def outcome(read, path) -> str:
    """What `read(path)` gives, or the type and message of what it raises, spelled by repr."""
    try:
        return repr(list(read(path)))  # repr: NaN equals itself, and 1 differs from 1.0 and from True
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None)
@given(mutated_files())
@example(with_line("\ufeff" + LINES[1]))  # a UTF-8 BOM
@example(with_line(mutate(LINES[1], [FIELDS.index("doc_id")], "true")))
@example(with_line(mutate(LINES[1], [FIELDS.index("pair_index")], "1.0")))
@example(with_line(mutate(LINES[1], [FIELDS.index("score")], "1e400")))
@example(with_line(mutate(LINES[1], [FIELDS.index("score")], "NaN")))
@example(with_line(mutate(LINES[1], [FIELDS.index("doc_id")], "1" + "0" * 5000)))  # too many digits for int()
@example(with_line(LINES[1] + ' {"x": 1}'))  # text after the closing brace
@example(with_line(LINES[1][:-1] + ', "doc_id": 7}'))  # a duplicated key: the last one counts
@example(with_line("[" * 10_000 + "]" * 10_000))  # nested too deeply for the parser
@example(with_line('{"doc_id": 1, "pair_index": 1, "score": 0.5, "source": "a\u2028b"}'))  # a raw U+2028
@example(with_line(LINES[1], end="\r"))  # CR-only line ends
@example(with_line(LINES[0], at=1))  # a duplicate record
@example(with_line(" \t\u2028"))  # a blank line
def test_reader_matches_the_json_loads_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated.ndjson"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_json_lines, path) == outcome(ref.read_json_lines, path)
    assert outcome(load_external_predictions, path) == outcome(ref.load_external_predictions, path)


SOURCES = ["m", 'say "hi"', "back\\slash", "naïve", "東京", "a\u2028b", "\U0001f600"]


def rows_to_records(rows: list[tuple[int, int, float, str]]) -> list[PredictionRecord]:
    return [PredictionRecord(d, p, s, int(s >= 0.5), source) for d, p, s, source in rows]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**20), st.floats(0.0, 1.0),
                          st.one_of(st.sampled_from(SOURCES), st.text(max_size=6))), max_size=12))
@example([(0, 0, 0.0, "m"), (1, 2, 1.0, 'say "hi"'), (3, 4, 5e-324, "東京"), (5, 6, 1 - 2**-53, "a\u2028b")])
def test_writer_writes_the_bytes_of_one_dumps_per_line(tmp_path_factory, rows):
    records, base = rows_to_records(rows), tmp_path_factory.getbasetemp()
    save_predictions(records, base / "written.ndjson")
    ref.save_predictions(records, base / "reference.ndjson")
    assert (base / "written.ndjson").read_bytes() == (base / "reference.ndjson").read_bytes()


@pytest.mark.parametrize(
    "record",
    [
        PredictionRecord(1, 0, np.float64(0.25), 0, "m"),  # a float subclass
        PredictionRecord(True, 0, 0.25, 0, "m"),  # a bool is an int json.dumps spells "true"
        PredictionRecord(1, 0, 1, 1, "m"),  # an int score
        PredictionRecord(1, 0, float("nan"), 0, "m"),  # json.dumps spells NaN, not nan
        PredictionRecord(1, 0, float("inf"), 1, "m"),
    ],
)
def test_writer_spells_other_values_as_dumps_does(tmp_path, record):
    save_predictions([record], tmp_path / "written.ndjson")
    ref.save_predictions([record], tmp_path / "reference.ndjson")
    assert (tmp_path / "written.ndjson").read_bytes() == (tmp_path / "reference.ndjson").read_bytes()
