"""Reference exchange-format reader and writer: one `json.loads` and one `json.dumps` per line.

The library parses each line with the C scanner that `json.loads` ends in,
checks the fields by exact type, and spells each written line with one
f-string. These are the plain functions it replaced, kept as they were;
the differential tests require the same records, the same errors and the
same bytes from both.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

from styleseam.corpus import _parse_json, is_int, is_number, read_text
from styleseam.errors import FormatError
from styleseam.model import PredictionRecord, _label


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of every nonblank line, each parsed by `json.loads`."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, _parse_json(line, f"{path}:{lineno}: invalid JSON")


def load_external_predictions(path: str | Path) -> list[PredictionRecord]:
    records = []
    seen: set[tuple[int, int, str]] = set()
    for lineno, raw in read_json_lines(path):
        if not isinstance(raw, dict):
            raise FormatError(f"{path}:{lineno}: not a JSON object")
        try:
            doc_id, pair_index, score, source = raw["doc_id"], raw["pair_index"], raw["score"], raw["source"]
        except KeyError as exc:
            raise FormatError(f"{path}:{lineno}: missing field {exc}") from exc
        if not is_int(doc_id) or doc_id < 0:
            raise FormatError(f"{path}:{lineno}: doc_id must be an integer >= 0")
        if not is_int(pair_index) or pair_index < 0:
            raise FormatError(f"{path}:{lineno}: pair_index must be an integer >= 0")
        if not is_number(score):
            raise FormatError(f"{path}:{lineno}: score must be a number")
        if not isinstance(source, str):
            raise FormatError(f"{path}:{lineno}: source must be a string")
        if not 0.0 <= score <= 1.0:
            raise FormatError(f"{path}:{lineno}: score {score} outside [0, 1]")
        key = (doc_id, pair_index, source)
        if key in seen:
            raise FormatError(f"{path}:{lineno}: duplicate record for {key}")
        seen.add(key)
        records.append(PredictionRecord(doc_id, pair_index, float(score), _label(score), source))
    records.sort(key=lambda r: (r.doc_id, r.pair_index, r.source))
    return records


def save_predictions(records: Sequence[PredictionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r in records:
            line = {"doc_id": r.doc_id, "pair_index": r.pair_index, "score": r.score, "source": r.source}
            handle.write(json.dumps(line) + "\n")
