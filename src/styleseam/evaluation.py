"""Scoring against gold changes and writing official-format solution files.

Pairs are pooled across all documents of a split into flat label vectors
before per-class F1 is computed (the flat-vector protocol of the shared
task scorer); per-document averaging exists behind a flag but is never
the default. A class with zero gold and zero predicted instances scores
F1 = 0 by convention.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import add_by_doc_id, is_changes, read_json
from .errors import CoverageError, FormatError, UsageError
from .model import PredictionRecord

_SOLUTION_RE = re.compile(r"solution-problem-([0-9]+)\.json")  # ASCII digits, as corpus reads problem ids


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


class ScoreEntry(NamedTuple):
    """Scores of one difficulty split."""

    f1_class0: float
    f1_class1: float
    macro_f1: float
    weighted_f1: float
    pair_count: int
    document_count: int


def confusion(gold: Sequence[int], pred: Sequence[int], positive: int) -> ConfusionCounts:
    if len(gold) != len(pred):
        raise UsageError(f"gold length {len(gold)} != prediction length {len(pred)}")
    counts = Counter((g == positive, p == positive) for g, p in zip(gold, pred))  # (gold, predicted) positive
    return ConfusionCounts(counts[True, True], counts[False, True], counts[True, False], counts[False, False])


def f1_per_class(gold: Sequence[int], pred: Sequence[int], positive: int) -> float:
    """F1 = 2PR/(P+R) for one class; 0 when the class never occurs anywhere."""
    if not gold:
        raise UsageError("cannot score empty label vectors")
    c = confusion(gold, pred, positive)
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _check_coverage(
    gold_by_doc: Mapping[int, Sequence[int]],
    pred_by_doc: Mapping[int, Sequence[int]],
) -> None:
    """A document without pairs needs no solution, since no command writes one; one supplied must be empty."""
    missing = sorted(doc_id for doc_id, gold in gold_by_doc.items() if gold and doc_id not in pred_by_doc)
    extra = sorted(set(pred_by_doc) - set(gold_by_doc))
    if missing or extra:
        raise CoverageError(
            f"prediction coverage mismatch: missing documents {missing}, unexpected {extra}"
        )
    bad_lengths = [
        doc_id
        for doc_id in pred_by_doc
        if len(pred_by_doc[doc_id]) != len(gold_by_doc[doc_id])
    ]
    if bad_lengths:
        raise CoverageError(f"pair count mismatch for documents {sorted(bad_lengths)}")


def macro_f1(
    gold_by_doc: Mapping[int, Sequence[int]],
    pred_by_doc: Mapping[int, Sequence[int]],
    per_document: bool = False,
) -> ScoreEntry:
    """Score predictions against gold over identical (doc, pair) coverage.

    With per_document=True the class F1s are computed inside each document
    and averaged unweighted across documents (diagnostic only).
    """
    _check_coverage(gold_by_doc, pred_by_doc)
    doc_ids = sorted(gold_by_doc)
    total_pairs = sum(len(gold_by_doc[d]) for d in doc_ids)
    if total_pairs == 0:
        raise UsageError("no pairs to score")

    if per_document:
        scored = [d for d in doc_ids if gold_by_doc[d]]
        f0 = sum(f1_per_class(gold_by_doc[d], pred_by_doc[d], 0) for d in scored) / len(scored)
        f1 = sum(f1_per_class(gold_by_doc[d], pred_by_doc[d], 1) for d in scored) / len(scored)
        weighted = (f0 + f1) / 2.0
    else:
        gold_flat: list[int] = []
        pred_flat: list[int] = []
        for doc_id in doc_ids:
            gold_flat.extend(gold_by_doc[doc_id])
            pred_flat.extend(pred_by_doc.get(doc_id, ()))
        f0 = f1_per_class(gold_flat, pred_flat, 0)
        f1 = f1_per_class(gold_flat, pred_flat, 1)
        n1 = sum(gold_flat)
        n0 = len(gold_flat) - n1
        weighted = (n0 * f0 + n1 * f1) / (n0 + n1)

    return ScoreEntry(
        f1_class0=f0,
        f1_class1=f1,
        macro_f1=(f0 + f1) / 2.0,
        weighted_f1=weighted,
        pair_count=total_pairs,
        document_count=len(doc_ids),
    )


def write_solutions(predictions: Sequence[PredictionRecord], out_dir: str | Path) -> int:
    """Write one solution-problem-<N>.json per document; returns file count.

    Every document's pair indices must form the contiguous range 0..k-1
    with exactly one record each.
    """
    by_doc: dict[int, dict[int, int]] = {}
    for r in predictions:
        doc = by_doc.setdefault(r.doc_id, {})
        if r.pair_index in doc:
            raise UsageError(f"duplicate prediction for document {r.doc_id} pair {r.pair_index}")
        doc[r.pair_index] = r.label
    for doc_id, labels in by_doc.items():
        if sorted(labels) != list(range(len(labels))):
            raise UsageError(
                f"document {doc_id} pair indices {sorted(labels)} are not contiguous from 0"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for doc_id, labels in sorted(by_doc.items()):
        changes = [labels[i] for i in range(len(labels))]
        # Rewritten in place, then cut: truncating to zero makes ext4 (auto_da_alloc) flush on close.
        with open(os.open(out / f"solution-problem-{doc_id}.json", os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(json.dumps({"changes": changes}).encode("utf-8"))
            handle.truncate()
    return len(by_doc)


def read_solutions(directory: str | Path) -> dict[int, list[int]]:
    """Read solution files back as per-document label vectors."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"solution directory not found: {directory}")
    files: dict[int, Path] = {}
    solutions: dict[int, list[int]] = {}
    for name in sorted(os.listdir(directory)):
        doc_id = add_by_doc_id(files, _SOLUTION_RE, directory, name)
        if doc_id is None:
            continue
        raw = read_json(files[doc_id], "solution file")
        changes = raw.get("changes") if isinstance(raw, dict) else None
        if not is_changes(changes):
            raise FormatError(f"{files[doc_id]} lacks a binary \"changes\" array")
        solutions[doc_id] = changes
    return solutions


def report_to_json(report: Mapping[str, ScoreEntry]) -> str:
    """Machine-readable report, full precision."""
    payload = {
        name: {
            "f1_class0": entry.f1_class0,
            "f1_class1": entry.f1_class1,
            "macro_f1": entry.macro_f1,
            "weighted_f1": entry.weighted_f1,
            "pairs": entry.pair_count,
            "documents": entry.document_count,
        }
        for name, entry in report.items()
    }
    return json.dumps(payload, indent=2)


def format_report_table(report: Mapping[str, ScoreEntry]) -> str:
    """Human-readable table, 3-decimal display rounding."""
    header = f"{'split':<12} {'f1(0)':>7} {'f1(1)':>7} {'macro':>7} {'weighted':>9} {'pairs':>7} {'docs':>6}"
    lines = [header, "-" * len(header)]
    for name, e in report.items():
        lines.append(
            f"{name:<12} {e.f1_class0:>7.3f} {e.f1_class1:>7.3f} {e.macro_f1:>7.3f} "
            f"{e.weighted_f1:>9.3f} {e.pair_count:>7d} {e.document_count:>6d}"
        )
    return "\n".join(lines)
