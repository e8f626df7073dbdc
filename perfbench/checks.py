"""Output checks that recompute results without the styleseam package.

Each reference here is written independently of the program (its own
file readers, its own F1 formula), so a change that alters the program's
numbers cannot also alter the numbers it is checked against.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Callable

_TRUTH_RE = re.compile(r"^truth-problem-(\d+)\.json$")
_SOLUTION_RE = re.compile(r"^solution-problem-(\d+)\.json$")

# Float results are compared with this absolute tolerance: the references
# use a different (but exact-in-reals) operation order.
TOLERANCE = 1e-9

PairKey = tuple[int, int]


class Checks:
    """Counts attempted and failed operations; a raising check counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, check: Callable[[], bool]) -> bool:
        self.attempted += 1
        try:
            ok = bool(check())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


def _changes_by_doc(directory: Path, pattern: re.Pattern) -> dict[int, list[int]]:
    found = {}
    for path in directory.iterdir():
        match = pattern.match(path.name)
        if match:
            found[int(match.group(1))] = list(json.loads(path.read_text(encoding="utf-8"))["changes"])
    return found


def read_truth(directory: Path) -> dict[int, list[int]]:
    return _changes_by_doc(directory, _TRUTH_RE)


def read_solutions(directory: Path) -> dict[int, list[int]]:
    return _changes_by_doc(directory, _SOLUTION_RE)


def pooled_macro_f1(gold: dict[int, list[int]], pred: dict[int, list[int]]) -> float:
    """Mean of the two class F1s over all pairs pooled across documents.

    F1 = 2tp / (2tp + fp + fn); a class with no true positives scores 0.
    """
    if set(gold) != set(pred) or any(len(gold[d]) != len(pred[d]) for d in gold):
        raise ValueError("solution coverage differs from gold")
    flat = [(g, p) for d in sorted(gold) for g, p in zip(gold[d], pred[d])]
    scores = []
    for cls in (0, 1):
        tp = sum(1 for g, p in flat if g == cls and p == cls)
        fp = sum(1 for g, p in flat if g != cls and p == cls)
        fn = sum(1 for g, p in flat if g == cls and p != cls)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return (scores[0] + scores[1]) / 2


def read_scores(path: Path) -> dict[PairKey, float]:
    """Exchange-format file as {(doc_id, pair_index): score}."""
    scores = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                scores[(record["doc_id"], record["pair_index"])] = float(record["score"])
    return scores


def majority_vote(members: list[dict[PairKey, float]]) -> dict[PairKey, float]:
    """Score = share of members whose score reaches 0.5 (label 1 iff above half)."""
    return {key: sum(m[key] >= 0.5 for m in members) / len(members) for key in members[0]}


def score_mean(members: list[dict[PairKey, float]]) -> dict[PairKey, float]:
    return {key: sum(m[key] for m in members) / len(members) for key in members[0]}


def same_scores(expected: dict[PairKey, float], actual: dict[PairKey, float]) -> bool:
    """Same pairs, same thresholded labels, scores equal within TOLERANCE."""
    return set(expected) == set(actual) and all(
        (expected[k] >= 0.5) == (actual[k] >= 0.5) and abs(expected[k] - actual[k]) <= TOLERANCE
        for k in expected
    )


def line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())
