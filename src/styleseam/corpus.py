"""Dataset ingestion: documents, truth records, and labeled paragraph pairs.

Expected on-disk layout (shared-task convention)::

    <root>/<difficulty>/{train,validation,test}/
        problem-<N>.txt         UTF-8 text, one paragraph per line
        truth-problem-<N>.json  {"authors": int, "changes": [0/1, ...]}

Documents are split into paragraphs on single newlines; a trailing
carriage return is trimmed from each segment and empty segments are
dropped, so CRLF files load identically to LF files.

Every file the toolkit reads goes through the `read_*` readers here, so a
file that cannot be decoded or parsed is a FormatError naming it.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FormatError, UsageError

logger = logging.getLogger(__name__)

# A doc id is ASCII digits: \d would also take other scripts' digits, and int() reads both alike.
_PROBLEM_RE = re.compile(r"problem-([0-9]+)\.txt")
_TRUTH_RE = re.compile(r"truth-problem-([0-9]+)\.json")

SPLITS = ("train", "validation", "test")


class Difficulty(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"

    def __str__(self) -> str:  # usable directly in paths and messages
        return self.value


@dataclass(frozen=True)
class Document:
    """One problem file: ordered nonempty paragraphs plus provenance."""

    id: int
    difficulty: Difficulty
    paragraphs: tuple[str, ...]


@dataclass(frozen=True)
class TruthRecord:
    """Gold annotation for one document.

    Only the length invariant (len(changes) == paragraphs - 1) is ever
    enforced against documents; author/changes consistency is taken on
    faith since gold files are authoritative.
    """

    doc_id: int
    authors: int
    changes: tuple[int, ...]


@dataclass(frozen=True)
class ParagraphPair:
    """One consecutive-paragraph instance; label is None for test data."""

    doc_id: int
    pair_index: int
    left: str
    right: str
    label: int | None = None


PairKey = NamedTuple("PairKey", [("doc_id", int), ("pair_index", int)])  # a pair without its text

@dataclass(frozen=True)
class SplitStats:
    document_count: int
    pair_count: int
    zeros_count: int | None  # None for an unlabeled split
    ones_count: int | None


def split_paragraphs(text: str) -> tuple[str, ...]:
    """Split file content into paragraphs: one per line, CRLF-safe."""
    segments = (seg[:-1] if seg.endswith("\r") else seg for seg in text.split("\n"))
    return tuple(seg for seg in segments if seg)


def split_directory(
    root: str | Path,
    difficulty: Difficulty,
    split: str,
    difficulty_names: Mapping[Difficulty, str] | None = None,
) -> Path:
    """Resolve the directory of one (difficulty, split) under a dataset root.

    `difficulty_names` overrides the on-disk directory name per difficulty
    for datasets that do not use the plain lowercase names.
    """
    if split not in SPLITS:
        raise UsageError(f"unknown split {split!r}; expected one of {SPLITS}")
    name = (difficulty_names or {}).get(difficulty, difficulty.value)
    return Path(root) / name / split


Listing = tuple[dict[int, Path], dict[int, Path]]


def list_split(directory: str | Path) -> Listing:
    """Map doc ids to problem and truth files, warning about each stray file; the loaders take it as `listing`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    problems: dict[int, Path] = {}
    truths: dict[int, Path] = {}
    for entry in sorted(directory.iterdir(), key=lambda path: path.name):
        if not entry.is_file():
            continue
        if add_by_doc_id(problems, _PROBLEM_RE, entry) is None and add_by_doc_id(truths, _TRUTH_RE, entry) is None:
            logger.warning("ignoring stray file %s", entry)
    return problems, truths


def add_by_doc_id(files: dict[int, Path], pattern: re.Pattern[str], entry: Path) -> int | None:
    """Add `entry` to `files` under the doc id `pattern` reads from its whole name; None if the name does not match.

    A second entry for one id, as `problem-03.txt` is for `problem-3.txt`, is a FormatError.
    """
    m = pattern.fullmatch(entry.name)
    if m is None:
        return None
    doc_id = int(m.group(1))
    if doc_id in files:
        raise FormatError(f"{files[doc_id]} and {entry} both name document {doc_id}")
    files[doc_id] = entry
    return doc_id


def is_int(value: object) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_changes(value: object) -> bool:
    """A list of 0/1 integers, as truth and solution files hold under "changes"."""
    return isinstance(value, list) and all(is_int(c) and c in (0, 1) for c in value)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path`; undecodable bytes are a FormatError."""
    path = path if isinstance(path, Path) else Path(path)  # Path(a Path) re-parses it: half a small read
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from exc


def _parse_json(text: str, error: str) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"{error}: {exc}") from exc


def read_json(path: str | Path, what: str) -> object:
    """The JSON value of `path`; `what` names the kind of file in errors, e.g. "truth file"."""
    return _parse_json(read_text(path), f"{what} {path} is not valid JSON")


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of every nonblank line of a line-delimited JSON file."""
    # Lines end where text-mode iteration ends them: read_text has turned CRLF and CR into
    # LF. str.splitlines would also split at U+2028, which a JSON string may hold raw.
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, _parse_json(line, f"{path}:{lineno}: invalid JSON")


def read_artifact(path: str | Path, what: str, version: int) -> dict:
    """The JSON object of a versioned artifact whose "version" must be `version`."""
    payload = read_json(path, f"{what} file")
    found = payload.get("version") if isinstance(payload, dict) else None
    if not is_int(found) or found != version:  # not `true` or 1.0, which equal 1
        raise FormatError(f"unsupported {what} version {found!r} in {path}")
    return payload


WRITE_CHUNK = 4096  # the entries of a streamed list that one json.dumps call spells


def list_chunks(size: int) -> Iterator[slice]:
    """Slices of WRITE_CHUNK positions that cover range(size), in order."""
    return (slice(at, at + WRITE_CHUNK) for at in range(0, size, WRITE_CHUNK))


def write_json(path: str | Path, fields: Mapping[str, object]) -> None:
    """Write the bytes of `json.dumps(fields)` to `path`; a value that is an iterator of lists is one streamed list.

    json.dumps spells each list of such an iterator, so entries are escaped
    as in one call, and the whole list never exists as one string.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        for n, (key, value) in enumerate(fields.items()):
            handle.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            if not isinstance(value, Iterator):
                handle.write(json.dumps(value))
                continue
            handle.write("[")
            for i, chunk in enumerate(chunk for chunk in value if chunk):
                handle.write(f"{', ' if i else ''}{json.dumps(chunk)[1:-1]}")
            handle.write("]")
        handle.write("}")


def iter_documents(directory: str | Path, difficulty: Difficulty, listing: Listing | None = None) -> Iterator[Document]:
    """Read the problem-<N>.txt files in `directory` (or in its `listing`) by ascending N, each when asked for;
    undecodable or paragraph-free files are a FormatError, and OSError propagates for unreadable ones."""
    problems, _ = listing or list_split(directory)
    for doc_id in sorted(problems):
        paragraphs = split_paragraphs(read_text(problems[doc_id]))
        if not paragraphs:
            raise FormatError(f"{problems[doc_id]} contains no nonempty paragraphs")
        yield Document(id=doc_id, difficulty=difficulty, paragraphs=paragraphs)
        del paragraphs  # before the next file is read


def load_documents(directory: str | Path, difficulty: Difficulty, listing: Listing | None = None) -> list[Document]:
    """All the documents `iter_documents` reads, in a list; no command calls it, but perfbench wraps it by name."""
    return list(iter_documents(directory, difficulty, listing))


def _parse_truth(path: Path, doc_id: int) -> TruthRecord:
    raw = read_json(path, "truth file")
    if not isinstance(raw, dict) or "changes" not in raw:
        raise FormatError(f"truth file for document {doc_id} is missing the \"changes\" key")
    changes = raw["changes"]
    if not is_changes(changes):
        raise FormatError(f"truth file for document {doc_id} has non-binary \"changes\" entries")
    authors = raw.get("authors", 1)
    if not is_int(authors) or authors < 1:
        raise FormatError(f"truth file for document {doc_id} has invalid \"authors\": {authors!r}")
    return TruthRecord(doc_id=doc_id, authors=authors, changes=tuple(changes))


def load_truth(
    directory: str | Path, *, listing: Listing | None = None, check_lengths: bool = True
) -> list[TruthRecord]:
    """Load all truth-problem-<N>.json files in `directory` (or in its `listing`), ordered by ascending N.

    With `check_lengths`, the changes length is checked against the paragraph count of the sibling
    problem-<N>.txt if it exists (an undecodable sibling is a FormatError). Without, no problem file
    is read: for callers that stream the documents, whose lengths `pair_labels` checks.
    """
    problems, truth_files = listing or list_split(directory)
    records = []
    for doc_id in sorted(truth_files):
        records.append(_parse_truth(truth_files[doc_id], doc_id))
        if check_lengths and doc_id in problems:
            _check_length(records[-1], len(split_paragraphs(read_text(problems[doc_id]))))
    return records


def _check_length(truth: TruthRecord, n_paragraphs: int) -> None:
    if len(truth.changes) != n_paragraphs - 1:
        raise FormatError(
            f"document {truth.doc_id}: {len(truth.changes)} changes for "
            f"{n_paragraphs} paragraphs (expected {n_paragraphs - 1})"
        )


def pair_labels(doc: Document, truths: Mapping[int, TruthRecord] | None) -> Sequence[int | None]:
    """The label of each of `doc`'s pairs: the changes of its record in `truths` (by doc id), or None each without;
    a document without a truth record, or whose record does not hold one change per pair, is a FormatError."""
    if truths is None:
        return [None] * (len(doc.paragraphs) - 1)
    truth = truths.get(doc.id)
    if truth is None:
        raise FormatError(f"document {doc.id} has no matching truth record")
    _check_length(truth, len(doc.paragraphs))
    return truth.changes


def build_pairs(docs: Iterable[Document], truths: Sequence[TruthRecord] | None = None) -> list[ParagraphPair]:
    """Emit the (paragraphs - 1) consecutive pairs of every document, in order.

    With `truths` given, each pair carries the gold label for its transition;
    without, labels are None (explicit unlabeled mode, nothing defaults to 0).
    Truth records for unknown documents are ignored; a document without a truth record,
    or a length mismatch, is a FormatError. No command calls it; perfbench wraps it by name.
    """
    by_id = None if truths is None else {t.doc_id: t for t in truths}
    return [
        ParagraphPair(doc.id, i, left, right, label)
        for doc in docs
        for i, (left, right, label) in enumerate(zip(doc.paragraphs, doc.paragraphs[1:], pair_labels(doc, by_id)))
    ]


def pair_keys(docs: Iterable[Document]) -> Iterator[PairKey]:
    """The key of every pair of `docs`, in order, taking the documents one at a time."""
    return (PairKey(doc.id, i) for doc in docs for i in range(len(doc.paragraphs) - 1))


def compute_stats(docs: Iterable[Document], truths: Sequence[TruthRecord] | None = None) -> SplitStats:
    """Count the documents, which may stream, and pairs of a split and, with `truths`, the pairs of each label.

    Without `truths` the label counts are None. With them, a document without
    a truth record or of the wrong length is a FormatError, from `pair_labels`.
    """
    by_id = None if truths is None else {t.doc_id: t for t in truths}
    labels = [pair_labels(doc, by_id) for doc in docs]  # a record's own changes, or a list of None
    pairs = sum(map(len, labels))
    ones = None if truths is None else sum(changes.count(1) for changes in labels)
    zeros = None if ones is None else pairs - ones
    return SplitStats(document_count=len(labels), pair_count=pairs, zeros_count=zeros, ones_count=ones)
