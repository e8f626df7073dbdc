"""TF-IDF vectorization with stopword removal plus handcrafted surface counts.

One pair is represented as the concatenation of the two per-side blocks,
each block being [tfidf weights | scaled handcrafted counts]. A paragraph
table scans each distinct paragraph once and stores its block once, as a
CSR row that every pair using it reads. Everything here is deterministic
once a vocabulary is fitted.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# token_count and truncate_text are looked up on the module at call time, and
# truncate_text calls tokenize through the same namespace, so wrappers installed
# on these attributes (as the tracing benchmark does) see each call.
from . import tokenization
from .corpus import ParagraphPair, is_int, list_chunks, read_artifact, read_text, write_json
from .errors import FormatError, UsageError
from .tokenization import TruncationConfig

_WORD_RE = re.compile(r"[^\W_]+")
# Every ASCII character that is not a letter or digit, as a space: the separators of ASCII word tokens.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

VOCABULARY_FORMAT_VERSION = 1

# Width of one handcrafted block: ?, ., ', () combined, word count.
HANDCRAFTED_WIDTH = 5


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Terms with their document frequencies, by column.

    Columns are dense 0..V-1 in lexicographic term order, so a vocabulary
    fitted twice on the same corpus is identical.
    """

    terms: tuple[str, ...]
    doc_freq: np.ndarray  # int64, the document frequency of each column's term
    document_count: int
    stopwords: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        same = (self.terms, self.document_count, self.stopwords) == (other.terms, other.document_count, other.stopwords)
        return same and np.array_equal(self.doc_freq, other.doc_freq)

    @cached_property
    def idf_array(self) -> np.ndarray:
        """Smoothed idf of every term, by column: finite and positive even when df == N.

        math.log, not np.log, so the bits are those of the scalar formula.
        """
        return np.array([math.log((1 + self.document_count) / (1 + df)) + 1.0 for df in self.doc_freq.tolist()])


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric runs of `text`; ASCII text is split without a regex scan."""
    if text.isascii():
        return text.lower().translate(_ASCII_SEPARATORS).split()
    return _WORD_RE.findall(text.lower())


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Read a stopword file (one word per line, # comments); bundled list by default."""
    if path is None:
        content = resources.files("styleseam.data").joinpath("stopwords_en.txt").read_text("utf-8")
    else:
        content = read_text(path)
    words = set()
    for line in content.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


def fit_vocabulary(
    texts: Sequence[str], stopwords: Iterable[str] = frozenset(), table: ParagraphTable | None = None
) -> Vocabulary:
    """Build a vocabulary over non-stopword word tokens of `texts`.

    Document frequency counts texts containing the term at least once; a
    text that occurs twice counts twice but is scanned once. With a `table`,
    the scans go through it, and it keeps those it needs.
    """
    if not texts:
        raise UsageError("cannot fit a vocabulary on an empty corpus")
    stop = frozenset(w.lower() for w in stopwords)
    counted = (table if table is not None else ParagraphTable([])).document_frequencies(texts, stop)
    terms = tuple(sorted(counted))
    doc_freq = np.array([counted[term] for term in terms], dtype=np.int64)
    return Vocabulary(terms=terms, doc_freq=doc_freq, document_count=len(texts), stopwords=stop)


@dataclass(eq=False)
class PairFeatures:
    """Pair vectors over CSR rows of side blocks, each block stored once.

    Pair i is row `left[i]` followed by row `right[i]` shifted by one block,
    total width 2 * (V + 5); the model reads the two rows where they lie.
    """

    indptr: list[int]
    indices: np.ndarray
    values: np.ndarray
    left: list[int]
    right: list[int]
    dimension: int

    def __len__(self) -> int:
        return len(self.left)


class _TermIds(dict):
    """Term -> id; a term not seen before takes the next id, so ids are dense."""

    def __missing__(self, term: str) -> int:
        self[term] = len(self)
        return len(self) - 1


class ParagraphTable:
    """The paragraphs of a pair list, each distinct one word-scanned once.

    The budget check counts tokens without a regex. Each paragraph that is a
    side of a pair within budget gets one row. A cut pair's sides are the
    space-joined tokens truncation keeps, and each distinct kept text gets
    one row; only the kept end of each side is tokenized, its length known
    from the budget check's counts. Without a truncation config no pair is
    cut. Scans queue their term ids, and every 16,384 ids are compacted into
    each row's distinct (id, count) entries, stopwords left out.
    """

    def __init__(self, pairs: Iterable[ParagraphPair], truncation: TruncationConfig | None = None) -> None:
        self.pairs, self.truncation = list(pairs), truncation
        self.cut = [False] * len(self.pairs)
        self._sizes: dict[str, int] = {}  # token count of each side of a cut pair
        if truncation is not None:
            sizes = {text: tokenization.token_count(text) for text in dict.fromkeys(self._sides())}
            self.cut = [sizes[p.left] + sizes[p.right] > truncation.budget for p in self.pairs]
            self._sizes = {text: sizes[text] for text in self._sides(cut=True)}
        self._uncut = set(self._sides(cut=False))
        self._rows: dict[str, int] = {}  # side text (a paragraph or a kept text) -> its row
        self._terms = _TermIds()
        self._stop, self._stopped = frozenset(), np.zeros(0, dtype=bool)  # the stopwords; by term id, is one
        self._ids, self._counts, self._ends, self._surface = array("i"), array("i"), array("q", [0]), array("q")
        self._df, self._entries = np.zeros(0), np.zeros(0, dtype=np.int64)  # by term id: df, and row entries
        self._tokens, self._scans = array("i"), []  # queued: term ids, (end, times, row)

    def _sides(self, cut: bool | None = None) -> Iterator[str]:
        """Left and right paragraph of every pair, or of the pairs whose cut flag is `cut`."""
        return (text for p, c in zip(self.pairs, self.cut) if cut in (None, c) for text in (p.left, p.right))

    def document_frequencies(self, texts: Sequence[str], stopwords: frozenset[str]) -> dict[str, int]:
        """Each non-stopword term's number of `texts` holding it.

        Each distinct text is scanned once and, if an uncut side, kept.
        """
        self._stop, self._df = stopwords, np.zeros(len(self._terms))
        for text, times in Counter(texts).items():
            self._scan(text, times, row=text in self._uncut and text not in self._rows)
        self._compact()
        return {term: int(df) for term, df in zip(self._terms, self._df.tolist()) if df}

    def _scan(self, text: str, times: int = 0, row: bool = True) -> None:
        """Queue the term ids of `text`'s word tokens, standing for `times` texts in document frequencies."""
        tokens = word_tokens(text)
        self._tokens.fromlist(list(map(self._terms.__getitem__, tokens)))
        self._scans.append((len(self._tokens), times, row))
        if row:
            self._rows[text] = len(self._rows)
            hits = text.count  # the handcrafted slots: ?, ., ', () combined, word count
            self._surface.extend((hits("?"), hits("."), hits("'"), hits("(") + hits(")"), len(tokens)))
        if len(self._tokens) >= 1 << 14:  # so a compaction's arrays stay small, however long the texts
            self._compact()

    def _compact(self) -> None:
        """Sort the queued scans' (scan, id) codes: rows keep the distinct (id, count) entries, all add df.

        Stopwords are dropped from both; the stopword mask is extended over the new term ids only.
        """
        if not self._scans:
            return
        ends, times, rows = map(np.array, zip(*self._scans))
        terms = len(self._terms)
        new = [term in self._stop for term in islice(reversed(self._terms), terms - self._stopped.size)]
        self._stopped = np.concatenate((self._stopped, np.array(new[::-1], dtype=bool)))
        scans = np.repeat(np.arange(ends.size), np.diff(ends, prepend=0))
        codes = np.sort(scans * terms + np.frombuffer(self._tokens, dtype=np.int32))
        first = np.flatnonzero(np.diff(codes, prepend=-1))
        scans, ids = np.divmod(codes[first], terms)
        counts = np.diff(first, append=codes.size)
        counted = ~self._stopped[ids]
        scans, ids, counts = scans[counted], ids[counted], counts[counted]
        self._df = np.bincount(ids, times[scans], terms) + np.pad(self._df, (0, terms - self._df.size))
        kept = rows[scans]
        self._entries = np.bincount(ids[kept], minlength=terms) + np.pad(self._entries, (0, terms - self._entries.size))
        self._ids.frombytes(ids[kept].astype(np.int32).tobytes())
        self._counts.frombytes(counts[kept].astype(np.int32).tobytes())
        sizes = np.bincount(scans[kept], minlength=ends.size)[rows]  # the entries of each row
        self._ends.frombytes((self._ends[-1] + np.cumsum(sizes)).tobytes())
        self._tokens, self._scans = array("i"), []

    def featurize(self, vocab: Vocabulary) -> PairFeatures:
        """Every pair's vector under `vocab`, scanning the sides that fitting did not.

        The rows are built from the table's entries, which are freed as they
        are read, so a table featurizes once.
        """
        if len(self._ids) < self._ends[-1]:
            raise UsageError("this table has featurized already; its entries are gone")
        if self._stopped.size and self._stop != vocab.stopwords:
            raise UsageError("the vocabulary's stopwords differ from those the table's rows leave out")
        self._stop = vocab.stopwords
        left, right = [], []
        for pair, cut in zip(self.pairs, self.cut):
            sides = (pair.left, pair.right)
            if cut:
                sizes = (self._sizes[pair.left], self._sizes[pair.right])
                kept = tokenization.truncate_text(pair.left, pair.right, sizes, self.truncation)
                sides = tuple(" ".join(side) for side in kept)
            left.append(self._row(sides[0]))
            right.append(self._row(sides[1]))
        return PairFeatures(*self._blocks(vocab), left, right, 2 * (vocab.size + HANDCRAFTED_WIDTH))

    def _row(self, text: str) -> int:
        """The row of `text`, scanned now if no row holds it yet.

        A block depends on the text alone, so a kept text that recurs, as in
        consecutive longest_first cuts of one paragraph, shares one row.
        """
        if text not in self._rows:
            self._scan(text)
        return self._rows[text]

    def _blocks(self, vocab: Vocabulary) -> tuple[list[int], np.ndarray, np.ndarray]:
        """CSR (indptr, indices, values) of every row's side block, unshifted.

        A block is the L2-normalized tf-idf weights by column (OOV terms
        ignored), then the nonzero handcrafted counts at V + slot, scaled by
        1 / (1 + word_count). Chunks of rows are built from the last one
        back, and the table's entries are trimmed behind each, so the CSR and
        the entries never coexist in full and temporaries stay small.
        """
        self._compact()
        found = np.array([self._terms.get(term, -1) for term in vocab.terms], dtype=np.int64)  # column -> term id
        lookup = np.full(len(self._terms), -1, dtype=np.int32)  # term id -> column
        lookup[found[found >= 0]] = np.flatnonzero(found >= 0)
        ends = np.frombuffer(self._ends, dtype=np.int64)
        surface = np.frombuffer(self._surface, dtype=np.int64).reshape(-1, HANDCRAFTED_WIDTH)
        # Length normalization keeps long paragraphs from dominating the margin.
        scaled = surface * (1.0 / (1.0 + surface[:, -1]))[:, None]
        end = int(self._entries[lookup >= 0].sum()) + np.count_nonzero(surface)
        indices, values = np.empty(end, dtype=np.int32), np.empty(end)
        row_sizes = np.empty(len(surface), dtype=np.int64)
        for first in reversed(range(0, len(surface), 256)):
            last = min(first + 256, len(surface))
            cols = lookup[np.frombuffer(self._ids[ends[first] :], dtype=np.int32)]
            counts = np.frombuffer(self._counts[ends[first] :], dtype=np.int32)
            del self._ids[ends[first] :], self._counts[ends[first] :]
            rows = np.repeat(np.arange(last - first), np.diff(ends[first : last + 1]))
            known = np.flatnonzero(cols >= 0)
            known = known[np.argsort(rows[known] * vocab.size + cols[known])]
            rows, cols, weights = rows[known], cols[known], counts[known] * vocab.idf_array[cols[known]]
            bounds = np.searchsorted(rows, np.arange(last - first + 1)).tolist()
            for start, stop in zip(bounds, bounds[1:]):
                if stop > start:  # one dot per row, as for a lone vector, so the bits match
                    weights[start:stop] /= math.sqrt(float(np.dot(weights[start:stop], weights[start:stop])))
            surface_rows, slots = np.nonzero(surface[first:last])
            order = np.argsort(np.concatenate((rows, surface_rows)), kind="stable")
            at = slice(end - order.size, end)
            indices[at] = np.concatenate((cols, vocab.size + slots))[order]
            values[at] = np.concatenate((weights, scaled[first:last][surface_rows, slots]))[order]
            row_sizes[first:last] = np.diff(bounds) + np.count_nonzero(surface[first:last], axis=1)
            end -= order.size
        return [0, *np.cumsum(row_sizes).tolist()], indices, values


def pair_features(pair: ParagraphPair, vocab: Vocabulary) -> PairFeatures:
    """The one-pair `PairFeatures` of `pair`, without truncation.

    Layout: [tfidf(left) | handcrafted(left) | tfidf(right) | handcrafted(right)],
    total width 2 * (V + 5). Handcrafted counts are scaled by
    1 / (1 + word_count) of their own side.
    """
    return ParagraphTable([pair]).featurize(vocab)


def featurize(pairs: Iterable[ParagraphPair], vocab: Vocabulary, truncation: TruncationConfig) -> PairFeatures:
    """Truncate each pair to the token budget, then extract its pair features.

    This is the one featurization path of training and prediction. Pairs
    within budget keep their original text, so character-level features are
    unaffected unless truncation actually bites; a cut pair is featurized
    from the space-joined tokens that truncation keeps.
    """
    return ParagraphTable(pairs, truncation).featurize(vocab)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Serialize to versioned JSON so train and predict share one vocabulary; the terms are written by chunk."""
    columns = range(vocab.size)
    entries = (list(zip(vocab.terms[at], columns[at], vocab.doc_freq[at].tolist())) for at in list_chunks(vocab.size))
    write_json(path, {
        "version": VOCABULARY_FORMAT_VERSION,
        "document_count": vocab.document_count,
        "terms": entries,
        "stopwords": sorted(vocab.stopwords),
    })


def load_vocabulary(path: str | Path) -> Vocabulary:
    payload = read_artifact(path, "vocabulary", VOCABULARY_FORMAT_VERSION)
    try:
        count, terms, stopwords = payload["document_count"], payload["terms"], payload["stopwords"]
        if not is_int(count) or count < 1:
            raise FormatError(f"vocabulary file {path} has document_count {count!r}, not an integer >= 1")
        for position, (term, col, df) in enumerate(terms):
            if not (isinstance(term, str) and is_int(col) and is_int(df) and 1 <= df <= count):
                raise FormatError(f"vocabulary file {path} has a malformed entry {[term, col, df]!r}")
            if col != position or (position and term <= terms[position - 1][0]):  # ascending, dense columns
                raise FormatError(f"vocabulary file {path} has entry {position} out of term order or non-dense")
        if not isinstance(stopwords, list) or not all(isinstance(word, str) for word in stopwords):
            raise FormatError(f"vocabulary file {path} has stopwords that are not a list of strings")
        doc_freq = np.array([df for _, _, df in terms], dtype=np.int64)
        vocab = Vocabulary(tuple(term for term, _, _ in terms), doc_freq, count, frozenset(stopwords))
        vocab.idf_array  # computed here, so a document_count too large for a float is a FormatError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"vocabulary file {path} is malformed: {exc}") from exc
    return vocab
