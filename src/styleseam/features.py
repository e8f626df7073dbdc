"""TF-IDF vectorization with stopword removal plus handcrafted surface counts.

One pair is represented as the concatenation of the two per-side blocks,
each block being [tfidf weights | scaled handcrafted counts]. A paragraph
table takes documents one at a time, scans each paragraph once, and stores
each side block as a CSR row that the pairs using it read. Everything here
is deterministic once a vocabulary is fitted.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Mapping, Sequence
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

# The tokenization functions are looked up on the module at call time, so
# wrappers installed on its attributes (as the tracing benchmark does) see
# each call.
from . import tokenization
from .corpus import Document, ParagraphPair, TruthRecord, is_int, list_chunks, pair_labels, read_text
from .errors import FormatError, UsageError
from .tokenization import TokenSeq, TruncationConfig, TruncationStrategy

_WORD_RE = re.compile(r"[^\W_]+")
# Every ASCII character that is not a letter or digit, as a space: the separators of ASCII word tokens.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

# Width of one handcrafted block: ?, ., ', () combined, word count.
HANDCRAFTED_WIDTH = 5


class Vocabulary:
    """Terms with their document frequencies, by column.

    Columns are dense 0..V-1 in lexicographic term order, so a vocabulary
    fitted twice on the same corpus is identical.
    """

    __slots__ = ("terms", "doc_freq", "document_count", "stopwords", "_idf")

    def __init__(self, terms: tuple[str, ...], doc_freq: np.ndarray, document_count: int, stopwords: frozenset[str]):
        self.terms, self.doc_freq = terms, doc_freq  # doc_freq: int64, the document frequency of each column's term
        self.document_count, self.stopwords = document_count, stopwords
        self._idf: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        same = (self.terms, self.document_count, self.stopwords) == (other.terms, other.document_count, other.stopwords)
        return same and np.array_equal(self.doc_freq, other.doc_freq)

    @property
    def idf_array(self) -> np.ndarray:
        """Smoothed idf of every term, by column: finite and positive even when df == N; computed once.

        math.log, not np.log, so the bits are those of the scalar formula.
        """
        if self._idf is None:
            self._idf = np.array([math.log((1 + self.document_count) / (1 + df)) + 1.0 for df in self.doc_freq.tolist()])
        return self._idf


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


def fit_vocabulary(table: ParagraphTable) -> Vocabulary:
    """Build a vocabulary over the word tokens of the paragraphs a fitting table took, its stopwords left out.

    Document frequency counts paragraphs containing the term at least once;
    a paragraph that occurs twice counts twice.
    """
    if not table.document_count:
        raise UsageError("cannot fit a vocabulary on an empty corpus")
    table._compact()
    counted = {term: int(df) for term, df in zip(table._terms, table._df.tolist()) if df}
    terms = tuple(sorted(counted))
    doc_freq = np.array([counted[term] for term in terms], dtype=np.int64)
    return Vocabulary(terms=terms, doc_freq=doc_freq, document_count=table.document_count, stopwords=table.stopwords)


class PairFeatures:
    """Pair vectors over CSR rows of side blocks, each block stored once; its length is its pair count.

    Pair i is row `left[i]` followed by row `right[i]` shifted by one block,
    total width 2 * (V + 5); the model reads the two rows where they lie.
    """

    __slots__ = ("indptr", "indices", "values", "left", "right", "dimension")

    def __init__(self, indptr: list[int], indices: np.ndarray, values: np.ndarray, left: list[int], right: list[int],
                 dimension: int):
        self.indptr, self.indices, self.values = indptr, indices, values
        self.left, self.right, self.dimension = left, right, dimension

    def __len__(self) -> int:
        return len(self.left)


class _TermIds(dict):
    """Term -> id; a term not seen before takes the next id, so ids are dense."""

    def __missing__(self, term: str) -> int:
        self[term] = len(self)
        return len(self) - 1


class ParagraphTable:
    """The pairs of documents taken one at a time, as CSR rows of their side blocks.

    `add` word-scans each paragraph once: all of it when fitting, as its document frequencies count all
    of it, else only the spans its rows keep. A side kept whole is one row, which both pairs of its
    paragraph share. A cut ASCII side's row is the run of the scan's term ids inside its kept tokens'
    span; a cut non-ASCII side is scanned from its kept tokens joined by spaces, as lowercasing a slice
    can differ (a final sigma), and they are sliced from the one tokenization its count took. Without a
    truncation config no pair is cut. Only term ids outlive `add`, never text; every 16,384 are compacted
    into each row's (id, count) entries and the document frequencies, stopwords left out.
    """

    def __init__(self, truncation: TruncationConfig | None = None, stopwords: Iterable[str] = (), fit: bool = False):
        self.truncation, self.fit, self.stopwords = truncation, fit, frozenset(w.lower() for w in stopwords)
        self.left, self.right, self.labels = [], [], []  # by pair: its side rows and label, then its PairKey fields
        self.doc_ids, self.pair_indices = array("q"), array("q")
        self.document_count = 0  # the paragraphs a fitting table took
        self._terms = _TermIds()
        self._stopped = np.zeros(0, dtype=bool)  # by term id: is a stopword
        self._ids, self._counts, self._ends, self._surface = array("i"), array("i"), array("q", [0]), array("q")
        self._df, self._entries = np.zeros(0), np.zeros(0, dtype=np.int64)  # by term id: df, and row entries
        self._tokens, self._runs = array("i"), []  # queued: term ids; (start, stop, times, row) runs of them

    def extend(self, documents: Iterable[Document], truths: Mapping[int, TruthRecord] | None = None) -> ParagraphTable:
        """`add` each of `documents`, labeled from `truths` by doc id; each is dropped before the next is read."""
        for document in documents:
            self.add(document.paragraphs, pair_labels(document, truths), document.id)
            del document
        return self

    def add(self, paragraphs: Sequence[str], labels: Sequence[int | None], doc_id: int = 0) -> None:
        """Queue the rows of the pairs of consecutive `paragraphs`, one document's, labeled `labels`."""
        cfg, pairs = self.truncation, range(len(paragraphs) - 1)
        # Only a non-ASCII paragraph is tokenized, once: its tokens give its count and its cut sides' kept tokens.
        tokens = [None if p.isascii() else tokenization.tokenize(p) for p in paragraphs] if cfg and pairs else []
        sizes = [tokenization.token_count(text) if seq is None else len(seq) for text, seq in zip(paragraphs, tokens)]
        needs: list[dict[tuple[bool, int] | None, int]] = [{} for _ in paragraphs]  # by paragraph: span -> row
        sides = []
        for j in pairs:
            keys = [None, None]  # None for a whole paragraph, else (from_end, keep) for a cut side's kept tokens
            if sizes and sizes[j] + sizes[j + 1] > cfg.budget:
                from_end = cfg.strategy is TruncationStrategy.TRANSITION
                for at, keep in enumerate(tokenization.keep_counts(sizes[j], sizes[j + 1], cfg)):
                    if keep < sizes[j + at] or not paragraphs[j + at].isascii():  # else the uncut row serves
                        keys[at] = (from_end and not at, keep)
            needs[j][keys[0]] = needs[j + 1][keys[1]] = -1
            sides.append(keys)
        for i, text in enumerate(paragraphs):
            self._scan_paragraph(text, tokens[i] if tokens else None, needs[i])
        self.left.extend(needs[j][left] for j, (left, _) in zip(pairs, sides))
        self.right.extend(needs[j + 1][right] for j, (_, right) in zip(pairs, sides))
        self.labels.extend(labels)
        self.doc_ids.extend([doc_id] * len(pairs))
        self.pair_indices.extend(pairs)
        self.document_count += len(paragraphs) if self.fit else 0

    def _scan_paragraph(self, text: str, tokens: TokenSeq | None, needs: dict[tuple[bool, int] | None, int]) -> None:
        """Word-scan `text` once for its document frequencies and the rows `needs` keys, and set their rows;
        `tokens`, its tokenization if it is not ASCII and its pairs were counted, gives a cut side's kept tokens."""
        spans = {key: tokenization.kept_span(text, key[1], key[0]) for key in needs if key} if text.isascii() else {}
        prefix = max((stop for key, (_, stop, _) in spans.items() if not key[0]), default=None)
        suffix = next((start for key, (start, _, _) in spans.items() if key[0]), None)
        if self.fit or None in needs or (None not in (prefix, suffix) and prefix >= suffix):
            first = last = self._scan(text)
            if None in needs:
                needs[None] = self._row(first, text, times=self.fit)
            elif self.fit:
                self._runs.append((*first, 1, False))
        else:  # the union of the kept spans: a start, an end, or both apart
            first = self._scan(text[:prefix]) if prefix is not None else (0, 0)
            last = self._scan(text[suffix:]) if suffix is not None else (0, 0)
        for key, (start, stop, words) in spans.items():
            at, end = last if key[0] else first
            needs[key] = self._row((end - words, end) if key[0] else (at, at + words), text, start, stop)
        for key in [key for key in needs if key and key not in spans]:  # a cut non-ASCII side
            kept = " ".join(tokens[len(tokens) - key[1] :] if key[0] else tokens[: key[1]])
            needs[key] = self._row(self._scan(kept), kept)
        if len(self._tokens) >= 1 << 14:  # so a compaction's arrays stay small, however long the texts
            self._compact()

    def _scan(self, text: str) -> tuple[int, int]:
        """Queue the term ids of `text`'s word tokens; where they lie in the queue."""
        start = len(self._tokens)
        self._tokens.fromlist(list(map(self._terms.__getitem__, word_tokens(text))))
        return start, len(self._tokens)

    def _row(self, run: tuple[int, int], text: str, start: int = 0, stop: int | None = None, times: int = 0) -> int:
        """A new row of the queued term ids in `run`, counted `times` in document frequencies; `text[start:stop]`
        gives its handcrafted counts: ?, ., ', () combined, word count."""
        self._runs.append((*run, times, True))
        hits = [text.count(char, start, stop) for char in "?.'()"]
        self._surface.extend((*hits[:3], hits[3] + hits[4], run[1] - run[0]))
        return len(self._surface) // HANDCRAFTED_WIDTH - 1

    def _compact(self) -> None:
        """Sort the queued runs' (run, id) codes: rows keep the distinct (id, count) entries, all add df.

        Stopwords are dropped from both; the stopword mask is extended over the new term ids only.
        """
        if not self._runs:
            return
        starts, stops, times, rows = map(np.array, zip(*self._runs))
        terms = len(self._terms)
        new = [term in self.stopwords for term in islice(reversed(self._terms), terms - self._stopped.size)]
        self._stopped = np.concatenate((self._stopped, np.array(new[::-1], dtype=bool)))
        sizes = stops - starts
        codes = np.repeat(np.arange(sizes.size) * terms, sizes)
        at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)  # where each run's ids lie: runs may overlap
        at += np.arange(at.size)
        codes += np.frombuffer(self._tokens, dtype=np.int32)[at]
        del at
        codes.sort()
        first = np.flatnonzero(np.diff(codes, prepend=-1))
        runs, ids = np.divmod(codes[first], terms)
        counts = np.diff(first, append=codes.size)
        counted = ~self._stopped[ids]
        runs, ids, counts = runs[counted], ids[counted], counts[counted]
        self._df = np.bincount(ids, times[runs], terms) + np.pad(self._df, (0, terms - self._df.size))
        kept = rows[runs]
        self._entries = np.bincount(ids[kept], minlength=terms) + np.pad(self._entries, (0, terms - self._entries.size))
        self._ids.frombytes(ids[kept].astype(np.int32).tobytes())
        self._counts.frombytes(counts[kept].astype(np.int32).tobytes())
        sizes = np.bincount(runs[kept], minlength=rows.size)[rows]  # the entries of each row
        self._ends.frombytes((self._ends[-1] + np.cumsum(sizes)).tobytes())
        self._tokens, self._runs = array("i"), []

    def featurize(self, vocab: Vocabulary) -> PairFeatures:
        """Every pair's vector under `vocab`, in the order the pairs were added.

        The rows are built from the table's entries, which are freed as they
        are read, so a table featurizes once.
        """
        if len(self._ids) < self._ends[-1]:
            raise UsageError("this table has featurized already; its entries are gone")
        if self.stopwords != vocab.stopwords:
            raise UsageError("the vocabulary's stopwords differ from those the table's rows leave out")
        return PairFeatures(*self._blocks(vocab), self.left, self.right, 2 * (vocab.size + HANDCRAFTED_WIDTH))

    def _blocks(self, vocab: Vocabulary) -> tuple[list[int], np.ndarray, np.ndarray]:
        """CSR (indptr, indices, values) of every row's side block, unshifted.

        A block is the L2-normalized tf-idf weights by column (OOV terms ignored), then the nonzero handcrafted
        counts at V + slot, scaled by 1 / (1 + word_count). A norm is `np.add.reduceat` of its row's squares, with
        the bits of that row alone and no BLAS. Chunks of rows are built from the last one back, and the table's
        entries are trimmed behind each, so the CSR and the entries never coexist in full and temporaries stay small.
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
            starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each nonempty row's first entry
            norms = np.sqrt(np.add.reduceat(weights * weights, starts))
            weights /= np.repeat(norms, np.diff(starts, append=rows.size))
            bounds = np.searchsorted(rows, np.arange(last - first + 1))
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
    table = ParagraphTable(stopwords=vocab.stopwords)
    table.add((pair.left, pair.right), (pair.label,), pair.doc_id)
    return table.featurize(vocab)


def save_vocabulary(vocab: Vocabulary) -> dict[str, object]:
    """The vocabulary's fields of the model file for `corpus.write_json`, its two lists by column, by chunk."""
    return {
        "document_count": vocab.document_count,
        "stopwords": sorted(vocab.stopwords),
        "terms": (list(vocab.terms[at]) for at in list_chunks(vocab.size)),
        "doc_freq": (vocab.doc_freq[at].tolist() for at in list_chunks(vocab.size)),
    }


def load_vocabulary(payload: Mapping[str, object], path: str | Path) -> Vocabulary:
    """The vocabulary of the parsed model file `payload`, read from `path`, once its fields check out."""
    try:
        count, terms, doc_freq, stopwords = (payload[k] for k in ("document_count", "terms", "doc_freq", "stopwords"))
        if not is_int(count) or count < 1:
            raise FormatError(f"model file {path} has document_count {count!r}, not an integer >= 1")
        if not (isinstance(terms, list) and isinstance(doc_freq, list) and len(terms) == len(doc_freq)):
            raise FormatError(f"model file {path} is malformed: its terms and doc_freq are not two lists of one length")
        for column, (term, df) in enumerate(zip(terms, doc_freq)):
            if not (isinstance(term, str) and is_int(df) and 1 <= df <= count):
                raise FormatError(f"model file {path} has a malformed entry {[term, df]!r} in column {column}")
            if column and term <= terms[column - 1]:  # ascending, so a term has one column
                raise FormatError(f"model file {path} has term {column} out of term order")
        if not isinstance(stopwords, list) or not all(isinstance(word, str) for word in stopwords):
            raise FormatError(f"model file {path} has stopwords that are not a list of strings")
        vocab = Vocabulary(tuple(terms), np.array(doc_freq, dtype=np.int64), count, frozenset(stopwords))
        vocab.idf_array  # computed here, so a document_count too large for a float is a FormatError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"model file {path} is malformed: {exc}") from exc
    return vocab
