"""TF-IDF vectorization with stopword removal plus handcrafted surface counts.

One pair is represented as the concatenation of the two per-side blocks,
each block being [tfidf weights | scaled handcrafted counts]. A paragraph
table scans each distinct paragraph once and stores its block once, as a
CSR row that every pair using it reads. Everything here is deterministic
once a vocabulary is fitted.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# token_count and truncate_text are looked up on the module at call time, and
# truncate_text calls tokenize through the same namespace, so wrappers installed
# on these attributes (as the tracing benchmark does) see each call.
from . import tokenization
from .corpus import ParagraphPair, is_int, read_artifact, read_text
from .errors import FormatError, UsageError
from .tokenization import TruncationConfig

_WORD_RE = re.compile(r"[^\W_]+")
# Every ASCII character that is not a letter or digit, as a space: the separators of ASCII word tokens.
_ASCII_SEPARATORS = str.maketrans({chr(c): " " for c in range(128) if not chr(c).isalnum()})

VOCABULARY_FORMAT_VERSION = 1

# Width of one handcrafted block: ?, ., ', () combined, word count.
HANDCRAFTED_WIDTH = 5


@dataclass(frozen=True)
class Vocabulary:
    """Term-to-column mapping with document frequencies.

    Column indices are dense 0..V-1 in lexicographic term order, so a
    vocabulary fitted twice on the same corpus is identical.
    """

    index: dict[str, int]
    doc_freq: dict[str, int]
    document_count: int
    stopwords: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.index)

    @cached_property
    def idf_array(self) -> np.ndarray:
        """Smoothed idf of every term, by column: finite and positive even when df == N.

        math.log, not np.log, so the bits are those of the scalar formula.
        """
        terms = sorted(self.index, key=self.index.__getitem__)
        return np.array([math.log((1 + self.document_count) / (1 + self.doc_freq[term])) + 1.0 for term in terms])


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
    counted = (table if table is not None else ParagraphTable([])).document_frequencies(texts)
    doc_freq = {term: df for term, df in counted.items() if term not in stop}
    index = {term: i for i, term in enumerate(sorted(doc_freq))}
    return Vocabulary(index=index, doc_freq=doc_freq, document_count=len(texts), stopwords=stop)


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
    cut. Scans queue their term ids, and every 65,536 ids are compacted into
    each row's distinct (id, count) entries.
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
        self._ids, self._counts, self._ends, self._surface = array("i"), array("i"), array("q", [0]), array("q")
        self._tokens, self._scans, self._df = array("i"), [], np.zeros(0)  # queued: term ids, (end, times, row)

    def _sides(self, cut: bool | None = None) -> Iterator[str]:
        """Left and right paragraph of every pair, or of the pairs whose cut flag is `cut`."""
        return (text for p, c in zip(self.pairs, self.cut) if cut in (None, c) for text in (p.left, p.right))

    def document_frequencies(self, texts: Sequence[str]) -> dict[str, int]:
        """Each term's number of `texts` holding it, each distinct text scanned once and, if an uncut side, kept."""
        self._df = np.zeros(len(self._terms))
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
        if len(self._tokens) >= 1 << 16:  # so a compaction's arrays stay a few MiB, however long the texts
            self._compact()

    def _compact(self) -> None:
        """Sort the queued scans' (scan, id) codes: rows keep the distinct (id, count) entries, all add df."""
        if not self._scans:
            return
        ends, times, rows = map(np.array, zip(*self._scans))
        terms = len(self._terms)
        scans = np.repeat(np.arange(ends.size), np.diff(ends, prepend=0))
        codes = np.sort(scans * terms + np.frombuffer(self._tokens, dtype=np.int32))
        first = np.flatnonzero(np.diff(codes, prepend=-1))
        scans, ids = np.divmod(codes[first], terms)
        self._df = np.bincount(ids, times[scans], terms) + np.pad(self._df, (0, terms - self._df.size))
        kept = rows[scans]
        self._ids.frombytes(ids[kept].astype(np.int32).tobytes())
        self._counts.frombytes(np.diff(first, append=codes.size)[kept].astype(np.int32).tobytes())
        sizes = np.bincount(scans[kept], minlength=ends.size)[rows]  # the entries of each row
        self._ends.frombytes((self._ends[-1] + np.cumsum(sizes)).tobytes())
        self._tokens, self._scans = array("i"), []

    def featurize(self, vocab: Vocabulary) -> PairFeatures:
        """Every pair's vector under `vocab`, scanning the sides that fitting did not."""
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
        1 / (1 + word_count). Chunks of rows keep temporaries small.
        """
        self._compact()
        lookup = np.array([vocab.index.get(term, -1) for term in self._terms], dtype=np.int32)  # term id -> column
        ids, counts = np.frombuffer(self._ids, dtype=np.int32), np.frombuffer(self._counts, dtype=np.int32)
        ends = np.frombuffer(self._ends, dtype=np.int64)
        surface = np.frombuffer(self._surface, dtype=np.int64).reshape(-1, HANDCRAFTED_WIDTH)
        # Length normalization keeps long paragraphs from dominating the margin.
        scaled = surface * (1.0 / (1.0 + surface[:, -1]))[:, None]
        size = np.count_nonzero(lookup[ids] >= 0) + np.count_nonzero(surface)
        indptr, indices, values = [0], np.empty(size, dtype=np.int64), np.empty(size)
        for first in range(0, len(surface), 1024):
            last = min(first + 1024, len(surface))
            chunk = slice(ends[first], ends[last])
            cols = lookup[ids[chunk]]
            rows = np.repeat(np.arange(last - first), np.diff(ends[first : last + 1]))
            known = np.flatnonzero(cols >= 0)
            known = known[np.argsort(rows[known] * vocab.size + cols[known])]
            rows, cols, weights = rows[known], cols[known], counts[chunk][known] * vocab.idf_array[cols[known]]
            bounds = np.searchsorted(rows, np.arange(last - first + 1)).tolist()
            for start, end in zip(bounds, bounds[1:]):
                if end > start:  # one dot per row, as for a lone vector, so the bits match
                    weights[start:end] /= math.sqrt(float(np.dot(weights[start:end], weights[start:end])))
            surface_rows, slots = np.nonzero(surface[first:last])
            order = np.argsort(np.concatenate((rows, surface_rows)), kind="stable")
            at = slice(indptr[-1], indptr[-1] + order.size)
            indices[at] = np.concatenate((cols, vocab.size + slots))[order]
            values[at] = np.concatenate((weights, scaled[first:last][surface_rows, slots]))[order]
            row_sizes = np.diff(bounds) + np.count_nonzero(surface[first:last], axis=1)
            indptr.extend((indptr[-1] + np.cumsum(row_sizes)).tolist())
        return indptr, indices, values


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
    """Serialize to versioned JSON so train and predict share one vocabulary."""
    payload = {
        "version": VOCABULARY_FORMAT_VERSION,
        "document_count": vocab.document_count,
        "terms": [[term, vocab.index[term], vocab.doc_freq[term]] for term in sorted(vocab.index)],
        "stopwords": sorted(vocab.stopwords),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


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
        index, doc_freq = {term: col for term, col, _ in terms}, {term: df for term, _, df in terms}
        vocab = Vocabulary(index=index, doc_freq=doc_freq, document_count=count, stopwords=frozenset(stopwords))
        vocab.idf_array  # computed here, so a document_count too large for a float is a FormatError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"vocabulary file {path} is malformed: {exc}") from exc
    return vocab
