"""TF-IDF vectorization with stopword removal plus handcrafted surface counts.

One pair is represented as the concatenation of the two per-side blocks,
each block being [tfidf weights | scaled handcrafted counts]. Everything
here is deterministic and pure once a vocabulary is fitted.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# tokenize/truncate are looked up on the module at call time, so wrappers
# installed on its attributes (as the tracing benchmark does) see each call.
from . import tokenization
from .corpus import ParagraphPair
from .errors import FormatError, UsageError
from .tokenization import TruncationConfig

_WORD_RE = re.compile(r"[^\W_]+")

VOCABULARY_FORMAT_VERSION = 1

# Width of one handcrafted block: ?, ., ', () combined, word count.
HANDCRAFTED_WIDTH = 5


@dataclass(frozen=True)
class HandcraftedCounts:
    """Exact surface counts of one text."""

    question_marks: int
    periods: int
    apostrophes: int
    parentheses: int
    word_count: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (
            self.question_marks,
            self.periods,
            self.apostrophes,
            self.parentheses,
            self.word_count,
        )


@dataclass(frozen=True, eq=False)
class SparseFeatureVector:
    """Strictly-increasing (index, weight) entries below `dimension`."""

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dimension)
        dense[self.indices] = self.values
        return dense


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
    # (text, block) of the last side block computed under this vocabulary; see _side_block.
    _last_side: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.index)

    def idf(self, term: str) -> float:
        # Smoothed variant: stays finite and positive even when df == N.
        return math.log((1 + self.document_count) / (1 + self.doc_freq[term])) + 1.0

    @cached_property
    def idf_array(self) -> np.ndarray:
        """`idf` of every term, by column (math.log, not np.log, so the bits match)."""
        return np.array([self.idf(term) for term in sorted(self.index, key=self.index.__getitem__)])


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric runs of `text`."""
    return _WORD_RE.findall(text.lower())


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Read a stopword file (one word per line, # comments); bundled list by default."""
    if path is None:
        content = resources.files("styleseam.data").joinpath("stopwords_en.txt").read_text("utf-8")
    else:
        content = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in content.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


def fit_vocabulary(texts: Sequence[str], stopwords: Iterable[str] = frozenset()) -> Vocabulary:
    """Build a vocabulary over non-stopword word tokens of `texts`.

    Document frequency counts texts containing the term at least once.
    """
    if not texts:
        raise UsageError("cannot fit a vocabulary on an empty corpus")
    stop = frozenset(w.lower() for w in stopwords)
    doc_freq: dict[str, int] = {}
    for text in texts:
        for term in set(word_tokens(text)):
            if term not in stop:
                doc_freq[term] = doc_freq.get(term, 0) + 1
    index = {term: i for i, term in enumerate(sorted(doc_freq))}
    return Vocabulary(index=index, doc_freq=doc_freq, document_count=len(texts), stopwords=stop)


def _tfidf(tokens: list[str], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Sorted columns and L2-normalized tf-idf weights of `tokens`; OOV terms ignored."""
    ids = [col for col in map(vocab.index.get, tokens) if col is not None]
    cols, counts = np.unique(np.array(ids, dtype=np.int64), return_counts=True)
    weights = counts * vocab.idf_array[cols]
    if cols.size:
        weights /= math.sqrt(float(np.dot(weights, weights)))
    return cols, weights


def tfidf_vector(text: str, vocab: Vocabulary) -> SparseFeatureVector:
    """L2-normalized tf-idf weights of `text` under `vocab`; OOV terms ignored."""
    cols, weights = _tfidf(word_tokens(text), vocab)
    return SparseFeatureVector(indices=cols, values=weights, dimension=vocab.size)


def _handcrafted(text: str, word_count: int) -> HandcraftedCounts:
    return HandcraftedCounts(
        question_marks=text.count("?"),
        periods=text.count("."),
        apostrophes=text.count("'"),
        parentheses=text.count("(") + text.count(")"),
        word_count=word_count,
    )


def handcrafted(text: str) -> HandcraftedCounts:
    """Count question marks, periods, apostrophes, parentheses, and words."""
    return _handcrafted(text, len(word_tokens(text)))


def _side_block(text: str, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """One side's [tfidf | handcrafted] entries, unshifted, from one word scan of `text`.

    Consecutive pairs share a paragraph, so the last block is kept on `vocab`
    and served again when the next side has the same text.
    """
    last = vocab._last_side[0]
    if last is not None and last[0] == text:
        return last[1]
    tokens = word_tokens(text)
    cols, weights = _tfidf(tokens, vocab)
    counts = np.array(_handcrafted(text, len(tokens)).as_tuple())
    slots = np.flatnonzero(counts)
    # Length normalization keeps long paragraphs from dominating the margin.
    scale = 1.0 / (1.0 + len(tokens))
    block = np.concatenate((cols, vocab.size + slots)), np.concatenate((weights, counts[slots] * scale))
    vocab._last_side[0] = (text, block)
    return block


def pair_features(pair: ParagraphPair, vocab: Vocabulary) -> SparseFeatureVector:
    """Concatenate the left and right side blocks of one pair.

    Layout: [tfidf(left) | handcrafted(left) | tfidf(right) | handcrafted(right)],
    total width 2 * (V + 5). Handcrafted counts are scaled by
    1 / (1 + word_count) of their own side.
    """
    block = vocab.size + HANDCRAFTED_WIDTH
    left_idx, left_val = _side_block(pair.left, vocab)
    right_idx, right_val = _side_block(pair.right, vocab)
    return SparseFeatureVector(
        indices=np.concatenate((left_idx, right_idx + block)),
        values=np.concatenate((left_val, right_val)),
        dimension=2 * block,
    )


def featurize(
    pairs: Iterable[ParagraphPair], vocab: Vocabulary, truncation: TruncationConfig
) -> list[SparseFeatureVector]:
    """Truncate each pair to the token budget, then extract its pair features.

    This is the one featurization path of training and prediction. Pairs
    within budget keep their original text, so character-level features are
    unaffected unless truncation actually bites; a cut pair is featurized
    from the space-joined tokens that truncation keeps.
    """
    truncated = []
    for pair in pairs:
        left = tokenization.tokenize(pair.left)
        right = tokenization.tokenize(pair.right)
        if len(left) + len(right) > truncation.budget:
            left, right = tokenization.truncate(left, right, truncation)
            pair = replace(pair, left=" ".join(left), right=" ".join(right))
        truncated.append(pair)
    return [pair_features(pair, vocab) for pair in truncated]


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
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"vocabulary file {path} is not valid JSON: {exc}") from exc
    if payload.get("version") != VOCABULARY_FORMAT_VERSION:
        raise FormatError(f"unsupported vocabulary version {payload.get('version')!r}")
    try:
        index = {term: col for term, col, _ in payload["terms"]}
        doc_freq = {term: df for term, _, df in payload["terms"]}
        vocab = Vocabulary(
            index=index,
            doc_freq=doc_freq,
            document_count=int(payload["document_count"]),
            stopwords=frozenset(payload["stopwords"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"vocabulary file {path} is malformed: {exc}") from exc
    if sorted(vocab.index.values()) != list(range(vocab.size)):
        raise FormatError(f"vocabulary file {path} has non-dense column indices")
    return vocab
