"""Scalar reference featurization: one dict-and-loop pass per call, no reuse.

The library scans each distinct paragraph once, during vocabulary fitting
when it trains, and stores each side block once as a CSR row that pairs
share. These functions are the plain per-term, per-pair implementation it
replaced; the differential tests require bit-identical output from both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from styleseam import tokenization
from styleseam.corpus import ParagraphPair
from styleseam.features import HANDCRAFTED_WIDTH, SparseFeatureVector, Vocabulary, word_tokens
from styleseam.tokenization import TruncationConfig


@dataclass(frozen=True)
class HandcraftedCounts:
    """Exact surface counts of one text."""

    question_marks: int
    periods: int
    apostrophes: int
    parentheses: int
    word_count: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.question_marks, self.periods, self.apostrophes, self.parentheses, self.word_count)


def densify(vec: SparseFeatureVector) -> np.ndarray:
    out = np.zeros(vec.dimension)
    out[vec.indices] = vec.values
    return out


def tfidf_vector(text: str, vocab: Vocabulary) -> SparseFeatureVector:
    counts: dict[int, int] = {}
    terms: dict[int, str] = {}
    for term in word_tokens(text):
        col = vocab.index.get(term)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
            terms[col] = term
    if not counts:
        return SparseFeatureVector(
            indices=np.empty(0, dtype=np.int64),
            values=np.empty(0, dtype=np.float64),
            dimension=vocab.size,
        )
    cols = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[c] * vocab.idf(terms[c]) for c in cols], dtype=np.float64)
    weights /= math.sqrt(float(np.dot(weights, weights)))
    return SparseFeatureVector(indices=cols, values=weights, dimension=vocab.size)


def handcrafted(text: str) -> HandcraftedCounts:
    return HandcraftedCounts(
        question_marks=text.count("?"),
        periods=text.count("."),
        apostrophes=text.count("'"),
        parentheses=text.count("(") + text.count(")"),
        word_count=len(word_tokens(text)),
    )


def _side_block(text: str, vocab: Vocabulary, offset: int) -> tuple[list[int], list[float]]:
    tfidf = tfidf_vector(text, vocab)
    indices = [offset + int(i) for i in tfidf.indices]
    values = [float(v) for v in tfidf.values]
    counts = handcrafted(text)
    scale = 1.0 / (1.0 + counts.word_count)
    for slot, count in enumerate(counts.as_tuple()):
        if count:
            indices.append(offset + vocab.size + slot)
            values.append(count * scale)
    return indices, values


def pair_features(pair: ParagraphPair, vocab: Vocabulary) -> SparseFeatureVector:
    block = vocab.size + HANDCRAFTED_WIDTH
    left_idx, left_val = _side_block(pair.left, vocab, 0)
    right_idx, right_val = _side_block(pair.right, vocab, block)
    return SparseFeatureVector(
        indices=np.array(left_idx + right_idx, dtype=np.int64),
        values=np.array(left_val + right_val, dtype=np.float64),
        dimension=2 * block,
    )


def featurize(
    pairs: Iterable[ParagraphPair], vocab: Vocabulary, truncation: TruncationConfig
) -> list[SparseFeatureVector]:
    vectors = []
    for pair in pairs:
        left = tokenization.tokenize(pair.left)
        right = tokenization.tokenize(pair.right)
        if len(left) + len(right) > truncation.budget:
            left, right = tokenization.truncate(left, right, truncation)
            pair = replace(pair, left=" ".join(left), right=" ".join(right))
        vectors.append(pair_features(pair, vocab))
    return vectors
