"""Scalar reference featurization and linear model: one vector per pair, no reuse.

The library takes documents one at a time, scans each paragraph once, cuts
a truncated ASCII side's row out of that scan, and stores each side block
as a CSR row that pairs share; its model reads pairs from those rows. These
functions are the plain per-text vocabulary, the per-term, per-pair
featurization of the fully tokenized and truncated pair, and a per-vector
SGD and margin loop with the library's arithmetic; the differential tests
require bit-identical output from both. `dense_shrink_train_linear_svm` is the SGD as it was
before its weights carried a scale: the same descent, equal up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from styleseam import tokenization
from styleseam.corpus import ParagraphPair
from styleseam.features import HANDCRAFTED_WIDTH, PairFeatures, Vocabulary, word_tokens
from styleseam.model import BATCH_SIZE, LinearModel, TrainConfig, warmup_schedule
from styleseam.tokenization import TruncationConfig


@dataclass(frozen=True, eq=False)
class Vector:
    """Strictly increasing (index, weight) entries below `dimension`."""

    indices: np.ndarray
    values: np.ndarray
    dimension: int


def vectors(features: PairFeatures) -> list[Vector]:
    """Every pair of `features` as one Vector: its left row, then its right row shifted by one block."""
    ptr, half = features.indptr, features.dimension // 2
    gathered = []
    for left, right in zip(features.left, features.right):
        a, b, c, d = ptr[left], ptr[left + 1], ptr[right], ptr[right + 1]
        indices = np.concatenate((features.indices[a:b], features.indices[c:d] + half))
        values = np.concatenate((features.values[a:b], features.values[c:d]))
        gathered.append(Vector(indices, values, features.dimension))
    return gathered


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


def densify(vec: Vector) -> np.ndarray:
    out = np.zeros(vec.dimension)
    out[vec.indices] = vec.values
    return out


def tfidf_vector(text: str, vocab: Vocabulary) -> Vector:
    columns = {term: col for col, term in enumerate(vocab.terms)}
    counts: dict[int, int] = {}
    for term in word_tokens(text):
        col = columns.get(term)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    if not counts:
        return Vector(
            indices=np.empty(0, dtype=np.int32),
            values=np.empty(0, dtype=np.float64),
            dimension=vocab.size,
        )
    cols = np.array(sorted(counts), dtype=np.int32)
    # Smoothed idf: finite and positive even when df == N.
    idf = {c: math.log((1 + vocab.document_count) / (1 + int(vocab.doc_freq[c]))) + 1.0 for c in cols}
    weights = np.array([counts[c] * idf[c] for c in cols], dtype=np.float64)
    weights /= math.sqrt(float(np.dot(weights, weights)))
    return Vector(indices=cols, values=weights, dimension=vocab.size)


def fit_vocabulary(texts: Sequence[str], stopwords: Iterable[str]) -> Vocabulary:
    """Each term's document frequency from one set of word tokens per text, every occurrence of a text counted."""
    stop = frozenset(word.lower() for word in stopwords)
    df: dict[str, int] = {}
    for text in texts:
        for term in set(word_tokens(text)) - stop:
            df[term] = df.get(term, 0) + 1
    terms = tuple(sorted(df))
    return Vocabulary(terms, np.array([df[term] for term in terms], dtype=np.int64), len(texts), stop)


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


def pair_features(pair: ParagraphPair, vocab: Vocabulary) -> Vector:
    block = vocab.size + HANDCRAFTED_WIDTH
    left_idx, left_val = _side_block(pair.left, vocab, 0)
    right_idx, right_val = _side_block(pair.right, vocab, block)
    return Vector(
        indices=np.array(left_idx + right_idx, dtype=np.int32),
        values=np.array(left_val + right_val, dtype=np.float64),
        dimension=2 * block,
    )


def featurize(
    pairs: Iterable[ParagraphPair], vocab: Vocabulary, truncation: TruncationConfig
) -> list[Vector]:
    vectors = []
    for pair in pairs:
        left = tokenization.tokenize(pair.left)
        right = tokenization.tokenize(pair.right)
        if len(left) + len(right) > truncation.budget:
            left, right = tokenization.truncate(left, right, truncation)
            pair = pair._replace(left=" ".join(left), right=" ".join(right))
        vectors.append(pair_features(pair, vocab))
    return vectors


def _sides(vec: Vector) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The indices and values of the left block of `vec`, then those of its right block, unshifted."""
    half = vec.dimension // 2
    left = vec.indices < half
    return vec.indices[left], vec.values[left], vec.indices[~left] - half, vec.values[~left]


def train_linear_svm(
    features: Sequence[Vector], labels: Sequence[int], cfg: TrainConfig, snapshots: list[np.ndarray] | None = None
) -> LinearModel:
    """Mini-batch subgradient descent, one gathered vector per visit, as the library's SGD.

    The weights are scale * w, and a margin is the sum of one dot per side
    block. `snapshots` receives a copy of the weights at each epoch end.
    """
    y = [1.0 if label == 1 else -1.0 for label in labels]
    w = np.zeros(features[0].dimension)
    half = w.size // 2
    b, scale = 0.0, 1.0
    n = len(features)
    total_steps = cfg.epochs * ((n + BATCH_SIZE - 1) // BATCH_SIZE)
    rng = np.random.default_rng(cfg.seed)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            lr = warmup_schedule(step, total_steps)
            scale *= 1.0 - lr * cfg.l2
            if scale < 1e-9:
                w *= scale
                scale = 1.0
            rate = lr / len(batch)
            for i in batch:
                li, lv, ri, rv = _sides(features[i])
                dot = float(w[li] @ lv) + float(w[half + ri] @ rv)
                if y[i] * (scale * dot + b) < 1.0:
                    w[li] += (rate * y[i] / scale) * lv
                    w[half + ri] += (rate * y[i] / scale) * rv
                    b += rate * y[i]
            step += 1
        w *= scale
        scale = 1.0
        if snapshots is not None:
            snapshots.append(w.copy())
    return LinearModel(weights=w, bias=b, l2=cfg.l2)


def dense_shrink_train_linear_svm(features: Sequence[Vector], labels: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """The same descent with every weight shrunk at every step and one dot per visit: equal up to rounding."""
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w = np.zeros(features[0].dimension)
    b = 0.0
    n = len(features)
    total_steps = cfg.epochs * ((n + BATCH_SIZE - 1) // BATCH_SIZE)
    rng = np.random.default_rng(cfg.seed)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            lr = warmup_schedule(step, total_steps)
            w *= 1.0 - lr * cfg.l2
            scale = lr / len(batch)
            for i in batch:
                vec = features[i]
                margin = y[i] * (float(w[vec.indices] @ vec.values) + b)
                if margin < 1.0:
                    w[vec.indices] += scale * y[i] * vec.values
                    b += scale * y[i]
            step += 1
    return LinearModel(weights=w, bias=b, l2=cfg.l2)


def side_sum(products: np.ndarray) -> float:
    """One side block's share of a margin: `np.add.reduceat` of its products, 0.0 when it has none."""
    return float(np.add.reduceat(products, [0])[0]) if products.size else 0.0


def margin(model: LinearModel, vec: Vector) -> float:
    li, lv, ri, rv = _sides(vec)
    w, half = model.weights, vec.dimension // 2
    return side_sum(w[li] * lv) + side_sum(w[half + ri] * rv) + model.bias


def hinge_objective(model: LinearModel, features: Sequence[Vector], labels: Sequence[int]) -> float:
    total = 0.0
    for vec, label in zip(features, labels):
        y = 1.0 if label == 1 else -1.0
        total += max(0.0, 1.0 - y * margin(model, vec))
    penalty = 0.5 * model.l2 * float(model.weights @ model.weights)
    return penalty + total / len(labels)


def score(model: LinearModel, vec: Vector) -> float:
    """The sigmoid of the margin, spelled for either sign without overflow."""
    m = margin(model, vec)
    if m >= 0:
        return 1.0 / (1.0 + math.exp(-m))
    e = math.exp(m)
    return e / (1.0 + e)
