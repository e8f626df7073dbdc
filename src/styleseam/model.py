"""Linear pair classifier and prediction plumbing.

The trainable model is a primal linear SVM: L2-regularized hinge loss
minimized by seeded mini-batch subgradient descent with a warmup/linear-decay
learning-rate schedule. Scores are sigmoid-calibrated margins so internal
predictions mix with external probability files in the same ensembles.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import corpus
from .corpus import Document, PairKey, ParagraphPair, TruthRecord, is_int, is_number, read_artifact, read_json_lines
from .errors import DataError, FormatError, UsageError

if TYPE_CHECKING:  # only the linear-SVM functions load numpy, so exchange-format commands start without it
    import numpy as np

    from .features import PairFeatures, Vocabulary
    from .tokenization import TruncationConfig

MODEL_FORMAT_VERSION = 2

DECISION_THRESHOLD = 0.5


class EnsembleMode(str, Enum):
    MAJORITY = "majority"
    SOFTMAX_MEAN = "softmax_mean"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; defaults are tuned for the linear model."""

    peak_lr: float = 0.1
    epochs: int = 5
    batch_size: int = 4
    warmup_ratio: float = 0.1
    seed: int = 5000
    l2: float = 1e-4

    def __post_init__(self) -> None:
        for name, value in (("peak_lr", self.peak_lr), ("l2", self.l2)):
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"{name} must be positive and finite, got {value}")
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be positive integers")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise UsageError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")
        if self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    l2: float

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[0])


class PredictionRecord(NamedTuple):
    """Per-pair output of any classifier, internal or external.

    Unchecked: scores are checked where they enter (`predict`, `load_external_predictions`).
    """

    doc_id: int
    pair_index: int
    score: float
    label: int
    source: str


def _label(score: float) -> int:
    """The decision rule every scored record follows: 1 iff score >= DECISION_THRESHOLD."""
    return 1 if score >= DECISION_THRESHOLD else 0


def _sigmoid(margin: float) -> float:
    if margin >= 0:
        return 1.0 / (1.0 + math.exp(-margin))
    e = math.exp(margin)
    return e / (1.0 + e)


def warmup_schedule(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Learning rate at `step`: linear ramp to peak, then linear decay to 0.

    warmup_steps = round(warmup_ratio * total_steps). The ramp uses
    (step + 1) / warmup_steps so step 0 never gets a zero rate, and both
    formulas give the peak at the warmup/decay boundary.
    """
    if total_steps <= 0:
        raise UsageError("total_steps must be positive")
    if not 0 <= step < total_steps:
        raise UsageError(f"step {step} outside [0, {total_steps})")
    try:
        warmup_steps = round(cfg.warmup_ratio * total_steps)
    except OverflowError:
        raise UsageError("too many training steps to take as a float; give fewer epochs") from None
    if step < warmup_steps:
        return cfg.peak_lr * (step + 1) / warmup_steps
    return cfg.peak_lr * (total_steps - step) / (total_steps - warmup_steps)


def _margins(model: LinearModel, features: PairFeatures) -> np.ndarray:
    """w . x + b of every pair, in pair order, from each row's `np.add.reduceat` sums as either side, by chunk."""
    import numpy as np
    ptr, half = np.asarray(features.indptr), features.dimension // 2
    sums = np.zeros((2, ptr.size - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing model gives inf or NaN margins, not warnings
        for first in range(0, ptr.size - 1, 256):
            starts = ptr[first : first + 257] - ptr[first]
            rows = np.flatnonzero(starts[1:] > starts[:-1])  # an empty row keeps 0: reduceat would give it an entry
            entries = slice(ptr[first], ptr[first] + starts[-1])
            for side, w in enumerate((model.weights[:half], model.weights[half:]) if rows.size else ()):
                products = w[features.indices[entries]] * features.values[entries]
                sums[side, first + rows] = np.add.reduceat(products, starts[rows])
        return sums[0][features.left] + sums[1][features.right] + model.bias


def hinge_objective(model: LinearModel, features: PairFeatures, labels: Sequence[int]) -> float:
    """Full-batch regularized objective: 0.5*l2*||w||^2 + mean hinge loss, summed in pair order."""
    return _objective(model, _margins(model, features), labels)


def _objective(model: LinearModel, margins: np.ndarray, labels: Sequence[int]) -> float:
    """`hinge_objective` from the pairs' margins."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
        losses = np.fmax(0.0, 1.0 - y * margins)  # fmax: a NaN margin adds no loss
        penalty = 0.5 * model.l2 * float(model.weights @ model.weights)
    return penalty + float(np.cumsum(losses)[-1]) / len(labels)


def _scored_margins(model: LinearModel, features: PairFeatures) -> np.ndarray:
    """The margins of every pair, which `predict` scores; a NaN margin is a DataError."""
    import numpy as np
    margins = _margins(model, features)
    if np.isnan(margins).any():
        raise DataError("prediction margin is NaN: the model weights overflow or are not finite")
    return margins


def train_linear_svm(
    features: PairFeatures,
    labels: Sequence[int],
    cfg: TrainConfig,
    on_epoch_end: Callable[[int, LinearModel], None] | None = None,
) -> LinearModel:
    """Fit the linear SVM by seeded, bit-reproducible mini-batch subgradient descent.

    Each step shrinks w by 1 - lr * l2; then each pair of its batch of k with y * (w . x + b) < 1, in
    order, adds lr / k * y * x to w and lr / k * y to b. w is kept as scale * w, so a shrink is one
    multiply; the scale is folded in when below 1e-9 (a factor <= 0 included) and at each epoch
    end, before the divergence check and `on_epoch_end(epoch, snapshot)`.
    """
    import numpy as np
    if len(features) != len(labels):
        raise UsageError(f"{len(features)} feature vectors vs {len(labels)} labels")
    if not features:
        raise UsageError("cannot train on an empty dataset")
    classes = set(labels)
    if classes != {0, 1}:
        raise UsageError(f"training needs both classes, got labels {sorted(classes)}")
    if not np.all(np.isfinite(features.values)):
        raise DataError("feature values are not all finite")

    y = [1.0 if label == 1 else -1.0 for label in labels]
    w, b, scale = np.zeros(features.dimension), 0.0, 1.0  # the weights are scale * w
    w_left, w_right = np.split(w, 2)  # views: the weights of a row as a left and as a right side
    ptr, idx, val, left, right = features.indptr, features.indices, features.values, features.left, features.right
    n = len(features)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    rng = np.random.default_rng(cfg.seed)

    # A rate too high overflows to inf and NaN; the divergence check reports that, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n).tolist()
            for step, start in enumerate(range(0, n, cfg.batch_size), epoch * steps_per_epoch):
                batch = order[start : start + cfg.batch_size]
                lr = warmup_schedule(step, cfg.epochs * steps_per_epoch, cfg)
                scale *= 1.0 - lr * cfg.l2
                if scale < 1e-9:
                    w *= scale
                    scale = 1.0
                rate = lr / len(batch)
                for i in batch:
                    a, z, c, d = ptr[left[i]], ptr[left[i] + 1], ptr[right[i]], ptr[right[i] + 1]
                    # intp: numpy gathers and scatters with int32 indices several times slower
                    li, lv, ri, rv = idx[a:z].astype(np.intp), val[a:z], idx[c:d].astype(np.intp), val[c:d]
                    wl, wr = w_left[li], w_right[ri]
                    if y[i] * (scale * (float(wl.dot(lv)) + float(wr.dot(rv))) + b) < 1.0:
                        update = rate * y[i] / scale
                        w_left[li] = wl + update * lv
                        w_right[ri] = wr + update * rv
                        b += rate * y[i]
            w *= scale
            scale = 1.0
            if not (math.isfinite(b) and np.all(np.isfinite(w))):
                raise DataError(f"training diverged in epoch {epoch + 1}: weights or bias not finite; lower the rate")
            if on_epoch_end is not None:
                on_epoch_end(epoch, LinearModel(weights=w.copy(), bias=b, l2=cfg.l2))
    return LinearModel(weights=w, bias=b, l2=cfg.l2)


class TrainedSplit(NamedTuple):
    """What `train_split` fits, with its final training objective and accuracy counts."""

    vocabulary: Vocabulary
    model: LinearModel
    objective: float
    correct: int
    pair_count: int


def train_split(
    docs: Iterable[Document], truths: Iterable[TruthRecord], stopwords: Iterable[str], truncation: TruncationConfig,
    cfg: TrainConfig,
) -> TrainedSplit:
    """Fit the vocabulary and the linear SVM on one labeled split, then score the fit on its own pairs.

    `docs` may be a `corpus.iter_documents` stream: a `ParagraphTable` takes one document at a time and
    drops its text. The feature rows live only in this call, so they are freed before the caller writes
    the artifacts. The objective and the accuracy, which `hinge_objective` and `predict` would give,
    come from one margins pass.
    """
    from . import features  # loads numpy; calls go through module namespaces, so wrappers installed there see each one
    table = features.ParagraphTable(truncation, stopwords, fit=True).extend(docs, {t.doc_id: t for t in truths})
    if not table.labels:
        raise UsageError("selected split yields no paragraph pairs")
    vocab = features.fit_vocabulary(table)
    vectors, labels = table.featurize(vocab), table.labels
    del table  # its entries are gone once the rows are built
    trained = train_linear_svm(vectors, labels, cfg)
    margins = _scored_margins(trained, vectors)
    correct = sum(_label(_sigmoid(margin)) == label for margin, label in zip(margins.tolist(), labels))
    return TrainedSplit(vocab, trained, _objective(trained, margins, labels), correct, len(labels))


def predict(
    model: LinearModel, features: PairFeatures, pairs: Sequence[ParagraphPair | PairKey], source: str = "tfidf-svc"
) -> list[PredictionRecord]:
    """Score every pair of `features`, which are the vectors of `pairs`; label 1 iff sigmoid(margin) >= 0.5."""
    if features.dimension != model.dimension:
        raise UsageError(f"feature dimension {features.dimension} does not match model {model.dimension}")
    if len(features) != len(pairs):
        raise UsageError(f"{len(features)} feature vectors vs {len(pairs)} pairs")
    scores = map(_sigmoid, _scored_margins(model, features).tolist())
    return [PredictionRecord(p.doc_id, p.pair_index, score, _label(score), source) for p, score in zip(pairs, scores)]


def predict_split(
    model: LinearModel, vocab: Vocabulary, docs: Iterable[Document], truncation: TruncationConfig
) -> list[PredictionRecord]:
    """`predict` every pair of `docs` under `vocab`, the documents taken one at a time as `train_split` takes them."""
    from . import features
    table = features.ParagraphTable(truncation, vocab.stopwords).extend(docs)
    return predict(model, table.featurize(vocab), [*map(PairKey, table.doc_ids, table.pair_indices)])


def random_baseline(pairs: Iterable[ParagraphPair | PairKey], seed: int) -> list[PredictionRecord]:
    """Uniform coin-flip labels per pair, in order, from a seeded generator; score = label; reads only the keys."""
    flip = random.Random(seed).randrange
    return [PredictionRecord(p.doc_id, p.pair_index, float(coin), coin, "random") for p in pairs for coin in [flip(2)]]


def load_external_predictions(path: str | Path) -> list[PredictionRecord]:
    """Read line-delimited JSON prediction records.

    Each line needs integer doc_id and pair_index, a score in [0, 1], and a
    source string; labels are recomputed from the threshold regardless of
    what the file claims. Duplicate (doc_id, pair_index, source) triples are
    rejected. Output is sorted by (doc_id, pair_index, source).
    """
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
    """Write records in the line-delimited JSON exchange format."""
    with open(path, "w", encoding="utf-8") as handle:
        for r in records:
            line = {"doc_id": r.doc_id, "pair_index": r.pair_index, "score": r.score, "source": r.source}
            handle.write(json.dumps(line) + "\n")


def ensemble(
    predictions_by_model: Sequence[Sequence[PredictionRecord]],
    mode: EnsembleMode,
) -> list[PredictionRecord]:
    """Combine per-model prediction lists over one shared (doc, pair) set.

    majority (odd model count required): score = mean label, so label 1 iff most vote 1.
    softmax_mean: score = mean score. Either way the label is the threshold rule.
    """
    if not predictions_by_model:
        raise UsageError("ensemble needs at least one prediction list")
    if mode is EnsembleMode.MAJORITY and len(predictions_by_model) % 2 == 0:
        raise UsageError(f"majority vote needs an odd model count, got {len(predictions_by_model)}")

    keyed = [{(r.doc_id, r.pair_index): r for r in records} for records in predictions_by_model]
    for m, (records, table) in enumerate(zip(predictions_by_model, keyed)):
        if len(table) < len(records):
            key = next(key for key, n in Counter((r.doc_id, r.pair_index) for r in records).items() if n > 1)
            raise UsageError(f"model {m} has multiple records for pair {key}")
    reference = set(keyed[0])
    for m, table in enumerate(keyed[1:], start=1):
        if set(table) != reference:
            missing = sorted(reference - set(table))[:5]
            extra = sorted(set(table) - reference)[:5]
            raise UsageError(
                f"model {m} coverage mismatch (missing {missing}, unexpected {extra})"
            )

    combined = []
    source = f"ensemble-{mode.value}"
    for key in sorted(reference):
        members = [table[key] for table in keyed]
        if mode is EnsembleMode.MAJORITY:
            score = sum(r.label for r in members) / len(members)
        else:
            score = sum(r.score for r in members) / len(members)
        combined.append(PredictionRecord(*key, score, _label(score), source))
    return combined


def save_model(model: LinearModel, path: str | Path) -> None:
    """Serialize to versioned JSON, the weights as one dense list of `dimension` floats, written by chunk."""
    w = model.weights
    corpus.write_json(path, {
        "version": MODEL_FORMAT_VERSION,
        "dimension": model.dimension,
        "bias": model.bias,
        "lambda": model.l2,
        "weights": (w[at].tolist() for at in corpus.list_chunks(w.size)),
    })


def load_model(path: str | Path) -> LinearModel:
    import numpy as np
    payload = read_artifact(path, "model", MODEL_FORMAT_VERSION)
    try:
        dimension, bias, l2, weights = payload["dimension"], payload["bias"], payload["lambda"], payload["weights"]
        if not (is_int(dimension) and is_number(bias) and is_number(l2)):
            raise FormatError(f"model file {path} needs an integer dimension and numbers for bias and lambda")
        if not (isinstance(weights, list) and len(weights) == dimension and set(map(type, weights)) <= {int, float}):
            raise FormatError(f"model file {path} needs its weights as a list of {dimension} numbers")
        model = LinearModel(weights=np.array(weights, dtype=np.float64), bias=float(bias), l2=float(l2))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"model file {path} is malformed: {exc}") from exc
    if not np.all(np.isfinite(model.weights)) or not math.isfinite(model.bias):
        raise FormatError(f"model file {path} contains non-finite parameters")
    return model
