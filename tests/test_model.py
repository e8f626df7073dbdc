from __future__ import annotations

import json
import logging
import math
import random
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import scalar_features as ref
from synthdata import generate_corpus
from styleseam import cli
from styleseam.corpus import (
    Difficulty, Document, ParagraphPair, TruthRecord, build_pairs, iter_documents, load_documents, load_truth,
    pair_keys,
)
from styleseam.errors import DataError, FormatError, StyleSeamError, UsageError
from styleseam.features import PairFeatures, ParagraphTable, fit_vocabulary, load_stopwords
from styleseam.model import (
    EnsembleMode,
    LinearModel,
    PredictionRecord,
    TrainConfig,
    _margins,
    ensemble,
    hinge_objective,
    load_external_predictions,
    load_model,
    predict,
    predict_split,
    random_baseline,
    save_model,
    save_predictions,
    train_linear_svm,
    train_split,
    warmup_schedule,
)
from styleseam.tokenization import TruncationConfig, TruncationStrategy


class Paragraph(str):
    """A paragraph that takes weak references, unlike a plain str."""


def _features(rows: list[dict[int, float]], dimension: int) -> PairFeatures:
    """Pair i holds the entries of rows[i], split into a left and a right side row.

    A pair vector is two blocks of one width, so an odd `dimension` is widened by one.
    """
    half = (dimension + 1) // 2
    indptr, indices, values = [0], [], []
    for row in rows:
        for side in (range(half), range(half, 2 * half)):
            columns = sorted(column for column in row if column in side)
            indices += [column - side.start for column in columns]
            values += [row[column] for column in columns]
            indptr.append(len(indices))
    sides = list(range(2 * len(rows)))
    return PairFeatures(
        indptr, np.array(indices, dtype=np.int32), np.array(values, dtype=np.float64), sides[::2], sides[1::2], 2 * half
    )


def _dense(rows: np.ndarray) -> PairFeatures:
    """Every entry of each row, zeros included."""
    return _features([dict(enumerate(row.tolist())) for row in rows], rows.shape[1])


def _pairs(n: int) -> list[ParagraphPair]:
    return [ParagraphPair(doc_id=7, pair_index=i, left="", right="") for i in range(n)]


def _score(model: LinearModel, row: dict[int, float]) -> float:
    [record] = predict(model, _features([row], model.dimension), _pairs(1))
    return record.score


class TestWarmupSchedule:
    CFG = TrainConfig(peak_lr=1.0, warmup_ratio=0.1)

    def test_apex_at_warmup_boundary(self):
        assert warmup_schedule(10, 100, self.CFG) == 1.0
        assert warmup_schedule(9, 100, self.CFG) == 1.0  # last ramp step also reaches peak

    def test_ramp_value(self):
        assert warmup_schedule(4, 100, self.CFG) == 0.5

    def test_final_step(self):
        assert warmup_schedule(99, 100, self.CFG) == pytest.approx(1.0 / 90.0)

    def test_zero_total_steps(self):
        with pytest.raises(UsageError):
            warmup_schedule(0, 0, self.CFG)

    def test_step_out_of_range(self):
        with pytest.raises(UsageError):
            warmup_schedule(100, 100, self.CFG)

    def test_continuous_and_nonnegative(self):
        total = 73
        rates = [warmup_schedule(s, total, self.CFG) for s in range(total)]
        assert all(rate >= 0.0 for rate in rates)
        assert max(rates) <= self.CFG.peak_lr
        # no jump bigger than one ramp/decay increment anywhere
        warmup_steps = round(self.CFG.warmup_ratio * total)
        max_delta = max(
            self.CFG.peak_lr / warmup_steps,
            self.CFG.peak_lr / (total - warmup_steps),
        )
        assert all(abs(b - a) <= max_delta + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_full_warmup_ratio(self):
        cfg = TrainConfig(peak_lr=2.0, warmup_ratio=1.0)
        assert warmup_schedule(0, 4, cfg) == 0.5
        assert warmup_schedule(3, 4, cfg) == 2.0


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"peak_lr": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"warmup_ratio": 1.5},
            {"l2": 0.0},
            {"seed": -1},
            {"peak_lr": math.nan},
            {"peak_lr": math.inf},
            {"l2": math.nan},
            {"l2": math.inf},
            {"l2": -math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(UsageError):
            TrainConfig(**kwargs)


def _separable_toy(n: int = 60, seed: int = 13):
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        label = rng.randint(0, 1)
        x1 = rng.uniform(0.4, 1.4) * (1 if label else -1)
        x2 = rng.uniform(-1.0, 1.0)
        rows.append({0: x1, 1: x2})
        labels.append(label)
    return _features(rows, 2), labels


class TestTrainLinearSvm:
    def test_separable_reaches_full_accuracy(self):
        features, labels = _separable_toy()
        model = train_linear_svm(features, labels, TrainConfig())
        records = predict(model, features, _pairs(len(labels)))
        assert [r.label for r in records] == labels
        assert [r.pair_index for r in records] == list(range(len(labels)))

    def test_bitwise_determinism(self):
        features, labels = _separable_toy()
        cfg = TrainConfig(seed=123)
        a = train_linear_svm(features, labels, cfg)
        b = train_linear_svm(features, labels, cfg)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        features, _ = _separable_toy()
        with pytest.raises(UsageError, match="both classes"):
            train_linear_svm(features, [1] * len(features), TrainConfig())

    def test_non_finite_feature_rejected(self):
        features = _features([{0: math.inf}, {0: -1.0}], 2)
        with pytest.raises(DataError):
            train_linear_svm(features, [1, 0], TrainConfig())

    def test_length_mismatch(self):
        features, labels = _separable_toy()
        with pytest.raises(UsageError):
            train_linear_svm(features, labels[:-1], TrainConfig())

    def test_epoch_objective_never_jumps_up(self):
        features, labels = _separable_toy()
        history: list[float] = []
        train_linear_svm(
            features,
            labels,
            TrainConfig(),
            on_epoch_end=lambda _, model: history.append(hinge_objective(model, features, labels)),
        )
        assert len(history) == TrainConfig().epochs
        assert all(math.isfinite(value) for value in history)
        for previous, current in zip(history, history[1:]):
            assert current <= previous * 1.10

    @pytest.mark.parametrize("l2", [1.0, 1.5, 4.0])
    def test_shrink_factor_at_or_below_zero(self, l2):
        """peak_lr * l2 >= 1 makes the factor 1 - lr * l2 reach 0 or go negative: the scale is folded in."""
        features, labels = _separable_toy()
        cfg = TrainConfig(peak_lr=1.0, l2=l2, epochs=3, seed=11)
        model = train_linear_svm(features, labels, cfg)
        expected = ref.train_linear_svm(ref.vectors(features), labels, cfg)
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert model.bias == expected.bias
        dense = ref.dense_shrink_train_linear_svm(ref.vectors(features), labels, cfg)
        assert np.all(np.isfinite(model.weights))
        assert np.max(np.abs(model.weights - dense.weights)) <= 1e-12 * np.max(np.abs(dense.weights))
        assert model.bias == dense.bias

    def test_diverging_rate_raises_without_warnings(self):
        features, labels = _separable_toy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="training diverged in epoch 1"):
                train_linear_svm(features, labels, TrainConfig(peak_lr=1e300, epochs=3))

    def test_epoch_snapshots_are_the_folded_weights(self):
        features, labels = _separable_toy()
        cfg = TrainConfig(peak_lr=0.5, l2=0.05, epochs=4, batch_size=3, seed=2)
        snapshots: list[LinearModel] = []
        model = train_linear_svm(features, labels, cfg, on_epoch_end=lambda _, snapshot: snapshots.append(snapshot))
        expected: list[np.ndarray] = []
        ref.train_linear_svm(ref.vectors(features), labels, cfg, snapshots=expected)
        assert [s.weights.tobytes() for s in snapshots] == [w.tobytes() for w in expected]
        assert snapshots[-1].weights is not model.weights
        assert snapshots[-1].weights.tobytes() == model.weights.tobytes() and snapshots[-1].bias == model.bias

    def test_bitwise_determinism_with_folds_and_shared_rows(self):
        """Pairs share rows, and l2 is high enough that the scale falls below 1e-9 and is folded mid-epoch."""
        rng = np.random.default_rng(8)
        rows = [dict(zip(rng.choice(8, 3, replace=False).tolist(), rng.normal(size=3).tolist())) for _ in range(30)]
        features = _features(rows, 16)
        features.left, features.right = features.left[:-1], features.left[1:]  # pair i: side rows i and i + 1
        labels = [i % 2 for i in range(len(features))]
        cfg = TrainConfig(peak_lr=0.9, l2=0.99, epochs=3, batch_size=1, seed=4)
        factors = [1.0 - warmup_schedule(step, 3 * len(features), cfg) * cfg.l2 for step in range(len(features))]
        assert math.prod(factors[:-1]) < 1e-9  # within the first epoch
        a, b = train_linear_svm(features, labels, cfg), train_linear_svm(features, labels, cfg)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias.hex() == b.bias.hex()
        assert a.weights.tobytes() == ref.train_linear_svm(ref.vectors(features), labels, cfg).weights.tobytes()

    def test_close_to_full_batch_reference(self):
        # 200-sample random sparse set with 15% label noise so the optimum
        # has a comfortably nonzero objective.
        rng = np.random.default_rng(99)
        n, dim = 200, 30
        rows = np.zeros((n, dim))
        for row in rows:
            cols = rng.choice(dim, size=5, replace=False)
            row[cols] = rng.normal(size=5)
        w_true = rng.normal(size=dim)
        labels = (rows @ w_true > 0).astype(int)
        flip = rng.random(n) < 0.15
        labels[flip] = 1 - labels[flip]
        features = _dense(rows)

        cfg = TrainConfig(peak_lr=0.1, epochs=40, batch_size=8, seed=7)
        model = train_linear_svm(features, labels, cfg)
        sgd_objective = hinge_objective(model, features, list(labels))

        # slow full-batch subgradient reference, run to convergence
        y = np.where(labels == 1, 1.0, -1.0)
        w = np.zeros(dim)
        b = 0.0
        best = math.inf
        for t in range(1, 6001):
            margins = y * (rows @ w + b)
            viol = margins < 1.0
            grad_w = cfg.l2 * w - (y[viol, None] * rows[viol]).sum(axis=0) / n
            grad_b = -y[viol].sum() / n
            lr = 0.5 / math.sqrt(t)
            w -= lr * grad_w
            b -= lr * grad_b
            objective = 0.5 * cfg.l2 * float(w @ w) + float(
                np.maximum(0.0, 1.0 - y * (rows @ w + b)).mean()
            )
            best = min(best, objective)

        assert abs(sgd_objective - best) <= 0.05 * best


class TestTrainSplit:
    @pytest.mark.parametrize(
        ("strategy", "budget"), [(TruncationStrategy.TRANSITION, 512), (TruncationStrategy.LONGEST_FIRST, 16)]
    )
    def test_equals_the_step_by_step_calls(self, synth_corpus, strategy, budget):
        split = synth_corpus / "easy" / "train"
        docs = load_documents(split, Difficulty.EASY)
        truths = load_truth(split)
        stopwords, truncation, cfg = load_stopwords(), TruncationConfig(budget, strategy), TrainConfig(epochs=2)

        pairs = build_pairs(docs, truths)
        table = ParagraphTable(truncation, stopwords, fit=True)
        for doc, truth in zip(docs, truths):
            table.add(doc.paragraphs, truth.changes, doc.id)
        vocab = fit_vocabulary(table)
        vectors = table.featurize(vocab)
        labels = [p.label for p in pairs]
        model = train_linear_svm(vectors, labels, cfg)
        objective = hinge_objective(model, vectors, labels)
        correct = sum(r.label == y for r, y in zip(predict(model, vectors, pairs), labels))

        fit = train_split(iter_documents(split, Difficulty.EASY), truths, stopwords, truncation, cfg)
        fields = ("terms", "document_count", "stopwords")
        assert [getattr(fit.vocabulary, f) for f in fields] == [getattr(vocab, f) for f in fields]
        assert fit.vocabulary.doc_freq.tobytes() == vocab.doc_freq.tobytes()
        assert fit.model.weights.tobytes() == model.weights.tobytes()
        assert (fit.model.bias.hex(), fit.model.l2) == (model.bias.hex(), model.l2)
        assert fit.objective.hex() == objective.hex()
        assert (fit.correct, fit.pair_count) == (correct, len(pairs))
        assert 0 < fit.correct <= fit.pair_count

    # tracemalloc's peak of train_split, reading its documents as a stream, over the bytes of the CSR it
    # trains on: 3.86 measured on a 600-document corpus (Python 3.11, numpy 2.4), plus a margin. The split's
    # text is never held at once, and the table's int32 entries, small compactions and row chunks and the
    # single margins pass keep the rest there. With every document loaded inside the call, the table that
    # kept a pair list and each cut side's text read 5.04.
    PEAK_PER_CSR_BYTE = 4.2

    def test_peak_memory_is_bounded_by_the_rows(self, tmp_path):
        split = generate_corpus(tmp_path, n_train=600, n_validation=0, seed=91) / "easy" / "train"
        truths = load_truth(split)
        stopwords, truncation, cfg = load_stopwords(), TruncationConfig(), TrainConfig(epochs=1)
        table = ParagraphTable(truncation, stopwords, fit=True).extend(iter_documents(split, Difficulty.EASY))
        rows = table.featurize(fit_vocabulary(table))
        del table
        np.random.default_rng  # numpy.random loads on first use; its modules are not the split's memory
        tracemalloc.start()
        try:
            train_split(iter_documents(split, Difficulty.EASY), truths, stopwords, truncation, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_PER_CSR_BYTE * (rows.indices.nbytes + rows.values.nbytes)
        assert rows.indices.dtype == np.int32

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_no_paragraph_outlives_its_document(self, strategy):
        """Once train_split or predict_split asks for document k + 1, no paragraph of document k is alive."""
        layouts = [[0, 1, 2], [3], [2, 4, 0, 1], [5, 5], [1, 3, 0]]
        pool = ["cat dog (bird)?", "ΑΣ.Β naïve café " * 5, "It's the fish. " * 9, " ", "x.y dog's " * 7, "cat"]
        truths = [TruthRecord(doc_id=i, authors=2, changes=(1, 0, 1)[: len(layout) - 1]) for i, layout in
                  enumerate(layouts)]
        alive: list[weakref.ref] = []

        def stream():
            for i, layout in enumerate(layouts):
                assert all(paragraph() is None for paragraph in alive), f"a paragraph of document {i - 1} is alive"
                # A str subclass takes weak references; `doc` holds the only strong ones once yielded.
                doc = [Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(Paragraph(pool[k]) for k in layout))]
                alive[:] = [weakref.ref(paragraph) for paragraph in doc[0].paragraphs]
                yield doc.pop()
            assert all(paragraph() is None for paragraph in alive)

        truncation = TruncationConfig(budget=12, strategy=strategy)
        fit = train_split(stream(), truths, frozenset({"the"}), truncation, TrainConfig(epochs=1))
        records = predict_split(fit.model, fit.vocabulary, stream(), truncation)
        docs = [Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(pool[k] for k in l)) for i, l in
                enumerate(layouts)]
        assert [(r.doc_id, r.pair_index) for r in records] == [(p.doc_id, p.pair_index) for p in build_pairs(docs)]

    def test_split_without_pairs_rejected(self):
        docs = [Document(id=1, difficulty=Difficulty.EASY, paragraphs=("only one",))]
        truths = [TruthRecord(doc_id=1, authors=1, changes=())]
        with pytest.raises(UsageError, match="selected split yields no paragraph pairs"):
            train_split(docs, truths, frozenset(), TruncationConfig(), TrainConfig())


def test_batched_margins_equal_per_row_reduceat_sums():
    """Each side's share of a margin is `np.add.reduceat(products, [0])` of its row alone, across row chunks."""
    rng = np.random.default_rng(21)
    half = 300
    sizes = rng.integers(0, 120, size=2600)
    sizes[rng.random(sizes.size) < 0.1] = 0  # empty rows, some at chunk edges
    sizes[[1023, 1024, 2047, -1]] = 0
    indptr = np.concatenate(([0], np.cumsum(sizes))).tolist()
    indices = np.concatenate([np.sort(rng.choice(half, size, replace=False)) for size in sizes])
    values = rng.normal(size=indices.size) * 10.0 ** rng.integers(-8, 8, size=indices.size)
    left, right = rng.integers(0, sizes.size, size=3000).tolist(), rng.integers(0, sizes.size, size=3000).tolist()
    features = PairFeatures(indptr, indices, values, left, right, 2 * half)
    model = LinearModel(weights=rng.normal(size=2 * half), bias=0.25, l2=1e-4)

    def row_sum(row: int, weights: np.ndarray) -> float:
        a, b = indptr[row], indptr[row + 1]
        return ref.side_sum(weights[indices[a:b]] * values[a:b])

    w_left, w_right = model.weights[:half], model.weights[half:]
    expected = [row_sum(l, w_left) + row_sum(r, w_right) + model.bias for l, r in zip(left, right)]
    assert [m.hex() for m in _margins(model, features).tolist()] == [m.hex() for m in expected]
    assert [m.hex() for m in expected] == [ref.margin(model, vec).hex() for vec in ref.vectors(features)]


class TestPredict:
    def test_zero_model_scores_half_label_one(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, l2=1e-4)
        [record] = predict(model, _features([{0: 1.0}], 2), _pairs(1))
        assert record.score == 0.5
        assert record.label == 1  # threshold is inclusive

    def test_sigmoid_of_ln3(self):
        model = LinearModel(weights=np.array([1.0, 0.0]), bias=0.0, l2=1e-4)
        assert _score(model, {0: math.log(3)}) == pytest.approx(0.75, abs=1e-15)

    def test_large_margin_saturates(self):
        model = LinearModel(weights=np.array([100.0, 0.0]), bias=0.0, l2=1e-4)
        assert _score(model, {0: 1.0}) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(3), bias=0.0, l2=1e-4)
        with pytest.raises(UsageError):
            predict(model, _features([{0: 1.0}], 2), _pairs(1))

    def test_nan_margin_rejected(self):
        model = LinearModel(weights=np.array([np.nan, 0.0]), bias=0.0, l2=1e-4)
        with pytest.raises(StyleSeamError, match="(?i)nan"):
            predict(model, _features([{0: 1.0}], 2), _pairs(1))

    def test_records_follow_pairs(self):
        model = LinearModel(weights=np.array([1.0, -1.0]), bias=0.0, l2=1e-4)
        pairs = [ParagraphPair(doc_id=d, pair_index=i, left="", right="") for d, i in ((3, 0), (3, 1), (9, 0))]
        features = _features([{0: 2.0}, {1: 2.0}, {}], 2)
        records = predict(model, features, pairs)
        assert [(r.doc_id, r.pair_index, r.label, r.source) for r in records] == [
            (3, 0, 1, "tfidf-svc"),
            (3, 1, 0, "tfidf-svc"),
            (9, 0, 1, "tfidf-svc"),
        ]
        assert {r.source for r in predict(model, features, pairs, source="m")} == {"m"}

    def test_pair_count_mismatch(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, l2=1e-4)
        with pytest.raises(UsageError, match="2 feature vectors vs 1 pairs"):
            predict(model, _features([{0: 1.0}, {1: 1.0}], 2), _pairs(1))

    def test_overflow_warns_nothing(self):
        """Finite weights whose margin and norm overflow give an inf objective and score 1, without numpy warnings."""
        model = LinearModel(weights=np.array([1e300, 1e300]), bias=0.0, l2=1e-4)
        features = _features([{0: 1e10, 1: 1e10}], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hinge_objective(model, features, [0]) == math.inf
            [record] = predict(model, features, _pairs(1))
        assert record.score == 1.0

    def test_nan_margin_adds_no_hinge_loss(self):
        """A NaN margin loses max(0, NaN) = 0, so the objective is the overflowing penalty alone: inf, not NaN."""
        model = LinearModel(weights=np.array([1.7e308, -1.7e308]), bias=0.0, l2=1e-4)
        features = _features([{0: 1e10, 1: 1e10}, {0: 1.0}], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hinge_objective(model, features, [0, 1]) == math.inf

    def test_label_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=6)
        model = LinearModel(weights=weights, bias=0.3, l2=1e-4)
        scaled = LinearModel(weights=3.7 * weights, bias=3.7 * 0.3, l2=1e-4)
        features = _dense(rng.normal(size=(50, 6)))
        labels = [r.label for r in predict(model, features, _pairs(50))]
        assert labels == [r.label for r in predict(scaled, features, _pairs(50))]


def test_prediction_record_is_a_plain_tuple():
    record = PredictionRecord(4, 2, 0.75, 1, "m")
    assert record == (4, 2, 0.75, 1, "m")
    assert PredictionRecord._fields == ("doc_id", "pair_index", "score", "label", "source")
    with pytest.raises(AttributeError):
        record.score = 0.1


class TestRandomBaseline:
    def _pairs(self, n: int) -> list[ParagraphPair]:
        return [ParagraphPair(doc_id=1, pair_index=i, left="a", right="b") for i in range(n)]

    def test_deterministic(self):
        pairs = self._pairs(200)
        assert random_baseline(pairs, 42) == random_baseline(pairs, 42)

    def test_empty(self):
        assert random_baseline([], 42) == []

    def test_scores_equal_labels(self):
        for record in random_baseline(self._pairs(50), 7):
            assert record.score == float(record.label)
            assert record.source == "random"

    def test_concentration_at_scale(self):
        records = random_baseline(self._pairs(100_000), 5000)
        fraction = sum(r.label for r in records) / len(records)
        assert 0.495 <= fraction <= 0.505

    def test_a_key_stream_gives_the_records_of_its_pair_list(self, pan_fixture):
        split = pan_fixture / "easy" / "validation"
        pairs = build_pairs(load_documents(split, Difficulty.EASY))
        assert random_baseline(pair_keys(iter_documents(split, Difficulty.EASY)), 5000) == random_baseline(pairs, 5000)


class TestExternalPredictions:
    def test_threshold_label(self, tmp_path):
        path = tmp_path / "preds.ndjson"
        path.write_text('{"doc_id":1,"pair_index":0,"score":0.9,"source":"m1"}\n')
        records = load_external_predictions(path)
        assert records == [PredictionRecord(doc_id=1, pair_index=0, score=0.9, label=1, source="m1")]

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "preds.ndjson"
        path.write_text('{"doc_id":1,"pair_index":0,"score":1.5,"source":"m1"}\n')
        with pytest.raises(FormatError, match="outside"):
            load_external_predictions(path)

    def test_nan_score_rejected(self, tmp_path):
        path = tmp_path / "preds.ndjson"
        path.write_text('{"doc_id":1,"pair_index":0,"score":NaN,"source":"m1"}\n')
        with pytest.raises(FormatError, match="score nan outside"):
            load_external_predictions(path)

    @pytest.mark.parametrize("field", ["doc_id", "pair_index"])
    def test_negative_id_rejected(self, tmp_path, field):
        line = {"doc_id": 1, "pair_index": 0, "score": 0.9, "source": "m1"}
        line[field] = -3
        path = tmp_path / "preds.ndjson"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(FormatError, match=rf"preds\.ndjson:1: {field} must be an integer >= 0"):
            load_external_predictions(path)

    def test_sorted_output(self, tmp_path):
        lines = [
            {"doc_id": 2, "pair_index": 0, "score": 0.1, "source": "m"},
            {"doc_id": 1, "pair_index": 1, "score": 0.2, "source": "m"},
            {"doc_id": 1, "pair_index": 0, "score": 0.3, "source": "m"},
        ]
        path = tmp_path / "preds.ndjson"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        records = load_external_predictions(path)
        assert [(r.doc_id, r.pair_index) for r in records] == [(1, 0), (1, 1), (2, 0)]

    def test_duplicate_rejected(self, tmp_path):
        line = '{"doc_id":1,"pair_index":0,"score":0.9,"source":"m1"}\n'
        path = tmp_path / "preds.ndjson"
        path.write_text(line + line)
        with pytest.raises(FormatError, match="duplicate"):
            load_external_predictions(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "preds.ndjson"
        path.write_text('{"doc_id":1,"pair_index":0,"score":0.9}\n')
        with pytest.raises(FormatError, match="source"):
            load_external_predictions(path)

    @pytest.mark.parametrize("line", ["[1,2]", '"x"', "3", "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "preds.ndjson"
        path.write_text('{"doc_id":1,"pair_index":0,"score":0.9,"source":"m1"}\n' + line + "\n")
        with pytest.raises(FormatError, match=r"preds\.ndjson:2: not a JSON object"):
            load_external_predictions(path)

    def test_lines_split_as_text_mode_does(self, tmp_path):
        """CRLF and CR end a line; U+2028 and U+0085 inside a JSON string do not."""
        path = tmp_path / "preds.ndjson"
        lines = [
            '{"doc_id":1,"pair_index":0,"score":0.25,"source":"a\u2028b"}',
            '{"doc_id":1,"pair_index":1,"score":0.75,"source":"a\x85b"}',
            '{"doc_id":2,"pair_index":0,"score":0.5,"source":"c"}',
        ]
        path.write_bytes(("\r\n".join(lines[:2]) + "\r" + lines[2] + "\r\n").encode("utf-8"))
        records = load_external_predictions(path)
        assert [r.source for r in records] == ["a\u2028b", "a\x85b", "c"]
        assert [r.label for r in records] == [0, 1, 1]

    def test_round_trip_with_save(self, tmp_path):
        records = [
            PredictionRecord(doc_id=1, pair_index=0, score=0.25, label=0, source="m"),
            PredictionRecord(doc_id=1, pair_index=1, score=0.75, label=1, source="m"),
        ]
        path = tmp_path / "preds.ndjson"
        save_predictions(records, path)
        assert load_external_predictions(path) == records


def _records(scores: list[float], source: str, doc_id: int = 1) -> list[PredictionRecord]:
    return [
        PredictionRecord(
            doc_id=doc_id,
            pair_index=i,
            score=s,
            label=1 if s >= 0.5 else 0,
            source=source,
        )
        for i, s in enumerate(scores)
    ]


class TestEnsemble:
    def test_majority_vote(self):
        members = [_records([1.0], "a"), _records([1.0], "b"), _records([0.0], "c")]
        (combined,) = ensemble(members, EnsembleMode.MAJORITY)
        assert combined.label == 1
        assert combined.score == pytest.approx(2.0 / 3.0)

    def test_softmax_mean(self):
        members = [_records([0.2], "a"), _records([0.3], "b"), _records([0.9], "c")]
        (combined,) = ensemble(members, EnsembleMode.SOFTMAX_MEAN)
        assert combined.score == pytest.approx(1.4 / 3.0)
        assert combined.label == 0

    def test_single_model_identity_on_scores(self):
        member = _records([0.1, 0.6, 0.5], "solo")
        combined = ensemble([member], EnsembleMode.SOFTMAX_MEAN)
        assert [r.score for r in combined] == [r.score for r in member]
        assert [r.label for r in combined] == [r.label for r in member]

    def test_even_majority_rejected(self):
        members = [_records([1.0], "a"), _records([0.0], "b")]
        with pytest.raises(UsageError, match="odd"):
            ensemble(members, EnsembleMode.MAJORITY)

    def test_coverage_mismatch(self):
        members = [_records([1.0, 0.0], "a"), _records([1.0], "b"), _records([0.0, 1.0], "c")]
        with pytest.raises(UsageError, match="coverage"):
            ensemble(members, EnsembleMode.MAJORITY)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            ensemble([], EnsembleMode.MAJORITY)

    def test_duplicate_pair_rejected(self):
        member = _records([0.2, 0.7], "a") + _records([0.9], "b")
        with pytest.raises(UsageError, match=r"model 0 has multiple records for pair \(1, 0\)"):
            ensemble([member], EnsembleMode.SOFTMAX_MEAN)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_majority_label_is_strict_majority(self, n):
        for votes in range(n + 1):
            members = [_records([1.0 if m < votes else 0.0], f"m{m}") for m in range(n)]
            (combined,) = ensemble(members, EnsembleMode.MAJORITY)
            assert combined.label == (1 if votes * 2 > n else 0), (n, votes)
            assert combined.score == votes / n

    def test_modes_agree_on_binary_scores(self):
        rng = random.Random(17)
        members = [
            _records([float(rng.randint(0, 1)) for _ in range(40)], source)
            for source in ("a", "b", "c")
        ]
        majority = ensemble(members, EnsembleMode.MAJORITY)
        mean = ensemble(members, EnsembleMode.SOFTMAX_MEAN)
        assert [r.label for r in majority] == [r.label for r in mean]


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        weights = np.zeros(10)
        weights[[2, 7]] = [0.5, -1.25]
        model = LinearModel(weights=weights, bias=0.125, l2=1e-4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias == model.bias
        assert loaded.l2 == model.l2

    @pytest.mark.parametrize("nonzero", [0, 1, 4095, 4096, 4097, 9000])
    def test_bytes_equal_one_json_dump(self, tmp_path, nonzero):
        """A version-2 file is json.dumps of the payload, every weight listed in column order."""
        rng = np.random.default_rng(nonzero)
        weights = np.zeros(10000)
        index = rng.choice(weights.size, size=nonzero, replace=False)
        weights[index] = rng.normal(size=nonzero) * 10.0 ** rng.integers(-300, 300, size=nonzero)
        model = LinearModel(weights=weights, bias=-0.1 + 1e-17, l2=1e-4)
        path = tmp_path / "model.json"
        save_model(model, path)
        expected = {"version": 2, "dimension": 10000, "bias": model.bias, "lambda": model.l2, "weights": list(weights)}
        assert path.read_text(encoding="utf-8") == json.dumps(expected)
        assert load_model(path).weights.tobytes() == weights.tobytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 9, "dimension": 1, "bias": 0, "lambda": 1, "weights": []}')
        with pytest.raises(FormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        path = tmp_path / "model.json"
        path.write_text(f'{{"version": {version}, "dimension": 1, "bias": 0, "lambda": 1, "weights": []}}')
        with pytest.raises(FormatError, match=f"unsupported model version {version.title()}"):
            load_model(path)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("dimension", "3"),
            ("dimension", True),
            ("dimension", 2.9),
            ("bias", "0.5"),
            ("bias", False),
            ("lambda", "0.5"),
            ("lambda", False),
            ("weights", [1.5, "1.5", 0.0]),
            ("weights", [10**400, 0.0, 0.0]),
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, field, value):
        payload = {"version": 2, "dimension": 3, "bias": 0.5, "lambda": 1e-4, "weights": [1.5, 0.0, 0.0]}
        payload[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize(
        ("dimension", "weights"),
        [
            pytest.param(4, [[1, 0.5], [3, -2.0]], id="nonzero-weights"),
            pytest.param(4, [[-1, 2.0]], id="negative-index"),
            pytest.param(4, [[1.5, 2.0]], id="non-integer-index-1.5"),
            pytest.param(4, [[True, 2.0]], id="non-integer-index-true"),
            pytest.param(4, [["0", 2.0]], id="non-integer-index-string"),
            pytest.param(4, [[0, 1.0], [0, 3.0]], id="duplicate-index"),
            pytest.param(10**14, [], id="huge-dimension"),
        ],
    )
    def test_version_1_file_rejected(self, capsys, caplog, pan_fixture, tmp_path, dimension, weights):
        """Format 1 listed the nonzero weights as [index, weight] entries; no such file is read."""
        payload = {"version": 1, "dimension": dimension, "bias": 0.0, "lambda": 1e-4, "weights": weights}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="unsupported model version 1 in"):
            load_model(path)
        split = ["--dataset-root", str(pan_fixture), "--difficulty", "easy", "--split", "validation"]
        code = cli.main(["predict", *split, "--model", str(path), "--out", str(tmp_path / "out")])
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert [r.getMessage() for r in errors] == [f"unsupported model version 1 in {path}"]
        assert errors[0].exc_info is None and "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["[0.5, 1.5]", '[0.5, 1.5, "2"]', "[0.5, 1.5, true]", "[0.5, 1e400, 2]",
                                         "[0.5, NaN, 2]", '"0.5"', "{}", "[[0, 0.5]]"])
    def test_version_2_weights_rejected(self, tmp_path, weights):
        path = tmp_path / "model.json"
        path.write_text(f'{{"version": 2, "dimension": 3, "bias": 0, "lambda": 1, "weights": {weights}}}')
        with pytest.raises(FormatError, match="model file"):
            load_model(path)
