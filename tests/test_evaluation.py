from __future__ import annotations

import json
import random

import pytest

from styleseam.errors import CoverageError, FormatError, UsageError
from styleseam.evaluation import (
    confusion,
    f1_per_class,
    format_report_table,
    macro_f1,
    read_solutions,
    report_to_json,
    write_solutions,
)
from styleseam.model import PredictionRecord


def oracle_f1(gold, pred, positive):
    """Naive confusion-count loop + definitional formula."""
    tp = fp = fn = 0
    for i in range(len(gold)):
        if pred[i] == positive and gold[i] == positive:
            tp += 1
        elif pred[i] == positive:
            fp += 1
        elif gold[i] == positive:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


class TestF1PerClass:
    def test_worked_example(self):
        gold, pred = [1, 1, 0, 0], [1, 0, 0, 0]
        assert f1_per_class(gold, pred, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert f1_per_class(gold, pred, 0) == pytest.approx(0.8, abs=1e-15)

    def test_perfect_prediction(self):
        gold = [1, 0, 1, 1, 0]
        assert f1_per_class(gold, gold, 1) == 1.0
        assert f1_per_class(gold, gold, 0) == 1.0

    def test_total_miss(self):
        assert f1_per_class([1, 1], [0, 0], 1) == 0.0

    def test_absent_class_scores_zero(self):
        assert f1_per_class([1, 1], [1, 1], 0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            f1_per_class([1], [1, 0], 1)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            f1_per_class([], [], 1)

    def test_confusion_totals(self):
        c = confusion([1, 1, 0, 0], [1, 0, 0, 1], 1)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)


class TestMacroF1:
    def test_worked_example_pooled(self):
        entry = macro_f1({1: [1, 1, 0, 0]}, {1: [1, 0, 0, 0]})
        assert entry.f1_class1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert entry.f1_class0 == pytest.approx(0.8, abs=1e-15)
        assert entry.macro_f1 == pytest.approx(11.0 / 15.0, abs=1e-15)
        assert entry.weighted_f1 == pytest.approx(11.0 / 15.0, abs=1e-15)
        assert entry.pair_count == 4
        assert entry.document_count == 1

    def test_perfect_across_documents(self):
        gold = {1: [1, 0], 2: [0, 0, 1]}
        entry = macro_f1(gold, {1: [1, 0], 2: [0, 0, 1]})
        assert entry.macro_f1 == 1.0
        assert entry.weighted_f1 == 1.0

    def test_balanced_gold_constant_ones(self):
        entry = macro_f1({1: [0, 0, 1, 1]}, {1: [1, 1, 1, 1]})
        assert entry.macro_f1 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_missing_document_listed(self):
        with pytest.raises(CoverageError, match=r"\[2\]"):
            macro_f1({1: [0], 2: [1]}, {1: [0]})

    def test_extra_document_listed(self):
        with pytest.raises(CoverageError, match="unexpected"):
            macro_f1({1: [0]}, {1: [0], 3: [1]})

    def test_pair_length_mismatch_listed(self):
        with pytest.raises(CoverageError, match="pair count"):
            macro_f1({1: [0, 1]}, {1: [0]})

    def test_document_without_pairs_needs_no_solution(self):
        gold, pred = {1: [1, 1, 0, 0], 2: []}, {1: [1, 0, 0, 0]}
        for per_document in (False, True):
            entry = macro_f1(gold, pred, per_document)
            assert entry == macro_f1({1: gold[1]}, pred, per_document)._replace(document_count=2)
            assert macro_f1(gold, {**pred, 2: []}, per_document) == entry
        with pytest.raises(CoverageError, match=r"pair count mismatch for documents \[2\]"):
            macro_f1(gold, {**pred, 2: [1]})

    def test_relabel_symmetry(self):
        rng = random.Random(23)
        gold = {d: [rng.randint(0, 1) for _ in range(rng.randint(1, 9))] for d in range(1, 30)}
        pred = {d: [rng.randint(0, 1) for _ in range(len(v))] for d, v in gold.items()}
        entry = macro_f1(gold, pred)
        flipped = macro_f1(
            {d: [1 - x for x in v] for d, v in gold.items()},
            {d: [1 - x for x in v] for d, v in pred.items()},
        )
        assert entry.macro_f1 == pytest.approx(flipped.macro_f1, abs=1e-15)
        assert entry.f1_class0 == pytest.approx(flipped.f1_class1, abs=1e-15)

    def test_pooled_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            n_docs = rng.randint(1, 6)
            gold = {d: [rng.randint(0, 1) for _ in range(rng.randint(1, 8))] for d in range(n_docs)}
            pred = {d: [rng.randint(0, 1) for _ in range(len(v))] for d, v in gold.items()}
            entry = macro_f1(gold, pred)

            gold_flat = [x for d in sorted(gold) for x in gold[d]]
            pred_flat = [x for d in sorted(pred) for x in pred[d]]
            f0 = oracle_f1(gold_flat, pred_flat, 0)
            f1 = oracle_f1(gold_flat, pred_flat, 1)
            assert entry.f1_class0 == f0
            assert entry.f1_class1 == f1
            assert entry.macro_f1 == (f0 + f1) / 2.0
            n1 = sum(gold_flat)
            n0 = len(gold_flat) - n1
            assert entry.weighted_f1 == (n0 * f0 + n1 * f1) / (n0 + n1)

    def test_per_document_flag_changes_aggregation(self):
        gold = {1: [1, 1], 2: [0]}
        pred = {1: [1, 1], 2: [0]}
        pooled = macro_f1(gold, pred)
        per_doc = macro_f1(gold, pred, per_document=True)
        assert pooled.macro_f1 == 1.0
        # per-document averaging pays the zero-support convention per doc
        assert per_doc.macro_f1 == 0.5


class TestWriteSolutions:
    def _record(self, doc_id, pair_index, label):
        return PredictionRecord(
            doc_id=doc_id, pair_index=pair_index, score=float(label), label=label, source="t"
        )

    def test_exact_file_content(self, tmp_path):
        count = write_solutions([self._record(3, 0, 1), self._record(3, 1, 0)], tmp_path)
        assert count == 1
        content = (tmp_path / "solution-problem-3.json").read_text(encoding="utf-8")
        assert content == '{"changes": [1, 0]}'

    @pytest.mark.parametrize("old", ["", '{"changes": [0]}', '{"changes": [1, 1, 1, 1, 1, 1]}\n' * 3])
    def test_overwrite_leaves_exactly_new_content(self, tmp_path, old):
        # Existing files are rewritten in place: a longer old file must not leave a tail.
        (tmp_path / "solution-problem-3.json").write_text(old, encoding="utf-8")
        write_solutions([self._record(3, 0, 1), self._record(3, 1, 0)], tmp_path)
        assert (tmp_path / "solution-problem-3.json").read_bytes() == b'{"changes": [1, 0]}'

    def test_zero_predictions(self, tmp_path):
        assert write_solutions([], tmp_path) == 0
        assert list(tmp_path.iterdir()) == []

    def test_two_documents_isolated(self, tmp_path):
        records = [self._record(1, 0, 1), self._record(2, 0, 0)]
        assert write_solutions(records, tmp_path) == 2
        assert json.loads((tmp_path / "solution-problem-1.json").read_text()) == {"changes": [1]}
        assert json.loads((tmp_path / "solution-problem-2.json").read_text()) == {"changes": [0]}

    def test_gap_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="contiguous"):
            write_solutions([self._record(1, 0, 1), self._record(1, 2, 0)], tmp_path)

    def test_duplicate_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="duplicate"):
            write_solutions([self._record(1, 0, 1), self._record(1, 0, 0)], tmp_path)

    def test_round_trip_is_identity(self, tmp_path):
        rng = random.Random(47)
        records = []
        expected = {}
        for doc_id in range(1, 15):
            labels = [rng.randint(0, 1) for _ in range(rng.randint(1, 7))]
            expected[doc_id] = labels
            records.extend(self._record(doc_id, i, label) for i, label in enumerate(labels))
        write_solutions(records, tmp_path)
        assert read_solutions(tmp_path) == expected


class TestReadSolutions:
    def test_malformed_changes(self, tmp_path):
        (tmp_path / "solution-problem-1.json").write_text('{"changes": [2]}')
        with pytest.raises(FormatError):
            read_solutions(tmp_path)

    def test_non_solution_files_skipped(self, tmp_path):
        (tmp_path / "solution-problem-1.json").write_text('{"changes": [1]}')
        (tmp_path / "predictions.ndjson").write_text("")
        assert read_solutions(tmp_path) == {1: [1]}

    def test_id_other_than_ascii_digits_skipped(self, tmp_path):
        (tmp_path / "solution-problem-3.json").write_text('{"changes": [1]}')
        (tmp_path / "solution-problem-\u0663.json").write_text('{"changes": [0, 0]}')
        assert read_solutions(tmp_path) == {3: [1]}

    def test_two_files_for_one_id_rejected(self, tmp_path):
        (tmp_path / "solution-problem-3.json").write_text('{"changes": [1]}')
        (tmp_path / "solution-problem-03.json").write_text('{"changes": [0]}')
        with pytest.raises(FormatError, match=r"solution-problem-03\.json and .*solution-problem-3\.json both name document 3"):
            read_solutions(tmp_path)


def test_report_serialization_shapes():
    entry = macro_f1({1: [1, 1, 0, 0]}, {1: [1, 0, 0, 0]})
    report = {"easy": entry}
    payload = json.loads(report_to_json(report))
    assert set(payload["easy"]) == {"f1_class0", "f1_class1", "macro_f1", "weighted_f1", "pairs", "documents"}
    table = format_report_table(report)
    assert "easy" in table and "0.733" in table
