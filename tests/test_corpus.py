from __future__ import annotations

import json
import logging
import random
from pathlib import Path

import pytest

from styleseam.corpus import (
    Difficulty,
    Document,
    TruthRecord,
    build_pairs,
    compute_stats,
    load_documents,
    load_truth,
    split_directory,
    split_paragraphs,
)
from styleseam.errors import FormatError, UsageError


def _write_doc(directory, doc_id, paragraphs):
    (directory / f"problem-{doc_id}.txt").write_text("\n".join(paragraphs) + "\n", encoding="utf-8")


def _write_truth(directory, doc_id, payload):
    (directory / f"truth-problem-{doc_id}.json").write_text(json.dumps(payload), encoding="utf-8")


class TestSplitParagraphs:
    def test_plain(self):
        assert split_paragraphs("A\nB\nC") == ("A", "B", "C")

    def test_crlf_and_trailing_newline(self):
        assert split_paragraphs("A\r\nB\r\n") == ("A", "B")

    def test_drops_empty_segments(self):
        assert split_paragraphs("A\n\n\nB\n") == ("A", "B")

    def test_empty(self):
        assert split_paragraphs("") == ()


class TestLoadDocuments:
    def test_basic(self, tmp_path):
        _write_doc(tmp_path, 3, ["A", "B", "C"])
        docs = load_documents(tmp_path, Difficulty.EASY)
        assert docs == [Document(id=3, difficulty=Difficulty.EASY, paragraphs=("A", "B", "C"))]

    def test_numeric_ordering(self, tmp_path):
        for doc_id in (2, 10, 1):
            _write_doc(tmp_path, doc_id, ["text"])
        assert [d.id for d in load_documents(tmp_path, Difficulty.HARD)] == [1, 2, 10]

    def test_empty_file_is_format_error(self, tmp_path):
        (tmp_path / "problem-1.txt").write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="problem-1.txt"):
            load_documents(tmp_path, Difficulty.EASY)

    def test_stray_file_warned_and_ignored(self, tmp_path, caplog):
        _write_doc(tmp_path, 1, ["A"])
        (tmp_path / "readme.txt").write_text("stray", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="styleseam.corpus"):
            docs = load_documents(tmp_path, Difficulty.EASY)
        assert len(docs) == 1
        assert "readme.txt" in caplog.text

    @pytest.mark.parametrize("name", ["problem-\u0663.txt", "problem-\uff13.txt", "problem-3.txt\n"])
    def test_id_other_than_ascii_digits_is_stray(self, tmp_path, caplog, name):
        """Arabic-Indic and fullwidth digits read as 3 to int(), but name no document."""
        _write_doc(tmp_path, 3, ["A"])
        (tmp_path / name).write_text("B\nC\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="styleseam.corpus"):
            docs = load_documents(tmp_path, Difficulty.EASY)
        assert docs == [Document(id=3, difficulty=Difficulty.EASY, paragraphs=("A",))]
        assert f"ignoring stray file {tmp_path / name}" in caplog.text

    def test_two_problem_files_for_one_id_rejected(self, tmp_path):
        _write_doc(tmp_path, 3, ["A"])
        _write_doc(tmp_path, "03", ["B"])
        with pytest.raises(FormatError, match=r"problem-03\.txt and .*problem-3\.txt both name document 3"):
            load_documents(tmp_path, Difficulty.EASY)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_documents(tmp_path / "nope", Difficulty.EASY)

    def test_non_utf8_is_format_error(self, tmp_path):
        (tmp_path / "problem-1.txt").write_bytes(b"\xff\xfe broken")
        with pytest.raises(FormatError, match="UTF-8"):
            load_documents(tmp_path, Difficulty.EASY)

    def test_load_is_deterministic(self, pan_fixture):
        directory = pan_fixture / "easy" / "train"
        assert load_documents(directory, Difficulty.EASY) == load_documents(directory, Difficulty.EASY)


class TestLoadTruth:
    def test_basic(self, tmp_path):
        _write_doc(tmp_path, 1, ["A", "B", "C"])
        _write_truth(tmp_path, 1, {"authors": 2, "changes": [1, 0]})
        assert load_truth(tmp_path) == [TruthRecord(doc_id=1, authors=2, changes=(1, 0))]

    def test_all_zero_single_author(self, tmp_path):
        _write_truth(tmp_path, 5, {"authors": 1, "changes": [0, 0]})
        assert load_truth(tmp_path) == [TruthRecord(doc_id=5, authors=1, changes=(0, 0))]

    def test_missing_changes_key(self, tmp_path):
        _write_truth(tmp_path, 2, {"authors": 1})
        with pytest.raises(FormatError, match="2"):
            load_truth(tmp_path)

    @pytest.mark.parametrize("changes", [[0, 2], [0, True], ["1"], [0.5]])
    def test_non_binary_changes(self, tmp_path, changes):
        _write_truth(tmp_path, 3, {"authors": 2, "changes": changes})
        with pytest.raises(FormatError, match="non-binary"):
            load_truth(tmp_path)

    def test_two_truth_files_for_one_id_rejected(self, tmp_path):
        _write_truth(tmp_path, 5, {"authors": 1, "changes": [0]})
        _write_truth(tmp_path, "005", {"authors": 2, "changes": [1]})
        with pytest.raises(FormatError, match=r"truth-problem-005\.json and .*truth-problem-5\.json both name document 5"):
            load_truth(tmp_path)

    def test_length_mismatch_against_sibling(self, tmp_path):
        _write_doc(tmp_path, 4, ["A", "B"])
        _write_truth(tmp_path, 4, {"authors": 2, "changes": [1, 0]})
        with pytest.raises(FormatError, match="document 4"):
            load_truth(tmp_path)

    def test_non_utf8_sibling_is_format_error(self, tmp_path):
        (tmp_path / "problem-8.txt").write_bytes(b"A\n\xff\xfe\n")
        _write_truth(tmp_path, 8, {"authors": 2, "changes": [1]})
        with pytest.raises(FormatError, match="not valid UTF-8"):
            load_truth(tmp_path)

    def test_documents_replace_sibling_reads(self, tmp_path, monkeypatch):
        _write_doc(tmp_path, 4, ["A", "B", "C"])
        _write_truth(tmp_path, 4, {"authors": 2, "changes": [1, 0]})
        docs = load_documents(tmp_path, Difficulty.EASY)
        read = []
        read_text = Path.read_text

        def recording(path, *args, **kwargs):
            read.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recording)
        assert load_truth(tmp_path, docs) == [TruthRecord(doc_id=4, authors=2, changes=(1, 0))]
        assert read == ["truth-problem-4.json"]
        # the length check now runs against the given documents
        short = [Document(id=4, difficulty=Difficulty.EASY, paragraphs=("A", "B"))]
        with pytest.raises(FormatError, match="document 4: 2 changes for 2 paragraphs"):
            load_truth(tmp_path, short)

    def test_missing_authors_defaults_to_one(self, tmp_path):
        _write_truth(tmp_path, 6, {"changes": [0]})
        assert load_truth(tmp_path)[0].authors == 1

    def test_invalid_authors(self, tmp_path):
        _write_truth(tmp_path, 7, {"authors": 0, "changes": [0]})
        with pytest.raises(FormatError, match="authors"):
            load_truth(tmp_path)


class TestBuildPairs:
    def test_labels_follow_changes(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B", "C"))
        truth = TruthRecord(doc_id=1, authors=2, changes=(1, 0))
        pairs = build_pairs([doc], [truth])
        assert [(p.left, p.right, p.label) for p in pairs] == [("A", "B", 1), ("B", "C", 0)]
        assert [p.pair_index for p in pairs] == [0, 1]

    def test_single_paragraph_yields_nothing(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("only",))
        assert build_pairs([doc], [TruthRecord(doc_id=1, authors=1, changes=())]) == []

    def test_unlabeled_mode(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B"))
        pairs = build_pairs([doc], None)
        assert pairs[0].label is None

    def test_missing_truth(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B"))
        with pytest.raises(FormatError, match="document 1"):
            build_pairs([doc], [])

    def test_length_mismatch(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B"))
        with pytest.raises(FormatError, match="document 1"):
            build_pairs([doc], [TruthRecord(doc_id=1, authors=2, changes=(1, 0))])

    def test_consecutive_pairs_chain(self):
        rng = random.Random(3)
        paragraphs = tuple(f"p{i}" for i in range(rng.randint(2, 12)))
        doc = Document(id=9, difficulty=Difficulty.MEDIUM, paragraphs=paragraphs)
        pairs = build_pairs([doc], None)
        assert len(pairs) == len(paragraphs) - 1
        for previous, current in zip(pairs, pairs[1:]):
            assert previous.right == current.left


class TestComputeStats:
    def test_counts_by_inspection(self):
        doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B", "C"))
        truth = TruthRecord(doc_id=1, authors=2, changes=(1, 0))
        stats = compute_stats([doc], [truth])
        assert (stats.document_count, stats.pair_count, stats.zeros_count, stats.ones_count) == (1, 2, 1, 1)

    def test_unlabeled_split_has_no_label_counts(self):
        docs = [
            Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B", "C")),
            Document(id=2, difficulty=Difficulty.EASY, paragraphs=("D",)),
        ]
        stats = compute_stats(docs)
        assert (stats.document_count, stats.pair_count, stats.zeros_count, stats.ones_count) == (2, 2, None, None)

    def test_document_without_truth_record_rejected(self):
        docs = [
            Document(id=1, difficulty=Difficulty.EASY, paragraphs=("A", "B")),
            Document(id=2, difficulty=Difficulty.EASY, paragraphs=("C", "D")),
        ]
        with pytest.raises(FormatError, match="document 2 has no matching truth record"):
            compute_stats(docs, [TruthRecord(doc_id=1, authors=1, changes=(0,))])

    def test_matches_double_loop_oracle(self):
        rng = random.Random(11)
        docs, truths = [], []
        for doc_id in range(1, 40):
            n = rng.randint(1, 8)
            docs.append(
                Document(
                    id=doc_id,
                    difficulty=Difficulty.MEDIUM,
                    paragraphs=tuple(f"d{doc_id}p{i}" for i in range(n)),
                )
            )
            changes = tuple(rng.randint(0, 1) for _ in range(n - 1))
            truths.append(TruthRecord(doc_id=doc_id, authors=1 + sum(changes), changes=changes))

        # independent naive count over the raw inputs
        expected_pairs = expected_ones = 0
        for doc, truth in zip(docs, truths):
            for i in range(len(doc.paragraphs) - 1):
                expected_pairs += 1
                expected_ones += truth.changes[i]

        stats = compute_stats(docs, truths)
        assert stats.pair_count == expected_pairs
        assert stats.ones_count == expected_ones
        assert stats.zeros_count == expected_pairs - expected_ones
        assert stats.document_count == len(docs)
        assert stats.zeros_count + stats.ones_count == stats.pair_count
        assert compute_stats(docs).pair_count == expected_pairs


def test_split_directory_layout(tmp_path):
    path = split_directory(tmp_path, Difficulty.MEDIUM, "validation")
    assert path == tmp_path / "medium" / "validation"
    renamed = split_directory(tmp_path, Difficulty.MEDIUM, "train", {Difficulty.MEDIUM: "pan23-medium"})
    assert renamed == tmp_path / "pan23-medium" / "train"
    with pytest.raises(UsageError):
        split_directory(tmp_path, Difficulty.EASY, "dev")


def test_fixture_loads_cleanly(pan_fixture):
    for difficulty in Difficulty:
        for split in ("train", "validation"):
            directory = pan_fixture / difficulty.value / split
            docs = load_documents(directory, difficulty)
            truths = load_truth(directory)
            assert len(docs) == len(truths)
            pairs = build_pairs(docs, truths)
            assert all(p.label in (0, 1) for p in pairs)
