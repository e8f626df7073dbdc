from __future__ import annotations

import json
import math
import random
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleseam import features, tokenization
from styleseam.corpus import Difficulty, Document, ParagraphPair, build_pairs, write_json
from styleseam.errors import FormatError, UsageError
from styleseam.features import (
    HANDCRAFTED_WIDTH,
    ParagraphTable,
    Vocabulary,
    fit_vocabulary,
    load_stopwords,
    load_vocabulary,
    pair_features,
    save_vocabulary,
)
from styleseam.model import load_model
from styleseam.tokenization import TruncationConfig, TruncationStrategy

# The scalar reference's side functions, which the differential tests hold the table path to.
import scalar_features as ref
from scalar_features import Vector, densify, handcrafted, tfidf_vector, vectors
from tables import featurize_pairs, fit_texts


def _pair_vector(pair: ParagraphPair, vocab: Vocabulary) -> Vector:
    [vec] = vectors(pair_features(pair, vocab))
    return vec


def _doc_freq(vocab: Vocabulary) -> dict[str, int]:
    """Each term's document frequency, from the vocabulary's by-column arrays."""
    return dict(zip(vocab.terms, vocab.doc_freq.tolist()))


class TestFitVocabulary:
    def test_stopwords_excluded_and_indices_sorted(self):
        vocab = fit_texts(["the cat", "the dog"], {"the"})
        assert vocab.terms == ("cat", "dog")
        assert vocab.doc_freq.dtype == np.int64 and vocab.doc_freq.tolist() == [1, 1]
        assert vocab.document_count == 2

    def test_df_is_document_frequency(self):
        vocab = fit_texts(["a a b"])
        assert _doc_freq(vocab)["a"] == 1

    def test_repeated_text_counts_each_occurrence(self):
        vocab = fit_texts(["cat dog", "cat dog", "cat"])
        assert _doc_freq(vocab) == {"cat": 3, "dog": 2}
        assert vocab.document_count == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError, match="empty corpus"):
            fit_texts([])
        with pytest.raises(UsageError, match="empty corpus"):  # a table that does not fit counts no paragraph
            fit_vocabulary(ParagraphTable().extend(TestFeaturize.DOCS))

    def test_a_table_featurizes_once_under_the_stopwords_its_rows_left_out(self):
        pair = ParagraphPair(doc_id=0, pair_index=0, left="the cat sat", right="a dog ran")
        table = ParagraphTable(None, {"the"}, fit=True)
        table.add((pair.left, pair.right), (None,))
        vocab = fit_vocabulary(table)
        assert vocab == ref.fit_vocabulary([pair.left, pair.right], {"the"})
        with pytest.raises(UsageError, match="stopwords differ"):
            table.featurize(fit_texts([pair.left, pair.right]))
        [vec] = vectors(table.featurize(vocab))
        assert self._same(vec, _pair_vector(pair, vocab))
        with pytest.raises(UsageError, match="featurized already"):
            table.featurize(vocab)

    def test_compactions_across_rows_and_other_texts(self):
        """More texts than one compaction holds; uncut sides become rows, the other texts only count."""
        rng = random.Random(31)
        alphabet = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choices(alphabet, k=rng.randint(0, 30))) for _ in range(2500)]
        texts += texts[:300]  # repeated texts count once per occurrence
        pairs = [ParagraphPair(doc_id=0, pair_index=i, left=texts[i], right=texts[i + 1]) for i in range(0, 2400, 3)]
        table = ParagraphTable(None, {"w0"}, fit=True)
        for i in range(0, 2400, 3):  # a document of one pair, whose sides become rows, then a text alone
            table.add(texts[i : i + 2], (None,))
            table.add(texts[i + 2 : i + 3], ())
        for text in texts[2400:]:
            table.add((text,), ())
        vocab = fit_vocabulary(table)
        expected: Counter[str] = Counter()
        for text in texts:
            expected.update(set(text.split()) - {"w0"})
        assert _doc_freq(vocab) == dict(expected)
        assert vocab == ref.fit_vocabulary(texts, {"w0"})
        features = table.featurize(vocab)
        assert len(features) == len(pairs)
        for pair, vec in zip(pairs, vectors(features)):
            assert self._same(vec, _pair_vector(pair, vocab))

    @staticmethod
    def _same(a: Vector, b: Vector) -> bool:
        return a.indices.tobytes() == b.indices.tobytes() and a.values.tobytes() == b.values.tobytes()

    def test_matches_brute_force_df_oracle(self):
        rng = random.Random(29)
        alphabet = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(1000)]
        stop = {"w0", "w7"}
        vocab = fit_texts(texts, stop)

        # two-pass counter, no set shortcuts
        expected: dict[str, int] = {}
        for text in texts:
            counted = []
            for token in text.lower().split():
                if token in stop or token in counted:
                    continue
                counted.append(token)
                expected[token] = expected.get(token, 0) + 1
        assert _doc_freq(vocab) == expected
        assert list(vocab.terms) == sorted(expected)

    def test_permutation_invariant(self):
        texts = ["alpha beta", "beta gamma", "gamma alpha alpha"]
        shuffled = list(texts)
        random.Random(5).shuffle(shuffled)
        assert fit_texts(texts) == fit_texts(shuffled)


ascii_text = st.text(alphabet=st.characters(max_codepoint=127))


class TestWordTokens:
    """The ASCII split path of `word_tokens` against the regex it replaces."""

    @staticmethod
    def _regex(text: str) -> list[str]:
        return features._WORD_RE.findall(text.lower())

    def test_every_ascii_character(self):
        # _ and the separators str.split treats as whitespace (\x0b, \x0c, \x1c-\x1f) among them
        for code in range(128):
            char = chr(code)
            for text in (char, f"Ab{char}cD", f"{char}{char} x{char}9{char}"):
                assert features.word_tokens(text) == self._regex(text), repr(text)
        every = "".join(map(chr, range(128)))
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        assert features.word_tokens(every) == self._regex(every) == ["0123456789", alphabet, alphabet]

    @settings(max_examples=300, deadline=None)
    @given(ascii_text)
    def test_matches_regex_on_ascii(self, text):
        assert features.word_tokens(text) == self._regex(text)

    @settings(max_examples=300, deadline=None)
    @given(ascii_text, st.lists(st.tuples(st.sampled_from(["İ", "Σ", "東", "ß", "ǅ"]), ascii_text), min_size=1))
    def test_matches_regex_on_mixed_text(self, head, rest):
        # Non-ASCII text takes the regex path; İ lowercases to two characters.
        text = head + "".join(letter + tail for letter, tail in rest)
        assert features.word_tokens(text) == self._regex(text)


class TestTfidfVector:
    @pytest.fixture()
    def vocab(self) -> Vocabulary:
        return fit_texts(["the cat", "the dog"], {"the"})

    def test_all_oov_gives_zero_vector(self, vocab):
        vec = tfidf_vector("zebra quagga", vocab)
        assert vec.indices.size == 0
        assert vec.dimension == 2

    def test_single_term_normalizes_to_one(self, vocab):
        vec = tfidf_vector("cat cat cat", vocab)
        assert vec.indices.tolist() == [0]
        assert vec.values.tolist() == [1.0]

    def test_hand_computed_weights(self, vocab):
        # independent scalar path: idf = ln((1+N)/(1+df)) + 1, then L2 norm
        idf = math.log((1 + 2) / (1 + 1)) + 1.0
        raw = [1 * idf, 2 * idf]
        norm = math.sqrt(raw[0] ** 2 + raw[1] ** 2)
        vec = tfidf_vector("cat dog dog", vocab)
        assert vec.indices.tolist() == [0, 1]
        assert vec.values.tolist() == pytest.approx([raw[0] / norm, raw[1] / norm], abs=1e-15)

    def test_unit_norm_whenever_nonzero(self):
        vocab = fit_texts(["red green blue", "green blue yellow", "blue"])
        for text in ("red red blue", "yellow", "green blue green"):
            vec = tfidf_vector(text, vocab)
            assert float(vec.values @ vec.values) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_calls_identical(self, vocab):
        a = tfidf_vector("cat dog", vocab)
        b = tfidf_vector("cat dog", vocab)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.values.tolist() == b.values.tolist()


class TestHandcrafted:
    def test_hello_world(self):
        counts = handcrafted("Hello, world?")
        assert counts.as_tuple() == (1, 0, 0, 0, 2)

    def test_parens_and_periods(self):
        counts = handcrafted("(a.b) (c)")
        assert counts.as_tuple() == (0, 1, 0, 4, 3)

    def test_matches_character_loop_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            text = "".join(rng.choices(string.ascii_letters + " .?'()!,", k=rng.randint(0, 80)))
            q = p = a = par = 0
            for ch in text:
                if ch == "?":
                    q += 1
                elif ch == ".":
                    p += 1
                elif ch == "'":
                    a += 1
                elif ch in "()":
                    par += 1
            counts = handcrafted(text)
            assert (counts.question_marks, counts.periods, counts.apostrophes, counts.parentheses) == (
                q,
                p,
                a,
                par,
            )


class TestPairFeatures:
    @pytest.fixture()
    def vocab(self) -> Vocabulary:
        return fit_texts(["cat dog", "dog bird", "bird? cat."])

    def _pair(self, left: str, right: str) -> ParagraphPair:
        return ParagraphPair(doc_id=1, pair_index=0, left=left, right=right)

    def test_identical_sides_mirror(self, vocab):
        text = "cat dog? (bird)."
        vec = _pair_vector(self._pair(text, text), vocab)
        block = vocab.size + HANDCRAFTED_WIDTH
        dense = densify(vec)
        assert dense[:block].tolist() == dense[block:].tolist()

    def test_empty_vocabulary_keeps_handcrafted_slots(self):
        vocab = fit_texts(["the of and"], {"the", "of", "and"})
        assert vocab.size == 0
        vec = pair_features(self._pair("the?", "of."), vocab)
        assert vec.dimension == 2 * HANDCRAFTED_WIDTH

    def test_concatenation_equals_per_side_blocks(self, vocab):
        left, right = "cat cat dog!", "bird (dog) here?"
        vec = _pair_vector(self._pair(left, right), vocab)
        block = vocab.size + HANDCRAFTED_WIDTH
        dense = densify(vec)

        for offset, text in ((0, left), (block, right)):
            side = np.zeros(block)
            tfidf = tfidf_vector(text, vocab)
            side[tfidf.indices] = tfidf.values
            counts = handcrafted(text)
            scale = 1.0 / (1.0 + counts.word_count)
            for slot, count in enumerate(counts.as_tuple()):
                side[vocab.size + slot] = count * scale
            assert dense[offset : offset + block].tolist() == side.tolist()

    def test_swap_is_block_swap(self, vocab):
        vec = _pair_vector(self._pair("cat dog", "bird."), vocab)
        swapped = _pair_vector(self._pair("bird.", "cat dog"), vocab)
        block = vocab.size + HANDCRAFTED_WIDTH
        dense, dense_swapped = densify(vec), densify(swapped)
        assert dense[:block].tolist() == dense_swapped[block:].tolist()
        assert dense[block:].tolist() == dense_swapped[:block].tolist()

    def test_indices_strictly_increasing(self, vocab):
        vec = _pair_vector(self._pair("cat dog bird?", "dog."), vocab)
        assert all(a < b for a, b in zip(vec.indices, vec.indices[1:]))
        assert vec.indices.size == 0 or vec.indices[-1] < vec.dimension


class TestFeaturize:
    # 17 tokens on the left, 9 on the right; the two sides share no words.
    PAIR = ParagraphPair(
        doc_id=3,
        pair_index=1,
        left="It's the cat's (old) bowl, isn't it?",
        right="Dogs' barks (loud) scare birds.",
    )

    @pytest.fixture()
    def vocab(self) -> Vocabulary:
        return fit_texts([self.PAIR.left, self.PAIR.right])

    @staticmethod
    def _same(a: Vector, b: Vector) -> bool:
        return (
            a.dimension == b.dimension
            and a.indices.tobytes() == b.indices.tobytes()
            and a.values.tobytes() == b.values.tobytes()
        )

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_within_budget_is_pair_features_of_original_text(self, vocab, strategy):
        budget = len(tokenization.tokenize(self.PAIR.left)) + len(tokenization.tokenize(self.PAIR.right))
        [vec] = vectors(featurize_pairs([self.PAIR], vocab, TruncationConfig(budget=budget, strategy=strategy)))
        assert self._same(vec, _pair_vector(self.PAIR, vocab))
        # the apostrophe and parenthesis slots of both sides are set
        dense, block = densify(vec), vocab.size + HANDCRAFTED_WIDTH
        for offset in (0, block):
            assert dense[offset + vocab.size + 2] > 0 and dense[offset + vocab.size + 3] > 0

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_cut_pair_is_pair_features_of_kept_tokens(self, vocab, strategy):
        cfg = TruncationConfig(budget=8, strategy=strategy)
        left, right = tokenization.truncate(
            tokenization.tokenize(self.PAIR.left), tokenization.tokenize(self.PAIR.right), cfg
        )
        kept = ParagraphPair(doc_id=3, pair_index=1, left=" ".join(left), right=" ".join(right))
        [vec] = vectors(featurize_pairs([self.PAIR], vocab, cfg))
        assert self._same(vec, _pair_vector(kept, vocab))
        assert not self._same(vec, _pair_vector(self.PAIR, vocab))

    def test_order_and_length_follow_pairs(self, vocab):
        swapped = ParagraphPair(doc_id=3, pair_index=2, left=self.PAIR.right, right=self.PAIR.left)
        vecs = vectors(featurize_pairs([self.PAIR, swapped, self.PAIR], vocab, TruncationConfig()))
        assert len(vecs) == 3
        assert self._same(vecs[1], _pair_vector(swapped, vocab))
        assert self._same(vecs[0], vecs[2])
        assert len(featurize_pairs([], vocab, TruncationConfig())) == 0

    # Two documents: A recurs non-consecutively and in both, and every pair with LONG is over budget 12.
    A, B, C = "The cat sat.", "A dog (barking)?", "It's a bird."
    LONG = "The long paragraph (about cats and dogs) goes on, and on, and on, until it's cut?"
    DOCS = [
        Document(id=1, difficulty=Difficulty.EASY, paragraphs=(A, B, A, C, LONG, A, LONG, B)),
        Document(id=2, difficulty=Difficulty.EASY, paragraphs=(C, A)),
    ]

    @staticmethod
    def _record_calls(monkeypatch) -> dict[str, list]:
        """Wrap the module attributes a tracing harness wraps; returns each one's first arguments."""
        calls: dict[str, list] = {"word_tokens": [], "tokenize": [], "truncate": []}
        for module, name in ((features, "word_tokens"), (tokenization, "tokenize"), (tokenization, "truncate")):
            original = getattr(module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def _cut_pairs(self, pairs, cfg):
        tokenize = tokenization.tokenize
        return [p for p in pairs if len(tokenize(p.left)) + len(tokenize(p.right)) > cfg.budget]

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_training_scans_each_paragraph_occurrence_once(self, monkeypatch, strategy):
        """Fitting and featurizing share one word scan per paragraph occurrence; no kept text is scanned."""
        pairs, cfg = build_pairs(self.DOCS), TruncationConfig(budget=12, strategy=strategy)
        assert len(self._cut_pairs(pairs, cfg)) == 4 and len(pairs) == 8
        paragraphs = [p for doc in self.DOCS for p in doc.paragraphs]
        calls = self._record_calls(monkeypatch)
        table = ParagraphTable(cfg, {"the"}, fit=True).extend(self.DOCS)
        vocab = fit_vocabulary(table)
        pair_vectors = table.featurize(vocab)
        assert calls["word_tokens"] == paragraphs
        assert calls["tokenize"] == [] and calls["truncate"] == []  # ASCII cut sides are cut out of the scans
        assert len(pair_vectors) == len(pairs)
        assert vocab == ref.fit_vocabulary(paragraphs, {"the"})

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_prediction_scans_only_the_kept_spans(self, monkeypatch, strategy):
        """Each paragraph occurrence is scanned once over the union of the spans its rows keep.

        LONG is a side of cut pairs only: transition keeps 6 tokens at its start as a right side and 6 at
        its end as a left side, two spans apart; longest_first keeps a start of 6 and one of 8 tokens.
        """
        cfg = TruncationConfig(budget=12, strategy=strategy)
        tokens = tokenization.tokenize(self.LONG)
        spans = [tokens[:6], tokens[-6:]] if strategy is TruncationStrategy.TRANSITION else [tokens[:8]]
        vocab = fit_texts([self.A, self.LONG])
        calls = self._record_calls(monkeypatch)
        features.ParagraphTable(cfg, vocab.stopwords).extend(self.DOCS).featurize(vocab)
        assert calls["tokenize"] == [] and calls["truncate"] == []
        whole = [text for text in calls["word_tokens"] if text in (self.A, self.B, self.C)]
        assert whole == [self.A, self.B, self.A, self.C, self.A, self.B, self.C, self.A]
        slices = [text for text in calls["word_tokens"] if text not in whole]
        assert all(self.LONG.startswith(text) or self.LONG.endswith(text) for text in slices)
        assert [tokenization.tokenize(text) for text in slices] == spans * 2

    @pytest.mark.parametrize("strategy", list(TruncationStrategy))
    def test_only_non_ascii_cut_sides_are_tokenized(self, monkeypatch, strategy):
        """A non-ASCII paragraph is tokenized once a document; its cut sides' kept tokens are joined by spaces."""
        other = self.LONG.replace("cats", "ΓΑΤΕΣ.Σ")
        doc = Document(id=4, difficulty=Difficulty.EASY, paragraphs=(self.A, other, self.B, self.LONG))
        cfg = TruncationConfig(budget=12, strategy=strategy)
        pairs = build_pairs([doc])
        kept = [tokenization.truncate(tokenization.tokenize(p.left), tokenization.tokenize(p.right), cfg) for p in pairs]
        joined = [" ".join(kept[0][1]), " ".join(kept[1][0])]  # the two cut sides of `other`
        vocab = fit_texts([self.A, other])
        calls = self._record_calls(monkeypatch)
        for fit in (False, True):
            for recorded in calls.values():
                recorded.clear()
            table = features.ParagraphTable(cfg, vocab.stopwords, fit=fit).extend([doc, doc])
            table.featurize(fit_vocabulary(table) if fit else vocab)
            # `other` is tokenized once in each document, for its count and both its cuts; the ASCII paragraphs never.
            assert calls["tokenize"] == [other, other]
            others = [text for text in calls["word_tokens"] if text not in (self.A, self.B)]
            expected = [other] * fit + [*dict.fromkeys(joined)]
            assert [text for text in others if not self.LONG.startswith(text)] == expected * 2

    def test_within_budget_never_tokenizes(self, monkeypatch):
        pairs = build_pairs(self.DOCS)
        vocab = fit_texts([self.A])
        calls = self._record_calls(monkeypatch)
        features.ParagraphTable(TruncationConfig(), vocab.stopwords).extend(self.DOCS).featurize(vocab)
        assert calls["tokenize"] == [] and calls["truncate"] == []
        assert calls["word_tokens"] == [p for doc in self.DOCS for p in doc.paragraphs]  # each occurrence once
        calls["word_tokens"].clear()
        featurize_pairs(pairs, vocab, TruncationConfig())  # two paragraphs a pair: each side scanned once
        assert calls["word_tokens"] == [text for p in pairs for text in (p.left, p.right)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["cat", "dog", "bird", "fish", "the"]), min_size=0, max_size=12))
def test_tfidf_norm_is_zero_or_one(words):
    vocab = fit_texts(["cat dog", "dog bird", "fish"], {"the"})
    vec = tfidf_vector(" ".join(words), vocab)
    norm = float(vec.values @ vec.values)
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, abs=1e-12)


class TestStopwordsAndSerialization:
    def test_bundled_list_loads(self):
        stop = load_stopwords()
        assert "the" in stop and "and" in stop
        assert all(w == w.lower() for w in stop)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nFoo\nbar\n\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"foo", "bar"})

    def test_round_trip(self, tmp_path):
        """`save_vocabulary` gives the fields `load_vocabulary` reads back, once written and parsed."""
        vocab = fit_texts(["cat dog", "dog bird"], {"the"})
        path = tmp_path / "fields.json"
        write_json(path, save_vocabulary(vocab))
        loaded = load_vocabulary(json.loads(path.read_text(encoding="utf-8")), path)
        assert loaded == vocab

    def test_version_check(self, tmp_path):
        """The vocabulary is read only from a model file of this version."""
        path = tmp_path / "model.json"
        fields = {"document_count": 1, "terms": [], "doc_freq": [], "stopwords": []}
        path.write_text(json.dumps({"version": 99, **fields}))
        with pytest.raises(FormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("document_count", 0, "document_count"),
            ("document_count", True, "document_count"),
            ("document_count", "2", "document_count"),
            ("terms", [[1], [1]], "malformed entry"),  # for "terms": the terms, then their document frequencies
            ("terms", [[None], [1]], "malformed entry"),
            ("terms", [["a"], [False]], "malformed entry"),
            ("terms", [["a"], [0]], "malformed entry"),
            ("terms", [["a"], [-1]], "malformed entry"),
            ("terms", [["a"], [3]], "malformed entry"),
            ("terms", [["a"], ["1"]], "malformed entry"),
            ("terms", [["a"], [1.0]], "malformed entry"),
            ("terms", [["a"], []], "malformed"),
            ("stopwords", ["the", 1], "stopwords"),
            ("stopwords", "the", "stopwords"),
        ],
    )
    def test_malformed_fields_rejected(self, tmp_path, field, value, message):
        payload = {"document_count": 2, "terms": ["a"], "doc_freq": [2], "stopwords": ["the"]}
        if field == "terms":
            payload["terms"], payload["doc_freq"] = value
        else:
            payload[field] = value
        with pytest.raises(FormatError, match=message):
            load_vocabulary(payload, tmp_path / "model.json")

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[]")
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "terms",
        [
            ["a", "b", "a"],  # a repeated term would load as its last column
            ["a", "a"],
            ["b", "a"],
            ["a", "c", "b"],
            ["a", "B"],  # code-point order: every upper-case ASCII letter sorts before "a"
        ],
    )
    def test_terms_out_of_order_rejected(self, tmp_path, terms):
        payload = {"document_count": 2, "terms": terms, "doc_freq": [1] * len(terms), "stopwords": []}
        with pytest.raises(FormatError, match="out of term order"):
            load_vocabulary(payload, tmp_path / "model.json")

    def test_non_dense_indices_rejected(self, tmp_path):
        """Columns are the positions of the terms, so a document frequency without a term is a column too many."""
        payload = {"document_count": 1, "terms": ["a", "b"], "doc_freq": [1, 1, 1], "stopwords": []}
        with pytest.raises(FormatError, match="not two lists of one length"):
            load_vocabulary(payload, tmp_path / "model.json")
