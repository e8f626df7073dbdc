"""The library's featurization against the scalar reference in scalar_features.py.

Every comparison is exact: same indices, same dtypes, same value bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_features as ref
from styleseam.corpus import Difficulty, Document, ParagraphPair, build_pairs
from styleseam.features import (
    SparseFeatureVector,
    featurize,
    fit_vocabulary,
    handcrafted,
    pair_features,
    tfidf_vector,
)
from styleseam.tokenization import TruncationConfig, TruncationStrategy

STOPWORDS = frozenset({"the", "and", "of", "it"})
# In-vocabulary words include apostrophes, underscores and non-ASCII letters;
# word_tokens splits on the first two and keeps the last.
KNOWN = ["cat", "dog", "bird's", "naïve", "Café", "straße", "ÜBER", "snake_case", "ωμέγα", "東京", "x2"]
UNKNOWN = ["zebra", "quagga", "okapi", "Ñandú"]
CORPUS = [
    "The cat and the dog.",
    "A bird's naïve café (straße) über?",
    "snake_case ωμέγα x2, 東京 and cat",
    "dog dog bird's ωμέγα",
]
PIECES = KNOWN + UNKNOWN + sorted(STOPWORDS) + ["(", ")", "'", "_", "?", ".", "(cat)", "it's", "''", "42"]

texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=25).flatmap(
        lambda words: st.sampled_from([" ", "", "  ", "\t"]).map(lambda sep: sep.join(words))
    ),
    st.text(alphabet=st.sampled_from(list("abcté ßΩ東'()_?.,\n 0")), max_size=40),
)


def _vocabulary():
    return fit_vocabulary(CORPUS, STOPWORDS)


def _assert_same(actual: SparseFeatureVector, expected: SparseFeatureVector) -> None:
    assert actual.dimension == expected.dimension
    assert actual.indices.dtype == expected.indices.dtype
    assert actual.values.dtype == expected.values.dtype
    assert actual.indices.tobytes() == expected.indices.tobytes()
    assert actual.values.tobytes() == expected.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(texts)
@example("")
@example("the and of it The AND")  # only stopwords
@example("zebra quagga Ñandú okapi")  # only out-of-vocabulary words
@example("it's (bird's) snake_case _ '' ( ) ?")
def test_side_functions_match_reference(text):
    vocab = _vocabulary()
    _assert_same(tfidf_vector(text, vocab), ref.tfidf_vector(text, vocab))
    assert handcrafted(text) == ref.handcrafted(text)


@settings(max_examples=200, deadline=None)
@given(texts, texts)
@example("", "")
@example("cat dog", "cat dog")
def test_pair_features_matches_reference(left, right):
    vocab = _vocabulary()
    pair = ParagraphPair(doc_id=0, pair_index=0, left=left, right=right)
    _assert_same(pair_features(pair, vocab), ref.pair_features(pair, vocab))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=4),
    st.lists(texts, min_size=6, max_size=6),
    st.sampled_from(list(TruncationStrategy)),
    st.integers(2, 24),
)
def test_featurize_matches_reference(layouts, pool, strategy, budget):
    """Paragraphs come from a pool of six, so a text recurs within and across documents."""
    docs = [
        Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(pool[k] for k in layout))
        for i, layout in enumerate(layouts)
    ]
    pairs = build_pairs(docs)
    vocab = _vocabulary()
    truncation = TruncationConfig(budget=budget, strategy=strategy)
    actual = featurize(pairs, vocab, truncation)
    expected = ref.featurize(pairs, vocab, truncation)
    assert len(actual) == len(expected) == len(pairs)
    for a, e in zip(actual, expected):
        _assert_same(a, e)


@pytest.mark.parametrize("strategy", list(TruncationStrategy))
def test_featurize_with_cut_and_uncut_pairs_matches_reference(strategy):
    long = "cat dog bird's naïve café " * 4
    # At budget 12 the first pair is kept whole and every later one is cut.
    paragraphs = ("cat dog", "über ωμέγα", long, "dog", long, "cat dog")
    doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=paragraphs)
    pairs = build_pairs([doc])
    vocab = _vocabulary()
    truncation = TruncationConfig(budget=12, strategy=strategy)
    for a, e in zip(featurize(pairs, vocab, truncation), ref.featurize(pairs, vocab, truncation)):
        _assert_same(a, e)


def test_same_text_under_two_vocabularies():
    """A side block computed under one vocabulary is never served under another."""
    first = _vocabulary()
    second = fit_vocabulary(CORPUS[:2] + ["zebra quagga cat"], {"the"})
    assert first.size != second.size
    text = "The zebra and the cat, café?"
    pairs = [
        ParagraphPair(doc_id=0, pair_index=0, left="dog", right=text),
        ParagraphPair(doc_id=0, pair_index=1, left=text, right="bird's"),
    ]
    for vocab in (first, second, first):
        _assert_same(pair_features(pairs[0], vocab), ref.pair_features(pairs[0], vocab))
        for other in (second, first):
            _assert_same(pair_features(pairs[1], other), ref.pair_features(pairs[1], other))


def test_repeated_non_consecutive_paragraphs():
    a, b, c = "cat dog (cat).", "über ωμέγα?", "it's the bird's"
    doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=(a, b, a, c, a, a, b))
    pairs = build_pairs([doc])
    vocab = _vocabulary()
    truncation = TruncationConfig()
    for a_vec, e_vec in zip(featurize(pairs, vocab, truncation), ref.featurize(pairs, vocab, truncation)):
        _assert_same(a_vec, e_vec)
