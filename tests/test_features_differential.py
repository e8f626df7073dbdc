"""The library's featurization and model against the scalar reference in scalar_features.py.

Every comparison is exact: same indices, same dtypes, same value bytes. The
training path takes documents one at a time into a fitting ParagraphTable,
fits the vocabulary from it and featurizes from the same scans; the
prediction path's table scans only the spans its rows keep.
The model trains and scores from the table's rows, and must give the bits
the reference's per-vector SGD and margin loop give; against the SGD that
shrank every weight at every step it must agree up to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scalar_features as ref
from styleseam.corpus import Difficulty, Document, ParagraphPair, build_pairs, load_documents, load_truth
from styleseam.features import (
    HANDCRAFTED_WIDTH,
    PairFeatures,
    ParagraphTable,
    fit_vocabulary,
    pair_features,
)
from styleseam.model import TrainConfig, hinge_objective, predict, train_linear_svm
from styleseam.tokenization import TruncationConfig, TruncationStrategy, tokenize
from tables import featurize_pairs, fit_texts

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
    return fit_texts(CORPUS, STOPWORDS)


def _assert_same_vector(actual: ref.Vector, expected: ref.Vector) -> None:
    assert actual.dimension == expected.dimension
    assert actual.indices.dtype == expected.indices.dtype == np.int32
    assert actual.values.dtype == expected.values.dtype
    assert actual.indices.tobytes() == expected.indices.tobytes()
    assert actual.values.tobytes() == expected.values.tobytes()


def _assert_same(actual: PairFeatures, expected: list[ref.Vector]) -> None:
    """Each pair `actual` gathers is the reference vector of that pair."""
    assert len(actual) == len(expected)
    for a, e in zip(ref.vectors(actual), expected):
        _assert_same_vector(a, e)


@settings(max_examples=200, deadline=None)
@given(texts)
@example("")
@example("the and of it The AND")  # only stopwords
@example("zebra quagga Ñandú okapi")  # only out-of-vocabulary words
@example("it's (bird's) snake_case _ '' ( ) ?")
def test_side_functions_match_reference(text):
    """A side block is the reference tf-idf vector, then the slots of the nonzero reference counts."""
    vocab = _vocabulary()
    [vec] = ref.vectors(pair_features(ParagraphPair(doc_id=0, pair_index=0, left=text, right=""), vocab))
    tfidf = vec.indices < vocab.size
    _assert_same_vector(
        ref.Vector(indices=vec.indices[tfidf], values=vec.values[tfidf], dimension=vocab.size),
        ref.tfidf_vector(text, vocab),
    )
    slots = vec.indices[~tfidf & (vec.indices < vocab.size + HANDCRAFTED_WIDTH)] - vocab.size
    assert slots.tolist() == [slot for slot, count in enumerate(ref.handcrafted(text).as_tuple()) if count]


@settings(max_examples=200, deadline=None)
@given(texts, texts)
@example("", "")
@example("cat dog", "cat dog")
def test_pair_features_matches_reference(left, right):
    vocab = _vocabulary()
    pair = ParagraphPair(doc_id=0, pair_index=0, left=left, right=right)
    _assert_same(pair_features(pair, vocab), [ref.pair_features(pair, vocab)])


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
    actual = featurize_pairs(pairs, vocab, truncation)
    assert len(actual) == len(pairs)
    _assert_same(actual, ref.featurize(pairs, vocab, truncation))


@pytest.mark.parametrize("strategy", list(TruncationStrategy))
def test_featurize_with_cut_and_uncut_pairs_matches_reference(strategy):
    long = "cat dog bird's naïve café " * 4
    # At budget 12 the first pair is kept whole and every later one is cut.
    paragraphs = ("cat dog", "über ωμέγα", long, "dog", long, "cat dog")
    doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=paragraphs)
    pairs = build_pairs([doc])
    vocab = _vocabulary()
    truncation = TruncationConfig(budget=12, strategy=strategy)
    _assert_same(featurize_pairs(pairs, vocab, truncation), ref.featurize(pairs, vocab, truncation))


def test_same_text_under_two_vocabularies():
    """A side block computed under one vocabulary is never served under another."""
    first = _vocabulary()
    second = fit_texts(CORPUS[:2] + ["zebra quagga cat"], {"the"})
    assert first.size != second.size
    text = "The zebra and the cat, café?"
    pairs = [
        ParagraphPair(doc_id=0, pair_index=0, left="dog", right=text),
        ParagraphPair(doc_id=0, pair_index=1, left=text, right="bird's"),
    ]
    for vocab in (first, second, first):
        _assert_same(pair_features(pairs[0], vocab), [ref.pair_features(pairs[0], vocab)])
        for other in (second, first):
            _assert_same(pair_features(pairs[1], other), [ref.pair_features(pairs[1], other)])


def test_repeated_non_consecutive_paragraphs():
    a, b, c = "cat dog (cat).", "über ωμέγα?", "it's the bird's"
    doc = Document(id=1, difficulty=Difficulty.EASY, paragraphs=(a, b, a, c, a, a, b))
    pairs = build_pairs([doc])
    vocab = _vocabulary()
    truncation = TruncationConfig()
    _assert_same(featurize_pairs(pairs, vocab, truncation), ref.featurize(pairs, vocab, truncation))


def _training_path(docs, stopwords, truncation):
    """Vocabulary and vectors as `train` makes them: one table, taking the documents in turn, fits and featurizes."""
    table = ParagraphTable(truncation, stopwords, fit=True).extend(iter(docs))
    vocab = fit_vocabulary(table)
    return build_pairs(docs), vocab, table.featurize(vocab)


def _assert_training_path_matches_reference(docs, truncation):
    pairs, vocab, actual = _training_path(docs, STOPWORDS, truncation)
    assert vocab == ref.fit_vocabulary([p for doc in docs for p in doc.paragraphs], STOPWORDS)
    assert len(actual) == len(pairs)
    _assert_same(actual, ref.featurize(pairs, vocab, truncation))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=4),
    st.lists(texts, min_size=6, max_size=6),
    st.sampled_from(list(TruncationStrategy)),
    st.integers(2, 24),
)
def test_training_path_matches_reference(layouts, pool, strategy, budget):
    """Paragraphs recur within and across documents, so the fitting corpus holds duplicates."""
    docs = [
        Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(pool[k] for k in layout))
        for i, layout in enumerate(layouts)
    ]
    _assert_training_path_matches_reference(docs, TruncationConfig(budget=budget, strategy=strategy))


def _mixed_documents():
    long = "cat dog bird's naïve café (straße) " * 4
    a, b, c = "cat dog (cat).", "über ωμέγα?", "it's the bird's"
    return [
        # Uncut and cut pairs interleave at budget 12; a and long recur non-consecutively.
        Document(id=1, difficulty=Difficulty.EASY, paragraphs=(a, b, long, a, c, long, b, a)),
        # The same paragraphs again: duplicates in the fitting corpus.
        Document(id=2, difficulty=Difficulty.EASY, paragraphs=(c, a, b)),
        Document(id=3, difficulty=Difficulty.EASY, paragraphs=(long,)),
    ]


@pytest.mark.parametrize("strategy", list(TruncationStrategy))
def test_training_path_with_cut_uncut_and_repeated_paragraphs(strategy):
    docs = _mixed_documents()
    truncation = TruncationConfig(budget=12, strategy=strategy)
    _assert_training_path_matches_reference(docs, truncation)
    pairs = build_pairs(docs)
    assert any(len(tokenize(p.left)) + len(tokenize(p.right)) > 12 for p in pairs)
    assert any(len(tokenize(p.left)) + len(tokenize(p.right)) <= 12 for p in pairs)


def _assert_model_matches_reference(docs, truncation, labels, cfg):
    """Weights, bias, objective and scores from the table's rows carry the reference's bits."""
    pairs, vocab, table_features = _training_path(docs, STOPWORDS, truncation)
    vectors = ref.featurize(pairs, vocab, truncation)
    model = train_linear_svm(table_features, labels, cfg)
    expected = ref.train_linear_svm(vectors, labels, cfg)
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.bias.hex() == expected.bias.hex()
    assert hinge_objective(model, table_features, labels).hex() == ref.hinge_objective(expected, vectors, labels).hex()
    scores = [ref.score(expected, vec).hex() for vec in vectors]
    for features in (table_features, ParagraphTable(truncation, vocab.stopwords).extend(docs).featurize(vocab)):
        records = predict(model, features, pairs)
        assert [(r.doc_id, r.pair_index) for r in records] == [(p.doc_id, p.pair_index) for p in pairs]
        assert [r.score.hex() for r in records] == scores


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=4),
    st.lists(texts, min_size=6, max_size=6),
    st.sampled_from(list(TruncationStrategy)),
    st.integers(2, 24),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_model_on_table_matches_per_vector_reference(layouts, pool, strategy, budget, batch_size, seed, data):
    """Paragraphs recur within and across documents, and some pairs are cut."""
    docs = [
        Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(pool[k] for k in layout))
        for i, layout in enumerate(layouts)
    ]
    n = len(build_pairs(docs))
    labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    assume(set(labels) == {0, 1})
    cfg = TrainConfig(peak_lr=0.5, epochs=3, batch_size=batch_size, seed=seed)
    _assert_model_matches_reference(docs, TruncationConfig(budget=budget, strategy=strategy), labels, cfg)


def _assert_close_to_dense_shrink(features, pairs, labels, cfg):
    """Against the SGD that shrank every weight at every step: weights within 1e-12 of the largest, same accuracy."""
    model = train_linear_svm(features, labels, cfg)
    dense = ref.dense_shrink_train_linear_svm(ref.vectors(features), labels, cfg)
    assert np.max(np.abs(model.weights - dense.weights)) <= 1e-12 * np.max(np.abs(dense.weights))
    correct = [sum(r.label == y for r, y in zip(predict(m, features, pairs), labels)) for m in (model, dense)]
    assert correct[0] == correct[1]


@pytest.mark.parametrize("strategy", list(TruncationStrategy))
def test_model_with_cut_uncut_and_repeated_paragraphs(strategy):
    docs = _mixed_documents()
    labels = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    assert len(labels) == len(build_pairs(docs))
    truncation, cfg = TruncationConfig(budget=12, strategy=strategy), TrainConfig(epochs=4)
    _assert_model_matches_reference(docs, truncation, labels, cfg)
    pairs, _, features = _training_path(docs, STOPWORDS, truncation)
    _assert_close_to_dense_shrink(features, pairs, labels, cfg)


@pytest.mark.parametrize(
    ("strategy", "budget"), [(TruncationStrategy.TRANSITION, 512), (TruncationStrategy.LONGEST_FIRST, 16)]
)
def test_model_on_synthetic_corpus_close_to_dense_shrink(synth_corpus, strategy, budget):
    split = synth_corpus / "easy" / "train"
    docs = load_documents(split, Difficulty.EASY)
    pairs = build_pairs(docs, load_truth(split))
    table = ParagraphTable(TruncationConfig(budget=budget, strategy=strategy), STOPWORDS, fit=True)
    table.extend(docs, {t.doc_id: t for t in load_truth(split)})
    features = table.featurize(fit_vocabulary(table))
    assert table.labels == [p.label for p in pairs] and [*zip(table.doc_ids, table.pair_indices)] == [(p.doc_id, p.pair_index) for p in pairs]
    _assert_close_to_dense_shrink(features, pairs, table.labels, TrainConfig())


# Paragraphs for streamed documents: a sigma before punctuation lowercases to a final sigma once the
# kept tokens are joined by spaces, "İ" lowercases to two characters, and some paragraphs hold no token.
STREAM_PIECES = PIECES + ["ΑΣ.Β", "ΟΔΟΣ.", "(ΣΑΣ)", "Σ?", "İ", "İstanbul", "x.y", "a'b"]
stream_paragraphs = st.one_of(
    st.lists(st.sampled_from(STREAM_PIECES), min_size=1, max_size=20).map(" ".join),
    st.sampled_from([" ", "\t", "  \t "]),  # whitespace only: zero tokens
)
stream_layouts = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=5)


def _assert_streamed_table_matches_reference(layouts, pool, strategy, budget):
    """Fitting and predicting tables, taking the documents as a stream, against the per-pair reference."""
    docs = [
        Document(id=i, difficulty=Difficulty.EASY, paragraphs=tuple(pool[k] for k in layout))
        for i, layout in enumerate(layouts)
    ]
    pairs, truncation = build_pairs(docs), TruncationConfig(budget=budget, strategy=strategy)
    fitting = ParagraphTable(truncation, STOPWORDS, fit=True).extend(iter(docs))
    vocab = fit_vocabulary(fitting)
    assert vocab == ref.fit_vocabulary([p for doc in docs for p in doc.paragraphs], STOPWORDS)
    _assert_same(fitting.featurize(vocab), ref.featurize(pairs, vocab, truncation))
    for vocabulary in (vocab, _vocabulary()):
        predicting = ParagraphTable(truncation, vocabulary.stopwords).extend(iter(docs))
        assert [*zip(predicting.doc_ids, predicting.pair_indices)] == [(p.doc_id, p.pair_index) for p in pairs] and predicting.document_count == 0
        _assert_same(predicting.featurize(vocabulary), ref.featurize(pairs, vocabulary, truncation))


@settings(max_examples=150, deadline=None)
@given(
    stream_layouts,
    st.lists(stream_paragraphs, min_size=6, max_size=6),
    st.sampled_from(list(TruncationStrategy)),
    st.integers(2, 20),
)
@example(  # non-ASCII cut sides, each paragraph repeated within and across documents, a one-paragraph document
    [[0, 1, 0, 2], [2], [3, 1, 3, 4]], ["ΑΣ.Β cat (ΣΑΣ) dog", "İstanbul dog's x.y ΟΔΟΣ.", " ", "cat", "Σ? İ", "\t"],
    TruncationStrategy.TRANSITION, 3,
)
@example(
    [[0, 1, 0, 2], [2], [3, 1, 3, 4]], ["ΑΣ.Β cat (ΣΑΣ) dog", "İstanbul dog's x.y ΟΔΟΣ.", " ", "cat", "Σ? İ", "\t"],
    TruncationStrategy.LONGEST_FIRST, 4,
)
def test_streamed_table_matches_reference(layouts, pool, strategy, budget):
    _assert_streamed_table_matches_reference(layouts, pool, strategy, budget)


@pytest.mark.parametrize("strategy", list(TruncationStrategy))
@pytest.mark.parametrize("budget", [2, 3, 5, 8, 12, 20])
def test_streamed_table_at_every_budget(strategy, budget):
    """Long ASCII and non-ASCII paragraphs whose cuts keep a start, an end, or both apart.

    "ΑΣ.Β", kept whole beside a long paragraph, still lowercases to a final sigma once its tokens are joined.
    """
    pool = [
        "cat dog (bird's) it's x.y cat? " * 3,
        "ΑΣ.Β naïve café (ΣΑΣ) ΟΔΟΣ. İstanbul " * 2,
        "dog",
        " ",
        "Σ? İ cat dog bird's ωμέγα",
        "the and of it",
        "ΑΣ.Β",
    ]
    layouts = [[0, 1, 0, 2, 0], [3], [4, 0, 4, 5, 1, 1], [0, 0], [2, 3, 2], [6, 0, 6, 1, 6]]
    _assert_streamed_table_matches_reference(layouts, pool, strategy, budget)
