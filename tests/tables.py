"""Library vocabularies and pair vectors of plain texts and pairs, each made through a `ParagraphTable`."""

from __future__ import annotations

from typing import Iterable

from styleseam.corpus import ParagraphPair
from styleseam.features import PairFeatures, ParagraphTable, Vocabulary, fit_vocabulary
from styleseam.tokenization import TruncationConfig


def fit_texts(texts: Iterable[str], stopwords: Iterable[str] = ()) -> Vocabulary:
    """The vocabulary of a fitting table that took each of `texts` as a document of one paragraph."""
    table = ParagraphTable(stopwords=stopwords, fit=True)
    for text in texts:
        table.add((text,), ())
    return fit_vocabulary(table)


def featurize_pairs(pairs: Iterable[ParagraphPair], vocab: Vocabulary, truncation: TruncationConfig) -> PairFeatures:
    """The vectors of `pairs` under `vocab`, each pair taken by one table as a document of two paragraphs."""
    table = ParagraphTable(truncation, vocab.stopwords)
    for pair in pairs:
        table.add((pair.left, pair.right), (pair.label,), pair.doc_id)
    return table.featurize(vocab)
