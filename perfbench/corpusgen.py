"""Seeded synthetic corpus in the official on-disk layout.

Words come from a Zipfian lexicon whose head is real English function
words (so stopword removal has work to do) and whose tail is made-up
syllable words. Every author has a style: a share of words drawn from an
author-specific window of the lexicon, a sentence length, and rates of
questions, parentheses and apostrophes. Each trait is a monotone function
of the author's position in a pool, and the authors of a document appear
in pool order, so a style change always moves the traits the same way and
a linear model over [left | right] features can learn it.

The same (params, seed) gives byte-identical files; `tree_sha256` proves it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FUNCTION_WORDS = (
    "the of and to a in is that it was for on are as with his they at be this "
    "from have or by one had not but what all were when we there can an your "
    "which their said if do will each about how up out them then she many some"
).split()

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck")


@dataclass(frozen=True)
class CorpusParams:
    """Everything that shapes a generated split; recorded with every result."""

    difficulty: str
    train_docs: int
    validation_docs: int
    lexicon_size: int
    zipf_exponent: float
    paragraph_words: tuple[int, int]
    paragraphs_per_doc: tuple[int, int]
    change_probability: float
    author_pool: int
    author_window: int
    author_window_share: float


def _lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """Function words first, then distinct syllable words, in rank order."""
    words = list(FUNCTION_WORDS)
    seen = set(words)
    while len(words) < size:
        batch = size - len(words)
        onsets = rng.integers(len(_ONSETS), size=(batch, 3))
        nuclei = rng.integers(len(_NUCLEI), size=(batch, 3))
        codas = rng.integers(len(_CODAS), size=(batch, 3))
        lengths = rng.integers(1, 4, size=batch)
        for i in range(batch):
            word = "".join(
                _ONSETS[onsets[i, j]] + _NUCLEI[nuclei[i, j]] + _CODAS[codas[i, j]]
                for j in range(lengths[i])
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


class _Writer:
    """Draws documents for one corpus.

    Authors are ordered by one latent trait u in [0, 1] and every habit
    follows u: the lexicon window, the mean sentence length, the share of
    sentences that are questions and the per-word rates of parentheses and
    apostrophes. All randomness comes from one generator, in a fixed order.
    """

    def __init__(self, rng: np.random.Generator, params: CorpusParams) -> None:
        self.rng = rng
        self.params = params
        self.lexicon = np.array(_lexicon(rng, params.lexicon_size), dtype=object)
        weights = 1.0 / np.arange(1, params.lexicon_size + 1) ** params.zipf_exponent
        self.cdf = np.cumsum(weights) / weights.sum()
        u = np.linspace(0.0, 1.0, params.author_pool)
        jitter = rng.uniform(-0.02, 0.02, size=(3, params.author_pool))
        head = len(FUNCTION_WORDS)
        self.window_start = head + (u * (params.lexicon_size - head - params.author_window)).astype(int)
        self.sentence_end_rate = 1.0 / (4.0 + 24.0 * u)
        self.question_rate = np.clip(u + jitter[0], 0.0, 1.0)
        self.paren_rate = np.clip(0.3 * (1.0 - u) + jitter[1], 0.0, 1.0)
        self.apostrophe_rate = np.clip(0.3 * u + jitter[2], 0.0, 1.0)

    def document(self) -> tuple[list[str], list[int], int]:
        """Paragraphs, change labels and author count of one document."""
        rng, params = self.rng, self.params
        n_paragraphs = int(rng.integers(params.paragraphs_per_doc[0], params.paragraphs_per_doc[1] + 1))
        changes = (rng.random(n_paragraphs - 1) < params.change_probability).astype(int)
        n_authors = int(changes.sum()) + 1
        pool = np.sort(rng.choice(params.author_pool, size=n_authors, replace=False))
        paragraph_author = pool[np.concatenate(([0], np.cumsum(changes)))]
        lengths = rng.integers(params.paragraph_words[0], params.paragraph_words[1] + 1, size=n_paragraphs)
        author = np.repeat(paragraph_author, lengths)
        n = len(author)

        ranks = np.searchsorted(self.cdf, rng.random(n))
        own = rng.random(n) < params.author_window_share
        ranks[own] = self.window_start[author[own]] + rng.integers(0, params.author_window, size=int(own.sum()))
        words = self.lexicon[np.minimum(ranks, params.lexicon_size - 1)].tolist()
        draws = rng.random((4, n))
        ends = draws[0] < self.sentence_end_rate[author]
        paragraph_ends = np.cumsum(lengths) - 1
        ends[paragraph_ends] = True
        starts = np.concatenate(([0], np.flatnonzero(ends[:-1]) + 1))
        for i in np.flatnonzero(draws[1] < self.paren_rate[author]).tolist():
            words[i] = f"({words[i]})"
        for i in np.flatnonzero(draws[2] < self.apostrophe_rate[author]).tolist():
            words[i] = f"{words[i]}'s"
        for i in starts.tolist():
            words[i] = words[i].capitalize()
        questions = draws[3] < self.question_rate[author]
        for i in np.flatnonzero(ends).tolist():
            words[i] += "?" if questions[i] else "."
        bounds = [0, *(paragraph_ends + 1).tolist()]
        paragraphs = [" ".join(words[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        return paragraphs, changes.tolist(), n_authors


def _write_split(writer: _Writer, directory: Path, n_docs: int) -> dict[int, list[int]]:
    directory.mkdir(parents=True, exist_ok=True)
    truth = {}
    for doc_id in range(1, n_docs + 1):
        paragraphs, changes, n_authors = writer.document()
        (directory / f"problem-{doc_id}.txt").write_text("\n".join(paragraphs) + "\n", encoding="utf-8")
        (directory / f"truth-problem-{doc_id}.json").write_text(
            json.dumps({"authors": n_authors, "changes": changes}), encoding="utf-8"
        )
        truth[doc_id] = changes
    return truth


def generate(root: Path, params: CorpusParams, seed: int) -> dict[str, dict[int, list[int]]]:
    """Write <root>/<difficulty>/{train,validation}/; returns the changes per split and document.

    A split with 0 documents is not written.
    """
    writer = _Writer(np.random.default_rng(seed), params)
    splits = (("train", params.train_docs), ("validation", params.validation_docs))
    return {
        split: _write_split(writer, root / params.difficulty / split, n_docs)
        for split, n_docs in splits
        if n_docs
    }


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes, in sorted path order.

    Bytecode caches are skipped, so a source tree hashes the same before and
    after it has been imported.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
