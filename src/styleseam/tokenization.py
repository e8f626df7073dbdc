"""Rule-based tokenization, token-budget truncation, and pair input assembly.

Tokenization is deliberately simple and vocabulary-free: alphanumeric runs
become word tokens, every other non-whitespace character is a token of its
own, and whitespace is discarded. The truncation strategies only care about
token counts, so they work unchanged with any tokenizer that honours the
budget semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import UsageError

CLS = "[CLS]"
SEP = "[SEP]"

# Alphanumeric runs first (unicode letters/digits, underscore excluded),
# otherwise one non-whitespace character per token.
_TOKEN_RE = re.compile(r"[^\W_]+|\S")

TokenSeq = tuple[str, ...]


class TruncationStrategy(str, Enum):
    TRANSITION = "transition"
    LONGEST_FIRST = "longest_first"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TruncationConfig:
    """Token budget shared by both sides of a pair, and how to spend it."""

    budget: int = 512
    strategy: TruncationStrategy = TruncationStrategy.TRANSITION

    def __post_init__(self) -> None:
        if self.budget < 2:
            raise UsageError(f"truncation budget must be >= 2, got {self.budget}")


@dataclass(frozen=True)
class PairInput:
    """Marker-framed token sequence for one paragraph pair.

    Layout is [CLS] left [SEP] right [SEP]; spans are half-open index
    ranges into `tokens` covering each side, never the markers.
    """

    tokens: TokenSeq
    left_span: tuple[int, int]
    right_span: tuple[int, int]


def tokenize(text: str) -> TokenSeq:
    """Deterministic segmentation of text into tokens, case preserved."""
    return tuple(_TOKEN_RE.findall(text))


# Token class of each byte of ASCII text: "a" alphanumeric, " " whitespace, "." a token of its own.
_ASCII_CLASSES = bytes(ord("a" if chr(c).isalnum() else " " if chr(c).isspace() else ".") for c in range(256))


def token_count(text: str) -> int:
    """`len(tokenize(text))` of ASCII `text`, counted without a regex scan; other text raises UnicodeEncodeError."""
    # With the leading space, and punctuation read as space, every alphanumeric run starts at a b" a".
    classes = (" " + text).encode("ascii").translate(_ASCII_CLASSES)
    return classes.count(b".") + classes.replace(b".", b" ").count(b" a")


def keep_counts(left: int, right: int, cfg: TruncationConfig) -> tuple[int, int]:
    """Tokens each side keeps under `cfg`, from the sides' token counts: the one truncation rule.

    transition caps each side at half the budget, the spare token of an
    odd budget going right. longest_first trims the longer side (the right
    one on ties) until the pair fits.
    """
    half = cfg.budget // 2
    if cfg.strategy is TruncationStrategy.TRANSITION:
        return min(left, half), min(right, cfg.budget - half)
    if left + right <= cfg.budget:
        return left, right
    return min(left, max(cfg.budget - half, cfg.budget - right)), min(right, max(half, cfg.budget - left))


def truncate_transition(left: TokenSeq, right: TokenSeq, cfg: TruncationConfig) -> tuple[TokenSeq, TokenSeq]:
    """Keep the end of `left` and the start of `right` around the seam.

    Each side is capped at half the budget (odd budgets give the spare
    token to the right side); budget unused by one side is never
    transferred to the other, so the kept window always straddles the
    transition the same way.
    """
    if cfg.strategy is not TruncationStrategy.TRANSITION:
        raise UsageError(f"config strategy is {cfg.strategy}, not transition")
    keep_left, keep_right = keep_counts(len(left), len(right), cfg)
    return left[len(left) - keep_left :], right[:keep_right]


def truncate_longest_first(left: TokenSeq, right: TokenSeq, cfg: TruncationConfig) -> tuple[TokenSeq, TokenSeq]:
    """Trim tokens from the end of the currently longer side until within budget.

    Equivalent to removing one token at a time from whichever side is longer
    (ties trim the right side, favouring the earlier paragraph). Both sides
    keep a prefix of themselves; the shorter side is untouched while the
    longer one still exceeds it.
    """
    if cfg.strategy is not TruncationStrategy.LONGEST_FIRST:
        raise UsageError(f"config strategy is {cfg.strategy}, not longest_first")
    keep_left, keep_right = keep_counts(len(left), len(right), cfg)
    return left[:keep_left], right[:keep_right]


def truncate(left: TokenSeq, right: TokenSeq, cfg: TruncationConfig) -> tuple[TokenSeq, TokenSeq]:
    """Dispatch to the configured truncation strategy."""
    if cfg.strategy is TruncationStrategy.TRANSITION:
        return truncate_transition(left, right, cfg)
    return truncate_longest_first(left, right, cfg)


def kept_span(text: str, keep: int, from_end: bool) -> tuple[int, int, int]:
    """(start, stop, words): the characters of ASCII `text` that hold its first (with `from_end`, last) `keep`
    tokens, fewer than it has, and how many are alphanumeric runs; it ends where token `keep` begins, splitting none."""
    classes = text.encode("ascii").translate(_ASCII_CLASSES)
    if from_end:
        classes = classes[::-1]
    edge = re.match(rb"(?: *(?:a+|\.)){%d} *" % keep, classes).end()  # `keep` tokens and the spaces around them
    words = keep - classes.count(b".", 0, edge)
    return (len(text) - edge, len(text), words) if from_end else (0, edge, words)


def assemble_pair_input(left: TokenSeq, right: TokenSeq, budget: int = TruncationConfig.budget) -> PairInput:
    """Frame a (left, right) token pair as [CLS] left [SEP] right [SEP].

    The combined side length must already respect `budget`; run truncation
    first. Side tokens may not collide with the marker strings.
    """
    if len(left) + len(right) > budget:
        raise UsageError(
            f"combined length {len(left) + len(right)} exceeds budget {budget}; truncate first"
        )
    for token in (*left, *right):
        if token in (CLS, SEP) or not token:
            raise UsageError(f"invalid side token {token!r}")
    tokens = (CLS, *left, SEP, *right, SEP)
    left_span = (1, 1 + len(left))
    right_span = (2 + len(left), 2 + len(left) + len(right))
    return PairInput(tokens=tokens, left_span=left_span, right_span=right_span)
