from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_features as ref
from styleseam.corpus import ParagraphPair
from styleseam.errors import UsageError
from styleseam.features import ParagraphTable, fit_vocabulary
from styleseam.tokenization import (
    CLS,
    SEP,
    TruncationConfig,
    TruncationStrategy,
    assemble_pair_input,
    kept_span,
    token_count,
    tokenize,
    truncate,
    truncate_longest_first,
    truncate_transition,
)
from tables import featurize_pairs


def _seq(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def one_token_at_a_time(left, right, budget):
    """Reference removal loop: trim the longer side by one, ties hit the right."""
    l, r = list(left), list(right)
    while len(l) + len(r) > budget:
        if len(l) > len(r):
            l.pop()
        else:
            r.pop()
    return tuple(l), tuple(r)


class TestTokenize:
    def test_words_and_punctuation(self):
        assert tokenize("Hello, world?") == ("Hello", ",", "world", "?")

    def test_empty(self):
        assert tokenize("") == ()

    def test_apostrophes_split(self):
        assert tokenize("don't stop") == ("don", "'", "t", "stop")

    def test_case_preserved_and_digits(self):
        assert tokenize("Route 66 East") == ("Route", "66", "East")

    def test_underscore_is_its_own_token(self):
        assert tokenize("a_b") == ("a", "_", "b")

    def test_unicode_word(self):
        assert tokenize("café au lait") == ("café", "au", "lait")

    def test_deterministic(self):
        text = "Same bytes, same tokens (always)."
        assert tokenize(text) == tokenize(text)

    def test_never_emits_markers(self):
        tokens = tokenize(f"{CLS} inline {SEP} text")
        assert CLS not in tokens and SEP not in tokens


TRANSITION = TruncationConfig(budget=512, strategy=TruncationStrategy.TRANSITION)
LONGEST = TruncationConfig(budget=512, strategy=TruncationStrategy.LONGEST_FIRST)


def _assert_counts_ascii_only(text: str) -> None:
    if text.isascii():
        assert token_count(text) == len(tokenize(text))
    else:
        with pytest.raises(UnicodeEncodeError):
            token_count(text)


class TestTokenCount:
    """`token_count` replaces `len(tokenize(text))` in the budget check of ASCII paragraphs, the only ones it counts.

    Non-ASCII text raises UnicodeEncodeError rather than get a count.
    """

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character(self, code):
        char = chr(code)
        for text in (char, f"ab{char}cd", f"{char}{char} x{char}"):
            assert token_count(text) == len(tokenize(text))

    @pytest.mark.parametrize(
        "text",
        [
            "snake_case _x_ __",
            "\x1c\x1d\x1e\x1fa\x1cb",  # separators: whitespace to str.isspace, not to bytes.split
            "a\x85b",
            "a\xa0b",
            "a\u2028b",
            "İstanbul İ",
            "Straße ß",
            "e\u0301te a\u0308b \u0301",  # combining marks split alphanumeric runs
            "naïve café ωμέγα 東京",
            "",
        ],
    )
    def test_unicode_and_separator_cases(self, text):
        _assert_counts_ascii_only(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_matches_tokenize(self, text):
        _assert_counts_ascii_only(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_matches_tokenize_on_ascii(self, text):
        assert token_count(text) == len(tokenize(text))


class TestTruncateTransition:
    def test_both_sides_capped(self):
        left, right = _seq("L", 300), _seq("R", 300)
        out_left, out_right = truncate_transition(left, right, TRANSITION)
        assert out_left == left[-256:]
        assert out_right == right[:256]

    def test_under_budget_untouched(self):
        left, right = _seq("L", 100), _seq("R", 100)
        assert truncate_transition(left, right, TRANSITION) == (left, right)

    def test_no_budget_transfer(self):
        left, right = _seq("L", 1000), _seq("R", 10)
        out_left, out_right = truncate_transition(left, right, TRANSITION)
        assert out_left == left[-256:]
        assert out_right == right

    def test_odd_budget_favours_right(self):
        cfg = TruncationConfig(budget=5, strategy=TruncationStrategy.TRANSITION)
        out_left, out_right = truncate_transition(_seq("L", 10), _seq("R", 10), cfg)
        assert (len(out_left), len(out_right)) == (2, 3)

    def test_wrong_strategy_rejected(self):
        with pytest.raises(UsageError):
            truncate_transition((), (), LONGEST)


class TestTruncateLongestFirst:
    def test_longer_side_trimmed(self):
        out_left, out_right = truncate_longest_first(_seq("L", 400), _seq("R", 200), LONGEST)
        assert (len(out_left), len(out_right)) == (312, 200)

    def test_symmetric_case(self):
        out_left, out_right = truncate_longest_first(_seq("L", 600), _seq("R", 600), LONGEST)
        assert (len(out_left), len(out_right)) == (256, 256)

    def test_under_budget_untouched(self):
        left, right = _seq("L", 100), _seq("R", 100)
        assert truncate_longest_first(left, right, LONGEST) == (left, right)

    def test_tie_trims_right(self):
        cfg = TruncationConfig(budget=7, strategy=TruncationStrategy.LONGEST_FIRST)
        out_left, out_right = truncate_longest_first(_seq("L", 5), _seq("R", 5), cfg)
        assert (len(out_left), len(out_right)) == (4, 3)

    def test_wrong_strategy_rejected(self):
        with pytest.raises(UsageError):
            truncate_longest_first((), (), TRANSITION)


@st.composite
def sides_and_budget(draw):
    left = _seq("L", draw(st.integers(0, 90)))
    right = _seq("R", draw(st.integers(0, 90)))
    budget = draw(st.integers(2, 64))
    return left, right, budget


@settings(max_examples=200, deadline=None)
@given(sides_and_budget())
def test_transition_properties(case):
    left, right, budget = case
    cfg = TruncationConfig(budget=budget, strategy=TruncationStrategy.TRANSITION)
    out_left, out_right = truncate_transition(left, right, cfg)
    # suffix of left, prefix of right
    assert out_left == left[len(left) - len(out_left):]
    assert out_right == right[: len(out_right)]
    # fixed half windows: each side capped on its own, so totals always comply
    assert len(out_left) + len(out_right) <= budget
    half_left, half_right = budget // 2, budget - budget // 2
    assert out_left == (left if len(left) <= half_left else left[-half_left:])
    assert out_right == (right if len(right) <= half_right else right[:half_right])
    if len(left) <= half_left and len(right) <= half_right:
        assert (out_left, out_right) == (left, right)
    # idempotence
    assert truncate_transition(out_left, out_right, cfg) == (out_left, out_right)


@settings(max_examples=200, deadline=None)
@given(sides_and_budget())
def test_longest_first_matches_removal_oracle(case):
    left, right, budget = case
    cfg = TruncationConfig(budget=budget, strategy=TruncationStrategy.LONGEST_FIRST)
    out_left, out_right = truncate_longest_first(left, right, cfg)
    assert (out_left, out_right) == one_token_at_a_time(left, right, budget)
    # prefixes of both sides
    assert out_left == left[: len(out_left)]
    assert out_right == right[: len(out_right)]
    if len(left) + len(right) > budget:
        assert len(out_left) + len(out_right) == budget
    # idempotence
    assert truncate_longest_first(out_left, out_right, cfg) == (out_left, out_right)


# Whitespace runs and non-ASCII letters make characters per token uneven along a text.
UNEVEN_PIECES = ["word", "a1", "İ", "Σ", "東", "İİİ", "ΣΣ", "東東東", ".", "(", "_", "'", " ", "\t\n", " " * 40]
uneven_texts = st.lists(st.sampled_from(UNEVEN_PIECES), max_size=60).map("".join)
# Space runs that put all but one token of a side far from its kept end.
SPACED_LEFT, SPACED_RIGHT = "a b c d e f g h i j" + " " * 300 + "z", "a" + " " * 300 + "b c d e f g h i j k"


class TestTruncateText:
    """A table's cut sides hold the kept tokens of truncating each side's whole tokenization."""

    @settings(max_examples=400, deadline=None)
    @given(uneven_texts, uneven_texts, st.integers(2, 40), st.sampled_from(list(TruncationStrategy)))
    @example(SPACED_LEFT, SPACED_RIGHT, 8, TruncationStrategy.TRANSITION)
    @example(SPACED_LEFT, SPACED_RIGHT, 8, TruncationStrategy.LONGEST_FIRST)
    @example(SPACED_LEFT.replace("z", "Σ"), SPACED_RIGHT.replace("a", "東"), 8, TruncationStrategy.TRANSITION)
    @example("a b", " ".join("cdefghijklmnopqrstuvwxyz"), 4, TruncationStrategy.LONGEST_FIRST)  # left within its share
    @example("İ b", " ".join("cdefghijklmnopqrstuvwxyΣ"), 4, TruncationStrategy.LONGEST_FIRST)
    def test_matches_truncate_of_tokenize(self, left, right, budget, strategy):
        """The pair's vector from a fitting and from a predicting table is the scalar reference's."""
        cfg = TruncationConfig(budget=budget, strategy=strategy)
        pair = ParagraphPair(doc_id=0, pair_index=0, left=left, right=right)
        fitting = ParagraphTable(cfg, fit=True)
        fitting.add((left, right), (None,))
        vocab = fit_vocabulary(fitting)
        [expected] = ref.featurize([pair], vocab, cfg)
        for features in (fitting.featurize(vocab), featurize_pairs([pair], vocab, cfg)):
            [actual] = ref.vectors(features)
            assert actual.indices.tobytes() == expected.indices.tobytes()
            assert actual.values.tobytes() == expected.values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40), st.data())
    def test_kept_span_holds_the_kept_tokens(self, text, data):
        """The span an ASCII side's kept tokens cover: a start or an end of it, splitting no token."""
        size = token_count(text)
        keep = data.draw(st.integers(0, max(size - 1, 0)))
        tokens = tokenize(text)
        for from_end in (False, True) if size else ():
            start, stop, words = kept_span(text, keep, from_end)
            kept = tokens[size - keep :] if from_end else tokens[:keep]
            assert tokenize(text[start:stop]) == kept
            assert stop == len(text) if from_end else start == 0
            assert words == sum(token.isalnum() for token in kept)


class TestAssemblePairInput:
    def test_layout_and_spans(self):
        built = assemble_pair_input(("A", "B"), ("C",))
        assert built.tokens == (CLS, "A", "B", SEP, "C", SEP)
        assert built.left_span == (1, 3)
        assert built.right_span == (4, 5)
        assert built.tokens[built.left_span[0] : built.left_span[1]] == ("A", "B")
        assert built.tokens[built.right_span[0] : built.right_span[1]] == ("C",)

    def test_empty_left(self):
        built = assemble_pair_input((), ("C",))
        assert built.tokens == (CLS, SEP, "C", SEP)
        assert built.left_span == (1, 1)
        assert built.right_span == (2, 3)

    def test_full_budget_adds_three_markers(self):
        built = assemble_pair_input(_seq("L", 256), _seq("R", 256), budget=512)
        assert len(built.tokens) == 515

    def test_over_budget_rejected(self):
        with pytest.raises(UsageError, match="budget"):
            assemble_pair_input(_seq("L", 300), _seq("R", 300), budget=512)

    def test_default_budget_is_the_config_default(self):
        assert len(assemble_pair_input(_seq("L", 256), _seq("R", 256)).tokens) == 515
        with pytest.raises(UsageError, match="exceeds budget 512"):
            assemble_pair_input(_seq("L", 256), _seq("R", 257))

    def test_marker_collision_rejected(self):
        with pytest.raises(UsageError):
            assemble_pair_input((CLS,), ("ok",))


def test_budget_floor():
    with pytest.raises(UsageError):
        TruncationConfig(budget=1)
    with pytest.raises(UsageError):
        TruncationConfig()._replace(budget=1)
