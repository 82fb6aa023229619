import re

from hypothesis import given
from hypothesis import strategies as st

from docrag.tokens import DEFAULT_TOKENIZER, count_tokens


def test_empty_string_has_no_tokens():
    assert count_tokens("") == 0


def test_mixed_word_and_punctuation_segmentation():
    # whitespace splits, punctuation runs become their own tokens
    assert DEFAULT_TOKENIZER.tokens("Q1/23E Core") == ["Q1", "/", "23E", "Core"]
    assert count_tokens("Q1/23E Core") == 4


def test_repeated_word_count():
    assert count_tokens("a " * 600) == 600


def test_punctuation_runs_group():
    assert DEFAULT_TOKENIZER.tokens("hello, world!!") == ["hello", ",", "world", "!!"]


def test_whitespace_only_counts_zero():
    assert count_tokens(" \t\n  ") == 0


def test_unicode_words():
    assert DEFAULT_TOKENIZER.tokens("café λόγος 3.5%") == [
        "café", "λόγος", "3", ".", "5", "%",
    ]


def test_tag_is_stable():
    assert DEFAULT_TOKENIZER.tag == "ws-punct-v1"


@given(st.text(max_size=200))
def test_spans_are_ordered_disjoint_and_in_bounds(text):
    spans = DEFAULT_TOKENIZER.spans(text)
    previous_end = 0
    for start, end in spans:
        assert 0 <= start < end <= len(text)
        assert start >= previous_end
        previous_end = end
        # no whitespace inside any token
        assert not any(ch.isspace() for ch in text[start:end])


@given(st.text(max_size=200))
def test_count_matches_span_count(text):
    assert count_tokens(text) == len(DEFAULT_TOKENIZER.spans(text))


# Punctuation runs, non-ASCII letters and digits, and combining marks
# (which are \w in Python's re) mixed with arbitrary characters.
_MIXED = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            ["İ", "ß", "é", "\u0301", "\u0307", "\u0663", "½", "—", "%", "$", ",", ".", " ", "\t", "\n"]
        ),
        st.characters(),
    ),
    max_size=200,
)


@given(_MIXED)
def test_tokens_and_count_agree_with_spans(text):
    spans = DEFAULT_TOKENIZER.spans(text)
    assert DEFAULT_TOKENIZER.tokens(text) == [text[s:e] for s, e in spans]
    assert count_tokens(text) == len(spans)


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    # pieces() puts the whitespace before a token in its piece and the
    # chunker finds the token by str.lstrip, so the two must agree.
    everything = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]


# Unicode whitespace beyond ASCII (NEL, NBSP, ogham space mark, line
# separator, ideographic space, the information separators) and
# punctuation, among letters, digits and combining marks.
_EDGES = ["\x85", "\xa0", "\u1680", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\n"]
_PIECE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            [*_EDGES, "a", "Q", "4", "\u0130", "\u0301", "\u0663", "$", ",", ".", "\u2014", "("]
        ),
        st.characters(),
    ),
    max_size=200,
)


@given(_PIECE_TEXT)
def test_pieces_are_tokens_with_the_whitespace_before_them(text):
    pieces = DEFAULT_TOKENIZER.pieces(text)
    assert [p.lstrip() for p in pieces] == DEFAULT_TOKENIZER.tokens(text)
    joined = "".join(pieces)
    assert text.startswith(joined)
    assert not text[len(joined):].strip()
    # The chunker's cut offsets: the pieces before a token, then its whitespace.
    starts = [sum(map(len, pieces[:i])) + len(p) - len(p.lstrip()) for i, p in enumerate(pieces)]
    assert starts == [start for start, _ in DEFAULT_TOKENIZER.spans(text)]
