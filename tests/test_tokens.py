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
    # The chunker and the embedder take a text's tokens as its str.split
    # words' tokens, and the chunker finds a segment's first token by
    # str.lstrip, so the tokenizer's \s must be str.isspace.
    everything = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]
