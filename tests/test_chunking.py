import hashlib
import json
import random
import re
import sys
import threading
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrag import chunking
from docrag.chunking import (
    DEFAULT_CHUNK_SIZE,
    ChunkMetadata,
    DocumentChunk,
    combine_page_text,
    split_pages,
)
from docrag.layout import DocumentAttributes
from docrag.preprocess import PageContent
from docrag.tokens import DEFAULT_TOKENIZER, count_tokens
from reference import _PIECE_RE, split_pages_by_pieces


def page(
    narrative="",
    tables=(),
    charts=(),
    document_id="doc",
    page_number=1,
    section_title=None,
):
    return PageContent(
        document_id=document_id,
        page_number=page_number,
        narrative_text=narrative,
        table_texts=tuple(tables),
        chart_texts=tuple(charts),
        figure_manifest=(),
        section_title=section_title,
    )


def words(n, word="tok"):
    return " ".join(f"{word}{i}" for i in range(n))


# --- combine_page_text ----------------------------------------------------

def test_combine_orders_narrative_tables_charts():
    p = page(narrative="story", tables=("T1", "T2"), charts=("C1",))
    assert combine_page_text(p) == "story\n\nT1\n\nT2\n\nC1"


def test_combine_skips_empty_narrative():
    assert combine_page_text(page(narrative="", tables=("T",))) == "T"


def test_combine_empty_page():
    assert combine_page_text(page()) == ""


# --- chunk boundaries -------------------------------------------------------

def test_page_under_limit_is_one_chunk():
    chunks = split_pages([page(narrative=words(599))])
    assert len(chunks) == 1
    assert chunks[0].token_count == 599


def test_page_at_limit_is_one_chunk():
    chunks = split_pages([page(narrative=words(DEFAULT_CHUNK_SIZE))])
    assert len(chunks) == 1
    assert chunks[0].token_count == DEFAULT_CHUNK_SIZE


def test_fifteen_hundred_tokens_split_600_600_300():
    chunks = split_pages([page(narrative=words(1500))])
    assert [c.token_count for c in chunks] == [600, 600, 300]


def test_empty_page_yields_no_chunks():
    assert split_pages([page()]) == []


def test_whitespace_page_yields_one_zero_token_chunk():
    chunks = split_pages([page(narrative="   \n\t ")])
    assert len(chunks) == 1
    assert chunks[0].token_count == 0
    assert chunks[0].text == "   \n\t "


def test_chunks_never_cross_pages():
    pages = [
        page(narrative=words(500), page_number=1),
        page(narrative=words(500), page_number=2),
    ]
    chunks = split_pages(pages)
    assert [c.metadata.page_number for c in chunks] == [1, 2]
    assert [c.token_count for c in chunks] == [500, 500]


def test_chunk_ids_are_document_page_ordinal():
    chunks = split_pages([page(narrative=words(1500), document_id="d7", page_number=3)])
    assert [c.chunk_id for c in chunks] == ["d7:3:0", "d7:3:1", "d7:3:2"]


def test_custom_chunk_size():
    chunks = split_pages([page(narrative=words(10))], chunk_size=4)
    assert [c.token_count for c in chunks] == [4, 4, 2]


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError):
        split_pages([page(narrative="x")], chunk_size=0)


@pytest.mark.parametrize("chunk_size", [True, 2.0, 2.5, "4", None])
def test_chunk_size_must_be_an_integer(chunk_size):
    # True cut one token per chunk, and 2.0 raised a bare TypeError from range.
    expected = f"chunk_size must be an integer >= 1, got {chunk_size!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        split_pages([page(narrative="alpha beta gamma delta")], chunk_size=chunk_size)


# --- table protection --------------------------------------------------------

def test_fitting_table_is_never_cut():
    table = json.dumps([{"metric": "revenue", "value": "159"}])
    p = page(narrative=words(595), tables=(table,))
    chunks = split_pages([p])
    assert len(chunks) == 2
    # the table would straddle the 600 boundary, so it moves whole into chunk 2
    assert chunks[1].text == table


def test_table_filling_whole_chunk_stays_whole():
    table = words(600, word="cell")
    chunks = split_pages([page(narrative=words(10), tables=(table,))])
    assert [c.token_count for c in chunks] == [10, 600]
    assert chunks[1].text == table


def test_oversized_table_splits_greedily():
    table = words(700, word="cell")
    chunks = split_pages([page(tables=(table,))])
    assert [c.token_count for c in chunks] == [600, 100]


def test_two_small_tables_share_a_chunk():
    chunks = split_pages([page(tables=(words(5, "a"), words(5, "b")))])
    assert len(chunks) == 1
    assert chunks[0].token_count == 10  # separator does not tokenize


def test_chart_segments_are_protected_too():
    chart = words(300, word="pt")
    p = page(narrative=words(400), charts=(chart,))
    chunks = split_pages([p])
    assert len(chunks) == 2
    assert chunks[1].text == chart


# --- byte-exact reassembly -----------------------------------------------------

def test_reassembly_simple():
    p = page(narrative=words(1500))
    chunks = split_pages([p])
    assert "".join(c.text for c in chunks) == combine_page_text(p)


def test_reassembly_with_tables_and_charts():
    p = page(
        narrative=words(700) + "  trailing space ",
        tables=(words(650, "t"), "tiny"),
        charts=(words(20, "c"),),
    )
    chunks = split_pages([p])
    assert "".join(c.text for c in chunks) == combine_page_text(p)
    assert sum(c.token_count for c in chunks) == count_tokens(combine_page_text(p))


# --- metadata ---------------------------------------------------------------------

def test_attributes_flow_into_metadata():
    attrs = DocumentAttributes(company="ACME", year=2013, quarter="Q4")
    chunks = split_pages(
        [page(narrative="text", section_title="Revenues")], attributes=attrs
    )
    meta = chunks[0].metadata
    assert (meta.company, meta.year, meta.quarter) == ("ACME", 2013, "Q4")
    assert meta.section_title == "Revenues"
    assert meta.document_id == "doc"


def test_metadata_defaults_to_none_without_attributes():
    meta = split_pages([page(narrative="text")])[0].metadata
    assert (meta.company, meta.year, meta.quarter, meta.section_title) == (None, None, None, None)


def test_metadata_validation():
    with pytest.raises(ValueError):
        ChunkMetadata(document_id="d", page_number=0)
    with pytest.raises(ValueError):
        ChunkMetadata(document_id="d", page_number=1, quarter="Q9")


def test_metadata_dict_round_trip():
    meta = ChunkMetadata(document_id="d", page_number=2, company="X", year=2020, quarter="Q2")
    assert ChunkMetadata.from_dict(meta.as_dict()) == meta


def test_chunk_dict_round_trip():
    chunk = split_pages([page(narrative="hello world")])[0]
    assert DocumentChunk.from_dict(json.loads(json.dumps(chunk.as_dict()))) == chunk


_OPTIONAL_TEXT = st.none() | st.text(max_size=20)

typed_chunks = st.builds(
    DocumentChunk,
    chunk_id=st.text(max_size=20),
    text=st.text(max_size=200),
    token_count=st.integers(min_value=0),
    metadata=st.builds(
        ChunkMetadata,
        document_id=st.text(max_size=20),
        page_number=st.integers(min_value=1),
        company=_OPTIONAL_TEXT,
        year=st.none() | st.integers(),
        quarter=st.none() | st.sampled_from(["Q1", "Q2", "Q3", "Q4"]),
        section_title=_OPTIONAL_TEXT,
    ),
)


@settings(max_examples=200)
@given(typed_chunks)
@example(
    DocumentChunk(
        chunk_id="umsätze-2013:1:0",
        text="Umsatz — € 159 ½ 売上高 \u00a0",
        token_count=6,
        metadata=ChunkMetadata(document_id="umsätze-2013", page_number=1, company="Société"),
    )
)
def test_typed_chunk_survives_a_json_round_trip(chunk):
    # As the index writes and reads an entry line.
    record = json.loads(json.dumps(chunk.as_dict(), ensure_ascii=False))
    assert record["metadata"]["region"] is None
    assert DocumentChunk.from_dict(record) == chunk


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("document_id", None),
        ("page_number", True),
        ("page_number", "1"),
        ("company", 7),
        ("year", "2013"),
        ("year", 2013.0),
        ("quarter", 2),
        ("section_title", ["Revenues"]),
    ],
)
def test_metadata_refuses_mistyped_field(field, value):
    with pytest.raises(TypeError, match=field):
        ChunkMetadata(**{"document_id": "d", "page_number": 1, field: value})


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("chunk_id", 5),
        ("text", None),
        ("token_count", "3"),
        ("token_count", True),
        ("metadata", {"document_id": "d", "page_number": 1}),
    ],
)
def test_chunk_refuses_mistyped_field(field, value):
    record = {"chunk_id": "d:1:0", "text": "a b c", "token_count": 3,
              "metadata": ChunkMetadata(document_id="d", page_number=1)}
    with pytest.raises(TypeError, match=field):
        DocumentChunk(**{**record, field: value})


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("chunk_id", "d:1:\ud800", "chunk_id holds a lone surrogate U+D800 at character 4"),
        ("text", "bad \ud800 text", "text holds a lone surrogate U+D800 at character 4"),
        ("text", "café \udfff", "text holds a lone surrogate U+DFFF at character 5"),
    ],
)
def test_chunk_refuses_a_lone_surrogate(field, value, message):
    # persist writes strict UTF-8, which has no bytes for a lone surrogate.
    record = {"chunk_id": "d:1:0", "text": "a b c", "token_count": 3,
              "metadata": ChunkMetadata(document_id="d", page_number=1)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DocumentChunk(**{**record, field: value})


@pytest.mark.parametrize("field", ["document_id", "company", "quarter", "section_title"])
def test_metadata_refuses_a_lone_surrogate(field):
    with pytest.raises(ValueError, match=f"^{field} holds a lone surrogate U\\+D800 at character 1$"):
        ChunkMetadata(**{"document_id": "d", "page_number": 1, field: "Q\ud800"})


def test_ascii_fields_are_never_encoded(monkeypatch):
    # An ASCII string (str.isascii, O(1)) holds no surrogate: only other text is encoded.
    seen = []
    monkeypatch.setattr(chunking, "_lone_surrogate", lambda text: seen.append(text))
    metadata = ChunkMetadata(document_id="d", page_number=1, company="ACME", quarter="Q2",
                             section_title="Revenues")
    DocumentChunk("d:1:0", "plain text\x7f", 2, metadata)
    assert seen == []
    DocumentChunk("d:1:0", "café", 1, metadata)
    assert seen == ["café"]


def test_chunk_refuses_negative_token_count():
    with pytest.raises(ValueError, match="token_count"):
        DocumentChunk("d:1:0", "", -1, ChunkMetadata(document_id="d", page_number=1))


def test_metadata_record_refuses_a_region():
    record = ChunkMetadata(document_id="d", page_number=1).as_dict()
    record["region"] = {"page_number": 1, "polygon": [[0, 0], [1, 0], [1, 1]]}
    with pytest.raises(ValueError, match="region must be null"):
        ChunkMetadata.from_dict(record)


# --- properties over random pages -----------------------------------------------------

_SEGMENT = st.text(
    alphabet=st.sampled_from(list("abc 123.,$%\n\t")), min_size=0, max_size=400
)


@st.composite
def pages(draw):
    narrative = draw(_SEGMENT)
    tables = draw(st.lists(_SEGMENT, max_size=3))
    charts = draw(st.lists(_SEGMENT, max_size=2))
    return page(narrative=narrative, tables=tables, charts=charts)


@settings(max_examples=300)
@given(pages(), st.integers(min_value=1, max_value=80))
def test_property_token_budget(p, chunk_size):
    # blocks wider than a chunk decompose to tokens, so the cap is hard
    for c in split_pages([p], chunk_size=chunk_size):
        assert c.token_count <= chunk_size


@settings(max_examples=300)
@given(pages(), st.integers(min_value=1, max_value=80))
def test_property_reassembly_and_counts(p, chunk_size):
    chunks = split_pages([p], chunk_size=chunk_size)
    text = combine_page_text(p)
    assert "".join(c.text for c in chunks) == text
    assert sum(c.token_count for c in chunks) == count_tokens(text)
    for chunk in chunks:
        assert count_tokens(chunk.text) == chunk.token_count


@settings(max_examples=300)
@given(pages())
def test_property_ordinals_and_ids(p):
    chunks = split_pages([p], chunk_size=7)
    for i, chunk in enumerate(chunks):
        assert chunk.chunk_id == f"doc:1:{i}"


@settings(max_examples=200)
@given(pages(), st.integers(min_value=5, max_value=80))
def test_property_fitting_blocks_stay_whole(p, chunk_size):
    chunks = split_pages([p], chunk_size=chunk_size)
    for segment in list(p.table_texts) + list(p.chart_texts):
        if 0 < count_tokens(segment) <= chunk_size:
            # cut points sit at token starts, so judge by the token span
            assert any(segment.strip() in c.text for c in chunks)


# --- the piece-count cuts equal the old per-token packer ---------------------------

def split_page_by_spans(p, chunk_size):
    """The chunker as it was before cuts came from per-segment piece counts:
    token starts of the whole page string, then one token at a time."""
    text = combine_page_text(p)
    if not text:
        return []
    starts = [start for start, _ in DEFAULT_TOKENIZER.spans(text)]
    segments = [(p.narrative_text, False)] if p.narrative_text else []
    segments += [(t, True) for t in (*p.table_texts, *p.chart_texts)]
    cuts = [0]
    count = offset = 0
    for segment, protected in segments:
        first = bisect_left(starts, offset)
        offset += len(segment)
        last = bisect_left(starts, offset)
        offset += len("\n\n")
        size = last - first
        if protected and size <= chunk_size:
            if count + size > chunk_size:
                cuts.append(first)
                count = 0
            count += size
            continue
        for token in range(first, last):
            if count == chunk_size:
                cuts.append(token)
                count = 0
            count += 1
    char_cuts = [0, *(starts[token] for token in cuts[1:]), len(text)]
    token_cuts = [*cuts, len(starts)]
    return [
        (f"{p.document_id}:{p.page_number}:{i}", text[char_cuts[i]:char_cuts[i + 1]],
         token_cuts[i + 1] - token_cuts[i])
        for i in range(len(cuts))
    ]


# Unicode whitespace beyond ASCII (NEL, NBSP, ogham space mark, line
# separator, ideographic space, the information separators) and
# punctuation, drawn most often at a segment's edges.
_EDGE = st.sampled_from(
    ["\x85", "\xa0", "\u1680", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\n",
     ".", ",", "$", "%", "(", "\u2014", ""]
)
_BODY = st.text(
    alphabet=st.sampled_from(
        ["a", "Q", "4", "\u0130", "\u0301", "\u0663", "\u55b6", ".", "$", "%", " ", "\n",
         "\x85", "\xa0", "\u1680", "\u2028", "\u3000", "\x1c", "\x1f"]
    ),
    max_size=120,
)
_EDGED_SEGMENT = st.one_of(
    st.just(""),
    st.text(alphabet=st.sampled_from([" ", "\n", "\x85", "\xa0", "\u2028", "\u3000", "\x1e"]),
            min_size=1, max_size=4),  # whitespace only
    st.builds(lambda left, body, right: left + body + right, _EDGE, _BODY, _EDGE),
)


@st.composite
def edged_pages(draw):
    return page(
        narrative=draw(_EDGED_SEGMENT),
        tables=draw(st.lists(_EDGED_SEGMENT, max_size=4)),
        charts=draw(st.lists(_EDGED_SEGMENT, max_size=3)),
    )


@settings(max_examples=400)
@given(edged_pages(), st.integers(min_value=1, max_value=80))
def test_property_cuts_equal_the_per_token_packer(p, chunk_size):
    chunks = split_pages([p], chunk_size=chunk_size)
    assert [(c.chunk_id, c.text, c.token_count) for c in chunks] == split_page_by_spans(
        p, chunk_size
    )


# --- the cuts equal the piece-sum chunker ----------------------------------------

# Unicode whitespace beyond ASCII (NEL, NBSP, ogham space mark, line
# separator, ideographic space, the information separators) and
# punctuation, among letters, digits and combining marks.
_PIECE_EDGES = ["\x85", "\xa0", "\u1680", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\n"]
_PIECE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            [*_PIECE_EDGES, "a", "Q", "4", "\u0130", "\u0301", "\u0663", "$", ",", ".", "\u2014", "("]
        ),
        st.characters(),
    ),
    max_size=200,
)


@given(_PIECE_TEXT)
def test_oracle_pieces_are_tokens_with_the_whitespace_before_them(text):
    pieces = _PIECE_RE.findall(text)
    assert [p.lstrip() for p in pieces] == DEFAULT_TOKENIZER.tokens(text)
    joined = "".join(pieces)
    assert text.startswith(joined)
    assert not text[len(joined):].strip()
    # The oracle's cut offsets: the pieces before a token, then its whitespace.
    starts = [sum(map(len, pieces[:i])) + len(p) - len(p.lstrip()) for i, p in enumerate(pieces)]
    assert starts == [start for start, _ in DEFAULT_TOKENIZER.spans(text)]


# Words of one token and of several (``Q1/23E`` is three, ``...`` one, the
# dotted capital I one), and the whitespace between them, long runs too.
_ORACLE_WORDS = ["a", "rev", "2013", "Q1/23E", "...", "\u0130", "$1,234.5", "(6%)", "\u55b6\u696d",
                 "x\u0301", "a.b.c.d.e"]
_ORACLE_GAPS = [" ", " ", "\u3000", "\x1c", "\u2003", "\r\n", "\n\n", "\t ", " " * 40]
_SINGLE_TOKEN_WORDS = ["a", "rev", "2013", "...", "\u0130", "\u55b6\u696d"]


@st.composite
def _oracle_segment(draw, chunk_size):
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(st.sampled_from(["", " ", "\r\n", "\u3000\x1c", " " * 50]))
    if kind == 1:
        # a segment of exactly chunk_size or chunk_size + 1 tokens
        n = chunk_size + draw(st.integers(min_value=0, max_value=1))
        chosen = draw(st.lists(st.sampled_from(_SINGLE_TOKEN_WORDS), min_size=n, max_size=n))
    else:
        chosen = draw(st.lists(st.sampled_from(_ORACLE_WORDS), max_size=30))
    text = "".join(word + draw(st.sampled_from(_ORACLE_GAPS)) for word in chosen)
    # leading whitespace or none, trailing whitespace or none
    lead = draw(st.sampled_from(["", " ", "\u3000", "\r\n"]))
    return lead + (text if draw(st.booleans()) else text.rstrip())


@st.composite
def _oracle_case(draw):
    chunk_size = draw(st.integers(min_value=1, max_value=7))
    segment = _oracle_segment(chunk_size)
    pages = [
        page(
            narrative=draw(segment),
            tables=draw(st.lists(segment, max_size=3)),
            charts=draw(st.lists(segment, max_size=2)),
            page_number=number,
            section_title=draw(st.sampled_from([None, "Results"])),
        )
        for number in range(1, draw(st.integers(min_value=1, max_value=3)) + 1)
    ]
    attributes = draw(st.sampled_from([None, DocumentAttributes(company="ACME", year=2013, quarter="Q4")]))
    return pages, chunk_size, attributes


@settings(max_examples=400)
@given(_oracle_case())
@example(([page(narrative=" \u3000 ")], 1, None))
@example(([page(narrative="Q1/23E  ...\r\nx", tables=["a b c", "a b c d"])], 3, None))
def test_property_chunks_equal_the_piece_sum_chunker(case):
    pages, chunk_size, attributes = case
    assert split_pages(pages, chunk_size, attributes) == split_pages_by_pieces(pages, chunk_size, attributes)


def test_cuts_inside_a_many_token_word_match_the_oracle():
    # A cut after every token of one word of 1,000 tokens.
    p = page(narrative="lead " + "a." * 500 + "  tail")
    assert split_pages([p], chunk_size=1) == split_pages_by_pieces([p], 1)


def test_many_distinct_words_match_the_oracle():
    # 70,536 distinct words on one page, a third of them of three tokens.
    narrative = " ".join(f"w{i}" if i % 3 else f"w{i}.x" for i in range(2**16 + 5000))
    p = page(narrative=narrative, tables=["q1 2013"])
    assert split_pages([p]) == split_pages_by_pieces([p], DEFAULT_CHUNK_SIZE)


# --- token starts from code point classes -----------------------------------------

def _starts_both_ways(text):
    """``_token_starts(text)`` by the path ``text`` takes and by the path for
    text that is not ASCII: an appended U+3000 (whitespace, so it adds no
    token) sends ASCII text there."""
    return [chunking._token_starts(text).tolist(), chunking._token_starts(text + "\u3000").tolist()]


def _spans_starts(text):
    return [start for start, _ in DEFAULT_TOKENIZER.spans(text)]


def test_token_starts_match_the_tokenizer_for_every_ascii_code_point():
    for code in range(128):
        char = chr(code)
        # alone, repeated, and beside a word character, punctuation and a space
        for text in (char, char * 2, f"a{char}a", f".{char}.", f" {char} ", f"a{char}.", f".{char}a"):
            assert _starts_both_ways(text) == [_spans_starts(text)] * 2, repr(text)


_ANY_CHARACTER = st.one_of(
    st.characters(),
    st.characters(categories=["Cs"]),  # lone surrogates, which st.characters() leaves out
    st.sampled_from(["_", "\x1c", "\x1f", "\x85", "\xa0", "\u3000", "\u0301", "\u0130", ".", " "]),
)


@settings(max_examples=500)
@given(st.text(alphabet=_ANY_CHARACTER, max_size=60))
@example("_")
@example("\x1c\x1d\x1e\x1f")
@example("a\x1fb_c")
@example("a\x85b")
@example("a\xa0b")
@example("a\u3000b")
@example("e\u0301")
@example("\u0130stanbul")
@example("\u55b6\u696d")
@example("rev\u2014Q4")
@example("up \U0001F600!")
@example("\ud800")
@example("a\ud800b")
def test_token_starts_match_the_tokenizer(text):
    assert _starts_both_ways(text) == [_spans_starts(text)] * 2


# --- golden digest over seeded random pages -----------------------------------------

_GOLDEN_PIECES = ("rev", "Q4", "2013", "café", "営業", "$", "1,234.5", "%", "(", ")", "—", "...")
_GOLDEN_GAPS = ("", " ", " ", " ", "\n", "\t", "  \n ")


def _golden_segment(rng) -> str:
    # Empty, whitespace-only, or up to 24 tokens: wider than every chunk
    # size drawn below, so oversized tables and charts occur often.
    kind = rng.random()
    if kind < 0.1:
        return ""
    if kind < 0.25:
        return rng.choice((" ", "\n", " \t\n "))
    parts = [rng.choice(("", " ", "\n"))]
    for _ in range(rng.randint(1, 16)):
        parts += [rng.choice(_GOLDEN_PIECES), rng.choice(_GOLDEN_GAPS)]
    return "".join(parts)


def _golden_page(rng, number) -> PageContent:
    narrative = "" if rng.random() < 0.3 else _golden_segment(rng)
    tables = [_golden_segment(rng) for _ in range(rng.randint(0, 3))]
    charts = [_golden_segment(rng) for _ in range(rng.randint(0, 2))]
    return page(narrative=narrative, tables=tables, charts=charts, page_number=number)


def test_chunk_boundaries_match_golden_digest():
    # sha256 over (chunk_id, text, token_count) of every chunk split from
    # 2,000 seeded pages at chunk sizes 1-10; the cut points must not move.
    rng = random.Random(20131231)
    hasher = hashlib.sha256()
    total = 0
    for number in range(1, 2001):
        p = _golden_page(rng, number)
        for chunk in split_pages([p], chunk_size=rng.randint(1, 10)):
            hasher.update(json.dumps([chunk.chunk_id, chunk.text, chunk.token_count]).encode())
            total += 1
    assert total == 15708
    assert hasher.hexdigest() == "38497012685c90d84a7a74b8473ec87e1344913b99336df48f68380fc37cdff7"


def test_threads_splitting_at_once_match_the_oracle():
    rng = random.Random(20140101)
    pages = [_golden_page(rng, number) for number in range(1, 201)]
    expected = split_pages_by_pieces(pages, 5)
    start = threading.Barrier(4)
    results = [None] * 4

    def work(slot):
        start.wait(timeout=60)
        results[slot] = [split_pages(pages, chunk_size=5) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == [expected] * 3 for result in results)
