import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrag.chunking import (
    DEFAULT_CHUNK_SIZE,
    ChunkMetadata,
    DocumentChunk,
    combine_page_text,
    split_pages,
)
from docrag.layout import DocumentAttributes
from docrag.preprocess import PageContent
from docrag.tokens import count_tokens


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
