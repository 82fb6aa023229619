import copy
import gc
import json
import math
import os
import random
import re
import stat
import sys
import threading
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrag import index as index_module
from docrag.chunking import ChunkMetadata, DocumentChunk, split_pages
from docrag.embedding import HashingEmbedder
from docrag.errors import IndexLoadError, ProviderError
from docrag.index import (
    IndexEntry,
    RetrievalConfig,
    RetrievalResult,
    VectorIndex,
    embed,
)
from docrag.layout import DocumentAttributes
from docrag.preprocess import PageContent
from reference import brute_force, cosine, load_line_by_line


def chunk(chunk_id, text="text", **meta):
    meta.setdefault("document_id", chunk_id.split(":")[0])
    meta.setdefault("page_number", 1)
    return DocumentChunk(
        chunk_id=chunk_id,
        text=text,
        token_count=len(text.split()),
        metadata=ChunkMetadata(**meta),
    )


def entry(chunk_id, vector, **meta):
    return IndexEntry(chunk=chunk(chunk_id, **meta), vector=tuple(vector))


# --- cosine: the pure-Python oracle the search tests compare against ------

def test_cosine_identical_vectors():
    assert math.isclose(cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), 1.0, rel_tol=1e-12)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 5.0]) == 0.0


def test_cosine_known_value():
    assert math.isclose(
        cosine([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), 0.9746318461970762, rel_tol=1e-12
    )


def test_cosine_opposite():
    assert math.isclose(cosine([1.0, 1.0], [-1.0, -1.0]), -1.0, rel_tol=1e-12)


def test_cosine_zero_vector_scores_zero(caplog):
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine([1.0], [1.0, 2.0])


def test_cosine_scale_invariant():
    u, v = [0.3, -0.7, 0.2], [1.1, 0.4, -0.9]
    assert math.isclose(cosine(u, v), cosine([10 * x for x in u], v), rel_tol=1e-12)


# --- embed() validation -----------------------------------------------------

class FakeProvider:
    tag = "fake"
    dimension = 3

    def __init__(self, vector):
        self.vector = vector

    def embed(self, text):
        return self.vector


def test_embed_passes_valid_vector():
    assert embed("q", FakeProvider([1.0, 2.0, 3.0])).tolist() == [1.0, 2.0, 3.0]


def test_embed_rejects_wrong_dimension():
    with pytest.raises(ProviderError, match="dimension mismatch"):
        embed("q", FakeProvider([1.0, 2.0]))


def test_embed_rejects_non_finite():
    with pytest.raises(ProviderError, match="non-finite"):
        embed("q", FakeProvider([1.0, float("nan"), 2.0]))


# Finite components whose float sum overflows, then non-finite ones (whose
# sums are inf, -inf or nan): embed and IndexEntry test each component, so
# a sum past float64's range refuses nothing.
_SUM_OVERFLOWS = [1e308, 1e308, 0.0]
_NON_FINITE = {
    "nan": [math.nan, 0.0, 0.0],
    "inf": [math.inf, 0.0, 0.0],
    "inf-minus-inf": [math.inf, -math.inf, 0.0],
}


def test_finite_components_whose_sum_overflows_are_accepted():
    assert not math.isfinite(sum(_SUM_OVERFLOWS))
    assert embed("q", FakeProvider(_SUM_OVERFLOWS)).tolist() == _SUM_OVERFLOWS
    assert entry("a:1:0", _SUM_OVERFLOWS).vector == tuple(_SUM_OVERFLOWS)


@pytest.mark.parametrize("vector", _NON_FINITE.values(), ids=_NON_FINITE)
def test_non_finite_components_are_refused_by_embed_and_entry(vector):
    with pytest.raises(ProviderError, match="provider fake returned non-finite values"):
        embed("q", FakeProvider(vector))
    with pytest.raises(ValueError, match="vector entries must be finite"):
        entry("a:1:0", vector)


# --- upsert and lookup --------------------------------------------------------

def test_upsert_and_get():
    index = VectorIndex(dimension=2)
    index.upsert(entry("a:1:0", [1.0, 0.0]))
    assert len(index) == 1
    assert index.get("a:1:0").vector == (1.0, 0.0)
    assert index.get("missing") is None


def test_upsert_replaces_same_id():
    index = VectorIndex(dimension=2)
    index.upsert(entry("a:1:0", [1.0, 0.0]))
    index.upsert(entry("a:1:0", [0.0, 1.0]))
    assert len(index) == 1
    assert index.get("a:1:0").vector == (0.0, 1.0)


def test_get_absent_ids_around_stored_ones():
    index = VectorIndex(dimension=1)
    index.upsert_many([entry("b:1:0", [1.0]), entry("d:1:0", [2.0])])
    assert [index.get(cid) for cid in ("a:1:0", "c:1:0", "e:1:0")] == [None, None, None]
    assert index.get("d:1:0").vector == (2.0,)


def test_upsert_many_repeated_id_keeps_last():
    index = VectorIndex(dimension=2)
    index.upsert(entry("a:1:0", [1.0, 0.0], company="OLD"))
    index.upsert_many([entry("a:1:0", [0.0, 1.0], company="MID"), entry("a:1:0", [1.0, 1.0], company="NEW")])
    assert len(index) == 1
    assert index.get("a:1:0").vector == (1.0, 1.0)
    [result] = index.search([1.0, 1.0], RetrievalConfig(filters=(("company", "NEW"),)))
    assert result.chunk.metadata.company == "NEW"
    assert index.search([1.0, 1.0], RetrievalConfig(filters=(("company", "OLD"),))) == []


def test_chunks_in_id_order():
    index = VectorIndex(dimension=1)
    index.upsert_many([entry("b:1:0", [1.0]), entry("a:1:0", [1.0])])
    assert [c.chunk_id for c in index.chunks()] == ["a:1:0", "b:1:0"]
    assert index.chunks()[0] == chunk("a:1:0")


def test_chunk_ids_sorted():
    index = VectorIndex(dimension=1)
    index.upsert_many([entry("b:1:0", [1.0]), entry("a:1:0", [1.0]), entry("a:1:1", [1.0])])
    assert index.chunk_ids() == ("a:1:0", "a:1:1", "b:1:0")


def test_upsert_rejects_wrong_dimension():
    index = VectorIndex(dimension=3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        index.upsert(entry("a:1:0", [1.0, 2.0]))


def test_upsert_many_refuses_a_wrong_dimension_before_converting_any_row(monkeypatch):
    index = VectorIndex(dimension=3)
    index.upsert(entry("a:1:0", [1.0, 2.0, 3.0]))
    merged = []
    monkeypatch.setattr(VectorIndex, "_merge", lambda self, chunks, rows: merged.append(rows))
    batch = [entry("b:1:0", [1.0, 0.0, 0.0]), entry("b:2:0", [1.0, 2.0]), entry("b:3:0", [0.0, 1.0, 0.0])]
    with pytest.raises(ValueError, match="^dimension mismatch: index is 3, vector is 2$"):
        index.upsert_many(batch)
    assert merged == []
    assert index.chunk_ids() == ("a:1:0",)


def test_upsert_many_of_no_entries_is_a_no_op(tmp_path):
    index = VectorIndex(dimension=3)
    index.upsert_many([])
    assert len(index) == 0
    index = populated_index()
    before = persisted(index, tmp_path)
    index.upsert_many([])
    assert persisted(index, tmp_path) == before


@pytest.mark.parametrize(
    "component",
    [float("inf"), 10**400, -(10**400), Fraction(10**400)],
    ids=["inf", "int-past-float64", "negative-int-past-float64", "fraction-past-float64"],
)
def test_entry_rejects_non_finite_vector(component):
    # float() of an int or Fraction past float64's range raises OverflowError.
    with pytest.raises(ValueError, match="vector entries must be finite"):
        entry("a:1:0", [1.0, component])


@pytest.mark.parametrize(
    "component",
    ["0.5", True, False, None, np.bool_(True), [0.5], 1j, Decimal("0.5")],
    ids=["string", "true", "false", "none", "numpy-bool", "list", "complex", "decimal"],
)
def test_entry_refuses_component_that_is_no_real_number(component):
    # float() read "0.5", True and False as numbers, which VectorIndex.load refuses.
    with pytest.raises(TypeError, match="real numbers"):
        IndexEntry(chunk=chunk("a:1:0"), vector=(0.25, component, 0.5))


@pytest.mark.parametrize(
    "vector",
    [np.array([0.5, -1.0, 2.0]), np.array([0.5, -1.0, 2.0], dtype=np.float32), [1, 0.5, -2], (0.5, -1.0, 2.0)],
    ids=["float64-row", "float32-row", "ints", "floats"],
)
def test_entry_keeps_real_components_as_floats(vector):
    stored = IndexEntry(chunk=chunk("a:1:0"), vector=vector).vector
    assert stored == tuple(float(value) for value in vector)
    assert {type(value) for value in stored} == {float}


@pytest.mark.parametrize("dimension", [0, True, 2.0, "3"], ids=["zero", "bool", "float", "str"])
def test_index_dimension_must_be_positive(dimension):
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        VectorIndex(dimension=dimension)


# --- add_pages: one document's pages in one call ---------------------------------

def page(document_id, page_number, text, tables=()):
    return PageContent(document_id, page_number, text, tuple(tables), (), ())


def add_entry_by_entry(index, pages, embedder, chunk_size, attributes):
    """The write sequence ``add_pages`` replaces: split, keep each chunk of
    at least 1 token, one ``IndexEntry`` of a tuple of floats per chunk,
    then ``upsert_many``."""
    chunks = [c for c in split_pages(pages, chunk_size=chunk_size, attributes=attributes) if c.token_count]
    index.upsert_many([IndexEntry(chunk=c, vector=tuple(embed(c.text, embedder))) for c in chunks])
    return chunks


def persisted(index, directory):
    path = directory / "index.jsonl"
    index.persist(path)
    return path.read_bytes()


_WORDS = ["alpha", "beta", "Gamma", "revenue:", "42", "$1,204", "(6%)", "{\"k\": \"v\"}", "été"]
_PAGE_TEXT = st.one_of(
    st.sampled_from(["", " ", "\n\t  \n"]),  # empty and whitespace-only pages
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=14).map(" ".join),
)
_DOCUMENT = st.tuples(
    st.sampled_from(["b-10k", "a-10k", "c-10k", "b-10k-2"]),  # re-added, and sorting inside the index
    st.lists(st.tuples(_PAGE_TEXT, st.lists(_PAGE_TEXT, max_size=2)), max_size=11),
    st.one_of(st.none(), st.builds(DocumentAttributes, company=st.sampled_from(["ACME", "BETA"]),
                                   year=st.sampled_from([2020, 2021]))),
)


@settings(max_examples=100, deadline=None)
@given(documents=st.lists(_DOCUMENT, max_size=5), chunk_size=st.integers(1, 6))
def test_add_pages_persists_like_entry_by_entry(tmp_path_factory, documents, chunk_size):
    # Pages past 9 give ids ("d:10:0" < "d:2:0") that sort inside a document.
    embedder = HashingEmbedder(dimension=16)
    added, entered = (VectorIndex(dimension=16, provider_tag=embedder.tag) for _ in range(2))
    for document_id, texts, attributes in documents:
        pages = [page(document_id, number, text, tables) for number, (text, tables) in enumerate(texts, 1)]
        chunks = added.add_pages(pages, embedder, chunk_size=chunk_size, attributes=attributes)
        assert chunks == add_entry_by_entry(entered, pages, embedder, chunk_size, attributes)
    directory = tmp_path_factory.mktemp("add-pages")
    assert persisted(added, directory) == persisted(entered, directory)


def test_add_pages_replaces_a_readded_documents_chunks():
    embedder = HashingEmbedder(dimension=16)
    index = VectorIndex(dimension=16)
    index.add_pages([page("a", 1, "old words here")], embedder, attributes=DocumentAttributes(company="OLD"))
    chunks = index.add_pages([page("a", 1, "new words")], embedder, attributes=DocumentAttributes(company="NEW"))
    assert index.chunks() == tuple(chunks)
    assert index.get("a:1:0").vector == tuple(embed("new words", embedder).tolist())


def test_add_pages_of_no_chunks_leaves_the_index_as_it_was(tmp_path):
    embedder = HashingEmbedder(dimension=16)
    index = VectorIndex(dimension=16)
    index.add_pages([page("a", 1, "some text")], embedder)
    before = persisted(index, tmp_path)
    assert index.add_pages([page("b", 1, ""), page("b", 2, "", [""])], embedder) == []
    assert index.add_pages([], embedder) == []
    assert persisted(index, tmp_path) == before


def test_add_pages_refuses_a_chunk_size_that_is_no_integer_and_leaves_the_index(tmp_path):
    embedder = HashingEmbedder(dimension=16)
    index = VectorIndex(dimension=16)
    index.add_pages([page("a", 1, "some text")], embedder)
    before = persisted(index, tmp_path)
    with pytest.raises(ValueError, match="chunk_size must be an integer >= 1, got True"):
        index.add_pages([page("b", 1, "alpha beta gamma")], embedder, chunk_size=True)
    assert persisted(index, tmp_path) == before


def test_add_pages_refuses_an_embedder_of_another_dimension_and_leaves_the_index(tmp_path):
    # Without the check numpy would report a broadcast error part-way.
    index = VectorIndex(dimension=16)
    index.add_pages([page("a", 1, "kept text")], HashingEmbedder(dimension=16))
    before = persisted(index, tmp_path)
    with pytest.raises(ValueError, match=r"^dimension mismatch: index is 16, embedder is 8$"):
        index.add_pages([page("b", 1, "more text")], HashingEmbedder(dimension=8))
    assert persisted(index, tmp_path) == before
    assert index.chunk_ids() == ("a:1:0",)


@pytest.mark.parametrize(
    "vector,message",
    [([1.0, math.nan, 0.0], "non-finite values"), ([1.0, 0.0], "declared 3, returned 2"), (["1", 0, 0], "bad vector")],
    ids=["nan", "short", "str"],
)
def test_add_pages_raises_the_embed_rule_and_leaves_the_index(tmp_path, vector, message):
    index = VectorIndex(dimension=3)
    index.add_pages([page("a", 1, "kept")], FakeProvider([1.0, 0.0, 0.0]))
    before = persisted(index, tmp_path)
    with pytest.raises(ProviderError, match=message):
        index.add_pages([page("b", 1, "one two three four")], FakeProvider(vector), chunk_size=2)
    assert persisted(index, tmp_path) == before


# --- one vector rule: a table run through every entry point -------------------

# Components numpy would read as numbers, which no entry point may.
_REFUSED_VECTORS = {
    "strings": ["1", "0"],
    "bools": [True, False],
    "float-and-bool": [1.0, True],
    "bool-array": np.array([True, False]),
    "string-array": np.array(["1", "0"]),
    "object-array-with-none": np.array([None, 0.0], dtype=object),
}
# Each reads as the float list [3.0, -4.0].
_ACCEPTED_VECTORS = {
    "float32-array": np.array([3.0, -4.0], dtype=np.float32),
    "int-list": [3, -4],
    "float64-array": np.array([3.0, -4.0]),
    "float64-column-view": np.array([[3.0, 9.0], [-4.0, 9.0]])[:, 0],
}


def searched(tmp_path, vector):
    index = VectorIndex(dimension=2)
    index.upsert_many([entry("a:1:0", [1.0, 0.0]), entry("b:1:0", [0.0, 1.0]), entry("c:1:0", [3.0, -4.0])])
    return [(r.chunk.chunk_id, r.score) for r in index.search(vector, RetrievalConfig(k=3))]


def embedded(tmp_path, vector):
    provider = FakeProvider(vector)
    provider.dimension = 2
    result = embed("q", provider)
    assert type(result) is np.ndarray and result.dtype == np.float64
    return result.tolist()


def entered(tmp_path, vector):
    stored = IndexEntry(chunk=chunk("a:1:0"), vector=vector).vector
    assert {type(value) for value in stored} == {float}
    return stored


def loaded(tmp_path, vector):
    """The vector loaded from a persisted one-entry index whose entry line
    holds ``vector`` (an array as JSON holds it: a list)."""
    path = tmp_path / "index.jsonl"
    index = VectorIndex(dimension=2)
    index.upsert(entry("a:1:0", [1.0, 0.0]))
    index.persist(path)
    header, line = path.read_bytes().splitlines(keepends=True)
    record = json.loads(line)
    record["vector"] = vector.tolist() if isinstance(vector, np.ndarray) else vector
    path.write_bytes(header + json.dumps(record).encode() + b"\n")
    return VectorIndex.load(path).get("a:1:0").vector


# Each entry point and the error it refuses a vector with.
_ENTRY_POINTS = {
    "search": (searched, TypeError),
    "embed": (embedded, ProviderError),
    "entry": (entered, TypeError),
    "load": (loaded, IndexLoadError),
}


@pytest.mark.parametrize("vector", _REFUSED_VECTORS.values(), ids=_REFUSED_VECTORS)
@pytest.mark.parametrize("entry_point", _ENTRY_POINTS)
def test_every_entry_point_refuses_components_that_are_no_real_numbers(tmp_path, entry_point, vector):
    # search read ["1", "0"] and [True, False] as (1, 0), which scored 1.0
    # against a (1, 0) row, and embed passed [True, False] through.
    read, error = _ENTRY_POINTS[entry_point]
    with pytest.raises(error, match="real numbers") as info:
        read(tmp_path, vector)
    if error is IndexLoadError:  # at the entry line, just past the header
        header = (tmp_path / "index.jsonl").read_bytes().splitlines(keepends=True)[0]
        assert info.value.byte_offset == len(header)


@pytest.mark.parametrize("vector", _ACCEPTED_VECTORS.values(), ids=_ACCEPTED_VECTORS)
@pytest.mark.parametrize("entry_point", _ENTRY_POINTS)
def test_every_entry_point_reads_real_components_as_the_float_list(tmp_path, entry_point, vector):
    read, _ = _ENTRY_POINTS[entry_point]
    assert read(tmp_path, vector) == read(tmp_path, [3.0, -4.0])


def test_the_float_list_reads_alike_at_every_entry_point(tmp_path):
    assert searched(tmp_path, [3.0, -4.0]) == [("c:1:0", 1.0), ("a:1:0", 0.6), ("b:1:0", -0.8)]
    assert embedded(tmp_path, [3.0, -4.0]) == [3.0, -4.0]
    assert entered(tmp_path, [3.0, -4.0]) == loaded(tmp_path, [3.0, -4.0]) == (3.0, -4.0)


def test_a_float64_array_passes_embed_as_it_is():
    column = _ACCEPTED_VECTORS["float64-column-view"]
    assert not column.flags.contiguous
    for vector in (_ACCEPTED_VECTORS["float64-array"], column):
        provider = FakeProvider(vector)
        provider.dimension = 2
        assert embed("q", provider) is vector


# --- search -----------------------------------------------------------------

def small_index():
    index = VectorIndex(dimension=2)
    index.upsert_many(
        [
            entry("a:1:0", [1.0, 0.0], company="ACME", year=2013),
            entry("b:1:0", [0.0, 1.0], company="BETA", year=2013),
            entry("c:1:0", [1.0, 1.0], company="ACME", year=2020),
        ]
    )
    return index


def test_search_orders_by_score():
    results = small_index().search([1.0, 0.0], RetrievalConfig(k=3))
    assert [r.chunk.chunk_id for r in results] == ["a:1:0", "c:1:0", "b:1:0"]
    assert math.isclose(results[0].score, 1.0, rel_tol=1e-12)
    assert math.isclose(results[1].score, math.sqrt(0.5), rel_tol=1e-12)
    assert math.isclose(results[2].score, 0.0, abs_tol=1e-12)


def test_search_k_limits_results():
    assert len(small_index().search([1.0, 0.0], RetrievalConfig(k=2))) == 2


def test_search_k_larger_than_index():
    assert len(small_index().search([1.0, 0.0], RetrievalConfig(k=50))) == 3


def test_search_filter_by_company():
    results = small_index().search(
        [1.0, 0.0], RetrievalConfig(k=3, filters=(("company", "ACME"),))
    )
    assert [r.chunk.chunk_id for r in results] == ["a:1:0", "c:1:0"]


def test_search_filter_conjunction():
    results = small_index().search(
        [1.0, 0.0], RetrievalConfig(k=3, filters=(("company", "ACME"), ("year", 2020)))
    )
    assert [r.chunk.chunk_id for r in results] == ["c:1:0"]


def test_search_filter_to_empty():
    assert small_index().search(
        [1.0, 0.0], RetrievalConfig(k=3, filters=(("company", "NOPE"),))
    ) == []


def test_search_empty_index():
    assert VectorIndex(dimension=2).search([1.0, 0.0], RetrievalConfig()) == []


def test_search_query_dimension_checked():
    with pytest.raises(ValueError, match="dimension mismatch"):
        small_index().search([1.0, 0.0, 0.0], RetrievalConfig())


def test_exact_ties_break_by_ascending_chunk_id():
    index = VectorIndex(dimension=2)
    index.upsert_many(
        [
            entry("z:1:0", [2.0, 0.0]),
            entry("a:1:0", [1.0, 0.0]),
            entry("m:1:0", [3.0, 0.0]),
        ]
    )
    results = index.search([1.0, 0.0], RetrievalConfig(k=3))
    assert [r.chunk.chunk_id for r in results] == ["a:1:0", "m:1:0", "z:1:0"]
    assert all(math.isclose(r.score, 1.0, rel_tol=1e-12) for r in results)


def test_zero_norm_entries_score_zero_and_sort_last(caplog):
    index = VectorIndex(dimension=2)
    index.upsert_many([entry("a:1:0", [0.0, 0.0]), entry("b:1:0", [1.0, 0.0])])
    results = index.search([1.0, 0.0], RetrievalConfig(k=2))
    assert [(r.chunk.chunk_id, r.score) for r in results] == [("b:1:0", 1.0), ("a:1:0", 0.0)]


def test_zero_query_scores_everything_zero():
    results = small_index().search([0.0, 0.0], RetrievalConfig(k=3))
    assert [r.score for r in results] == [0.0, 0.0, 0.0]
    assert [r.chunk.chunk_id for r in results] == ["a:1:0", "b:1:0", "c:1:0"]


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(k=0)


@pytest.mark.parametrize("k", [True, 2.5, "3"])
def test_retrieval_config_refuses_k_that_is_no_int(k):
    # A one-row search would otherwise return a result for any of these.
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 1, got {k!r}")):
        RetrievalConfig(k=k)


def test_result_is_plain_record():
    result = RetrievalResult(chunk=chunk("a:1:0"), score=0.5)
    assert result.score == 0.5


def test_filter_on_absent_field_is_refused():
    for value in (None, "red", 0, False, ""):
        with pytest.raises(ValueError, match="filter 'colour' is not a metadata field"):
            RetrievalConfig(k=3, filters=(("colour", value),))


@pytest.mark.parametrize(
    "filters, expected",
    [
        # Python equality decides a match only among the types a field
        # holds: a value equal to one across types (2013.0, True, 1.0) is
        # refused, not run.
        ((("year", 2013.0),), ValueError("filter 'year' must be int or NoneType, got 2013.0")),
        ((("year", 2020.0), ("company", "ACME")), ValueError("filter 'year' must be int or NoneType, got 2020.0")),
        ((("page_number", True),), ValueError("filter 'page_number' must be int, got True")),
        ((("page_number", 1.0),), ValueError("filter 'page_number' must be int, got 1.0")),
        ((("page_number", False),), ValueError("filter 'page_number' must be int, got False")),
        ((("year", "2013"),), ValueError("filter 'year' must be int or NoneType, got '2013'")),
        ((("quarter", None),), ["a:1:0", "c:1:0", "b:1:0"]),
        ((("quarter", "Q1"),), []),
    ],
)
def test_filter_values_match_as_python_equality(filters, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=re.escape(str(expected))):
            RetrievalConfig(k=3, filters=filters)
        return
    found = small_index().search([1.0, 0.0], RetrievalConfig(k=3, filters=filters))
    assert [r.chunk.chunk_id for r in found] == expected


def test_filter_value_never_seen():
    index = small_index()
    for filters in ((("company", "GAMMA"),), (("year", 1999),), (("company", "ACME"), ("year", 1999))):
        assert index.search([1.0, 0.0], RetrievalConfig(k=3, filters=filters)) == []
    # No metadata field holds a list, so a list value is refused, not run.
    with pytest.raises(ValueError, match=re.escape("filter 'company' must be str or NoneType, got ['ACME']")):
        RetrievalConfig(k=3, filters=(("company", ["ACME"]),))


def test_filter_sees_replaced_metadata_only():
    index = small_index()
    index.upsert(entry("a:1:0", [1.0, 0.0], company="BETA", year=2013))
    acme = index.search([1.0, 0.0], RetrievalConfig(k=3, filters=(("company", "ACME"),)))
    assert [r.chunk.chunk_id for r in acme] == ["c:1:0"]
    beta = index.search([1.0, 0.0], RetrievalConfig(k=3, filters=(("company", "BETA"),)))
    assert [r.chunk.chunk_id for r in beta] == ["a:1:0", "b:1:0"]


def test_value_tables_stay_bounded_under_rewrites():
    # Rewriting rows with ever-new values leaves stale ones in a field's
    # table until it is rebuilt; filters must hold before and after.
    index = VectorIndex(dimension=2)
    for n in range(40):
        index.upsert_many(
            [
                entry("a:1:0", [1.0, 0.0], section_title=f"s{n}"),
                entry("b:1:0", [0.0, 1.0], section_title=f"s{n + 1}"),
            ]
        )
        assert len(index._snapshot.books["section_title"]) <= 2 * len(index)
        found = index.search([1.0, 0.0], RetrievalConfig(k=2, filters=(("section_title", f"s{n + 1}"),)))
        assert [r.chunk.chunk_id for r in found] == ["b:1:0"]
        assert index.search([1.0, 0.0], RetrievalConfig(k=2, filters=(("section_title", f"s{n - 1}"),))) == []


def test_exact_ties_straddling_the_kth_position():
    # Integer vectors against [1, 0] score exactly 1, 0 or -1, so each
    # score is shared by several rows; ids are inserted out of order.
    vectors = {"e": [2.0, 0.0], "b": [0.0, 3.0], "g": [1.0, 0.0], "a": [-1.0, 0.0],
               "f": [0.0, 1.0], "c": [5.0, 0.0], "d": [-2.0, 0.0]}
    index = VectorIndex(dimension=2)
    index.upsert_many([entry(f"{name}:1:0", vector) for name, vector in vectors.items()])
    ranked = sorted(vectors, key=lambda name: (-vectors[name][0] / math.hypot(*vectors[name]), name))
    for k in range(1, len(vectors) + 3):
        found = index.search([1.0, 0.0], RetrievalConfig(k=k))
        assert [r.chunk.chunk_id[0] for r in found] == ranked[:k]
        for filters in ((("page_number", 1),), (("page_number", 1), ("company", None))):
            filtered = index.search([1.0, 0.0], RetrievalConfig(k=k, filters=filters))
            assert filtered == found


def test_non_finite_query_is_refused():
    index = small_index()
    for bad in (math.nan, math.inf, -math.inf):
        for filters in ((), (("company", "ACME"),), (("company", "NOBODY"),)):
            with pytest.raises(ValueError, match="non-finite"):
                index.search([bad, 0.0], RetrievalConfig(k=3, filters=filters))


def overflow_index():
    # d:1:0's norm overflows float64 (its squares sum past 1.8e308); d:1:1's
    # cosine with the query (1, 1) is 1/sqrt(2).
    index = VectorIndex(dimension=2)
    index.upsert_many([
        entry("d:1:0", [1e308, 1e308], company="BIG"),
        entry("d:1:1", [1.0, 0.0], company="SMALL"),
    ])
    return index


@pytest.mark.parametrize("query", [[1.0, 1.0], [0.0, 0.0]], ids=["unit", "zero"])
@pytest.mark.parametrize("k", [1, 2])
def test_overflowed_row_norm_is_refused_by_name(query, k):
    # It scored nan and ranked last, below a worse row, with a RuntimeWarning.
    with pytest.raises(ValueError, match="'d:1:0' overflows float64"):
        overflow_index().search(query, RetrievalConfig(k=k))


def test_rows_without_overflow_still_rank_beside_an_overflowed_one():
    found = overflow_index().search([1.0, 1.0], RetrievalConfig(k=2, filters=(("company", "SMALL"),)))
    assert [(r.chunk.chunk_id, r.score) for r in found] == [("d:1:1", 1.0 / math.sqrt(2.0))]


@pytest.mark.parametrize("query", [[1e200, 1.0], [1e154, 1e154]])
def test_overflowed_query_norm_is_refused(query):
    index = small_index()
    for filters in ((), (("company", "NOBODY"),)):
        with pytest.raises(ValueError, match="query vector's norm overflows float64"):
            index.search(query, RetrievalConfig(k=3, filters=filters))


def test_overflowed_rows_persist_and_load(tmp_path):
    path = tmp_path / "overflow.jsonl"
    overflow_index().persist(path)
    loaded = VectorIndex.load(path)
    assert loaded.get("d:1:0").vector == (1e308, 1e308)
    with pytest.raises(ValueError, match="'d:1:0' overflows float64"):
        loaded.search([1.0, 1.0], RetrievalConfig(k=2))


def underflow_index():
    # d:1:0's squared components sum below the smallest float64, so its
    # norm reads 0; its cosine with the query (1, 0) is 1. d:1:2 is all zero.
    index = VectorIndex(dimension=2)
    index.upsert_many([
        entry("d:1:0", [1e-163, 0.0], company="TINY"),
        entry("d:1:1", [0.0, 1.0], company="SMALL"),
        entry("d:1:2", [-0.0, 0.0], company="SMALL"),
    ])
    return index


@pytest.mark.parametrize("query", [[1.0, 0.0], [0.0, 0.0]], ids=["unit", "zero"])
def test_underflowed_row_norm_is_refused_by_name(query):
    # It scored 0 and was logged as an all-zero vector.
    with pytest.raises(ValueError, match="'d:1:0' underflows float64"):
        underflow_index().search(query, RetrievalConfig(k=3))


def test_rows_without_underflow_still_rank_beside_an_underflowed_one():
    found = underflow_index().search([1.0, 1.0], RetrievalConfig(k=3, filters=(("company", "SMALL"),)))
    assert [(r.chunk.chunk_id, r.score) for r in found] == [("d:1:1", 1.0 / math.sqrt(2.0)), ("d:1:2", 0.0)]


@pytest.mark.parametrize("query", [[1e-170, 0.0], [5e-324, -5e-324]])
def test_underflowed_query_norm_is_refused(query):
    # It was searched as an all-zero query.
    index = small_index()
    for filters in ((), (("company", "NOBODY"),)):
        with pytest.raises(ValueError, match="query vector's norm underflows float64"):
            index.search(query, RetrievalConfig(k=3, filters=filters))


def test_signed_zero_query_still_scores_everything_zero():
    results = small_index().search([-0.0, 0.0], RetrievalConfig(k=3))
    assert [r.score for r in results] == [0.0, 0.0, 0.0]


def test_underflowed_rows_persist_and_load(tmp_path):
    path = tmp_path / "underflow.jsonl"
    underflow_index().persist(path)
    loaded = VectorIndex.load(path)
    assert loaded.get("d:1:0").vector == (1e-163, 0.0)
    with pytest.raises(ValueError, match="'d:1:0' underflows float64"):
        loaded.search([1.0, 0.0], RetrievalConfig(k=3))


# --- numpy path vs pure-python oracle -----------------------------------------

def test_search_matches_bruteforce_on_random_vectors():
    rng = random.Random(271828)
    dimension = 16
    entries = []
    for i in range(120):
        vector = [rng.gauss(0, 1) for _ in range(dimension)]
        if i % 17 == 0:
            vector = [0.0] * dimension  # some all-zero rows
        if i % 11 == 0 and entries:
            vector = list(entries[-1].vector)  # deliberate exact ties
        entries.append(
            entry(f"d{i % 7}:1:{i}", vector, document_id=f"d{i % 7}", year=2000 + i % 3)
        )
    index = VectorIndex(dimension=dimension)
    index.upsert_many(entries)

    for trial in range(25):
        query = [rng.gauss(0, 1) for _ in range(dimension)]
        k = rng.randint(1, 10)
        filters = ()
        if trial % 3 == 0:
            filters = (("year", 2000 + trial % 3),)
        got = [
            r.chunk.chunk_id
            for r in index.search(query, RetrievalConfig(k=k, filters=filters))
        ]
        assert got == brute_force(entries, query, k, filters)


def test_search_scores_match_pure_python_cosine():
    rng = random.Random(99)
    index = VectorIndex(dimension=8)
    entries = [
        entry(f"x:1:{i}", [rng.uniform(-1, 1) for _ in range(8)]) for i in range(30)
    ]
    index.upsert_many(entries)
    query = [rng.uniform(-1, 1) for _ in range(8)]
    by_id = {e.chunk.chunk_id: e for e in entries}
    for result in index.search(query, RetrievalConfig(k=30)):
        expected = cosine(by_id[result.chunk.chunk_id].vector, query)
        assert math.isclose(result.score, expected, rel_tol=1e-12)


FILTERS = [
    ("company", "ACME"), ("company", "BETA"), ("company", None), ("company", "NOPE"),
    ("year", 2020), ("year", 2021), ("year", None), ("quarter", "Q1"), ("quarter", None),
    ("page_number", 1), ("page_number", 2), ("document_id", "d1"),
]

stored_rows = st.lists(
    st.tuples(
        st.sampled_from(["ACME", "BETA", None]),
        st.sampled_from([2020, 2021, None]),
        st.sampled_from(["Q1", None]),
        st.integers(1, 3),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    rows=stored_rows,
    filters=st.lists(st.sampled_from(FILTERS), min_size=1, max_size=2),
    query=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    k=st.integers(1, 32),
)
def test_filtered_search_matches_bruteforce(rows, filters, query, k):
    # Small integer vectors make numpy's and the oracle's scores bit-equal,
    # ties included, so the comparison is exact.
    entries = [
        entry(f"d{i % 3}:{page}:{i}", map(float, vector), document_id=f"d{i % 3}",
              page_number=page, company=company, year=year, quarter=quarter)
        for i, (company, year, quarter, page, vector) in enumerate(rows)
    ]
    index = VectorIndex(dimension=4)
    index.upsert_many(entries)
    query = [float(x) for x in query]
    config = RetrievalConfig(k=k, filters=tuple(filters))
    found = index.search(query, config)  # the filter memo is cold
    expected = brute_force(entries, query, k, filters)
    assert [r.chunk.chunk_id for r in found] == expected
    by_id = {e.chunk.chunk_id: e for e in entries}
    assert [r.score for r in found] == [cosine(by_id[cid].vector, query) for cid in expected]
    assert index.search(query, config) == found  # and warm


def test_filter_memo_belongs_to_its_snapshot():
    index = VectorIndex(dimension=3)
    index.upsert_many([entry(f"a:1:{i}", [1.0, i, 0.0], company="ACME") for i in range(4)])
    acme = RetrievalConfig(k=50, filters=(("company", "ACME"),))
    held = copy.copy(index)  # shares the snapshot, as a search in flight does
    before = held.search([1.0, 0.0, 0.0], acme)
    assert acme.filters in held._snapshot.kept
    index.upsert_many([entry(f"b:1:{i}", [2.0, 0.0, i], company="ACME") for i in range(3)])
    assert index._snapshot.kept is not held._snapshot.kept and not index._snapshot.kept
    assert held.search([1.0, 0.0, 0.0], acme) == before
    found = [r.chunk.chunk_id for r in index.search([1.0, 0.0, 0.0], acme)]
    assert sorted(found) == [f"a:1:{i}" for i in range(4)] + [f"b:1:{i}" for i in range(3)]
    assert held.search([1.0, 0.0, 0.0], acme) == before  # after the new snapshot filled its own


def test_replaced_snapshot_is_freed_without_a_cycle_collection():
    # A filter memo that referred back to its snapshot would keep every
    # replaced snapshot, and its columns, until the cyclic collector ran.
    index = VectorIndex(dimension=2)
    index.upsert_many([entry("a:1:0", [1.0, 0.0], company="ACME")])
    index.search([1.0, 0.0], RetrievalConfig(k=1, filters=(("company", "ACME"),)))
    replaced = weakref.ref(index._snapshot)
    gc.disable()
    try:
        index.upsert_many([entry("b:1:0", [0.0, 1.0], company="ACME")])
        assert replaced() is None
    finally:
        gc.enable()


def test_filter_on_a_value_no_chunk_holds_is_empty_cold_and_warm():
    index = VectorIndex(dimension=2)
    index.upsert_many([entry("a:1:0", [1.0, 0.0], company="ACME", year=2020)])
    for filters in ((("company", "NOPE"),), (("company", "ACME"), ("year", 1999)), (("year", 2020), ("company", "NOPE"))):
        config = RetrievalConfig(k=3, filters=filters)
        assert index.search([1.0, 0.0], config) == []
        assert index.search([1.0, 0.0], config) == []
        assert len(index._snapshot.kept[filters]) == 0


def test_document_ids_of_the_kept_chunks_share_the_search_memo():
    index = VectorIndex(dimension=2)
    index.upsert_many([entry("a:1:0", [1.0, 0.0], company="ACME", year=2020),
                       entry("a:2:0", [0.0, 1.0], company="ACME", year=2021),
                       entry("b:1:0", [1.0, 1.0], company="BETA", year=2020)])
    assert index.document_ids() == {"a", "b"}
    assert index.document_ids((("year", 2020),)) == {"a", "b"}
    assert index.document_ids((("company", "ACME"), ("year", 2021))) == {"a"}
    assert index.document_ids((("company", "NOPE"),)) == set()
    kept = index._snapshot.kept[(("year", 2020),)]
    index.search([1.0, 0.0], RetrievalConfig(k=1, filters=(("year", 2020),)))
    assert index._snapshot.kept[(("year", 2020),)] is kept  # the search reuses it
    with pytest.raises(ValueError, match="compnay"):
        index.document_ids((("compnay", "ACME"),))


def test_filter_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(index_module, "_KEPT_ROWS_LIMIT", 12)
    index = VectorIndex(dimension=2)
    index.upsert_many([entry(f"a:{p}:{i}", [1.0, i], page_number=p) for p in range(1, 9) for i in range(3)])
    entries = []
    for page in list(range(1, 9)) * 2:
        config = RetrievalConfig(k=5, filters=(("page_number", page),))
        assert [r.chunk.chunk_id for r in index.search([1.0, 0.0], config)] == [f"a:{page}:{i}" for i in range(3)]
        memo = index._snapshot.kept
        assert memo.size == sum(len(kept) + 1 for kept in memo.values()) <= 12
        entries.append(len(memo))
    assert entries[:5] == [1, 2, 3, 1, 2]  # 4 positions each: the fourth set drops all three first


# Buckets that sparse rows and queries share often, so that dot products
# are seldom 0; any other bucket may appear as well.
_SHARED_BUCKETS = (0, 1, 2, 127, 128, 254, 255)


def sparse_vectors(dimension=256):
    buckets = st.dictionaries(
        st.sampled_from(_SHARED_BUCKETS) | st.integers(0, dimension - 1), st.integers(-3, 3), max_size=6
    )
    return buckets.map(lambda values: [float(values.get(j, 0)) for j in range(dimension)])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["ACME", "BETA", None]),
            st.sampled_from([2020, 2021, None]),
            st.sampled_from(["Q1", None]),
            st.integers(1, 3),
            sparse_vectors(),
            st.booleans(),  # repeat the previous row's vector
        ),
        min_size=1,
        max_size=30,
    ),
    filters=st.lists(st.sampled_from(FILTERS), max_size=2),
    query=sparse_vectors() | st.lists(st.integers(-3, 3).map(float), min_size=256, max_size=256),
    k=st.integers(1, 32),
)
def test_sparse_search_matches_bruteforce_at_dimension_256(rows, filters, query, k):
    # A search reads only the query's nonzero buckets of the kept rows.
    # Small integer components keep every sum exact, so ids, scores and tie
    # order must equal the oracle's, with or without filters, for sparse
    # and dense queries, all-zero rows and repeated vectors. Under a filter
    # the index also holds a row whose norm overflows float64 and that no
    # filter in FILTERS keeps: multiplying it would warn and fail the test.
    entries = []
    for i, (company, year, quarter, page, vector, repeat) in enumerate(rows):
        if repeat and entries:
            vector = entries[-1].vector
        entries.append(entry(f"d{i % 3}:{page}:{i}", vector, document_id=f"d{i % 3}",
                             page_number=page, company=company, year=year, quarter=quarter))
    index = VectorIndex(dimension=256)
    index.upsert_many(entries)
    if filters:
        index.upsert(entry("huge:9:0", [1e308, 1e308] + [0.0] * 254, page_number=9,
                           company="HUGE", year=1999, quarter="Q4"))
    found = index.search(query, RetrievalConfig(k=k, filters=tuple(filters)))
    expected = brute_force(entries, query, k, filters)
    assert [r.chunk.chunk_id for r in found] == expected
    by_id = {e.chunk.chunk_id: e for e in entries}
    assert [r.score for r in found] == [cosine(by_id[cid].vector, query) for cid in expected]


class _RecordingMath:
    """``math`` whose ``sqrt`` keeps each root it takes: the query norm a
    search computed."""

    def __init__(self):
        self.roots = []

    def __getattr__(self, name):
        return getattr(math, name)

    def sqrt(self, value):
        self.roots.append(math.sqrt(value))
        return self.roots[-1]


def numpy_reference_search(vectors, ids, query, k):
    """Top k of (vectors, ids) by cosine, ties by id, normed with
    ``np.linalg.norm``; None when the query's norm overflows float64."""
    query = np.array(query)
    with np.errstate(over="ignore"):
        query_norm = np.linalg.norm(query)
    if not np.isfinite(query_norm):
        return None
    scored = []
    for vector, chunk_id in zip(vectors, ids):
        vector = np.array(vector)
        norm = np.linalg.norm(vector)
        score = 0.0 if norm == 0.0 or query_norm == 0.0 else float(vector @ query / (norm * query_norm))
        scored.append((-score, chunk_id))
    scored.sort()
    return [(chunk_id, -negated) for negated, chunk_id in scored[:k]]


_SORT_ALL_BELOW = index_module._SORT_ALL_BELOW


@settings(max_examples=60, deadline=None)
@given(
    kept_count=st.sampled_from([_SORT_ALL_BELOW - 1, _SORT_ALL_BELOW, _SORT_ALL_BELOW + 1])
    | st.integers(0, 2 * _SORT_ALL_BELOW),
    other_count=st.integers(0, 40),
    filtered=st.booleans(),
    equal_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    query=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    scale=st.sampled_from([1.0, 2.0**511]),  # 2**511 is about 6.7e153
    extra_k=st.integers(-40, 3),
)
def test_search_matches_a_numpy_reference_on_both_sides_of_the_sort_size(
    kept_count, other_count, filtered, equal_rows, seed, query, scale, extra_k
):
    # Small integer components (the query's times a power of two) keep every
    # dot product exact, so ids, scores and tie order must equal the
    # reference's, whether search sorts every kept row or partitions first.
    # A query scaled near 1e154 overflows float64 once its squared
    # components sum to 2**1024.
    rng = random.Random(seed)
    if not filtered:
        kept_count, other_count = kept_count + other_count, 0
    companies = ["KEPT"] * kept_count + ["OTHER"] * other_count
    rng.shuffle(companies)
    shared = [float(rng.randint(-2, 2)) for _ in range(8)]
    vectors = [
        shared if equal_rows else [float(rng.choice((-2, -1, 0, 0, 0, 1, 2))) for _ in range(8)]
        for _ in companies
    ]
    ids = [f"d:1:{i:04d}" for i in range(len(companies))]
    index = VectorIndex(dimension=8)
    index.upsert_many([entry(chunk_id, vector, company=company)
                       for chunk_id, vector, company in zip(ids, vectors, companies)])
    query = [component * scale for component in query]
    k = max(1, kept_count + extra_k)  # from 1 to past the kept count
    config = RetrievalConfig(k=k, filters=(("company", "KEPT"),) if filtered else ())
    kept = [i for i, company in enumerate(companies) if company == "KEPT"]
    expected = numpy_reference_search([vectors[i] for i in kept], [ids[i] for i in kept], query, k)
    recording = _RecordingMath()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "math", recording)
        if expected is None:
            with pytest.raises(ValueError, match="query vector's norm overflows float64"):
                index.search(query, config)
        else:
            found = index.search(query, config)
            assert [(r.chunk.chunk_id, r.score) for r in found] == expected
    with np.errstate(over="ignore"):
        assert recording.roots == [np.linalg.norm(np.array(query))]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e160, 1e160) | st.integers(-3, 3).map(float),
    min_size=1, max_size=300,
))
def test_query_norm_is_bit_equal_to_numpy(query):
    # The norm search takes, against np.linalg.norm, including overflow to
    # inf and underflow to 0; no RuntimeWarning may escape either.
    index = VectorIndex(dimension=len(query))
    recording = _RecordingMath()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "math", recording)
        try:
            index.search(query, RetrievalConfig(k=1))
        except ValueError:  # an overflowed or underflowed norm
            pass
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(np.array(query))
    assert recording.roots == [expected]
    assert np.float64(recording.roots[0]).tobytes() == expected.tobytes()


# --- persistence ---------------------------------------------------------------

def populated_index():
    index = VectorIndex(dimension=3, provider_tag="feature-hash-v1-3")
    index.upsert_many(
        [
            entry("a:1:0", [1.0, 0.5, -0.25], company="ACME", year=2013, quarter="Q4"),
            entry("a:2:0", [0.0, 1.0, 0.0], company="ACME", year=2013, quarter="Q4"),
            entry("b:1:0", [0.5, 0.5, 0.5], company="BETA"),
        ]
    )
    return index


def test_persist_load_round_trip(tmp_path):
    index = populated_index()
    path = tmp_path / "index.jsonl"
    index.persist(path)
    loaded = VectorIndex.load(path)
    assert loaded.dimension == index.dimension
    assert loaded.tokenizer_tag == index.tokenizer_tag
    assert loaded.provider_tag == "feature-hash-v1-3"
    assert loaded.chunk_ids() == index.chunk_ids()
    for chunk_id in index.chunk_ids():
        assert loaded.get(chunk_id) == index.get(chunk_id)


def test_persist_header_line(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header == {
        "dimension": 3,
        "count": 3,
        "tokenizer": "ws-punct-v1",
        "provider": "feature-hash-v1-3",
    }


def test_persist_is_deterministic(tmp_path):
    index = populated_index()
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    index.persist(first)
    index.persist(second)
    assert first.read_bytes() == second.read_bytes()


def test_persist_leaves_no_temp_files(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]


def test_persist_file_mode_matches_open(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_persist_syncs_file_before_rename_and_directory_after(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    populated_index().persist(tmp_path / "index.jsonl")
    assert calls == ["fsync file", "replace", "fsync directory"]


def test_persist_failure_keeps_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    before = path.read_bytes()

    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        VectorIndex(dimension=3).persist(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.jsonl"]


def test_persist_overwrites_atomically(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    empty = VectorIndex(dimension=3)
    empty.persist(path)
    assert len(VectorIndex.load(path)) == 0


def test_load_corrupt_header_reports_byte_zero(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(IndexLoadError) as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == 0


def test_load_corrupt_entry_reports_line_offset(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    bad_offset = len(lines[0]) + 1 + len(lines[1]) + 1  # start of third line
    lines[2] = b"{garbage" + lines[2][8:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(IndexLoadError) as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == bad_offset


def test_load_rejects_entry_with_wrong_vector_length(tmp_path):
    path = tmp_path / "index.jsonl"
    index = VectorIndex(dimension=2)
    index.upsert(entry("a:1:0", [1.0, 0.0]))
    index.persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["vector"] = [1.0, 0.0, 0.0]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IndexLoadError, match="header says 2"):
        VectorIndex.load(path)


def test_load_rejects_non_finite_vector_at_its_line(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record["vector"][1] = float("nan")
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IndexLoadError, match="finite") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + 1 + len(lines[1]) + 1


def test_load_refuses_count_mismatch(tmp_path):
    # A file cut at a line boundary parses line by line; only the header's
    # count can tell that entries are missing.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))
    with pytest.raises(IndexLoadError, match="header count 3") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(raw) - len(lines[-1])


def test_load_refuses_repeated_chunk_id_at_its_line(tmp_path):
    # Upsert semantics would keep the last copy and load one entry fewer
    # than the header's count with no error.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["count"] += 1
    lines[0] = json.dumps(header).encode() + b"\n"
    lines.append(lines[1])
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match="repeats") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == sum(len(line) for line in lines[:-1])


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("dimension", "3"),
        ("dimension", 3.0),
        ("dimension", True),
        ("dimension", 0),
        ("dimension", None),
        ("count", "3"),
        ("count", -1),
        ("count", 3.5),
    ],
)
def test_load_refuses_header_field_that_is_not_a_valid_integer(tmp_path, field, value):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = json.dumps(header).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match=f"header {field}") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == 0


@pytest.mark.parametrize("field", ["tokenizer", "provider"])
@pytest.mark.parametrize("value", [None, 5, ["x"], {"tag": "x"}], ids=["null", "number", "array", "object"])
def test_load_refuses_header_tag_that_is_no_string(tmp_path, field, value):
    # str() made a null tag the tag 'None', which the file never held.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), field: value}).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match=f"header {field} must be a string, got ") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == 0


def test_load_reads_a_missing_header_tag_as_empty(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["tokenizer"], header["provider"]
    lines[0] = json.dumps(header).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    loaded = VectorIndex.load(path)
    assert (loaded.tokenizer_tag, loaded.provider_tag, len(loaded)) == ("", "", 3)


@pytest.mark.parametrize(("field", "value"), [("tokenizer", None), ("provider", 7)])
def test_constructor_refuses_a_tag_that_is_no_string(field, value):
    # load's rule: the constructor stored any value, which persist then wrote.
    with pytest.raises(ValueError, match=f"^{field} must be a string, got {value}$"):
        VectorIndex(4, **{f"{field}_tag": value})


@pytest.mark.parametrize("field", ["tokenizer", "provider"])
def test_constructor_refuses_a_tag_utf8_cannot_encode(field):
    # It built, and persist raised UnicodeEncodeError after the whole ingest.
    with pytest.raises(ValueError, match=rf"^{field} holds a lone surrogate U\+D800 at character 1$"):
        VectorIndex(4, **{f"{field}_tag": "x\ud800"})


@pytest.mark.parametrize("field", ["tokenizer", "provider"])
def test_load_refuses_header_tag_utf8_cannot_encode(tmp_path, field):
    # The escape loaded, and the loaded index could not be persisted again.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), field: "tag\ud800"}).encode() + b"\n"
    assert b"\\ud800" in lines[0]  # the escape, as json.dumps writes it
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match=f"^byte 0: header {field} holds a lone surrogate U\\+D800") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == 0


# Any text, lone surrogates included, which st.text() leaves out.
_TAGS = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=8)


@settings(max_examples=150, deadline=None)
@given(tokenizer=_TAGS, provider=_TAGS)
@example(tokenizer="", provider="")
@example(tokenizer='\u2028"\\\n\x00', provider="\U0001F600 é")
def test_property_tags_the_constructor_accepts_persist_and_load_back(tmp_path_factory, tokenizer, provider):
    try:
        index = VectorIndex(2, tokenizer_tag=tokenizer, provider_tag=provider)
    except ValueError:
        with pytest.raises(UnicodeEncodeError):  # refused only for what UTF-8 cannot encode
            (tokenizer + provider).encode("utf-8")
        return
    index.upsert(entry("a:1:0", [1.0, -0.5]))
    directory = tmp_path_factory.mktemp("tags")
    index.persist(directory / "first.jsonl")
    loaded = VectorIndex.load(directory / "first.jsonl")
    assert (loaded.tokenizer_tag, loaded.provider_tag) == (tokenizer, provider)
    loaded.persist(directory / "second.jsonl")
    assert (directory / "second.jsonl").read_bytes() == (directory / "first.jsonl").read_bytes()


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("token_count", "542"),
        ("year", "2013"),
        ("page_number", True),
        ("company", 7),
        ("chunk_id", 5),
        ("text", None),
        ("region", {"page_number": 1, "polygon": [[0, 0], [1, 0], [1, 1]]}),
        ("compnay", "ACME"),
        ("Company", "ACME"),
        ("colour", None),
    ],
)
def test_load_refuses_mistyped_entry_field_at_its_line(tmp_path, field, value):
    # A mistyped field that loaded would fail filters silently: a year of
    # "2013" never equals a year=2013 filter, and a misspelt "compnay"
    # loaded as company None.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    (record if field in record else record["metadata"])[field] = value
    lines[2] = json.dumps(record).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match=field) as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + len(lines[1])


@pytest.mark.parametrize("metadata", [None, [], "x"], ids=["null", "list", "string"])
def test_load_refuses_entry_whose_metadata_is_no_object_at_its_line(tmp_path, metadata):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["metadata"] = metadata
    lines[2] = json.dumps(record).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match="metadata must be a JSON object") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + len(lines[1])


@pytest.mark.parametrize(
    "component",
    [True, False, "0.5", None, [0.5], 10**400],
    ids=["true", "false", "string", "null", "array", "int-past-float64"],
)
def test_load_refuses_vector_component_that_is_no_float64_at_its_line(tmp_path, component):
    # numpy read true, false and "0.5" as 1.0, 0.0 and 0.5, and an integer
    # past float64's range raised a bare OverflowError.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["vector"][1] = component
    lines[2] = json.dumps(record).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match="bad entry line") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + len(lines[1])


@pytest.mark.parametrize("vector", ["0.5, 1, 0", {"0": 0.5}, 0.5], ids=["string", "object", "number"])
def test_load_refuses_vector_that_is_no_array_at_its_line(tmp_path, vector):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["vector"] = vector
    lines[2] = json.dumps(record).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match="vector must be an array") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + len(lines[1])


@pytest.mark.parametrize("field", ["text", "company"])
def test_load_refuses_a_lone_surrogate_at_its_line(tmp_path, field):
    # json.loads reads the escape "\ud800" as a lone surrogate, which
    # persist could not write back as UTF-8.
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    (record if field in record else record["metadata"])[field] = "ab\ud800"
    lines[2] = json.dumps(record).encode() + b"\n"
    assert b'"ab\\ud800"' in lines[2]
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexLoadError, match=f"{field} holds a lone surrogate U\\+D800 at character 2") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(lines[0]) + len(lines[1])


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert len(VectorIndex.load(path)) == 3


def test_loaded_index_searches_identically(tmp_path):
    index = populated_index()
    path = tmp_path / "index.jsonl"
    index.persist(path)
    loaded = VectorIndex.load(path)
    query = [0.3, -0.2, 0.9]
    assert loaded.search(query, RetrievalConfig(k=3)) == index.search(
        query, RetrievalConfig(k=3)
    )


# --- persisted vector text: exactly json.dumps of each record -------------------

# Quotes, a backslash, a newline and non-ASCII text around the spliced "vector".
_AWKWARD_TEXT = 'say "hi" \\ café 営業\n'


def persisted_lines(tmp_path, rows):
    """Persist one entry per row; return the path, the entry lines as bytes
    and the bytes json.dumps gives for each record."""
    entries = [IndexEntry(chunk(f"d:{i:03d}:0", _AWKWARD_TEXT), row) for i, row in enumerate(rows)]
    index = VectorIndex(dimension=len(rows[0]))
    index.upsert_many(entries)
    path = tmp_path / "index.jsonl"
    index.persist(path)
    expected = [
        (json.dumps({**e.chunk.as_dict(), "vector": list(e.vector)}, ensure_ascii=False) + "\n")
        .encode("utf-8")
        for e in entries
    ]
    return path, path.read_bytes().splitlines(keepends=True)[1:], expected


_DISTINCT = [random.Random(seed).uniform(-1, 1) for seed in range(64)]
VECTOR_ROWS = {
    # A memo keyed by the float itself would write one zero for both.
    "signed-zeros": [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]],
    "subnormal": [[5e-324, -5e-324, 0.0], [-5e-324, 5e-324, -0.0]],
    "extremes": [[1e308, -1e308, 1.7976931348623157e308], [-1.7976931348623157e308, 1e308, 1e-308]],
    "all-distinct": [_DISTINCT, _DISTINCT[::-1]],
    "repeated": [[0.25] * 16, [-0.125] * 16, [0.1, 0.2] * 8],
    "dimension-1": [[-0.0], [0.0], [5e-324], [-1e308], [0.30000000000000004]],
}


@pytest.mark.parametrize("rows", VECTOR_ROWS.values(), ids=VECTOR_ROWS)
def test_persisted_lines_equal_json_dumps(tmp_path, rows):
    _, lines, expected = persisted_lines(tmp_path, rows)
    assert lines == expected


@pytest.mark.parametrize("rows", VECTOR_ROWS.values(), ids=VECTOR_ROWS)
def test_load_then_persist_is_byte_identical(tmp_path, rows):
    path, _, _ = persisted_lines(tmp_path, rows)
    loaded = VectorIndex.load(path)
    again = tmp_path / "again.jsonl"
    loaded.persist(again)
    assert again.read_bytes() == path.read_bytes()


def _block_rows(count):
    """``count`` rows of dimension 4: even rows share their values (signed
    zeros, the least subnormal, 1e-300), odd rows share none."""
    return [
        [-0.0, 5e-324, 1e-300, 0.0] if i % 2 == 0 else [i + 0.5, -(i + 0.25), 1e-300 * (i + 2), i / 7]
        for i in range(count)
    ]


_BLOCK = index_module._TEXT_BLOCK


# No rows: test_persist_overwrites_atomically persists an empty index.
@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1], ids=["1", "block-1", "block", "block+1"])
def test_persisted_lines_equal_json_dumps_across_text_blocks(tmp_path, count):
    _, lines, expected = persisted_lines(tmp_path, _block_rows(count))
    assert lines == expected


# (text, metadata, whether every string is ASCII without U+007F): records
# on both sides of persist's ASCII-first rule.
_RECORD_CASES = {
    "ascii": ('say "hi" \\ {x: 1}\n\ttab', {"company": "ACME", "section_title": "Revenues"}, True),
    "delete": ("rub\x7fout", {}, False),
    "c0-controls": ("".join(map(chr, range(32))), {"quarter": "Q1"}, True),
    "literal-backslash-u": ("a literal \\u00e9 and \\ud800, not escapes", {}, True),
    "non-ascii-company": ("plain text", {"company": "Société"}, False),
    "non-ascii-section-title": ("plain text", {"section_title": "Umsätze 2013"}, False),
    "delete-in-company": ("plain text", {"company": "AC\x7fME"}, False),
    "astral": ("growth \U0001F4C8 in \U0001D518 and 営業", {}, False),
}


@pytest.mark.parametrize(("text", "meta", "plain"), _RECORD_CASES.values(), ids=_RECORD_CASES)
def test_persisted_line_is_json_dumps_on_both_sides_of_the_ascii_rule(tmp_path, text, meta, plain):
    record = chunk("d:1:0", text, **meta).as_dict()
    assert index_module._plain(record) is plain
    index = VectorIndex(dimension=2)
    index.upsert_many([IndexEntry(chunk("d:1:0", text, **meta), (0.5, -0.0))])
    path = tmp_path / "index.jsonl"
    index.persist(path)
    line = path.read_bytes().splitlines(keepends=True)[1]
    assert line == (json.dumps({**record, "vector": [0.5, -0.0]}, ensure_ascii=False) + "\n").encode("utf-8")
    assert VectorIndex.load(path).chunks() == index.chunks()


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, -0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda dimension: st.lists(st.lists(_FINITE, min_size=dimension, max_size=dimension),
                               min_size=1, max_size=4)
))
def test_property_persisted_lines_equal_json_dumps(tmp_path_factory, rows):
    _, lines, expected = persisted_lines(tmp_path_factory.mktemp("index"), rows)
    assert lines == expected


# --- load: against the per-line loop it replaced (load_line_by_line) ---------


def load_outcome(load, path):
    """``("refused", offset, message)``, or ``("loaded", chunks, bytes)``
    where the bytes are what the loaded index persists to: the same bytes
    mean the same vector bits, ``-0.0`` included."""
    try:
        index = load(path)
    except IndexLoadError as exc:
        return "refused", exc.byte_offset, str(exc)
    again = path.with_name(f"{path.name}.again")
    index.persist(again)
    return "loaded", index.chunks(), again.read_bytes()


# Texts a component may be written as that load reads as a float64: signed
# zeros, the least subnormal, the extremes, integers, and literals that are
# no float's repr (1E5, 1.50, -0, 2.5e+3, 1e-400). Drawn from a short list,
# they repeat across rows, as hashed vectors' values do.
_GOOD_LITERALS = ["0.0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "0.25", "-0.125",
                  "1E5", "1.50", "-0", "2.5e+3", "1e-400", "7", "-3", "1" + "0" * 300]
# And ones it refuses: no number, not finite, an int past float64's range, nested.
_BAD_LITERALS = ["true", "false", '"0.5"', "null", "NaN", "Infinity", "-Infinity", "1e999",
                 "-1e999", "1" + "0" * 400, "[0.5]", "[]", "{}"]
_LITERAL = st.one_of(st.sampled_from(_GOOD_LITERALS), st.floats(allow_nan=False, allow_infinity=False).map(repr))
_BLANK_LINES = ["\n", "  \n", "\r\n", "\t \n"]
_LINE_FAULTS = ["short", "long", "component", "token_count", "metadata", "float-year", "repeated-id", "garbage"]
_METADATA = '{"document_id": "d", "page_number": 1, "year": 2013}'


def _entry_line(chunk_id, vector, token_count="1", metadata=_METADATA, layout="last", ending="\n"):
    """An entry line of dimension 3, written by hand. The vector text
    ``vector`` comes last, first (``layout="first"``), or last after an
    earlier ``"vector"`` key whose text is ``layout``."""
    fields = f'"chunk_id": "{chunk_id}", "text": "t", "token_count": {token_count}, "metadata": {metadata}'
    if layout == "last":
        body = f'{fields}, "vector": {vector}'
    elif layout == "first":
        body = f'"vector": {vector}, {fields}'
    else:  # a repeated key: json.loads keeps the last
        body = f'"vector": {layout}, {fields}, "vector": {vector}'
    return "{" + body + "}" + ending


def _index_text(count, *lines):
    header = json.dumps({"dimension": 3, "count": count, "tokenizer": "t", "provider": "p"})
    return header + "\n" + "".join(lines)


def _vector_text(draw, size, bad=None):
    parts = draw(st.lists(_LITERAL, min_size=size, max_size=size))
    if bad is not None:
        parts[draw(st.integers(0, size - 1))] = bad
    return "[" + ", ".join(parts) + "]"


@st.composite
def _index_texts(draw):
    """A header and up to five lines, blank or entry lines; in a ``faulty``
    file a line may carry one fault, and the header's count may be off."""
    faulty = draw(st.booleans())
    lines, entries = [], 0
    for number in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_BLANK_LINES)))
            continue
        entries += 1
        fault = draw(st.sampled_from([None, None, *_LINE_FAULTS])) if faulty else None
        if fault == "garbage":
            lines.append("{garbage\n")
            continue
        bad = draw(st.sampled_from(_BAD_LITERALS)) if fault == "component" else None
        lines.append(_entry_line(
            "d:1:0" if fault == "repeated-id" else f"d:1:{number}",
            _vector_text(draw, {"short": 2, "long": 4}.get(fault, 3), bad),
            token_count='"1"' if fault == "token_count" else "1",
            metadata={"metadata": "null", "float-year": _METADATA.replace("2013", "2013.0")}.get(fault, _METADATA),
            layout=draw(st.sampled_from(
                ["last", "last", "first", _vector_text(draw, 3, draw(st.sampled_from([None, *_BAD_LITERALS])))]
            )),
            ending=draw(st.sampled_from(["\n", "\r\n"])),
        ))
    count = max(0, entries + (draw(st.sampled_from([0, 0, 1, -1])) if faulty else 0))
    text = _index_text(count, *lines)
    return text[:-1] if draw(st.booleans()) else text  # with or without a last newline


@settings(max_examples=300, deadline=None)
@given(_index_texts())
# finite components whose sum overflows: loaded, through _vector
@example(_index_text(1, _entry_line("d:1:0", "[1e308, 1e308, 0.0]")))
# a bad vector on a line before another kind of fault, and on the same line after one
@example(_index_text(2, _entry_line("d:1:0", "[true, 0.0, 0.0]"), "{garbage\n"))
@example(_index_text(2, _entry_line("d:1:0", "[0.5, 0.5]"), _entry_line("d:1:0", "[0.5, 0.5, 0.5]")))
@example(_index_text(1, _entry_line("d:1:0", '["0.5", 0.0, 0.0]', token_count='"1"')))
@example(_index_text(1, "\ufeff" + _entry_line("d:1:0", "[0.5, 0.5, 0.5]")))
def test_property_load_matches_the_line_by_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("index") / "index.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert load_outcome(VectorIndex.load, path) == load_outcome(load_line_by_line, path)


def test_load_holds_at_most_one_lines_literals(tmp_path, monkeypatch):
    # Every component a distinct literal: the memo never holds more than one
    # line's own (at most dimension), and the file still loads to its own bytes.
    dimension = 64
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1, 1, size=(40, dimension))
    index = VectorIndex(dimension=dimension)
    index.upsert_many([IndexEntry(chunk(f"d:{i:05d}:0"), row) for i, row in enumerate(rows)])
    path = tmp_path / "index.jsonl"
    index.persist(path)
    sizes, drops = [], []

    class Recording(index_module.Memo):
        __slots__ = ()

        def __missing__(self, key):
            value = super().__missing__(key)
            sizes.append(len(self))
            return value

        def clear(self):
            drops.append(len(self))
            super().clear()

    monkeypatch.setattr(index_module, "Memo", Recording)
    outcome = load_outcome(VectorIndex.load, path)
    assert outcome == ("loaded", index.chunks(), path.read_bytes())
    assert len(drops) == len(rows) and max(sizes) <= dimension


def _lines(*numbers, vector="[{n}.5, -0.0, 0.25]"):
    return [_entry_line(f"d:1:{number}", vector.format(n=number)) for number in numbers]


# Files of several two-line blocks: each kind of line a block boundary can
# split from the lines it depends on.
_BLOCK_CASES = {
    "in-order": ("loaded", _index_text(5, *_lines(0, 1, 2), "\n", *_lines(3, 4))),
    "out-of-order-across-blocks": ("loaded", _index_text(5, *_lines(2, 3, 0, 4, 1))),
    "repeat-in-later-block": ("refused", _index_text(5, *_lines(0, 1, 2, 3, 1))),
    "bad-line-in-second-block": ("refused", _index_text(5, *_lines(0, 1, 2), "{garbage\n", *_lines(4))),
    "bad-vector-in-second-block": (
        "refused", _index_text(4, *_lines(0, 1), *_lines(2, vector="[true, 0.0, 0.0]"), *_lines(3))),
    "count-one-above": ("refused", _index_text(6, *_lines(0, 1, 2, 3, 4))),
    "count-one-below": ("refused", _index_text(4, *_lines(0, 1, 2, 3, 4))),
}


@pytest.mark.parametrize(("how", "text"), _BLOCK_CASES.values(), ids=_BLOCK_CASES)
def test_load_in_several_blocks_matches_the_line_by_line_oracle(tmp_path, monkeypatch, how, text):
    monkeypatch.setattr(index_module, "_LOAD_BLOCK", 2)
    path = tmp_path / "index.jsonl"
    path.write_bytes(text.encode("utf-8"))
    outcome = load_outcome(VectorIndex.load, path)
    assert outcome == load_outcome(load_line_by_line, path)
    assert outcome[0] == how


def _hashed_index(rows):
    """An index of ``rows`` chunks of page-length random text, embedded by
    ``HashingEmbedder``: its vectors repeat literals as an ingested file's do."""
    rng = random.Random(11)
    words = [f"w{number}" for number in range(3000)]
    texts = [" ".join(rng.choices(words, k=rng.randint(150, 450))) for _ in range(rows)]
    embedder = HashingEmbedder()
    index = VectorIndex(dimension=embedder.dimension, provider_tag=embedder.tag)
    index.upsert_many([IndexEntry(chunk(f"d:{i:05d}:0", text), embedder.embed(text)) for i, text in enumerate(texts)])
    return index


def test_load_in_several_blocks_leaves_no_spare_entry_and_the_same_norms(tmp_path, monkeypatch):
    # Grown a quarter at a time, blocks of 16 rows would leave 60 columns for 50.
    index = _hashed_index(50)
    path = tmp_path / "index.jsonl"
    index.persist(path)
    monkeypatch.setattr(index_module, "_LOAD_BLOCK", 16)
    loaded = VectorIndex.load(path)
    assert loaded._snapshot.store.shape[1] == len(loaded) == 50
    assert loaded._snapshot.norms.tobytes() == index._snapshot.norms[:50].tobytes()


def test_load_holds_each_row_once(tmp_path):
    # Load's peak above what the loaded index holds is its literal memo and
    # one block: 0.7 of the store's bytes here. Holding every component in
    # a list and then a matrix before the store adds about two stores (2.2).
    index = _hashed_index(1200)
    path = tmp_path / "index.jsonl"
    index.persist(path)
    del index
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        loaded = VectorIndex.load(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 1.5 * loaded._snapshot.store.nbytes


def test_load_refuses_a_count_past_what_the_file_can_hold_at_its_end(tmp_path):
    # The columns are sized for the rows the file's bytes can hold, not for
    # the header's count: no allocation of 10**12 rows precedes the refusal.
    path = tmp_path / "index.jsonl"
    path.write_bytes(_index_text(10**12, *_lines(0, 1, 2)).encode("utf-8"))
    with pytest.raises(IndexLoadError, match="header count 1000000000000 but the file holds 3") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == path.stat().st_size


def test_load_refuses_a_dimension_past_what_the_file_can_hold_at_its_first_entry(tmp_path):
    # Nor for a row of the header's dimension that no line of the file can hold.
    path = tmp_path / "index.jsonl"
    text = _index_text(3, *_lines(0, 1, 2)).replace('"dimension": 3', f'"dimension": {10**12}')
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(IndexLoadError, match=f"header says {10**12}") as info:
        VectorIndex.load(path)
    assert info.value.byte_offset == len(path.read_bytes().splitlines(keepends=True)[0])


def test_load_reads_an_index_through_a_pipe(tmp_path):
    # A pipe's size reads 0, less than its header: the columns start empty
    # and grow as the rows come.
    index = VectorIndex(dimension=1)
    index.upsert_many([entry(f"d:1:{number}", [number + 0.5]) for number in range(3)])
    path = tmp_path / "index.jsonl"
    index.persist(path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    outcome = load_outcome(lambda _: VectorIndex.load(pipe), path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == ("loaded", index.chunks(), path.read_bytes())


# --- merges: appends into spare capacity, rebuilds otherwise ------------------

_MERGE_QUERIES = [
    ([1, 0, -1], ()),
    ([0, 2, 1], (("company", "ACME"),)),
    ([-1, 1, 1], (("page_number", 2), ("company", "BETA"))),
]


def _merge_view(index, directory):
    path = directory / "index.jsonl"
    index.persist(path)
    searches = [index.search(query, RetrievalConfig(k=50, filters=filters)) for query, filters in _MERGE_QUERIES]
    return path.read_bytes(), index.chunk_ids(), searches


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 12),  # document: ids repeat, and arrive in any order
            st.integers(1, 2),
            st.sampled_from(["ACME", "BETA"]),
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=40,
    ),
    in_order=st.booleans(),
    cuts=st.lists(st.integers(0, 40), max_size=8),
)
def test_any_split_into_batches_merges_like_one_batch(tmp_path_factory, rows, in_order, cuts):
    entries = [
        entry(f"d{document:02d}:{page}:0", vector, company=company, page_number=page)
        for document, page, company, vector in rows
    ]
    if in_order:  # every batch appends, unless a batch repeats an id
        entries.sort(key=lambda e: e.chunk.chunk_id)
    whole = VectorIndex(dimension=3)
    whole.upsert_many(entries)
    split = VectorIndex(dimension=3)
    bounds = [0, *sorted(set(cuts)), len(entries)]
    for start, end in zip(bounds, bounds[1:]):
        split.upsert_many(entries[start:end])
    directory = tmp_path_factory.mktemp("merge")
    assert _merge_view(split, directory) == _merge_view(whole, directory)


def test_held_snapshot_ignores_later_appends():
    # A reader keeps the snapshot it started with; appends write the store's
    # spare columns, which that snapshot never reads.
    index = VectorIndex(dimension=3)
    for batch in range(8):
        index.upsert_many([entry(f"a{batch}:1:{i}", [1.0, i, batch], company="ACME") for i in range(5)])
    index.upsert_many([entry("a9:1:0", [0.0, 1.0, 1.0], company="BETA")])
    held = copy.copy(index)  # shares the snapshot, as a search in flight does
    assert held._snapshot.store.shape[1] > len(held)  # spare columns to append into
    config = RetrievalConfig(k=50)
    acme = RetrievalConfig(k=50, filters=(("company", "ACME"),))

    gamma = RetrievalConfig(k=50, filters=(("company", "GAMMA"),))

    def view():
        return (
            held.search([1.0, -1.0, 1.0], config),
            held.search([0.0, 1.0, 0.0], acme),
            held.get("a3:1:3"),
            held.chunk_ids(),
            held.chunks(),
        )

    before = view()
    index.upsert_many([entry("b00:1:0", [5.0, -1.0, 3.0], company="GAMMA")])  # a value held never saw
    assert index._snapshot.store is held._snapshot.store  # the append wrote into it
    assert index._snapshot.columns["company"] is held._snapshot.columns["company"]
    assert view() == before
    assert held.search([1.0, 0.0, 0.0], gamma) == []
    assert [r.chunk.chunk_id for r in index.search([1.0, 0.0, 0.0], gamma)] == ["b00:1:0"]
    for batch in range(1, 40):
        index.upsert_many([entry(f"b{batch:02d}:1:{i}", [5.0, -i, 3.0], company="GAMMA") for i in range(3)])
    assert view() == before
    assert held.search([1.0, 0.0, 0.0], gamma) == []
    assert held.get("b00:1:0") is None and len(held) == 41 and len(index) == 159


def _per_row_arrays(snapshot):
    return {"store": snapshot.store, "norms": snapshot.norms, **snapshot.columns}


def test_appending_20k_rows_in_batches_reallocates_the_store_log_n_times():
    # 20,160 rows, 36 at a time: the store, the norms and each code column
    # are copied only when full, into one a quarter larger, so the old rows
    # are copied O(log n) times rather than once per batch.
    index = VectorIndex(dimension=2)
    rows, batch = 20_160, 36
    arrays = _per_row_arrays(index._snapshot)
    reallocations = dict.fromkeys(arrays, 0)
    for start in range(0, rows, batch):
        index.upsert_many(
            [entry(f"d{n // batch:04d}:1:{n % batch:02d}", [1.0, n]) for n in range(start, start + batch)]
        )
        for name, array in _per_row_arrays(index._snapshot).items():
            if array is not arrays[name]:
                arrays[name], reallocations[name] = array, reallocations[name] + 1
    assert len(index) == rows
    assert len(reallocations) == 8  # the store, the norms and six code columns
    for name, array in arrays.items():
        assert array.shape[-1] < 1.25 * rows, name
        assert reallocations[name] <= math.log(rows / batch, 1.25) + 5, name  # 27; one per batch: 560
    assert index.get("d0007:1:05").vector == (1.0, 7 * batch + 5)


@pytest.mark.parametrize("failing", range(1, 9))  # the store, the norms, then each code column
def test_failed_append_leaves_no_trace(tmp_path, monkeypatch, failing):
    # An append that raises part-way has written some columns past the
    # count, into spare entries the held snapshot shares, and may have given
    # its values codes; later merges and readers must not see any of it.
    first = [entry(f"a{i:02d}:1:0", [1.0, i, 0.5], company="ACME", year=2013) for i in range(16)]
    first.append(entry("a16:2:0", [0.0, 0.0, 0.0], company="BETA", year=2014))
    ghost = [entry(f"b{i}:1:0", [0.0, 1.0, -i], company="GHOST", year=1999, section_title="lost")
             for i in range(3)]
    later = [entry(f"c{i}:2:0", [2.0, -i, 1.0], company="BETA", year=2014) for i in range(2)]
    index = VectorIndex(dimension=3)
    index.upsert_many(first[:16])
    index.upsert_many(first[16:])
    assert index._snapshot.store.shape[1] - len(index) >= len(ghost)  # the ghost fits in spare entries
    grown, calls = index_module._grown, []

    def failing_grown(*args):
        calls.append(args)
        if len(calls) == failing:
            raise MemoryError("no room")
        return grown(*args)

    monkeypatch.setattr(index_module, "_grown", failing_grown)
    with pytest.raises(MemoryError):
        index.upsert_many(ghost)
    monkeypatch.setattr(index_module, "_grown", grown)
    assert len(index) == 17 and index.get("b0:1:0") is None

    def view(built):
        path = tmp_path / "view.jsonl"
        built.persist(path)
        searches = [
            built.search([1.0, 0.5, -0.5], RetrievalConfig(k=50, filters=filters))
            for filters in ((), (("company", "GHOST"),), (("company", "BETA"), ("year", 2014)),
                            (("section_title", "lost"),), (("year", 2013),))
        ]
        return path.read_bytes(), built.chunk_ids(), built.chunks(), searches

    def fresh(entries):
        built = VectorIndex(dimension=3)
        built.upsert_many(entries)
        return built

    index.upsert_many(later)  # an append over the ghost's entries
    assert view(index) == view(fresh(first + later))
    replaced = entry("a03:1:0", [-1.0, 0.0, 2.0], company="BETA", year=2014)
    index.upsert_many([replaced])  # a rebuild
    assert view(index) == view(fresh([*first[:3], replaced, *first[4:], *later]))


# --- concurrency ------------------------------------------------------------------

def test_concurrent_reads_during_writes():
    index = VectorIndex(dimension=4)
    errors = []
    stop = threading.Event()

    def writer():
        rng = random.Random(1)
        for i in range(300):
            index.upsert(entry(f"w:1:{i}", [rng.uniform(-1, 1) for _ in range(4)]))
        stop.set()

    def reader():
        rng = random.Random(2)
        try:
            while not stop.is_set():
                query = [rng.uniform(-1, 1) for _ in range(4)]
                results = index.search(query, RetrievalConfig(k=5))
                scores = [r.score for r in results]
                assert scores == sorted(scores, reverse=True)
        except Exception as exc:  # pragma: no cover - surfaced via errors list
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(index) == 300


def test_concurrent_upsert_many_keeps_every_id():
    # Writers race on disjoint ids with thread switches forced often; a merge
    # that read the snapshot outside the write lock would drop some of them.
    index = VectorIndex(dimension=2)
    writers, batches, size = 4, 40, 3

    def writer(w):
        for b in range(batches):
            index.upsert_many(
                [entry(f"w{w}:{b + 1}:{i}", [1.0, float(i)]) for i in range(size)]
            )

    threads = [threading.Thread(target=writer, args=(w,), daemon=True) for w in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = {f"w{w}:{b + 1}:{i}" for w in range(writers) for b in range(batches) for i in range(size)}
    assert set(index.chunk_ids()) == expected


def test_concurrent_filtered_search_during_appends():
    # One writer appends documents, each with a company value no reader has
    # seen yet, into columns the readers' snapshots share; a reader must
    # see each kept row's own chunk, code and norm, never an entry past its
    # snapshot's count.
    index = VectorIndex(dimension=2)
    batches, size, readers_count = 300, 3, 3
    problems, done = [], threading.Event()

    def expected_score(chunk_id):
        m = float(int(chunk_id.rsplit(":", 1)[1]) % 7)
        return (1.0 + 0.5 * m) / (math.hypot(1.0, m) * math.hypot(1.0, 0.5))

    def writer():
        for b in range(batches):
            index.upsert_many(
                [entry(f"d{b:04d}:1:{i}", [1.0, float(i % 7)], company=f"C{b % 4}-{b // 4}") for i in range(size)]
            )

    def reader(r):
        try:
            while not done.is_set():
                wanted = f"C{r}-{len(index) // (4 * size)}"
                config = RetrievalConfig(k=batches * size, filters=(("company", wanted),))
                for result in index.search([1.0, 0.5], config):
                    if result.chunk.metadata.company != wanted or not math.isclose(
                        result.score, expected_score(result.chunk.chunk_id), rel_tol=1e-12
                    ):
                        problems.append(result)
        except Exception as exc:  # pragma: no cover - surfaced via problems
            problems.append(exc)

    threads = [threading.Thread(target=writer, daemon=True)]
    readers = [threading.Thread(target=reader, args=(r,), daemon=True) for r in range(readers_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in readers + threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + readers)
    assert problems == []
    assert len(index) == batches * size


def test_concurrent_filtered_search_during_upserts():
    # Writers move ids between companies while readers filter on one; a
    # result whose row came from another snapshot than its mask would leak
    # another company. A thousand rows make numpy release the GIL mid-search.
    companies = ("ACME", "BETA", "GAMMA")
    writers, batches, size, per_writer = 4, 100, 3, 250
    index = VectorIndex(dimension=2)
    index.upsert_many(
        [
            entry(f"w{w}:1:{i}", [1.0, float(i % 5)], company=companies[i % 3])
            for w in range(writers)
            for i in range(per_writer)
        ]
    )
    leaks, done = [], threading.Event()

    def writer(w):
        for b in range(batches):
            index.upsert_many(
                [
                    entry(f"w{w}:1:{(7 * b + i) % per_writer}", [1.0, float(i)],
                          company=companies[(b + i + w) % 3])
                    for i in range(size)
                ]
            )

    def reader():
        config = RetrievalConfig(k=writers * per_writer, filters=(("company", "ACME"),))
        try:
            while not done.is_set():
                for result in index.search([1.0, 0.5], config):
                    if result.chunk.metadata.company != "ACME":
                        leaks.append(result.chunk)
        except Exception as exc:  # pragma: no cover - surfaced via leaks
            leaks.append(exc)

    threads = [threading.Thread(target=writer, args=(w,), daemon=True) for w in range(writers)]
    readers = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in readers + threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + readers)
    assert leaks == []
    final = index.search([1.0, 0.5], RetrievalConfig(k=len(index), filters=(("company", "ACME"),)))
    assert {r.chunk.chunk_id for r in final} == {
        c.chunk_id for c in index.chunks() if c.metadata.company == "ACME"
    }
