import json
import math
import os
import random
import stat
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.chunking import ChunkMetadata, DocumentChunk
from docrag.errors import IndexLoadError, ProviderError
from docrag.index import (
    IndexEntry,
    RetrievalConfig,
    RetrievalResult,
    VectorIndex,
    embed,
)
from docrag.tables import BoundingRegion


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

def cosine(u, v):
    """Cosine similarity; an all-zero vector scores 0."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    dot = sum(a * b for a, b in zip(u, v))
    norm_u = math.sqrt(sum(a * a for a in u))
    norm_v = math.sqrt(sum(b * b for b in v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


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
    assert embed("q", FakeProvider([1.0, 2.0, 3.0])) == [1.0, 2.0, 3.0]


def test_embed_rejects_wrong_dimension():
    with pytest.raises(ProviderError, match="dimension mismatch"):
        embed("q", FakeProvider([1.0, 2.0]))


def test_embed_rejects_non_finite():
    with pytest.raises(ProviderError, match="non-finite"):
        embed("q", FakeProvider([1.0, float("nan"), 2.0]))


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


def test_entry_rejects_non_finite_vector():
    with pytest.raises(ValueError):
        entry("a:1:0", [1.0, float("inf")])


def test_index_dimension_must_be_positive():
    with pytest.raises(ValueError):
        VectorIndex(dimension=0)


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


def test_result_is_plain_record():
    result = RetrievalResult(chunk=chunk("a:1:0"), score=0.5)
    assert result.score == 0.5


def test_filter_on_absent_field_matches_only_none():
    index = small_index()
    every = ["a:1:0", "c:1:0", "b:1:0"]
    found = index.search([1.0, 0.0], RetrievalConfig(k=3, filters=(("colour", None),)))
    assert [r.chunk.chunk_id for r in found] == every
    for value in ("red", 0, False, ""):
        assert index.search([1.0, 0.0], RetrievalConfig(k=3, filters=(("colour", value),))) == []


@pytest.mark.parametrize(
    "filters, expected",
    [
        ((("year", 2013.0),), ["a:1:0", "b:1:0"]),
        ((("year", 2020.0), ("company", "ACME")), ["c:1:0"]),
        ((("page_number", True),), ["a:1:0", "c:1:0", "b:1:0"]),
        ((("page_number", 1.0),), ["a:1:0", "c:1:0", "b:1:0"]),
        ((("page_number", False),), []),
        ((("year", "2013"),), []),
        ((("quarter", None),), ["a:1:0", "c:1:0", "b:1:0"]),
        ((("quarter", "Q1"),), []),
    ],
)
def test_filter_values_match_as_python_equality(filters, expected):
    found = small_index().search([1.0, 0.0], RetrievalConfig(k=3, filters=filters))
    assert [r.chunk.chunk_id for r in found] == expected


def test_filter_by_region_dict():
    square = BoundingRegion(page_number=2, polygon=((0, 0), (4, 0), (4, 4), (0, 4)))
    index = VectorIndex(dimension=2)
    index.upsert_many(
        [
            entry("a:2:0", [1.0, 0.0], page_number=2, region=square),
            entry("a:2:1", [0.0, 1.0], page_number=2, region=square),
            entry("b:1:0", [1.0, 1.0], region=BoundingRegion(page_number=1, polygon=((0, 0), (1, 0), (1, 1)))),
            entry("c:1:0", [1.0, 1.0]),
        ]
    )
    # As an eval dataset would give it: parsed JSON, integer coordinates.
    region = {"page_number": 2, "polygon": [[0, 0], [4, 0], [4, 4], [0, 4]]}
    found = index.search([1.0, 0.0], RetrievalConfig(k=4, filters=(("region", region),)))
    assert [r.chunk.chunk_id for r in found] == ["a:2:0", "a:2:1"]
    swapped = {"page_number": 2, "polygon": [[0, 4], [4, 4], [4, 0], [0, 0]]}
    assert index.search([1.0, 0.0], RetrievalConfig(k=4, filters=(("region", swapped),))) == []
    found = index.search([1.0, 0.0], RetrievalConfig(k=4, filters=(("region", None),)))
    assert [r.chunk.chunk_id for r in found] == ["c:1:0"]


def test_filter_value_never_seen():
    index = small_index()
    for filters in ((("company", "GAMMA"),), (("year", 1999),), (("company", "ACME"), ("year", 1999))):
        assert index.search([1.0, 0.0], RetrievalConfig(k=3, filters=filters)) == []
    # An unhashable value equal to nothing stored is never seen either.
    assert index.search([1.0, 0.0], RetrievalConfig(k=3, filters=(("company", ["ACME"]),))) == []


def test_filter_on_unhashable_non_json_values():
    index = VectorIndex(dimension=1)
    index.upsert_many(
        [
            entry("a:1:0", [1.0], company={"ACME"}),
            entry("b:1:0", [1.0], company="ACME"),
            entry("c:1:0", [1.0], company=frozenset({"ACME"})),
        ]
    )
    for value in ({"ACME"}, frozenset({"ACME"})):
        found = index.search([1.0], RetrievalConfig(k=3, filters=(("company", value),)))
        assert [r.chunk.chunk_id for r in found] == ["a:1:0", "c:1:0"]


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
        region = BoundingRegion(page_number=1, polygon=((0, 0), (n + 1, 0), (0, 1)))
        index.upsert_many(
            [
                entry("a:1:0", [1.0, 0.0], section_title=f"s{n}", region=region),
                entry("b:1:0", [0.0, 1.0], section_title=f"s{n + 1}", region=region),
            ]
        )
        for name in ("section_title", "region"):
            assert len(index._snapshot.books[name].values) <= 2 * len(index)
        found = index.search([1.0, 0.0], RetrievalConfig(k=2, filters=(("section_title", f"s{n + 1}"),)))
        assert [r.chunk.chunk_id for r in found] == ["b:1:0"]
        found = index.search([1.0, 0.0], RetrievalConfig(k=2, filters=(("region", region.to_dict()),)))
        assert [r.chunk.chunk_id for r in found] == ["a:1:0", "b:1:0"]
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


# --- numpy path vs pure-python oracle -----------------------------------------

def brute_force(entries, query, k, filters=()):
    kept = []
    for e in entries:
        metadata = e.chunk.metadata.as_dict()
        if all(metadata.get(name) == value for name, value in filters):
            kept.append(e)
    scored = [(cosine(e.vector, query), e.chunk.chunk_id) for e in kept]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [cid for _, cid in scored[:k]]


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
    ("year", 2020), ("year", 2021.0), ("year", None), ("quarter", "Q1"), ("quarter", None),
    ("page_number", 1), ("page_number", True), ("page_number", 2.0), ("document_id", "d1"),
    ("colour", None), ("colour", "red"),
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
    found = index.search(query, RetrievalConfig(k=k, filters=tuple(filters)))
    expected = brute_force(entries, query, k, filters)
    assert [r.chunk.chunk_id for r in found] == expected
    by_id = {e.chunk.chunk_id: e for e in entries}
    assert [r.score for r in found] == [cosine(by_id[cid].vector, query) for cid in expected]


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
