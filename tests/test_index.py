import json
import math
import random
import sys
import threading

import pytest

from docrag.chunking import ChunkMetadata, DocumentChunk
from docrag.errors import IndexLoadError, ProviderError
from docrag.index import (
    IndexEntry,
    RetrievalConfig,
    RetrievalResult,
    VectorIndex,
    embed,
)


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


def test_load_warns_on_count_mismatch(tmp_path, caplog):
    path = tmp_path / "index.jsonl"
    populated_index().persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["count"] = 7
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    import logging

    with caplog.at_level(logging.WARNING, logger="docrag.index"):
        loaded = VectorIndex.load(path)
    assert len(loaded) == 3
    assert any("disagrees" in rec.message for rec in caplog.records)


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
