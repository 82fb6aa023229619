import gc
import hashlib
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.chunking import split_pages
from docrag import embedding
from docrag.embedding import DEFAULT_DIMENSION, HashingEmbedder
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import DirectoryChartProvider
from docrag.tokens import DEFAULT_TOKENIZER
from reference import reference_embed


def test_default_dimension_and_tag():
    embedder = HashingEmbedder()
    assert embedder.dimension == DEFAULT_DIMENSION == 256
    assert embedder.tag == "feature-hash-v1-256"
    assert HashingEmbedder(dimension=64).tag == "feature-hash-v1-64"


def test_vector_has_declared_dimension():
    assert len(HashingEmbedder(dimension=32).embed("hello world")) == 32


def test_embedding_is_deterministic():
    a = HashingEmbedder().embed("Total revenue rose 6% in fiscal 2013.")
    b = HashingEmbedder().embed("Total revenue rose 6% in fiscal 2013.")
    assert a.tolist() == b.tolist()


def test_unit_norm():
    vector = HashingEmbedder().embed("quarterly revenue by region")
    assert math.isclose(math.sqrt(sum(v * v for v in vector)), 1.0, rel_tol=1e-12)


def test_empty_text_is_zero_vector():
    assert HashingEmbedder().embed("").tolist() == [0.0] * 256
    assert HashingEmbedder().embed(" \n\t ").tolist() == [0.0] * 256


def test_case_insensitive():
    embedder = HashingEmbedder()
    assert embedder.embed("Revenue GROWTH").tolist() == embedder.embed("revenue growth").tolist()


def test_word_order_matters_through_bigrams():
    embedder = HashingEmbedder()
    assert embedder.embed("alpha beta").tolist() != embedder.embed("beta alpha").tolist()


def test_shared_vocabulary_scores_higher_than_disjoint():
    embedder = HashingEmbedder()
    query = embedder.embed("revenue growth in asia")
    near = embedder.embed("asia revenue growth was strong")
    far = embedder.embed("unrelated text about penguins")

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    assert dot(query, near) > dot(query, far)


@pytest.mark.parametrize("dimension", [0, True, 2.0, "3"], ids=["zero", "bool", "float", "str"])
def test_dimension_must_be_positive(dimension):
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        HashingEmbedder(dimension=dimension)


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_property_norm_is_zero_or_one(text):
    vector = HashingEmbedder(dimension=32).embed(text)
    norm = math.sqrt(sum(v * v for v in vector))
    assert math.isclose(norm, 1.0, rel_tol=1e-9) or norm == 0.0


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_property_deterministic_and_finite(text):
    embedder = HashingEmbedder(dimension=32)
    vector = embedder.embed(text)
    assert vector.tolist() == embedder.embed(text).tolist()
    assert all(math.isfinite(v) for v in vector)


# Texts whose vectors are pinned: edge cases of the tokenizer plus every
# chunk the conftest corpus ingests into.
_PINNED_TEXTS = [
    "",
    " \n\t ",
    "...!!!???",
    "--- ;;; ,,, ((( )))",
    "$1,234.56 (12%) -- 3.5x!",
    "Umsatz stieg um 6 % im Geschäftsjahr 2013",
    "営業利益は前年比12%増加した",
    "naïve café — résumé “quoted” ½",
]


def _corpus_chunk_texts(corpus) -> list[str]:
    charts = DirectoryChartProvider(corpus["charts_dir"])
    texts = []
    for path in sorted(corpus["layout_dir"].glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        pages = preprocess_document(payload, charts)
        texts.extend(c.text for c in split_pages(pages, attributes=payload.attributes))
    return texts


@pytest.mark.parametrize(
    ("dimension", "digest"),
    [
        (256, "a35c088336ee9106193b2d12af1cbd4fefa796dbe4c4e08fd6567ed2945167b7"),
        (64, "f66ac301905ca3f7bb4357f3aaf4a5347a3ab1c279bc1fd497d321e8597d52c1"),
    ],
)
def test_vectors_match_golden_digest(corpus, dimension, digest):
    # sha256 over the float64 bytes of every pinned vector, taken while the
    # hash key was still a constructor argument; the vectors must not move.
    texts = _PINNED_TEXTS + _corpus_chunk_texts(corpus)
    assert len(texts) == len(_PINNED_TEXTS) + 6
    embedder = HashingEmbedder(dimension=dimension)
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(np.asarray(embedder.embed(text), dtype=np.float64).tobytes())
    assert hasher.hexdigest() == digest


# Case-folding traps (dotted capital I, sharp s, final sigma), combining
# marks and punctuation, mixed with arbitrary characters.
_TRICKY = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            ["İ", "ß", "ẞ", "Σ", "ς", "ı", "\u0301", "\u0307", "\u0338", "½", "%", ",", "-", " ", "\n"]
        ),
        st.characters(),
    ),
    max_size=200,
)

# One long-lived embedder, so later examples hit a memo that earlier ones filled.
_WARM = HashingEmbedder(dimension=64)


@settings(max_examples=300)
@given(st.lists(_TRICKY, min_size=1, max_size=3))
def test_property_warm_memo_matches_reference(texts):
    for text in texts + texts:
        assert _WARM.embed(text).tolist() == reference_embed(text, 64)


# Every separator str.split() knows (the tokenizer's \s is the same set),
# characters that case-fold or tokenize unusually, and lone surrogates.
_SEPARATORS = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_SPLIT_TRAPS = st.text(
    alphabet=st.one_of(
        st.sampled_from(_SEPARATORS + ["_", "İ", "ß", "\ud800", "\udfff", "a", "1", "%"]),
        st.characters(),
    ),
    max_size=120,
)

# 2**17 buckets with more than 2**13 tokens in the memo: an id
# (serial * 2 * dimension + code) then passes 2**31, so a pair key made by
# shifting whole ids, rather than serials, would leave int64.
_WIDE = HashingEmbedder(dimension=2**17)
_WIDE.embed(" ".join(f"t{n}" for n in range(9000)))
_SPLIT_EMBEDDERS = [HashingEmbedder(dimension=1), HashingEmbedder(dimension=256), _WIDE]


@settings(max_examples=150, deadline=None)  # 2**17 buckets: each example builds 131k-float vectors
@given(_SPLIT_TRAPS, st.sampled_from(range(len(_SPLIT_EMBEDDERS))))
def test_property_word_memo_matches_reference(text, which):
    embedder = _SPLIT_EMBEDDERS[which]
    assert embedder.embed(text).tolist() == reference_embed(text, embedder.dimension)


def test_separators_are_the_tokenizers_whitespace():
    assert "".join(_SEPARATORS).split() == []
    for separator in _SEPARATORS:
        assert DEFAULT_TOKENIZER.tokens(f"a{separator}b") == ["a", "b"]
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " ", "\u3000"} <= set(_SEPARATORS)


def test_lowercases_each_token_not_the_text():
    # "İSTANBUL".lower() tokenizes as "i", "\u0307", "stanbul"; per token it is one.
    embedder = HashingEmbedder()
    assert embedder._features("İSTANBUL") == ["i\u0307stanbul"]
    assert embedder.embed("İSTANBUL ß").tolist() == reference_embed("İSTANBUL ß", 256)


def test_lone_surrogate_hashes_like_the_reference():
    # json.loads('"\\ud800"') yields a lone surrogate, which strict UTF-8 refuses.
    text = "rev\ud800 growth \udfff"
    assert HashingEmbedder().embed(text).tolist() == reference_embed(text, 256)


@pytest.mark.parametrize(
    "text",
    ["", " \n\t\u3000 ", "revenue", "Revenue (ACME, 2019.) rose 6% in asia; revenue (ACME, fell", "(ACME,", "2019."],
    ids=["empty", "whitespace-only", "one-word", "many-words", "multi-token-word", "number-and-stop"],
)
def test_packed_word_memo_matches_reference_cold_and_warm(text):
    embedder = HashingEmbedder()
    cold = embedder.embed(text).tolist()
    assert cold == reference_embed(text, 256)
    assert embedder.embed(text).tolist() == cold
    memo = embedder._memo
    for word in text.split():  # each entry: the word's token ids, packed native int64
        ids = np.frombuffer(memo.words[word], np.int64).tolist()
        tokens = [token.lower() for token in DEFAULT_TOKENIZER.tokens(word)]
        assert ids == [memo.ids[token] for token in tokens]


def _fresh_code(feature: str, dimension: int) -> int:
    digest = hashlib.blake2b(
        feature.encode("utf-8", "surrogatepass"), key=b"docrag-hash-v1", digest_size=8
    ).digest()
    bucket = int.from_bytes(digest, "big")
    return (bucket >> 1) % dimension * 2 + (bucket & 1)


def test_shared_keyed_state_hashes_like_a_fresh_keyed_hasher_across_threads():
    features = ["", "a", "rev\ud800", "\udfff", "x\x1f\ud800y", "営業\x1f\U0001F4C8"]
    features += [f"w{n}{chr(0xDC00 + n % 100)}\x1f{n}" for n in range(400)]
    expected = [_fresh_code(feature, 256) for feature in features]
    start = threading.Barrier(4)
    results = [None] * 4

    def work(slot):
        start.wait(timeout=60)
        results[slot] = [embedding._code(feature, 256) for feature in features * 3]

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
    assert all(result == expected * 3 for result in results)
    assert embedding._KEYED.copy().digest() == hashlib.blake2b(key=b"docrag-hash-v1", digest_size=8).digest()


def test_memo_is_per_embedder():
    warm = HashingEmbedder()
    warm.embed("revenue growth in asia")
    assert len(warm._memo) == 4 + 4 + 3  # words, tokens, adjacent token pairs
    assert len(HashingEmbedder()._memo) == 0


def test_memo_fills_a_missing_key_once():
    calls = []
    memo = embedding.Memo(lambda key: calls.append(key) or 2 * key)
    assert (memo[3], memo[3], memo.get(4), calls) == (6, 6, None, [3])
    with pytest.raises(KeyError):
        embedding.Memo()["absent"]  # no fill: a plain dict


def test_features_run_once_per_distinct_word(monkeypatch):
    embedder = HashingEmbedder()
    seen = []
    features = embedder._features
    monkeypatch.setattr(embedder, "_features", lambda word: seen.append(word) or features(word))
    text = "Revenue rose; revenue rose 6% (Revenue)"
    assert embedder.embed(text).tolist() == reference_embed(text, 256)
    assert sorted(seen) == sorted(set(text.split()))
    embedder.embed(text)
    embedder.embed("rose; 6%")
    assert len(seen) == len(set(text.split()))


def test_memo_stays_bounded_and_vectors_unchanged():
    limit = embedding._MEMO_LIMIT
    words = [f"w{n}" for n in range(limit)]  # limit words and tokens, limit - 1 pairs
    flood = " ".join(words)
    probes = _PINNED_TEXTS + ["revenue growth in asia", flood[:5000]]
    embedder = HashingEmbedder(dimension=32)
    before = [embedder.embed(text).tolist() for text in probes]
    assert 0 < len(embedder._memo) <= limit
    assert embedder.embed(flood).tolist() == reference_embed(flood, 32)
    assert len(embedder._memo) <= limit
    embedder.embed(" ".join(reversed(words)))
    assert len(embedder._memo) <= limit
    assert [embedder.embed(text).tolist() for text in probes] == before
    assert before == [reference_embed(text, 32) for text in probes]


def test_dropped_generation_is_freed_without_a_cycle_collection(monkeypatch):
    # Fills bound to their generation would keep every dropped one (up to
    # _MEMO_LIMIT entries) until the cyclic collector ran.
    monkeypatch.setattr(embedding, "_MEMO_LIMIT", 8)
    embedder = HashingEmbedder()
    embedder.embed("a b c")  # 3 words, 3 tokens, 2 pairs: at the bound
    dropped = weakref.ref(embedder._memo)
    gc.disable()
    try:
        embedder.embed("d e f g h")  # past it
        assert len(embedder._memo) == 0
        assert dropped() is None
    finally:
        gc.enable()


def test_dropped_embedder_is_freed_without_a_cycle_collection():
    # Fills that held the embedder, to look _features up on it, tied it to
    # its own memo in a cycle.
    embedder = HashingEmbedder()
    embedder.embed("revenue growth in asia")
    dropped = weakref.ref(embedder)
    gc.disable()
    try:
        del embedder
        assert dropped() is None
    finally:
        gc.enable()


def test_threads_sharing_one_embedder_match_serial(corpus, monkeypatch):
    # A small bound makes the threads clear the memo under each other.
    monkeypatch.setattr(embedding, "_MEMO_LIMIT", 64)
    texts = _PINNED_TEXTS + _corpus_chunk_texts(corpus)
    texts += [f"row {n} of table {n % 7}" for n in range(40)]
    serial = [HashingEmbedder().embed(text).tolist() for text in texts]
    shared = HashingEmbedder()
    start = threading.Barrier(4)
    results = [None] * 4

    def work(slot):
        start.wait(timeout=60)
        results[slot] = [shared.embed(text).tolist() for text in texts * 5]

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
    assert all(result == serial * 5 for result in results)
    assert len(shared._memo) <= 64
