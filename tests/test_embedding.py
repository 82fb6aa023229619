import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.chunking import split_pages
from docrag.embedding import DEFAULT_DIMENSION, HashingEmbedder
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import DirectoryChartProvider


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
    assert a == b


def test_unit_norm():
    vector = HashingEmbedder().embed("quarterly revenue by region")
    assert math.isclose(math.sqrt(sum(v * v for v in vector)), 1.0, rel_tol=1e-12)


def test_empty_text_is_zero_vector():
    assert HashingEmbedder().embed("") == [0.0] * 256
    assert HashingEmbedder().embed(" \n\t ") == [0.0] * 256


def test_case_insensitive():
    embedder = HashingEmbedder()
    assert embedder.embed("Revenue GROWTH") == embedder.embed("revenue growth")


def test_word_order_matters_through_bigrams():
    embedder = HashingEmbedder()
    assert embedder.embed("alpha beta") != embedder.embed("beta alpha")


def test_shared_vocabulary_scores_higher_than_disjoint():
    embedder = HashingEmbedder()
    query = embedder.embed("revenue growth in asia")
    near = embedder.embed("asia revenue growth was strong")
    far = embedder.embed("unrelated text about penguins")

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    assert dot(query, near) > dot(query, far)


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        HashingEmbedder(dimension=0)


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
    assert vector == embedder.embed(text)
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
