"""Deterministic local text embeddings.

The default provider hashes lowercased token unigrams and bigrams into a
fixed number of signed buckets and L2-normalizes the result. It is not a
learned embedding (similarity is lexical overlap), but it is seeded,
offline, and byte-reproducible, which is what the test suite and the mock
pipeline need.
"""

from __future__ import annotations

import hashlib
import math

from .tokens import DEFAULT_TOKENIZER

EmbeddingVector = list[float]

DEFAULT_DIMENSION = 256

# The hash family is part of the tag's meaning: a vector is reproducible
# from the tag and the dimension only because this key (like the one
# tokenizer) is a constant.
_HASH_KEY = b"docrag-hash-v1"


class HashingEmbedder:
    """Keyed feature hashing over token n-grams, L2-normalized."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.tag = f"feature-hash-v1-{dimension}"

    def _features(self, text: str) -> list[str]:
        tokens = [text[s:e].lower() for s, e in DEFAULT_TOKENIZER.spans(text)]
        features = list(tokens)
        features.extend(f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:]))
        return features

    def embed(self, text: str) -> EmbeddingVector:
        """Empty input embeds to the zero vector (flagged downstream)."""
        values = [0.0] * self.dimension
        for feature in self._features(text):
            digest = hashlib.blake2b(
                feature.encode("utf-8"), key=_HASH_KEY, digest_size=8
            ).digest()
            bucket = int.from_bytes(digest, "big")
            sign = 1.0 if bucket & 1 else -1.0
            values[(bucket >> 1) % self.dimension] += sign
        norm = math.sqrt(sum(v * v for v in values))
        if norm == 0.0:
            return values
        return [v / norm for v in values]
