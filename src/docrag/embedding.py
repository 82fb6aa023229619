"""Deterministic local text embeddings.

The default provider hashes lowercased token unigrams and bigrams into a
fixed number of signed buckets and L2-normalizes the result. It is not a
learned embedding (similarity is lexical overlap), but it is seeded,
offline, and byte-reproducible, which is what the test suite and the mock
pipeline need.

A feature's bucket and sign are a pure function of the feature, so each
embedder keeps a memo from feature to signed bucket code and hashes a
feature only the first time it sees it. The memo is per embedder and
bounded: it starts again once it holds ``_MEMO_LIMIT`` (2**16) features,
about 8 MB at ~130 B a feature. One embedder may be shared between
threads: a lookup is one dict operation, a fill checks the bound and stores
under a lock so the bound holds exactly, and two threads that race to fill
one feature store the same code.
Each term of a bucket's sum is +1 or -1, so summing the codes with one
``np.bincount`` gives exactly the floats a sequential sum would, and the
vectors are the same bits as hashing every occurrence.
"""

from __future__ import annotations

import hashlib
import math
import threading

import numpy as np

from .tokens import DEFAULT_TOKENIZER

EmbeddingVector = list[float]

DEFAULT_DIMENSION = 256

# The hash family is part of the tag's meaning: a vector is reproducible
# from the tag and the dimension only because this key (like the one
# tokenizer) is a constant.
_HASH_KEY = b"docrag-hash-v1"

# Most features one embedder's memo holds before it is cleared.
_MEMO_LIMIT = 2**16


class _FeatureCodes(dict):
    """feature -> 2 * bucket + (1 if the feature adds, 0 if it subtracts)."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension
        self._fill = threading.Lock()  # makes the bound check and the store one step

    def __missing__(self, feature: str) -> int:
        # "surrogatepass" changes no valid text's bytes; it lets a lone
        # surrogate (which a JSON "\ud800" escape yields) hash instead of raise.
        data = feature.encode("utf-8", "surrogatepass")
        digest = hashlib.blake2b(data, key=_HASH_KEY, digest_size=8).digest()
        bucket = int.from_bytes(digest, "big")
        code = (bucket >> 1) % self.dimension * 2 + (bucket & 1)
        with self._fill:
            if len(self) >= _MEMO_LIMIT:
                self.clear()
            self[feature] = code
        return code


class HashingEmbedder:
    """Keyed feature hashing over token n-grams, L2-normalized."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.tag = f"feature-hash-v1-{dimension}"
        self._codes = _FeatureCodes(dimension)

    def _features(self, text: str) -> list[str]:
        # Lowercase each token, never the text first: "İ".lower() is "i" plus a
        # combining mark, which the tokenizer would cut into two tokens.
        tokens = list(map(str.lower, DEFAULT_TOKENIZER.tokens(text)))
        features = list(tokens)
        features.extend(f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:]))
        return features

    def embed(self, text: str) -> EmbeddingVector:
        """Empty input embeds to the zero vector (flagged downstream)."""
        features = self._features(text)
        codes = np.fromiter(map(self._codes.__getitem__, features), np.intp, len(features))
        counts = np.bincount(codes, minlength=2 * self.dimension)
        values = counts[1::2] - counts[0::2]
        norm = math.sqrt(int(values @ values))
        if norm == 0.0:
            return [0.0] * self.dimension
        return (values / norm).tolist()
