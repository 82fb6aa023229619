"""Deterministic local text embeddings.

The default provider hashes lowercased token unigrams and bigrams into a
fixed number of signed buckets and L2-normalizes the result. It is not a
learned embedding (similarity is lexical overlap), but it is seeded,
offline, and byte-reproducible, which is what the test suite and the mock
pipeline need.

A feature's bucket and sign are a pure function of the feature, and no
token holds whitespace (``str.split`` and the tokenizer's ``\\s`` split on
the same characters), so a text's tokens are its words' tokens in order.
Each embedder therefore memoises three maps:

- word -> the ids of its tokens as packed native int64 ``bytes``, filled
  from ``_features(word)`` (the word's lowercased tokens) the first time
  a word is seen, so the tokenizer and ``str.lower`` run once per
  distinct word, not once per token, and a text's ids are one
  ``bytes.join`` of its words' entries read by one ``np.frombuffer``;
- lowercased token -> id, where ``id = serial * 2 * dimension + code`` and
  ``code`` is the unigram's signed bucket code (``2 * bucket + 1`` if the
  feature adds, ``2 * bucket`` if it subtracts), so ``id % (2 * dimension)``
  is the unigram's code and ``id // (2 * dimension)`` its serial;
- the serials of two adjacent tokens, ``serial_a << 32 | serial_b`` ->
  the code of their bigram ``"a\\x1fb"``, built and hashed the first time
  the pair is seen, and nowhere else. A key needs serials below 2**31,
  which holds for any dimension: the memo holds at most ``_MEMO_LIMIT``
  entries plus one text's own.

A text then costs one ``str.split``, one dict lookup per word and one per
adjacent token pair. The bound (see ``Memo``) counts the entries of all
three maps, and ids are assigned under a lock. A feature's code is hashed
once per memo entry, from a copy of one keyed ``blake2b`` state built at
import, so no call sets a key up again (about 390 ns a feature against
580 for a fresh keyed hasher, on a 2-vCPU x86 host).
Each term of a bucket's sum is +1 or -1, so summing the codes with one
``np.bincount`` gives exactly the floats a sequential sum would, and the
vectors are the same bits as hashing every occurrence.
"""

from __future__ import annotations

import hashlib
import math
import threading
import weakref

import numpy as np

from .errors import check_count
from .tokens import DEFAULT_TOKENIZER

DEFAULT_DIMENSION = 256

# The hash family is part of the tag's meaning: a vector is reproducible
# from the tag and the dimension only because this key (like the one
# tokenizer) is a constant.
_HASH_KEY = b"docrag-hash-v1"

# The keyed state every feature's hash starts from; only ever copied,
# never updated, so threads may share it.
_KEYED = hashlib.blake2b(key=_HASH_KEY, digest_size=8)

# Most entries one embedder's memo holds between calls.
_MEMO_LIMIT = 2**16

# The bigram feature of two adjacent lowercased tokens.
_bigram = "{}\x1f{}".format

_LOW = 2**32 - 1  # the second serial of a pair key


def _code(feature: str, dimension: int) -> int:
    """``feature``'s signed bucket code: 2 * bucket, plus 1 if it adds."""
    # "surrogatepass" changes no valid text's bytes; it lets a lone
    # surrogate (which a JSON "\ud800" escape yields) hash instead of raise.
    hasher = _KEYED.copy()
    hasher.update(feature.encode("utf-8", "surrogatepass"))
    bucket = int.from_bytes(hasher.digest(), "big")
    return (bucket >> 1) % dimension * 2 + (bucket & 1)


class Memo(dict):
    """A dict that fills a missing key with ``fill(key)``, when it has a
    ``fill``; ``size`` is what its owner counts toward its bound besides
    the entries.

    Each owner drops all of its memo at its bound, never a part, in one
    of three ways:

    - a memo whose values stand alone (the lookup reader's blocks,
      ``load``'s float literals: each value a pure function of its key)
      is cleared in place once it holds more than its bound, or, for
      ``load``'s, after each entry line; a value a call has read stays
      valid, and a later lookup fills its key again;
    - the embedder's three maps share token serials, so they are dropped
      together: the embedder swaps in a fresh ``_Generation``, and a call
      keeps the generation it started with;
    - an index snapshot's kept rows count their positions in ``size``, so
      that memo is cleared in place with its ``size`` reset to 0, before
      a fill that would pass its bound; kept rows are read-only.

    Two threads that fill one key store equal values, so a memo may be
    shared between threads.
    """

    __slots__ = ("fill", "size")

    def __init__(self, fill=None):
        super().__init__()
        self.fill = fill
        self.size = 0

    def __missing__(self, key):
        if self.fill is None:
            raise KeyError(key)
        value = self[key] = self.fill(key)
        return value


class _Generation:
    """One generation of an embedder's memo: its three maps.

    The fills close over the maps and a weak reference to the embedder,
    not the generation or the embedder itself, so neither a generation
    the embedder drops nor a dropped embedder waits for a cyclic
    collection. A fill looks ``_features`` up on the embedder when it
    runs, so a patch of it on one instance is seen.
    """

    def __init__(self, embedder: "HashingEmbedder"):
        dimension = embedder.dimension
        owner = weakref.ref(embedder)  # alive while a call runs: the call holds it
        span = self.span = 2 * dimension
        ids: dict[str, int] = {}  # lowercased token -> id
        tokens: list[str] = []  # serial -> lowercased token
        lock = threading.Lock()  # gives each token one id

        def word_ids(word: str) -> bytes:
            word_tokens = owner()._features(word)
            found = []
            with lock:
                for token in word_tokens:
                    token_id = ids.get(token)
                    if token_id is None:
                        token_id = ids[token] = len(tokens) * span + _code(token, dimension)
                        tokens.append(token)
                    found.append(token_id)
            return np.array(found, dtype=np.int64).tobytes()

        def bigram_code(key: int) -> int:
            return _code(_bigram(tokens[key >> 32], tokens[key & _LOW]), dimension)

        self.words = Memo(word_ids)  # word -> its tokens' ids, packed int64
        self.ids = ids
        self.pairs = Memo(bigram_code)  # pair key -> the bigram's code

    def __len__(self) -> int:
        return len(self.words) + len(self.ids) + len(self.pairs)


class HashingEmbedder:
    """Keyed feature hashing over token n-grams, L2-normalized."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        check_count("dimension", dimension)
        self.dimension = dimension
        self.tag = f"feature-hash-v1-{dimension}"
        self._memo = _Generation(self)

    def _features(self, word: str) -> list[str]:
        """``word``'s lowercased tokens; only the memo's pair fill builds bigrams."""
        # Lowercase each token, never the text first: "İ".lower() is "i" plus a
        # combining mark, which the tokenizer would cut into two tokens.
        return list(map(str.lower, DEFAULT_TOKENIZER.tokens(word)))

    def embed(self, text: str) -> np.ndarray:
        """``text``'s vector, a float64 array of ``dimension`` entries; empty
        input embeds to the zero vector (flagged downstream)."""
        memo = self._memo  # this call's generation, whatever another thread swaps in
        span = memo.span
        ids = np.frombuffer(b"".join(map(memo.words.__getitem__, text.split())), np.int64)
        serials = ids // span
        keys = (serials[:-1] << 32 | serials[1:]).tolist()
        bigrams = np.fromiter(map(memo.pairs.__getitem__, keys), np.int64, len(keys))
        if len(memo) > _MEMO_LIMIT and self._memo is memo:
            self._memo = _Generation(self)  # two racing threads at worst drop a fresh memo too
        counts = np.bincount(np.concatenate((ids % span, bigrams)), minlength=span)
        values = counts[1::2] - counts[0::2]
        norm = math.sqrt(int(values @ values))
        if norm == 0.0:
            return np.zeros(self.dimension)
        return values / norm
