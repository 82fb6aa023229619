"""In-memory vector index: exact filtered top-k cosine retrieval.

A deliberate non-ANN design: corpora here are thousands of chunks, and an
exact scan of every kept row is both fast enough and oracle-testable. A
snapshot holds each chunk once, in ascending chunk_id order (the chunk
carries its id), and its vector as a column of one float64 store laid
out bucket-major (dimension x rows), with the row norms beside it. Hashed
feature vectors are sparse (a question of t tokens has at most 2t - 1
nonzero buckets), so a search reads only the query's nonzero buckets,
and of those only the rows its filters keep: every other component adds
0 to a dot product.
Chunk metadata is typed (a str, an int or None), so each field keeps a
dict from value to code and a column of int32 codes, one per row: a
filter is one dict lookup and a mask over a column rather than a scan
over the chunks. Questions repeat their filters (one company, one year),
so each snapshot keeps a ``Memo`` from a ``RetrievalConfig.filters``
tuple to the positions of the rows it keeps, and a repeated filter set
costs one dict lookup. An append publishes a new snapshot with an empty
memo, so kept rows never go out of date. Since ``check_filter`` pins each
value's exact type, ``1`` and ``True`` (equal keys to a dict) never both
reach it. Its ``size`` counts the positions plus one per filter set, at
most ``_KEPT_ROWS_LIMIT``.

A filter ``(name, value)`` keeps the chunks whose metadata field ``name``
equals ``value``; several filters must all hold. ``RetrievalConfig``
admits only what ``chunking.check_filter`` admits, the one rule that
``docrag query`` and eval datasets share: ``name`` is a metadata field
and the exact type of ``value`` is one that field holds. So a typo such
as ``compnay``, a ``year`` of ``"2013"`` or ``2013.0``, or a
``page_number`` of ``True`` raises ``ValueError``. Results sort by
descending cosine score, ties by ascending chunk_id. A tie is an equal
computed float64 score: which buckets are summed, and in what order,
rounds the last bit, so two chunks whose exact cosines are equal may
still be ordered by that rounding.

A filtered question scores tens to a few hundred rows, so a search's
fixed steps weigh more than its arithmetic. The query's norm is
``math.sqrt(query.dot(query))``: the arithmetic ``np.linalg.norm`` does
for a 1-D float64 array, so the same bits, without its wrapper. The top
k of fewer than ``_SORT_ALL_BELOW`` scored rows is one stable sort of
every score; of more, a partition picks the rows at least as good as the
k-th best and only those are sorted. Both break ties by chunk_id, so
both give the same results.

Every per-row column (the chunks, the store, the norms, one code
column per metadata field) and each field's value-to-code dict is only
appended to. A snapshot is a row count plus references to them, and a reader
reads only the first ``count`` entries of each, so a snapshot held by a
search stays valid while later writes append. Writes are serialized by a
lock and take one path: write the new rows past the current count, then
publish a snapshot with the larger count. A column too small for them is
first copied into one a quarter larger (exact size when it is empty), so
n rows appended in batches are copied O(log n) times; ``load`` sizes its
columns once from the header's ``count``, so its merges of a file
``persist`` wrote leave no spare entry. A merge whose chunk_ids all sort after
the index's last one (documents ingested in order) appends as it comes;
any other (a replacement, or an id that sorts inside the index) gathers
every live row in chunk_id order and appends it to fresh, empty columns.
Persistence is JSON-lines with a header line, written through
``errors.replacing``, the one write rule: atomically, and synced to disk
before it replaces the old file. The header's dimension
and tags are the constructor's arguments, and their rules are the
constructor's alone: a dimension that is an integer >= 1, and tags that
are strings UTF-8 can encode. So an index that builds also persists,
and ``load`` refuses what the constructor refuses. Each line is the bytes
``json.dumps(..., ensure_ascii=False)`` writes for the chunk's record
with its vector list last. A record whose strings are all ASCII without
U+007F (``_plain``) has the same bytes under ``ensure_ascii=True``, whose
escaper is the faster, so it is encoded that way; any other record is
encoded once with ``ensure_ascii=False``. A vector's text is written a
block of ``_TEXT_BLOCK`` rows at a time, with one ``repr`` per distinct
value in the block (hashed vectors share most of their values). ``load``
reads it back at the same cost: one decoder for the file, whose float
hook is a ``Memo`` from a literal's text to its float, cleared after each
entry line, converts each distinct literal of a line once (the text keeps
every bit, ``-0.0`` too). It sizes the columns once, from the header's
``count`` but for no more rows than the file's bytes can hold (an entry
line holds at least two bytes a component), and merges each block of
``_LOAD_BLOCK`` entry lines as it is read: each line's vector goes through
``_vector``, and the block's arrays become one row-major ``np.array``,
which ``_merge`` copies into the columns. So a loaded row is held once,
and besides the store only one block's components are.

A vector is a float64 array, from the embedder to the search. ``_vector``
is the one rule for every vector that enters, through ``embed``,
``IndexEntry``, ``search`` or ``load``: an embedder's array passes as it
is, and any other sequence only if each component is a real number. An
``IndexEntry`` holds its vector as a tuple of ``dimension`` floats. The
write paths hand ``_merge`` their rows alike, as one ``np.array`` of the
checked vectors: ``upsert_many`` and ``add_pages`` once, ``load`` once per
block of entry lines. ``add_pages`` first refuses an embedder whose
dimension is not the index's, and stores no chunk of 0 tokens (a
whitespace-only page), which would only add an all-zero row.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .chunking import (
    DEFAULT_CHUNK_SIZE,
    ChunkMetadata,
    DocumentChunk,
    _lone_surrogate,
    checked_filters,
    split_pages,
)
from .embedding import Memo
from .errors import IndexLoadError, ProviderError, check_count, decode_json, replacing
from .providers import EmbeddingProvider
from .tokens import DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from .layout import DocumentAttributes
    from .preprocess import PageContent

logger = logging.getLogger(__name__)

DEFAULT_K = 3


def _vector(values, *, finite: bool = True) -> np.ndarray:
    """``values`` as a float64 array: the one rule for a vector that enters
    the index. A 1-D float64 array passes as it is; any other sequence
    passes when every component is a real number and not a bool (numpy
    would read ``True`` and ``"0.5"`` as numbers) and is converted once.
    An int or ``Fraction`` past float64's range raises ``ValueError``, and
    so, when ``finite``, does a NaN or infinite entry."""
    if type(values) is not np.ndarray or values.dtype.type is not np.float64 or values.ndim != 1:
        for kind in set(map(type, values)):
            if kind is not float and (kind is bool or not issubclass(kind, numbers.Real)):
                bad = next(value for value in values if type(value) is kind)
                raise TypeError(f"vector components must be real numbers, got {bad!r:.80}")
        try:
            values = np.array(values, dtype=np.float64)
        except OverflowError:  # an int or Fraction past float64's range
            raise ValueError("vector entries must be finite") from None
    if finite and not np.isfinite(values).all():
        raise ValueError("vector entries must be finite")
    return values


def embed(text: str, provider: EmbeddingProvider) -> np.ndarray:
    """Embed text through a provider, validating the returned vector."""
    returned = provider.embed(text)
    try:
        vector = _vector(returned)
    except TypeError as exc:
        raise ProviderError(f"provider {provider.tag} returned a bad vector: {exc}") from exc
    except ValueError:
        raise ProviderError(f"provider {provider.tag} returned non-finite values") from None
    if len(vector) != provider.dimension:
        raise ProviderError(
            f"dimension mismatch: provider {provider.tag} declared {provider.dimension}, "
            f"returned {len(vector)}"
        )
    return vector


@dataclass(frozen=True)
class IndexEntry:
    chunk: DocumentChunk
    vector: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(_vector(self.vector).tolist()))


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = DEFAULT_K
    filters: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_count("k", self.k)
        object.__setattr__(self, "filters", checked_filters(self.filters))


@dataclass(frozen=True)
class RetrievalResult:
    chunk: DocumentChunk
    score: float


# Every metadata field: the names ``check_filter`` admits.
_FIELDS = tuple(f.name for f in fields(ChunkMetadata))

# Most kept-row positions (plus one per filter set) a snapshot's filter memo holds.
_KEPT_ROWS_LIMIT = 2**20

# Rows whose vector text ``persist`` writes from one ``np.unique``. Hashed
# rows share most of their values, so 32 rows write as fast as 256 (seed
# 101, dimension 256), and a small block's temporaries leave the process
# about 5 MB smaller after a persist.
_TEXT_BLOCK = 32

# Fewest scored rows whose top k a search partitions out before sorting;
# below it one sort of every score is cheaper.
_SORT_ALL_BELOW = 256

# Entry lines ``load`` reads into one row-major block before ``_merge``
# copies it into the store: a block's list and matrix are all the
# components it holds besides the store. At the 20k-row size of seed 101,
# 256 loads as fast as 32 or 2,048 and peaks 9 MB below 2,048.
_LOAD_BLOCK = 256


def _grown(column: np.ndarray, count: int, total: int) -> np.ndarray:
    """``column`` if its last axis holds ``total`` entries, else a copy of
    its first ``count`` into one a quarter larger, or just large enough
    (exact when it was empty)."""
    capacity = column.shape[-1]
    if total <= capacity:
        return column
    grown = np.empty(column.shape[:-1] + (max(total, capacity + capacity // 4),), dtype=column.dtype)
    grown[..., :count] = column[..., :count]
    return grown


def _vector_texts(rows: np.ndarray) -> Iterator[str]:
    """Each of ``rows`` (rows x dimension) as ``json.dumps`` writes a list
    of its floats, less the brackets. Rows go ``_TEXT_BLOCK`` at a time:
    one ``np.unique`` of a block's bits, one ``repr`` per distinct value,
    one join per row. Values are told apart by their bits, so ``0.0`` and
    ``-0.0`` keep their signs."""
    for first in range(0, len(rows), _TEXT_BLOCK):
        block = rows[first : first + _TEXT_BLOCK]
        bits, inverse = np.unique(np.ravel(block).view(np.int64), return_inverse=True)
        reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        yield from map(", ".join, reprs[inverse.reshape(block.shape)].tolist())


def _plain(record: dict) -> bool:
    """Whether every string in a chunk record (``DocumentChunk.as_dict``)
    is ASCII without U+007F, the one character below 128 that only
    ``ensure_ascii`` escapes: then ``json.dumps`` writes the record's bytes
    alike either way, and its ASCII escaper is the faster."""
    strings = "".join([record["chunk_id"], record["text"],
                       *(value for value in record["metadata"].values() if type(value) is str)])
    return strings.isascii() and "\x7f" not in strings


# Snapshot shared by concurrent readers; replaced wholesale on writes.
# Entry i of every column (column i of ``store``) describes the chunk
# chunks[i]. Columns are shared with earlier and later snapshots and only
# appended to: entries from ``count`` on belong to no snapshot yet, so a
# reader reads only the first ``count``.
@dataclass(frozen=True)
class _Snapshot:
    count: int
    chunks: list[DocumentChunk]  # in chunk_id order
    store: np.ndarray  # dimension x capacity, C-contiguous: store[j, i] is component j of row i
    norms: np.ndarray
    zero_rows: int  # rows whose norm is 0
    # Rows no cosine can be computed for: the norm overflowed float64 to
    # inf, or underflowed to 0 although some component is nonzero.
    unscorable_rows: int
    books: dict[str, dict]  # field -> {value: code}
    columns: dict[str, np.ndarray]  # field -> int32 code of each row
    # filters -> kept positions; filled by _kept_rows, not by a fill of
    # its own, which would tie the memo and its snapshot into a cycle
    kept: Memo = field(default_factory=Memo, compare=False)

    @property
    def buckets(self) -> np.ndarray:
        """The rows' vectors, dimension x rows: a view of the store."""
        return self.store[:, : self.count]


def _empty(dimension: int, capacity: int = 0) -> _Snapshot:
    """A snapshot of no rows whose columns have room for ``capacity``."""
    return _Snapshot(
        count=0,
        chunks=[],
        store=np.empty((dimension, capacity), dtype=np.float64),
        norms=np.empty((capacity,), dtype=np.float64),
        zero_rows=0,
        unscorable_rows=0,
        books={name: {} for name in _FIELDS},
        columns={name: np.empty((capacity,), dtype=np.int32) for name in _FIELDS},
    )


def _appended(old: _Snapshot, chunks: Sequence[DocumentChunk], rows: np.ndarray) -> _Snapshot:
    """``old`` followed by ``chunks``, whose ids sort after its last one;
    ``rows`` (row-major: the norm of a strided row sums in another order
    and can differ in the last bit) holds their vectors. Each column is
    written past ``old.count``, the chunk list last, so an append that fails
    part-way leaves nothing a later one reads."""
    count = old.count
    total = count + len(chunks)
    store = _grown(old.store, count, total)
    store[:, count:total] = rows.T
    with np.errstate(over="ignore"):  # a norm past float64's range is inf
        new_norms = np.linalg.norm(rows, axis=1)
    norms = _grown(old.norms, count, total)
    norms[count:total] = new_norms
    zero = new_norms == 0.0  # rare: scan only those rows for a nonzero component
    unscorable = int(np.isinf(new_norms).sum()) + int(rows[zero].any(axis=1).sum())
    columns = {}
    for name in _FIELDS:
        book = old.books[name]
        column = columns[name] = _grown(old.columns[name], count, total)
        column[count:total] = [book.setdefault(getattr(chunk.metadata, name), len(book)) for chunk in chunks]
    old.chunks[count:] = chunks
    return _Snapshot(
        count=total,
        chunks=old.chunks,
        store=store,
        norms=norms,
        zero_rows=old.zero_rows + int(zero.sum()),
        unscorable_rows=old.unscorable_rows + unscorable,
        books=old.books,
        columns=columns,
    )


def _kept_rows(snapshot: _Snapshot, filters: tuple[tuple[str, object], ...]) -> np.ndarray:
    """The positions of ``snapshot``'s rows that pass every filter, stored
    in its memo (dropped whole first if they would pass its bound)."""
    kept = np.empty(0, dtype=np.intp)
    mask = None
    for name, value in filters:
        code = snapshot.books[name].get(value)
        if code is None:  # no chunk holds this value
            break
        hit = snapshot.columns[name][: snapshot.count] == code
        mask = hit if mask is None else mask & hit
    else:
        kept = np.flatnonzero(mask)
    kept.flags.writeable = False
    memo = snapshot.kept
    if memo.size + len(kept) + 1 > _KEPT_ROWS_LIMIT:
        memo.clear()
        memo.size = 0
    memo[filters] = kept
    memo.size += len(kept) + 1
    return kept


class VectorIndex:
    def __init__(
        self,
        dimension: int,
        tokenizer_tag: str = DEFAULT_TOKENIZER.tag,
        provider_tag: str = "",
    ):
        check_count("dimension", dimension)
        for name, tag in (("tokenizer", tokenizer_tag), ("provider", provider_tag)):
            if type(tag) is not str:
                raise ValueError(f"{name} must be a string, got {tag!r:.80}")
            if surrogate := _lone_surrogate(tag):  # persist writes strict UTF-8
                raise ValueError(f"{name} holds a {surrogate}")
        self.dimension = dimension
        self.tokenizer_tag = tokenizer_tag
        self.provider_tag = provider_tag
        self._write_lock = threading.Lock()
        self._snapshot = _empty(dimension)

    def __len__(self) -> int:
        return self._snapshot.count

    def chunk_ids(self) -> tuple[str, ...]:
        snapshot = self._snapshot
        return tuple(chunk.chunk_id for chunk in snapshot.chunks[: snapshot.count])

    def chunks(self) -> tuple[DocumentChunk, ...]:
        """Every chunk, in chunk_id order."""
        snapshot = self._snapshot
        return tuple(snapshot.chunks[: snapshot.count])

    def document_ids(self, filters: tuple[tuple[str, object], ...] = ()) -> set[str]:
        """The ``document_id`` of every chunk that passes every filter (of
        every chunk when there is none). A filter set's rows come from the
        snapshot's memo, as a search's do (``checked_filters`` applies)."""
        snapshot = self._snapshot
        if not filters:
            return {chunk.metadata.document_id for chunk in snapshot.chunks[: snapshot.count]}
        filters = checked_filters(filters)
        kept = snapshot.kept.get(filters)
        if kept is None:
            kept = _kept_rows(snapshot, filters)
        return {snapshot.chunks[p].metadata.document_id for p in kept.tolist()}

    def get(self, chunk_id: str) -> IndexEntry | None:
        snapshot = self._snapshot
        position = bisect_left(snapshot.chunks, chunk_id, 0, snapshot.count, key=lambda chunk: chunk.chunk_id)
        if position == snapshot.count or snapshot.chunks[position].chunk_id != chunk_id:
            return None
        return IndexEntry(chunk=snapshot.chunks[position], vector=snapshot.store[:, position])

    def upsert(self, entry: IndexEntry) -> None:
        """Store an entry; a repeated chunk_id replaces the prior entry."""
        self.upsert_many([entry])

    def upsert_many(self, entries: Sequence[IndexEntry]) -> None:
        """Store entries; for a repeated chunk_id the last one given wins."""
        for entry in entries:
            if len(entry.vector) != self.dimension:
                raise ValueError(
                    f"dimension mismatch: index is {self.dimension}, "
                    f"vector is {len(entry.vector)}"
                )
        rows = np.array([entry.vector for entry in entries], dtype=np.float64)
        self._merge([entry.chunk for entry in entries], rows)

    def add_pages(
        self, pages: Iterable[PageContent], embedder: EmbeddingProvider,
        chunk_size: int = DEFAULT_CHUNK_SIZE, attributes: DocumentAttributes | None = None,
    ) -> list[DocumentChunk]:
        """Split one document's pages (``split_pages``), embed each chunk (``embed``)
        into one array and store them as ``upsert_many`` would; return the
        stored chunks. A chunk of 0 tokens (a whitespace-only page) is not
        stored: it would embed to an all-zero vector, which every search
        scores 0 and warns about."""
        if embedder.dimension != self.dimension:
            raise ValueError(f"dimension mismatch: index is {self.dimension}, embedder is {embedder.dimension}")
        chunks = [chunk for chunk in split_pages(pages, chunk_size=chunk_size, attributes=attributes)
                  if chunk.token_count]
        # embed checks each vector finite and of the embedder's dimension
        self._merge(chunks, np.array([embed(chunk.text, embedder) for chunk in chunks], dtype=np.float64))
        return chunks

    def _merge(self, chunks: Sequence[DocumentChunk], rows: np.ndarray) -> None:
        """Publish the current snapshot plus ``chunks`` (``rows`` holds their
        vectors, row-major); for a repeated chunk_id the last row wins. An
        append (see the module docstring) sorts, norms and encodes only the
        new chunks; a rebuild appends every live row to empty columns."""
        if not chunks:
            return
        ids = [chunk.chunk_id for chunk in chunks]
        with self._write_lock:
            old = self._snapshot
            if old.count and old.chunks[old.count - 1].chunk_id >= min(ids):
                # A replacement, or an id that sorts inside the index.
                chunks = old.chunks[: old.count] + list(chunks)
                ids = [chunk.chunk_id for chunk in chunks]
                rows = np.concatenate([old.buckets.T, rows])
                old = _empty(self.dimension)
            last = {chunk_id: position for position, chunk_id in enumerate(ids)}
            ordered = sorted(last)
            if ordered != ids:  # keep each id's last row, in id order
                order = [last[chunk_id] for chunk_id in ordered]
                # take returns a C-ordered copy: the rows stay row-major.
                chunks, rows = [chunks[p] for p in order], rows.take(order, axis=0)
            self._snapshot = _appended(old, chunks, rows)

    def search(self, query_vector: np.ndarray | Sequence[float], config: RetrievalConfig) -> list[RetrievalResult]:
        """Exact top-k by cosine among entries passing every metadata filter.

        Results sort by descending score, ties by ascending chunk_id. An
        empty index (or one emptied by the filters) yields no results. A
        query with a component that is no real number (a bool, a str) raises
        ``TypeError``; one with a NaN or infinite component raises
        ``ValueError``, and so does a query or kept chunk whose vector's
        norm overflows float64 (its squared components sum past about
        1.8e308) or underflows it (a nonzero vector whose squared
        components sum below about 5e-324).
        Every score is then finite: ``|dot| <= |row| * |query|``, at most the
        larger squared norm. An all-zero query or row scores 0.

        The query's norm is bit for bit ``np.linalg.norm(query)``, and the
        top k is one stable sort below ``_SORT_ALL_BELOW`` scored rows, a
        partition and then a sort from there on (see the module docstring).
        """
        query = _vector(query_vector, finite=False)  # the norm below finds a non-finite entry
        if len(query) != self.dimension:
            raise ValueError(
                f"dimension mismatch: index is {self.dimension}, query is {len(query)}"
            )
        with np.errstate(over="ignore"):
            query_norm = math.sqrt(query.dot(query))  # np.linalg.norm's arithmetic
        if not math.isfinite(query_norm):  # a NaN or inf component, or overflow
            if not np.isfinite(query).all():
                raise ValueError("query vector has a non-finite component")
            raise ValueError("query vector's norm overflows float64")
        if query_norm == 0.0 and query.any():
            raise ValueError("query vector's norm underflows float64")
        snapshot = self._snapshot
        kept = None
        if config.filters:
            kept = snapshot.kept.get(config.filters)
            if kept is None:
                kept = _kept_rows(snapshot, config.filters)
        count = snapshot.count if kept is None else len(kept)
        if not count:
            return []
        norms = snapshot.norms[:count] if kept is None else snapshot.norms[kept]
        if snapshot.unscorable_rows:
            flags = np.isinf(norms)
            zero = np.flatnonzero(norms == 0.0)
            flags[zero] = snapshot.store[:, zero if kept is None else kept[zero]].any(axis=0)
            flagged = np.flatnonzero(flags)
            if len(flagged):
                row = flagged[0] if kept is None else kept[flagged[0]]
                how = "overflows" if np.isinf(snapshot.norms[row]) else "underflows"
                raise ValueError(f"vector norm of chunk {snapshot.chunks[row].chunk_id!r} {how} float64")

        if query_norm == 0.0:
            logger.warning("search with an all-zero query vector; all scores 0")
            scores = np.zeros(count)
        else:
            # Only the query's nonzero buckets add to a dot product, and only
            # kept rows are read: a row the filters dropped is never multiplied.
            nonzero = np.flatnonzero(query)
            if kept is None:
                dots = query[nonzero] @ snapshot.buckets[nonzero]
            else:
                # [i, j] is bucket nonzero[i] of row kept[j]: one take from
                # the flat buckets, reading each bucket's kept rows in order.
                stride = snapshot.store.shape[1]
                dots = query[nonzero] @ snapshot.store.take(nonzero[:, None] * stride + kept)
            if snapshot.zero_rows:
                zero_rows = norms == 0.0
                if zero_rows.any():
                    logger.warning("%d all-zero vectors in index scored 0", int(zero_rows.sum()))
                scores = np.divide(dots, norms * query_norm, out=np.zeros(count), where=~zero_rows)
            else:
                scores = dots / (norms * query_norm)

        # A stable sort: rows are in chunk_id order, so ties break by id.
        negated = -scores
        k = min(config.k, count)
        if count < _SORT_ALL_BELOW:
            ranked = np.argsort(negated, kind="stable")[:k]
        else:
            bound = np.partition(negated, k - 1)[k - 1]
            candidates = np.flatnonzero(negated <= bound)
            ranked = candidates[np.argsort(negated[candidates], kind="stable")[:k]]
        positions = ranked if kept is None else kept[ranked]
        return [
            RetrievalResult(chunk=snapshot.chunks[p], score=score)
            for p, score in zip(positions.tolist(), scores[ranked].tolist())
        ]

    def persist(self, path: str | Path) -> None:
        """Write the index as JSON-lines through ``errors.replacing``, the
        one write rule: atomically and durably, the temp file synced before
        it is renamed over ``path`` and the directory after, with the mode
        ``open()`` would give.

        Each entry line is what ``json.dumps({**record, "vector": [...]},
        ensure_ascii=False)`` gives. A record whose strings are ASCII
        without U+007F is encoded ASCII-first (``ensure_ascii=True``, the
        faster escaper), which writes the same bytes."""
        snapshot = self._snapshot
        header = {
            "dimension": self.dimension,
            "count": snapshot.count,
            "tokenizer": self.tokenizer_tag,
            "provider": self.provider_tag,
        }
        with replacing(path) as handle:
            handle.write(json.dumps(header, ensure_ascii=False) + "\n")
            vectors = _vector_texts(snapshot.buckets.T)
            for chunk, vector in zip(snapshot.chunks[: snapshot.count], vectors):
                # The record with "vector" as its last key, as json.dumps
                # would write {**chunk.as_dict(), "vector": row.tolist()}.
                record = chunk.as_dict()
                text = json.dumps(record, ensure_ascii=_plain(record))[:-1]
                handle.write(f'{text}, "vector": [{vector}]}}\n')

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a persisted index; corruption errors carry a byte offset.

        The header's ``dimension``, ``tokenizer`` and ``provider`` go to the
        constructor, which holds their rules; a header it refuses, or whose
        ``count`` is no JSON integer >= 0, is refused at offset 0, in that
        order. A missing tag loads as ``""``. An entry line that repeats an
        earlier ``chunk_id``, breaks the chunk record's field rules
        (``chunking.DocumentChunk``: types, and no lone surrogate) or holds a vector component that is no
        finite float64 (``true``, ``"0.5"``, an integer past float64's
        range) is refused at its own offset, and a file whose entry lines
        disagree in number with the header's ``count`` (such as one cut at
        a line boundary) at its end offset.

        The columns are sized once from ``count``, but for no more rows than
        the file's bytes can hold, so a corrupt ``count`` or ``dimension``
        allocates nothing large before its refusal. Each line is decoded once,
        by ``decode_json``, with each distinct float literal in it converted
        once (a ``Memo`` cleared after the line: a row repeats its own
        literals, not other rows'). Each line's vector goes through
        ``_vector``, the rule every write path shares, and then the shape
        check. Each block of ``_LOAD_BLOCK`` entry lines becomes one
        ``np.array`` that ``_merge`` copies into the columns as soon as it
        is read, so besides the columns ``load`` holds one block's
        components at a time.
        """
        with open(path, "rb") as handle:
            raw_header = handle.readline()
            try:
                header = decode_json(raw_header.decode("utf-8"))
                dimension, count = header["dimension"], header["count"]
            except (ValueError, KeyError, TypeError) as exc:
                raise IndexLoadError(0, f"bad header line: {exc}") from exc
            try:
                index = cls(dimension, header.get("tokenizer", ""), header.get("provider", ""))
                check_count("count", count, 0)
            except ValueError as exc:
                raise IndexLoadError(0, f"header {exc}") from exc
            offset = len(raw_header)
            # An entry line holds more than two bytes a component, so a count
            # or dimension past what the file can hold sizes the columns only
            # as the file does; the count is refused at the end offset below,
            # the dimension at the first entry line. A pipe's size reads 0:
            # its columns start empty and grow.
            room = max(os.fstat(handle.fileno()).st_size - offset, 0) // (2 * dimension)
            index._snapshot = _empty(dimension, min(count, room))
            literals = Memo(float)  # literal text -> float
            decode = json.JSONDecoder(parse_float=literals.__getitem__).decode
            chunks, rows, seen = [], [], set()
            for raw in handle:
                if not raw.isspace():
                    try:
                        record = decode_json(raw.decode("utf-8"), decode)
                        literals.clear()  # kept for one line: rows seldom share a literal
                        chunk = DocumentChunk.from_dict(record)
                        vector = record["vector"]
                        if type(vector) is not list:
                            raise TypeError(f"vector must be an array, got {vector!r:.80}")
                        vector = _vector(vector)
                        if vector.shape != (dimension,):
                            raise ValueError(f"vector has shape {vector.shape}, header says {dimension}")
                    except (ValueError, KeyError, TypeError) as exc:
                        raise IndexLoadError(offset, f"bad entry line: {exc}") from exc
                    if chunk.chunk_id in seen:
                        raise IndexLoadError(
                            offset, f"chunk_id {chunk.chunk_id!r} repeats an earlier entry line"
                        )
                    seen.add(chunk.chunk_id)
                    chunks.append(chunk)
                    rows.append(vector)
                    if len(chunks) == _LOAD_BLOCK:
                        index._merge(chunks, np.array(rows, dtype=np.float64))
                        chunks, rows = [], []
                offset += len(raw)
        index._merge(chunks, np.array(rows, dtype=np.float64))
        if len(index) != count:
            raise IndexLoadError(
                offset, f"header count {count} but the file holds {len(index)} entry lines"
            )
        return index
