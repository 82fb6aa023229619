"""In-memory vector index: exact filtered top-k cosine retrieval.

A deliberate non-ANN design: corpora here are thousands of chunks, and an
exact scan of every kept row is both fast enough and oracle-testable. A
snapshot holds each chunk once, in ascending chunk_id order: its id, the
chunk, and its vector as a column of one float64 store laid out
bucket-major (dimension x capacity), with the row norms beside it; a
snapshot of n rows reads only the store's first n columns. Hashed
feature vectors are sparse (a question of t tokens has at most 2t - 1
nonzero buckets), so a search reads only the query's nonzero buckets,
and of those only the rows its filters keep: every other component adds
0 to a dot product.
Chunk metadata is typed (a str, an int or None), so each field keeps a
dict from value to code and a column of int32 codes, one per row: a
filter is one dict lookup and a mask over a column rather than a scan
over the chunks.

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

Readers work on immutable snapshots; every write goes through one merge,
serialized by a lock, so concurrent searches see a consistent index. A
merge whose chunk_ids all sort after the index's last one (documents
ingested in order) appends: it sorts only the new rows, moves no old row
and writes the new columns into the store's spare capacity, which grows
by a quarter when it runs out, so n rows appended in batches are copied
O(log n) times. Those columns lie past every older snapshot's rows, so
no reader sees them change. Any other merge (a replacement, or an id that
sorts inside the index) rebuilds every column in chunk_id order into a
store of exact size. An empty store grows to exact size too, so the one
merge of ``load`` leaves no spare column.
Persistence is JSON-lines with a header line, written atomically and
synced to disk before it replaces the old file.
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
from typing import Sequence

import numpy as np

from .chunking import ChunkMetadata, DocumentChunk, check_filter
from .embedding import EmbeddingVector
from .errors import IndexLoadError, ProviderError
from .providers import EmbeddingProvider
from .tokens import DEFAULT_TOKENIZER

logger = logging.getLogger(__name__)

DEFAULT_K = 3


def embed(text: str, provider: EmbeddingProvider) -> EmbeddingVector:
    """Embed text through a provider, validating the returned vector."""
    vector = provider.embed(text)
    if len(vector) != provider.dimension:
        raise ProviderError(
            f"dimension mismatch: provider {provider.tag} declared {provider.dimension}, "
            f"returned {len(vector)}"
        )
    if not all(map(math.isfinite, vector)):
        raise ProviderError(f"provider {provider.tag} returned non-finite values")
    return vector


@dataclass(frozen=True)
class IndexEntry:
    chunk: DocumentChunk
    vector: tuple[float, ...]

    def __post_init__(self):
        vector = tuple(self.vector)
        # One pass over the components' types, as VectorIndex.load makes:
        # float() alone would read "0.5" and True as numbers.
        kinds = set(map(type, vector))
        if not kinds <= {float}:
            for kind in kinds:
                if kind is bool or not issubclass(kind, numbers.Real):
                    bad = next(value for value in vector if type(value) is kind)
                    raise TypeError(f"vector components must be real numbers, got {bad!r:.80}")
            vector = tuple(map(float, vector))
        object.__setattr__(self, "vector", vector)
        if not all(map(math.isfinite, vector)):
            raise ValueError("vector entries must be finite")


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = DEFAULT_K
    filters: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "filters", tuple((f, v) for f, v in self.filters))
        for name, value in self.filters:
            check_filter(name, value)


@dataclass(frozen=True)
class RetrievalResult:
    chunk: DocumentChunk
    score: float


# Every metadata field: the names ``check_filter`` admits.
_FIELDS = tuple(f.name for f in fields(ChunkMetadata))


def _encode(book: dict, values: Sequence) -> np.ndarray:
    """The codes of ``values`` in ``book``, giving each new value the next code."""
    return np.array([book.setdefault(value, len(book)) for value in values], dtype=np.int32)


def _joined(old: np.ndarray, new: np.ndarray, take: np.ndarray | None) -> np.ndarray:
    """``new``'s rows after ``old``'s, then the rows ``take`` (None: all);
    the last axis counts the rows."""
    joined = np.concatenate([old, new], axis=-1) if old.shape[-1] else new
    # take keeps joined C-ordered; joined[..., take] would not, and a copy
    # to restore the order would cost a second array per merge.
    return joined if take is None else joined.take(take, axis=-1)


def _appended(snapshot: _Snapshot, rows: np.ndarray) -> np.ndarray:
    """``snapshot``'s store with ``rows`` written into the columns after
    its rows, in place; a store too small for them is first copied into one
    a quarter larger, or just large enough (exact when it was empty)."""
    store, count = snapshot.store, len(snapshot.ids)
    total = count + len(rows)
    if total > store.shape[1]:
        capacity = store.shape[1]
        grown = np.empty((store.shape[0], max(total, capacity + capacity // 4)), dtype=np.float64)
        grown[:, :count] = store[:, :count]
        store = grown
    store[:, count:total] = rows.T
    return store


def _vector_text(row: np.ndarray) -> str:
    """``row`` as ``json.dumps`` writes a list of its floats, less the
    brackets: each value's ``repr``, taken once per distinct value. Values
    are told apart by their bits, so ``0.0`` and ``-0.0`` keep their signs."""
    bits, inverse = np.unique(row.view(np.int64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return ", ".join(map(reprs.__getitem__, inverse.tolist()))


# Snapshot shared by concurrent readers; replaced wholesale on writes.
# Position i of every sequence, and column i of ``store``, describes the
# chunk ids[i].
@dataclass(frozen=True)
class _Snapshot:
    ids: tuple[str, ...]
    chunks: tuple[DocumentChunk, ...]
    # dimension x capacity, C-contiguous: store[j, i] is component j of row i.
    # Columns from len(ids) on are spare: an append to a later snapshot may
    # write them, so a reader reads only the first len(ids).
    store: np.ndarray
    norms: np.ndarray
    safe_norms: np.ndarray  # norms with 0 replaced by 1: the score divisor
    zero_rows: int  # rows whose norm is 0
    # Rows no cosine can be computed for: the norm overflowed float64 to
    # inf, or underflowed to 0 although some component is nonzero.
    unscorable: np.ndarray
    unscorable_rows: int
    books: dict[str, dict]  # field -> {value: code}; a merge copies, never edits
    columns: dict[str, np.ndarray]  # field -> int32 code of each row

    @property
    def buckets(self) -> np.ndarray:
        """The rows' vectors, dimension x rows: a view of the store."""
        return self.store[:, : len(self.ids)]


class VectorIndex:
    def __init__(
        self,
        dimension: int,
        tokenizer_tag: str = DEFAULT_TOKENIZER.tag,
        provider_tag: str = "",
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.tokenizer_tag = tokenizer_tag
        self.provider_tag = provider_tag
        self._write_lock = threading.Lock()
        self._snapshot = _Snapshot(
            ids=(),
            chunks=(),
            store=np.empty((dimension, 0), dtype=np.float64),
            norms=np.empty((0,), dtype=np.float64),
            safe_norms=np.empty((0,), dtype=np.float64),
            zero_rows=0,
            unscorable=np.empty((0,), dtype=bool),
            unscorable_rows=0,
            books={name: {} for name in _FIELDS},
            columns={name: np.empty((0,), dtype=np.int32) for name in _FIELDS},
        )

    def __len__(self) -> int:
        return len(self._snapshot.ids)

    def chunk_ids(self) -> tuple[str, ...]:
        return self._snapshot.ids

    def chunks(self) -> tuple[DocumentChunk, ...]:
        """Every chunk, in chunk_id order."""
        return self._snapshot.chunks

    def get(self, chunk_id: str) -> IndexEntry | None:
        snapshot = self._snapshot
        position = bisect_left(snapshot.ids, chunk_id)
        if position == len(snapshot.ids) or snapshot.ids[position] != chunk_id:
            return None
        return IndexEntry(chunk=snapshot.chunks[position], vector=snapshot.store[:, position].tolist())

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
        self._merge([entry.chunk for entry in entries], rows.reshape(len(entries), self.dimension))

    def _merge(self, chunks: Sequence[DocumentChunk], rows: np.ndarray) -> None:
        """Publish the current snapshot plus ``chunks`` (``rows`` holds their
        vectors); for a repeated chunk_id the last row wins. Only the new
        chunks are normed and their metadata encoded. An append (see the
        module docstring) also sorts only the new chunks; a rebuild sorts
        every id and reorders the old rows' codes with the rows.
        ``rows`` is row-major: the norm of a strided row sums in another
        order and can differ in the last bit."""
        new_ids = [chunk.chunk_id for chunk in chunks]
        last = {chunk_id: position for position, chunk_id in enumerate(new_ids)}
        block = sorted(last)
        if not block:
            return
        if block != new_ids:  # keep each id's last row, in id order
            order = [last[chunk_id] for chunk_id in block]
            chunks, rows = [chunks[p] for p in order], rows[order]
        with self._write_lock:
            old = self._snapshot
            ids = old.ids + tuple(block)
            if not old.ids or old.ids[-1] < block[0]:
                take = None
                live = old.chunks + tuple(chunks)
                store = _appended(old, rows)
            else:  # a replacement, or an id that sorts inside the index
                last = {chunk_id: position for position, chunk_id in enumerate(ids)}
                ids = tuple(sorted(last))
                order = [last[chunk_id] for chunk_id in ids]
                take = np.array(order, dtype=np.intp)
                every = old.chunks + tuple(chunks)
                live = tuple(every[p] for p in order)
                store = _joined(old.buckets, rows.T, take)
            books, columns = {}, {}
            for name in _FIELDS:
                book = books[name] = dict(old.books[name])
                codes = _encode(book, [getattr(chunk.metadata, name) for chunk in chunks])
                columns[name] = _joined(old.columns[name], codes, take)
                if len(book) > 2 * len(ids):
                    # Mostly values of replaced rows: encode the live rows
                    # afresh (at most once per len(rows) values added).
                    book = books[name] = {}
                    columns[name] = _encode(book, [getattr(chunk.metadata, name) for chunk in live])
            with np.errstate(over="ignore"):  # a norm past float64's range is inf
                new_norms = np.linalg.norm(rows, axis=1)
            norms = _joined(old.norms, new_norms, take)
            flags = np.isinf(new_norms)
            zero_new = new_norms == 0.0  # rare: scan only those rows for a nonzero component
            flags[zero_new] = rows[zero_new].any(axis=1)
            unscorable = _joined(old.unscorable, flags, take)
            zero = norms == 0.0
            self._snapshot = _Snapshot(
                ids=ids,
                chunks=live,
                store=store,
                norms=norms,
                safe_norms=np.where(zero, 1.0, norms),
                zero_rows=int(zero.sum()),
                unscorable=unscorable,
                unscorable_rows=int(unscorable.sum()),
                books=books,
                columns=columns,
            )

    def search(self, query_vector: Sequence[float], config: RetrievalConfig) -> list[RetrievalResult]:
        """Exact top-k by cosine among entries passing every metadata filter.

        Results sort by descending score, ties by ascending chunk_id. An
        empty index (or one emptied by the filters) yields no results. A
        query with a NaN or infinite component raises ``ValueError``, and so
        does a query or kept chunk whose vector's norm overflows float64 (its
        squared components sum past about 1.8e308) or underflows it (a
        nonzero vector whose squared components sum below about 5e-324).
        Every score is then finite: ``|dot| <= |row| * |query|``, at most the
        larger squared norm. An all-zero query or row scores 0.
        """
        if len(query_vector) != self.dimension:
            raise ValueError(
                f"dimension mismatch: index is {self.dimension}, query is {len(query_vector)}"
            )
        query = np.asarray(query_vector, dtype=np.float64)
        with np.errstate(over="ignore"):
            query_norm = float(np.linalg.norm(query))
        if not math.isfinite(query_norm):  # a NaN or inf component, or overflow
            if not np.isfinite(query).all():
                raise ValueError("query vector has a non-finite component")
            raise ValueError("query vector's norm overflows float64")
        if query_norm == 0.0 and query.any():
            raise ValueError("query vector's norm underflows float64")
        snapshot = self._snapshot
        mask = None
        for name, value in config.filters:
            code = snapshot.books[name].get(value)
            if code is None:  # no chunk holds this value
                return []
            hit = snapshot.columns[name] == code
            mask = hit if mask is None else mask & hit
        kept = None if mask is None else np.flatnonzero(mask)
        count = len(snapshot.ids) if kept is None else len(kept)
        if not count:
            return []
        if snapshot.unscorable_rows:
            flagged = np.flatnonzero(snapshot.unscorable if kept is None else snapshot.unscorable[kept])
            if len(flagged):
                row = flagged[0] if kept is None else kept[flagged[0]]
                how = "overflows" if np.isinf(snapshot.norms[row]) else "underflows"
                raise ValueError(f"vector norm of chunk {snapshot.ids[row]!r} {how} float64")

        if query_norm == 0.0:
            logger.warning("search with an all-zero query vector; all scores 0")
            scores = np.zeros(count)
        else:
            # Only the query's nonzero buckets add to a dot product, and only
            # kept rows are read: a row the filters dropped is never multiplied.
            nonzero = np.flatnonzero(query)
            if kept is None:
                dots, safe_norms = query[nonzero] @ snapshot.buckets[nonzero], snapshot.safe_norms
            else:
                # [i, j] is bucket nonzero[i] of row kept[j]: one take from
                # the flat buckets, reading each bucket's kept rows in order.
                stride = snapshot.store.shape[1]
                gathered = snapshot.store.take(nonzero[:, None] * stride + kept)
                dots, safe_norms = query[nonzero] @ gathered, snapshot.safe_norms[kept]
            scores = dots / (safe_norms * query_norm)
            if snapshot.zero_rows:
                zero_rows = (snapshot.norms if kept is None else snapshot.norms[kept]) == 0.0
                if zero_rows.any():
                    logger.warning("%d all-zero vectors in index scored 0", int(zero_rows.sum()))
                scores[zero_rows] = 0.0

        # Every row at least as good as the k-th best, then a stable sort of
        # those: rows are in chunk_id order, so ties break by id.
        negated = -scores
        k = min(config.k, len(negated))
        bound = np.partition(negated, k - 1)[k - 1]
        candidates = np.flatnonzero(negated <= bound)
        ranked = candidates[np.argsort(negated[candidates], kind="stable")[:k]]
        positions = ranked if kept is None else kept[ranked]
        return [
            RetrievalResult(chunk=snapshot.chunks[p], score=float(scores[i]))
            for p, i in zip(positions.tolist(), ranked.tolist())
        ]

    def persist(self, path: str | Path) -> None:
        """Write the index as JSON-lines, atomically and durably: the temp
        file is synced before it is renamed over ``path``, and the
        directory after. The file's mode is what ``open()`` would give."""
        path = Path(path)
        snapshot = self._snapshot
        header = {
            "dimension": self.dimension,
            "count": len(snapshot.ids),
            "tokenizer": self.tokenizer_tag,
            "provider": self.provider_tag,
        }
        temp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        # Created as open() creates a file, so the umask sets its mode.
        descriptor = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, ensure_ascii=False) + "\n")
                for chunk, row in zip(snapshot.chunks, snapshot.buckets.T):
                    # The record with "vector" as its last key, as json.dumps
                    # would write {**chunk.as_dict(), "vector": row.tolist()}.
                    record = json.dumps(chunk.as_dict(), ensure_ascii=False)[:-1]
                    handle.write(f'{record}, "vector": [{_vector_text(row)}]}}\n')
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
            directory = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a persisted index; corruption errors carry a byte offset.

        A header ``dimension`` or ``count`` that is not a JSON integer
        (``dimension`` >= 1, ``count`` >= 0) is refused at offset 0, an
        entry line that repeats an earlier ``chunk_id``, breaks the chunk
        record's field types (``chunking.DocumentChunk``) or holds a vector
        component that is no finite float64 (``true``, ``"0.5"``, an integer
        past float64's range) at its own offset,
        and a file whose entry lines disagree in number with the header's
        ``count`` (such as one cut at a line boundary) at its end offset.
        """
        with open(path, "rb") as handle:
            raw_header = handle.readline()
            try:
                header = json.loads(raw_header.decode("utf-8"))
                dimension, count = header["dimension"], header["count"]
            except (ValueError, KeyError, TypeError) as exc:
                raise IndexLoadError(0, f"bad header line: {exc}") from exc
            if type(dimension) is not int or dimension < 1:
                raise IndexLoadError(0, f"header dimension must be an integer >= 1, got {dimension!r}")
            if type(count) is not int or count < 0:
                raise IndexLoadError(0, f"header count must be an integer >= 0, got {count!r}")
            index = cls(
                dimension=dimension,
                tokenizer_tag=str(header.get("tokenizer", "")),
                provider_tag=str(header.get("provider", "")),
            )
            offset = len(raw_header)
            chunks, rows, seen = [], [], set()
            while True:
                raw = handle.readline()
                if not raw:
                    break
                if raw.strip():
                    try:
                        record = json.loads(raw.decode("utf-8"))
                        chunk = DocumentChunk.from_dict(record)
                        vector = record["vector"]
                        if type(vector) is not list:
                            raise TypeError(f"vector must be an array, got {vector!r:.80}")
                        # numpy would read true, false and "0.5" as numbers.
                        if not set(map(type, vector)) <= {int, float}:
                            bad = next(value for value in vector if type(value) not in (int, float))
                            raise TypeError(f"vector components must be numbers, got {bad!r:.80}")
                        # An integer past float64's range raises OverflowError.
                        vector = np.array(vector, dtype=np.float64)
                        if vector.shape != (dimension,):
                            raise ValueError(
                                f"vector has shape {vector.shape}, header says {dimension}"
                            )
                        if not np.isfinite(vector).all():
                            raise ValueError("vector entries must be finite")
                    except (ValueError, KeyError, TypeError, OverflowError) as exc:
                        raise IndexLoadError(offset, f"bad entry line: {exc}") from exc
                    if chunk.chunk_id in seen:
                        raise IndexLoadError(
                            offset, f"chunk_id {chunk.chunk_id!r} repeats an earlier entry line"
                        )
                    seen.add(chunk.chunk_id)
                    chunks.append(chunk)
                    rows.append(vector)
                offset += len(raw)
        if len(chunks) != count:
            raise IndexLoadError(
                offset, f"header count {count} but the file holds {len(chunks)} entry lines"
            )
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dimension)
        del rows  # the per-line arrays, before _merge copies the matrix bucket-major
        index._merge(chunks, matrix)
        return index
