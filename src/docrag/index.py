"""In-memory vector index: exact filtered top-k cosine retrieval.

A deliberate non-ANN design: corpora here are thousands of chunks, and a
full scan over one contiguous matrix is both fast enough and
oracle-testable. A snapshot holds each chunk once, in ascending chunk_id
order: its id, the chunk, its metadata as a dict (built once, on insert)
and its vector as a row of a float64 matrix, with the row norms beside it.
Each metadata field is also kept as a column of int32 codes, one per
row, with a table from value to code, so a filter is a mask over a
column rather than a scan over the dicts.

A filter ``(name, value)`` keeps the chunks whose ``metadata.get(name) ==
value`` under Python equality: ``2021``, ``2021.0`` and ``True == 1``
match as ``==`` says, a JSON object or array (such as a ``region`` dict)
matches an equal one, and a name that is no metadata field reads ``None``
in every chunk. Several filters must all hold. Results sort by
descending cosine score, ties by ascending chunk_id.

Readers work on immutable snapshots; every write goes through one merge,
serialized by a lock, so concurrent searches see a consistent index.
Persistence is JSON-lines with a header line, written atomically and
synced to disk before it replaces the old file.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .chunking import ChunkMetadata, DocumentChunk
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
    if not all(math.isfinite(v) for v in vector):
        raise ProviderError(f"provider {provider.tag} returned non-finite values")
    return vector


@dataclass(frozen=True)
class IndexEntry:
    chunk: DocumentChunk
    vector: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(map(float, self.vector)))
        if not all(map(math.isfinite, self.vector)):
            raise ValueError("vector entries must be finite")


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = DEFAULT_K
    filters: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "filters", tuple((f, v) for f, v in self.filters))


@dataclass(frozen=True)
class RetrievalResult:
    chunk: DocumentChunk
    score: float


# Every metadata field; a filter on any other name reads None in each chunk.
_FIELDS = tuple(f.name for f in fields(ChunkMetadata))


class _Codebook:
    """One metadata field's value -> code table. Equal hashable values share
    a code; each unhashable value (a JSON object or array) gets a code of
    its own. A merge extends a copy, so a published snapshot's table never
    changes; values of replaced rows stay until ``_merge`` rebuilds the
    table, once it holds more than twice as many values as the index rows."""

    def __init__(self, values=(), codes=None, loose=()):
        self.values = list(values)  # code -> the first value given it
        self.codes = dict(codes or {})  # hashable value -> code
        self.loose = list(loose)  # codes of unhashable values

    def copy(self) -> "_Codebook":
        return _Codebook(self.values, self.codes, self.loose)

    def encode(self, values: Sequence) -> np.ndarray:
        """The codes of ``values``, giving each new value the next code."""
        encoded = []
        for value in values:
            code = len(self.values)
            try:
                code = self.codes.setdefault(value, code)
            except TypeError:
                self.loose.append(code)
            if code == len(self.values):
                self.values.append(value)
            encoded.append(code)
        return np.array(encoded, dtype=np.int32)

    def lookup(self, value) -> list[int]:
        """The codes of the values ``== value``."""
        try:
            candidates = [self.codes[value], *self.loose]
        except KeyError:
            candidates = self.loose
        except TypeError:  # an unhashable value is compared with every value
            candidates = range(len(self.values))
        return [code for code in candidates if self.values[code] == value]


def _joined(old: np.ndarray, new: np.ndarray, take: np.ndarray | None) -> np.ndarray:
    """``new``'s rows after ``old``'s, then the rows ``take`` (None: all)."""
    joined = np.concatenate([old, new]) if len(old) else new
    return joined if take is None else joined[take]


# Snapshot shared by concurrent readers; replaced wholesale on writes.
# Position i of every sequence describes the chunk ids[i].
@dataclass(frozen=True)
class _Snapshot:
    ids: tuple[str, ...]
    chunks: tuple[DocumentChunk, ...]
    metadata: tuple[dict, ...]
    matrix: np.ndarray
    norms: np.ndarray
    safe_norms: np.ndarray  # norms with 0 replaced by 1: the score divisor
    zero_rows: int  # rows whose norm is 0
    books: dict[str, _Codebook]  # field -> its codebook
    columns: dict[str, np.ndarray]  # field -> int32 code of each row


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
            metadata=(),
            matrix=np.empty((0, dimension), dtype=np.float64),
            norms=np.empty((0,), dtype=np.float64),
            safe_norms=np.empty((0,), dtype=np.float64),
            zero_rows=0,
            books={name: _Codebook() for name in _FIELDS},
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
        return IndexEntry(chunk=snapshot.chunks[position], vector=snapshot.matrix[position].tolist())

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
        chunks' metadata is encoded; old codes are reordered with the rows."""
        with self._write_lock:
            old = self._snapshot
            ids = old.ids + tuple(chunk.chunk_id for chunk in chunks)
            last = {chunk_id: position for position, chunk_id in enumerate(ids)}
            sorted_ids = tuple(sorted(last))
            order = [last[chunk_id] for chunk_id in sorted_ids]
            # Rows that arrive unrepeated and in id order stay where they are.
            take = None if sorted_ids == ids else np.array(order, dtype=np.intp)
            all_chunks = old.chunks + tuple(chunks)
            added = tuple(chunk.metadata.as_dict() for chunk in chunks)
            metadata = old.metadata + added
            metadata = tuple(metadata[p] for p in order)
            books, columns = {}, {}
            for name in _FIELDS:
                book = books[name] = old.books[name].copy()
                codes = book.encode([row.get(name) for row in added])
                columns[name] = _joined(old.columns[name], codes, take)
                if len(book.values) > 2 * len(sorted_ids):
                    # Mostly values of replaced rows: encode the live rows
                    # afresh (at most once per len(rows) values added).
                    book = books[name] = _Codebook()
                    columns[name] = book.encode([row.get(name) for row in metadata])
            norms = _joined(old.norms, np.linalg.norm(rows, axis=1), take)
            zero = norms == 0.0
            self._snapshot = _Snapshot(
                ids=sorted_ids,
                chunks=tuple(all_chunks[p] for p in order),
                metadata=metadata,
                matrix=_joined(old.matrix, rows, take),
                norms=norms,
                safe_norms=np.where(zero, 1.0, norms),
                zero_rows=int(zero.sum()),
                books=books,
                columns=columns,
            )

    def search(self, query_vector: Sequence[float], config: RetrievalConfig) -> list[RetrievalResult]:
        """Exact top-k by cosine among entries passing every metadata filter.

        Results sort by descending score, ties by ascending chunk_id. An
        empty index (or one emptied by the filters) yields no results. A
        query with a NaN or infinite component raises ``ValueError``.
        """
        if len(query_vector) != self.dimension:
            raise ValueError(
                f"dimension mismatch: index is {self.dimension}, query is {len(query_vector)}"
            )
        query = np.asarray(query_vector, dtype=np.float64)
        if not np.isfinite(query).all():
            raise ValueError("query vector has a non-finite component")
        snapshot = self._snapshot
        mask = None
        for name, value in config.filters:
            if name not in snapshot.columns:
                if value is None:  # every chunk reads None for a field it lacks
                    continue
                return []
            codes = snapshot.columns[name]
            matches = snapshot.books[name].lookup(value)
            hit = codes == matches[0] if len(matches) == 1 else np.isin(codes, matches)
            mask = hit if mask is None else mask & hit
        if mask is None:  # no copy: one product over the whole matrix
            kept, rows, safe_norms = None, snapshot.matrix, snapshot.safe_norms
        else:
            kept = np.flatnonzero(mask)
            rows, safe_norms = snapshot.matrix[kept], snapshot.safe_norms[kept]
        if not len(rows):
            return []

        query_norm = float(np.linalg.norm(query))
        if query_norm == 0.0:
            logger.warning("search with an all-zero query vector; all scores 0")
            scores = np.zeros(len(rows))
        else:
            scores = (rows @ query) / (safe_norms * query_norm)
            if snapshot.zero_rows:
                zero_rows = (snapshot.norms if kept is None else snapshot.norms[kept]) == 0.0
                if zero_rows.any():
                    logger.warning("%d all-zero vectors in index scored 0", int(zero_rows.sum()))
                scores[zero_rows] = 0.0

        # Every row at least as good as the k-th best (all of them if that
        # is NaN, which a sort puts last), then a stable sort of those: rows
        # are in chunk_id order, so ties break by id.
        negated = -scores
        k = min(config.k, len(negated))
        bound = np.partition(negated, k - 1)[k - 1]
        candidates = np.flatnonzero(~(negated > bound))
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
                for chunk, metadata, vector in zip(snapshot.chunks, snapshot.metadata, snapshot.matrix):
                    record = {
                        "chunk_id": chunk.chunk_id,
                        "text": chunk.text,
                        "token_count": chunk.token_count,
                        "metadata": metadata,
                        "vector": vector.tolist(),
                    }
                    handle.write(json.dumps(record, ensure_ascii=False) + "\n")
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

        A file whose entry lines disagree in number with the header's
        ``count`` (such as one cut at a line boundary) is refused at its
        end offset.
        """
        with open(path, "rb") as handle:
            raw_header = handle.readline()
            try:
                header = json.loads(raw_header.decode("utf-8"))
                dimension = int(header["dimension"])
                count = int(header["count"])
            except (ValueError, KeyError, TypeError) as exc:
                raise IndexLoadError(0, f"bad header line: {exc}") from exc
            index = cls(
                dimension=dimension,
                tokenizer_tag=str(header.get("tokenizer", "")),
                provider_tag=str(header.get("provider", "")),
            )
            offset = len(raw_header)
            chunks, rows = [], []
            while True:
                raw = handle.readline()
                if not raw:
                    break
                if raw.strip():
                    try:
                        record = json.loads(raw.decode("utf-8"))
                        chunk = DocumentChunk.from_dict(record)
                        vector = np.array(record["vector"], dtype=np.float64)
                        if vector.shape != (dimension,):
                            raise ValueError(
                                f"vector has shape {vector.shape}, header says {dimension}"
                            )
                        if not np.isfinite(vector).all():
                            raise ValueError("vector entries must be finite")
                    except (ValueError, KeyError, TypeError) as exc:
                        raise IndexLoadError(offset, f"bad entry line: {exc}") from exc
                    chunks.append(chunk)
                    rows.append(vector)
                offset += len(raw)
        if len(chunks) != count:
            raise IndexLoadError(
                offset, f"header count {count} but the file holds {len(chunks)} entry lines"
            )
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dimension)
        del rows  # the per-line arrays: one copy of the vectors at a time
        index._merge(chunks, matrix)
        return index
