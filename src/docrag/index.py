"""In-memory vector index: exact filtered top-k cosine retrieval.

A deliberate non-ANN design: corpora here are thousands of chunks, and a
full scan over one contiguous matrix is both fast enough and
oracle-testable. A snapshot holds each chunk once, in ascending chunk_id
order: its id, the chunk, its metadata as a dict (built once, on insert)
and its vector as a row of a float64 matrix, with the row norms beside it.
Readers work on immutable snapshots; every write goes through one merge,
serialized by a lock, so concurrent searches see a consistent index.
Persistence is JSON-lines with a header line, written atomically.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
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
        object.__setattr__(self, "vector", tuple(float(v) for v in self.vector))
        if not all(math.isfinite(v) for v in self.vector):
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


# Snapshot shared by concurrent readers; replaced wholesale on writes.
# Position i of every field describes the chunk ids[i].
@dataclass(frozen=True)
class _Snapshot:
    ids: tuple[str, ...]
    chunks: tuple[DocumentChunk, ...]
    metadata: tuple[dict, ...]
    matrix: np.ndarray
    norms: np.ndarray


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
        vectors); for a repeated chunk_id the last row wins."""
        with self._write_lock:
            old = self._snapshot
            ids = old.ids + tuple(chunk.chunk_id for chunk in chunks)
            last = {chunk_id: position for position, chunk_id in enumerate(ids)}
            sorted_ids = tuple(sorted(last))
            order = [last[chunk_id] for chunk_id in sorted_ids]
            all_chunks = old.chunks + tuple(chunks)
            metadata = old.metadata + tuple(chunk.metadata.as_dict() for chunk in chunks)
            self._snapshot = _Snapshot(
                ids=sorted_ids,
                chunks=tuple(all_chunks[p] for p in order),
                metadata=tuple(metadata[p] for p in order),
                matrix=np.concatenate([old.matrix, rows])[order],
                norms=np.concatenate([old.norms, np.linalg.norm(rows, axis=1)])[order],
            )

    def search(self, query_vector: Sequence[float], config: RetrievalConfig) -> list[RetrievalResult]:
        """Exact top-k by cosine among entries passing every metadata filter.

        Results sort by descending score, ties by ascending chunk_id. An
        empty index (or one emptied by the filters) yields no results.
        """
        if len(query_vector) != self.dimension:
            raise ValueError(
                f"dimension mismatch: index is {self.dimension}, query is {len(query_vector)}"
            )
        snapshot = self._snapshot
        filters = config.filters
        keep = [
            position
            for position, metadata in enumerate(snapshot.metadata)
            if all(metadata.get(name) == value for name, value in filters)
        ]
        if not keep:
            return []

        query = np.asarray(query_vector, dtype=np.float64)
        query_norm = float(np.linalg.norm(query))
        rows = snapshot.matrix[keep]
        norms = snapshot.norms[keep]
        if query_norm == 0.0:
            logger.warning("search with an all-zero query vector; all scores 0")
            scores = np.zeros(len(keep))
        else:
            zero_rows = norms == 0.0
            if zero_rows.any():
                logger.warning("%d all-zero vectors in index scored 0", int(zero_rows.sum()))
            safe_norms = np.where(zero_rows, 1.0, norms)
            scores = (rows @ query) / (safe_norms * query_norm)
            scores[zero_rows] = 0.0

        # Rows are in chunk_id order, so a stable sort breaks ties by id.
        ranked = np.argsort(-scores, kind="stable")[: config.k]
        return [
            RetrievalResult(chunk=snapshot.chunks[keep[i]], score=float(scores[i])) for i in ranked
        ]

    def persist(self, path: str | Path) -> None:
        """Write the index as JSON-lines, atomically (temp file + rename)."""
        path = Path(path)
        snapshot = self._snapshot
        header = {
            "dimension": self.dimension,
            "count": len(snapshot.ids),
            "tokenizer": self.tokenizer_tag,
            "provider": self.provider_tag,
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
        )
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
            os.replace(temp_name, path)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a persisted index; corruption errors carry a byte offset."""
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
                        chunk = DocumentChunk(
                            chunk_id=record["chunk_id"],
                            text=record["text"],
                            token_count=record["token_count"],
                            metadata=ChunkMetadata.from_dict(record["metadata"]),
                        )
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
        index._merge(chunks, np.array(rows, dtype=np.float64).reshape(len(rows), dimension))
        if len(index) != count:
            logger.warning(
                "index header count %d disagrees with %d loaded entries", count, len(index)
            )
        return index
