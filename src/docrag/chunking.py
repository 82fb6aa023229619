"""Page-scoped chunking: split PageContent into ≤600-token pieces.

Chunks never cross pages. Within a page the narrative, serialized tables,
and serialized charts are joined by blank lines into one string, then cut
greedily at token boundaries. A serialized table or chart that fits in a
single chunk is kept whole; cutting happens at character offsets chosen so
that joining a page's chunks reproduces the page string byte for byte.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .layout import DocumentAttributes, check_quarter
from .preprocess import PageContent
from .tables import BoundingRegion
from .tokens import DEFAULT_TOKENIZER

logger = logging.getLogger(__name__)

DEFAULT_CHUNK_SIZE = 600

_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class ChunkMetadata:
    document_id: str
    page_number: int
    company: str | None = None
    year: int | None = None
    quarter: str | None = None
    section_title: str | None = None
    region: BoundingRegion | None = None

    def __post_init__(self):
        if self.page_number < 1:
            raise ValueError("page_number must be >= 1")
        check_quarter(self.quarter)

    def as_dict(self) -> dict:
        return {
            "document_id": self.document_id,
            "page_number": self.page_number,
            "company": self.company,
            "year": self.year,
            "quarter": self.quarter,
            "section_title": self.section_title,
            "region": self.region.to_dict() if self.region else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkMetadata":
        region = data.get("region")
        return cls(
            document_id=data["document_id"],
            page_number=data["page_number"],
            company=data.get("company"),
            year=data.get("year"),
            quarter=data.get("quarter"),
            section_title=data.get("section_title"),
            region=BoundingRegion.from_dict(region) if region else None,
        )


@dataclass(frozen=True)
class DocumentChunk:
    chunk_id: str
    text: str
    token_count: int
    metadata: ChunkMetadata

    def as_dict(self) -> dict:
        return {
            "chunk_id": self.chunk_id,
            "text": self.text,
            "token_count": self.token_count,
            "metadata": self.metadata.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DocumentChunk":
        return cls(
            chunk_id=data["chunk_id"],
            text=data["text"],
            token_count=data["token_count"],
            metadata=ChunkMetadata.from_dict(data["metadata"]),
        )


def combine_page_text(page: PageContent) -> str:
    """Join a page's narrative, table, and chart texts with blank lines."""
    segments = []
    if page.narrative_text:
        segments.append(page.narrative_text)
    segments.extend(page.table_texts)
    segments.extend(page.chart_texts)
    return _SEPARATOR.join(segments)


def _protected_ranges(page: PageContent) -> list[tuple[int, int]]:
    # Character ranges of serialized table/chart segments within the page string.
    ranges = []
    offset = len(page.narrative_text) if page.narrative_text else 0
    first = not page.narrative_text
    for segment in list(page.table_texts) + list(page.chart_texts):
        if not first:
            offset += len(_SEPARATOR)
        first = False
        ranges.append((offset, offset + len(segment)))
        offset += len(segment)
    return ranges


def _split_page(
    page: PageContent,
    chunk_size: int,
    attributes: DocumentAttributes | None,
) -> list[DocumentChunk]:
    text = combine_page_text(page)
    if not text:
        return []
    spans = DEFAULT_TOKENIZER.spans(text)
    metadata = ChunkMetadata(
        document_id=page.document_id,
        page_number=page.page_number,
        company=attributes.company if attributes else None,
        year=attributes.year if attributes else None,
        quarter=attributes.quarter if attributes else None,
        section_title=page.section_title,
    )

    def make(ordinal: int, piece: str, token_count: int) -> DocumentChunk:
        return DocumentChunk(
            chunk_id=f"{page.document_id}:{page.page_number}:{ordinal}",
            text=piece,
            token_count=token_count,
            metadata=metadata,
        )

    if not spans:
        # Whitespace-only page: one zero-token chunk keeps reassembly exact.
        return [make(0, text, 0)]

    # Units: a run of tokens that must stay together. A protected segment
    # that fits in one chunk forms a single unit; an oversized one
    # decomposes to per-token units, so it splits like plain text.
    blocks = _protected_ranges(page)
    units: list[tuple[int, int]] = []  # (first token index, token count)
    i = 0
    for block_start, block_end in blocks:
        while i < len(spans) and spans[i][0] < block_start:
            units.append((i, 1))
            i += 1
        j = i
        while j < len(spans) and spans[j][0] < block_end:
            j += 1
        if 0 < j - i <= chunk_size:
            units.append((i, j - i))
        else:
            units.extend((k, 1) for k in range(i, j))
        i = j
    units.extend((k, 1) for k in range(i, len(spans)))

    cut_tokens = [0]  # token index opening each chunk
    count = 0
    for first_token, size in units:
        if size > chunk_size:
            # Indivisible unit wider than a chunk: isolate it, never drop it.
            logger.warning(
                "unit of %d tokens exceeds chunk_size=%d on %s page %d",
                size, chunk_size, page.document_id, page.page_number,
            )
            if count:
                cut_tokens.append(first_token)
            count = size
            continue
        if count + size > chunk_size:
            cut_tokens.append(first_token)
            count = 0
        count += size

    chunks = []
    for ordinal, start_token in enumerate(cut_tokens):
        char_start = 0 if start_token == 0 else spans[start_token][0]
        if ordinal + 1 < len(cut_tokens):
            next_token = cut_tokens[ordinal + 1]
            char_end = spans[next_token][0]
            token_count = next_token - start_token
        else:
            char_end = len(text)
            token_count = len(spans) - start_token
        chunks.append(make(ordinal, text[char_start:char_end], token_count))
    return chunks


def split_pages(
    pages: Iterable[PageContent],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    attributes: DocumentAttributes | None = None,
) -> list[DocumentChunk]:
    """Split pages into chunks of at most chunk_size tokens.

    Joining one page's chunk texts in ordinal order reproduces that page's
    combined text exactly; an empty page yields no chunks.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: list[DocumentChunk] = []
    for page in pages:
        chunks.extend(_split_page(page, chunk_size, attributes))
    return chunks


def write_chunks_jsonl(chunks: Iterable[DocumentChunk], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(json.dumps(chunk.as_dict(), ensure_ascii=False) + "\n")


def read_chunks_jsonl(path: str | Path) -> list[DocumentChunk]:
    chunks = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                chunks.append(DocumentChunk.from_dict(json.loads(line)))
    return chunks
