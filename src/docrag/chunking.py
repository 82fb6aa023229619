"""Page-scoped chunking: split PageContent into chunks of at most 600 tokens.

Chunks never cross pages. A page's segments, in page order, are its
narrative (when not empty), its serialized tables and its serialized
charts; blank lines join them into one page string. The packer fills each
chunk greedily: a table or chart of at most ``chunk_size`` tokens that does
not fit in the current chunk moves to the next one whole, and every other
token (narrative, or an oversized table or chart) packs one at a time.
Each cut falls at the start of a token, so joining a page's chunks
reproduces the page string byte for byte. A whitespace-only page is one
zero-token chunk; an empty page yields none. Chunk records are typed: a
field of the wrong kind, such as a ``year`` of ``"2013"``, raises TypeError.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Iterable

from .layout import DocumentAttributes, check_quarter
from .preprocess import PageContent
from .tokens import DEFAULT_TOKENIZER

DEFAULT_CHUNK_SIZE = 600

# The metadata fields that hold integers; every other one holds a string.
INTEGER_FIELDS = ("page_number", "year")

_SEPARATOR = "\n\n"


def _check_types(record, types: tuple) -> None:
    """Raise TypeError naming the first field of ``record`` whose value's
    exact type (so a bool is no int) is none of its ``types``."""
    for name, allowed in types:
        value = getattr(record, name)
        if type(value) not in allowed:
            raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, got {value!r}")


@dataclass(frozen=True)
class ChunkMetadata:
    document_id: str
    page_number: int
    company: str | None = None
    year: int | None = None
    quarter: str | None = None
    section_title: str | None = None

    def __post_init__(self):
        _check_types(self, _METADATA_TYPES)
        if self.page_number < 1:
            raise ValueError("page_number must be >= 1")
        check_quarter(self.quarter)

    def as_dict(self) -> dict:
        # "region" stays in the record, always null, so index files keep their bytes.
        return {**{name: getattr(self, name) for name, _ in _METADATA_TYPES}, "region": None}

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkMetadata":
        if data.get("region") is not None:
            raise ValueError(f"region must be null, got {data['region']!r}")
        return cls(**{name: data.get(name) for name, _ in _METADATA_TYPES})


# Each metadata field in record order with the types it may hold: int for
# an integer field, str for any other, and None as well if it has a default.
_METADATA_TYPES = tuple(
    (item.name, (kind, type(None)) if item.default is None else (kind,))
    for item in fields(ChunkMetadata)
    for kind in [int if item.name in INTEGER_FIELDS else str]
)


@dataclass(frozen=True)
class DocumentChunk:
    chunk_id: str
    text: str
    token_count: int
    metadata: ChunkMetadata

    def __post_init__(self):
        _check_types(self, (("chunk_id", (str,)), ("text", (str,)), ("token_count", (int,)),
                            ("metadata", (ChunkMetadata,))))
        if self.token_count < 0:
            raise ValueError("token_count must be >= 0")

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


def _segments(page: PageContent) -> list[tuple[str, bool]]:
    # The page's segments in page order, each marked whether it is protected.
    segments = [(page.narrative_text, False)] if page.narrative_text else []
    segments += [(text, True) for text in (*page.table_texts, *page.chart_texts)]
    return segments


def combine_page_text(page: PageContent) -> str:
    """Join a page's narrative, table, and chart texts with blank lines."""
    return _SEPARATOR.join(text for text, _ in _segments(page))


def _split_page(
    page: PageContent,
    chunk_size: int,
    attributes: DocumentAttributes | None,
) -> list[DocumentChunk]:
    text = combine_page_text(page)
    if not text:
        return []
    starts = [start for start, _ in DEFAULT_TOKENIZER.spans(text)]

    cuts = [0]  # token index opening each chunk
    count = offset = 0
    for segment, protected in _segments(page):
        first = bisect_left(starts, offset)
        offset += len(segment)
        last = bisect_left(starts, offset)
        offset += len(_SEPARATOR)
        size = last - first
        if protected and size <= chunk_size:
            # A table or chart that fits in one chunk moves to a chunk whole.
            if count + size > chunk_size:
                cuts.append(first)
                count = 0
            count += size
            continue
        for token in range(first, last):
            if count == chunk_size:
                cuts.append(token)
                count = 0
            count += 1

    # The first chunk opens at the page start and the last closes at its
    # end, so a whitespace-only page is one zero-token chunk.
    char_cuts = [0, *(starts[token] for token in cuts[1:]), len(text)]
    token_cuts = [*cuts, len(starts)]
    metadata = ChunkMetadata(
        document_id=page.document_id,
        page_number=page.page_number,
        company=attributes.company if attributes else None,
        year=attributes.year if attributes else None,
        quarter=attributes.quarter if attributes else None,
        section_title=page.section_title,
    )
    return [
        DocumentChunk(
            chunk_id=f"{page.document_id}:{page.page_number}:{ordinal}",
            text=text[char_cuts[ordinal]:char_cuts[ordinal + 1]],
            token_count=token_cuts[ordinal + 1] - token_cuts[ordinal],
            metadata=metadata,
        )
        for ordinal in range(len(cuts))
    ]


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

