"""Page-scoped chunking: split PageContent into chunks of at most 600 tokens.

Chunks never cross pages. A page's segments, in page order, are its
narrative (when not empty), its serialized tables and its serialized
charts; blank lines join them into one page string. The packer fills each
chunk greedily: a table or chart of at most ``chunk_size`` tokens that does
not fit in the current chunk moves to the next one whole, and every other
token (narrative, or an oversized table or chart) packs one at a time.
Cuts are computed from per-segment token counts: each segment is
tokenized once into pieces (a token with the whitespace before it), the
cuts' token indices follow from the counts, and only the pieces before a
cut are summed to place it. Each cut falls at the start of a token, so
joining a page's chunks reproduces the page string byte for byte. A
whitespace-only page is one zero-token chunk; an empty page yields none.
Chunk records are typed: a field of the wrong kind, such as a ``year`` of
``"2013"``, raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

from .layout import DocumentAttributes, check_quarter
from .preprocess import PageContent
from .tokens import DEFAULT_TOKENIZER

DEFAULT_CHUNK_SIZE = 600

# The metadata fields that hold integers; every other one holds a string.
INTEGER_FIELDS = ("page_number", "year")

_SEPARATOR = "\n\n"


def _check_types(record, types: Iterable[tuple[str, tuple]]) -> None:
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
        _check_types(self, _METADATA_TYPES.items())
        if self.page_number < 1:
            raise ValueError("page_number must be >= 1")
        check_quarter(self.quarter)

    def as_dict(self) -> dict:
        # "region" stays in the record, always null, so index files keep their bytes.
        return {**{name: getattr(self, name) for name in _METADATA_TYPES}, "region": None}

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkMetadata":
        """The metadata of a record ``as_dict`` wrote; any other key, such as
        a misspelt ``compnay``, raises ValueError."""
        if not data.keys() <= _RECORD_KEYS:
            first = next(key for key in data if key not in _RECORD_KEYS)
            names = ", ".join(_METADATA_TYPES)
            raise ValueError(f"metadata key {first!r} is not a metadata field; the fields are {names}, region")
        if data.get("region") is not None:
            raise ValueError(f"region must be null, got {data['region']!r}")
        return cls(**{name: data.get(name) for name in _METADATA_TYPES})


# Each metadata field in record order -> the types it may hold: int for an
# integer field, str for any other, and None as well if it has a default.
_METADATA_TYPES = {
    item.name: (kind, type(None)) if item.default is None else (kind,)
    for item in fields(ChunkMetadata)
    for kind in [int if item.name in INTEGER_FIELDS else str]
}
# The keys a metadata record may hold: the fields and "region".
_RECORD_KEYS = frozenset([*_METADATA_TYPES, "region"])


def check_filter(name: str, value) -> None:
    """Refuse a filter that no chunk can match by its shape: a name that is
    no metadata field (a typo such as ``compnay``), or a value of a type its
    field never holds (such as a ``year`` of ``"2013"`` or ``2013.0``, or a
    ``page_number`` of ``True``: the type must be exact)."""
    allowed = _METADATA_TYPES.get(name)
    if allowed is None:
        names = ", ".join(_METADATA_TYPES)
        raise ValueError(f"filter {name!r} is not a metadata field; the fields are {names}")
    if type(value) not in allowed:
        raise ValueError(
            f"filter {name!r} must be {' or '.join(t.__name__ for t in allowed)}, got {value!r}"
        )


def checked_filters(filters) -> tuple[tuple[str, object], ...]:
    """``filters``, an iterable of (name, value) pairs, as a tuple of
    pairs, each passed through ``check_filter``."""
    pairs = tuple((name, value) for name, value in filters)
    for name, value in pairs:
        check_filter(name, value)
    return pairs


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
        metadata = data["metadata"]
        if not isinstance(metadata, dict):
            raise TypeError(f"metadata must be an object, got {metadata!r}")
        return cls(
            chunk_id=data["chunk_id"],
            text=data["text"],
            token_count=data["token_count"],
            metadata=ChunkMetadata.from_dict(metadata),
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

    # Each cut is (token index, character offset) of the token opening a chunk.
    cuts = [(0, 0)]
    count = tokens = offset = 0  # tokens in the open chunk, in the page, chars before the segment
    for segment, protected in _segments(page):
        pieces = DEFAULT_TOKENIZER.pieces(segment)
        size = len(pieces)
        if protected and size <= chunk_size:
            # A table or chart that fits in one chunk moves to a chunk whole.
            if count + size > chunk_size:
                head = pieces[0]
                cuts.append((tokens, offset + len(head) - len(head.lstrip())))
                count = 0
            count += size
        else:
            # Every other token packs one at a time: a cut falls each time
            # the open chunk is full.
            done, position = 0, offset  # piece ``done`` begins at ``position``
            for token in range(chunk_size - count, size, chunk_size):
                position += sum(map(len, pieces[done:token]))
                piece = pieces[token]
                cuts.append((tokens + token, position + len(piece) - len(piece.lstrip())))
                done = token
                count -= chunk_size
            count += size
        tokens += size
        offset += len(segment) + len(_SEPARATOR)

    # The first chunk opens at the page start and the last closes at its
    # end, so a whitespace-only page is one zero-token chunk.
    cuts.append((tokens, len(text)))
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
            text=text[start:end],
            token_count=last - first,
            metadata=metadata,
        )
        for ordinal, ((first, start), (last, end)) in enumerate(zip(cuts, cuts[1:]))
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

