"""Page-scoped chunking: split PageContent into chunks of at most 600 tokens.

Chunks never cross pages. A page's segments, in page order, are its
narrative (when not empty), its serialized tables and its serialized
charts; blank lines join them into one page string. The packer fills each
chunk greedily: a table or chart of at most ``chunk_size`` tokens that does
not fit in the current chunk moves to the next one whole, and every other
token (narrative, or an oversized table or chart) packs one at a time.
One ``split_pages`` call joins every segment of its pages with blank
lines into one string and finds that string's token starts in one
vectorized pass. Each code point has one of three classes, taken from the
tokenizer's own pattern: whitespace (the pattern matches nothing at it), a
word character (it and a digit make one token) or other. A token starts
where the class is not whitespace and differs from the one before. The
ASCII classes are a table built at import, read by one ``bytes.translate``
over the string; each distinct code point past ASCII is classified once
in the call that meets it, and nothing is kept between calls. A
segment's token count is the difference of two ``searchsorted`` positions,
and a cut at token ``t`` falls at the start of token ``t``, so joining a
page's chunks reproduces the page string byte for byte. A
whitespace-only page is one zero-token chunk (which
``VectorIndex.add_pages`` does not store); an empty page yields none.
Chunk records are typed: a field of the wrong kind, such as a ``year`` of
``"2013"``, raises TypeError, and a string field holding a lone surrogate
raises ValueError. The quarter rule (``check_quarter``) and the UTF-8 rule
(``_lone_surrogate``) live here, as do the table formats and the default
eval thread count, because every command loads this module; ``layout``,
``preprocess`` and ``evaluation`` re-export them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import check_count, check_record
from .tokens import _TOKEN_RE

if TYPE_CHECKING:
    from .layout import DocumentAttributes
    from .preprocess import PageContent

DEFAULT_CHUNK_SIZE = 600

# The metadata fields that hold integers; every other one holds a string.
INTEGER_FIELDS = ("page_number", "year")

# The table serializations (``preprocess``) and the default number of eval
# threads (``evaluation``), which ``cli``'s settings read too.
TABLE_FORMATS = ("json", "dataframe")
DEFAULT_EVAL_WORKERS = 4

_SEPARATOR = "\n\n"

# A code point's class; a token is a maximal run of one class other than
# whitespace.
_WHITESPACE, _WORD, _OTHER = 0, 1, 2


def _char_class(char: str) -> int:
    """``char``'s class under the tokenizer's pattern: whitespace if the
    pattern matches nothing at it, a word character if it and a digit make
    one token, other if not."""
    if not _TOKEN_RE.match(char):
        return _WHITESPACE
    return _WORD if _TOKEN_RE.fullmatch(char + "0") else _OTHER


# A ``bytes.translate`` table: each ASCII byte -> its class (no other byte
# occurs in ASCII text).
_ASCII_CLASSES = bytes(map(_char_class, map(chr, range(128)))).ljust(256, b"\0")

_QUARTER_RE = re.compile(r"Q[1-4]")


def check_quarter(quarter: str | None) -> None:
    """Refuse a quarter that is neither None nor one of Q1..Q4."""
    if quarter is not None and not _QUARTER_RE.fullmatch(quarter):
        raise ValueError(f"quarter must match Q1..Q4, got {quarter!r}")


def _lone_surrogate(text: str) -> str | None:
    """What keeps UTF-8 from encoding ``text``: its first lone surrogate
    (which a JSON ``"\\ud800"`` escape decodes to), or None if there is none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"lone surrogate U+{ord(text[exc.start]):04X} at character {exc.start}"
    return None


def _check_types(record, types: Iterable[tuple[str, tuple]]) -> None:
    """Raise TypeError naming the first field of ``record`` whose value's
    exact type (so a bool is no int) is none of its ``types``, or
    ValueError for the first string that UTF-8 cannot encode (a lone
    surrogate, which a JSON ``"\\ud800"`` escape decodes to and which
    ``VectorIndex.persist`` could not write). An ASCII string, told in
    O(1), is never encoded."""
    for name, allowed in types:
        value = getattr(record, name)
        if type(value) not in allowed:
            raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, got {value!r}")
        if type(value) is str and not value.isascii() and (surrogate := _lone_surrogate(value)):
            raise ValueError(f"{name} holds a {surrogate}")


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
    def from_dict(cls, data) -> "ChunkMetadata":
        """The metadata of a record ``as_dict`` wrote; anything else, such as
        a list or a misspelt ``compnay`` key, raises ValueError."""
        check_record(data, "metadata", _RECORD_KEYS)
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
# The keys a metadata record may hold, in record order: the fields and
# "region" (a dict, so each line's check looks a key up by its hash).
_RECORD_KEYS = dict.fromkeys([*_METADATA_TYPES, "region"])


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


def _token_starts(text: str) -> np.ndarray:
    """The offset in ``text`` of each of its tokens' first character, in order."""
    # One byte a code point: the ASCII ones' classes, and "?" stands in for
    # any other code point (a lone surrogate too) until its class is set.
    kinds = bytearray(text.encode("ascii", "replace").translate(_ASCII_CLASSES))
    classes = np.frombuffer(kinds, np.uint8)
    if not text.isascii():
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        high = (points > 127).nonzero()[0]
        points = points[high]
        distinct = sorted(set(points.tolist()))
        table = np.array([_char_class(chr(point)) for point in distinct], np.uint8)
        classes[high] = table[np.searchsorted(distinct, points)]
    previous = np.frombuffer((bytes([_WHITESPACE]) + kinds)[:-1], np.uint8)  # before the text: whitespace
    return ((classes != previous) & (classes != _WHITESPACE)).nonzero()[0]


def split_pages(
    pages: Iterable[PageContent],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    attributes: DocumentAttributes | None = None,
) -> list[DocumentChunk]:
    """Split pages into chunks of at most chunk_size tokens.

    Joining one page's chunk texts in ordinal order reproduces that page's
    combined text exactly; an empty page yields no chunks.
    """
    check_count("chunk_size", chunk_size)
    laid = [(page, _segments(page)) for page in pages]
    segments = [segment for _, page_segments in laid for segment in page_segments]
    # Every page's segments in one string; a blank line parts any two, so no
    # token spans two segments, and a page's text is a slice of it.
    text = _SEPARATOR.join(segment for segment, _ in segments)
    starts = _token_starts(text)
    # Segment i opens at character begins[i] and token firsts[i]; the last
    # entries are one separator past the text's end and its token count.
    begins = list(accumulate((len(segment) + len(_SEPARATOR) for segment, _ in segments), initial=0))
    firsts = starts.searchsorted(begins).tolist()

    chunks: list[DocumentChunk] = []
    i = 0  # the page's first segment
    for page, page_segments in laid:
        j = i + len(page_segments)
        begin, end = begins[i], begins[j] - len(_SEPARATOR)
        edges = firsts[i : j + 1]  # each segment's first token, then the page's token count
        i = j
        if end <= begin:  # an empty page, or no segment at all
            continue
        cuts = [edges[0]]  # the token that opens each chunk
        count = 0  # tokens in the open chunk
        for (_, protected), first, last in zip(page_segments, edges, edges[1:]):
            size = last - first
            if protected and size <= chunk_size:
                # A table or chart that fits in one chunk moves to a chunk whole.
                if count + size > chunk_size:
                    cuts.append(first)
                    count = 0
                count += size
            else:
                # Every other token packs one at a time: a cut falls each
                # time the open chunk is full.
                opened = range(first + chunk_size - count, last, chunk_size)
                cuts += opened
                count += size - len(opened) * chunk_size
        # The first chunk opens at the page start and the last closes at its
        # end, so a whitespace-only page is one zero-token chunk.
        cuts.append(edges[-1])
        bounds = [begin, *starts[cuts[1:-1]].tolist(), end]
        metadata = ChunkMetadata(
            document_id=page.document_id,
            page_number=page.page_number,
            company=attributes.company if attributes else None,
            year=attributes.year if attributes else None,
            quarter=attributes.quarter if attributes else None,
            section_title=page.section_title,
        )
        chunks += [
            DocumentChunk(
                chunk_id=f"{page.document_id}:{page.page_number}:{ordinal}",
                text=text[bounds[ordinal] : bounds[ordinal + 1]],
                token_count=cuts[ordinal + 1] - cuts[ordinal],
                metadata=metadata,
            )
            for ordinal in range(len(cuts) - 1)
        ]
    return chunks
