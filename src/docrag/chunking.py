"""Page-scoped chunking: split PageContent into chunks of at most 600 tokens.

Chunks never cross pages. A page's segments, in page order, are its
narrative (when not empty), its serialized tables and its serialized
charts; blank lines join them into one page string. The packer fills each
chunk greedily: a table or chart of at most ``chunk_size`` tokens that does
not fit in the current chunk moves to the next one whole, and every other
token (narrative, or an oversized table or chart) packs one at a time.
Cuts cost a segment's words, not its tokens. No token holds whitespace,
and ``str.split`` and the tokenizer's ``\\s`` split on the same
characters, so a segment's token count is the sum of its words' counts,
each read from one memo of word -> token count (``_word_tokens``, a
``Memo`` cleared whole once it holds more than ``_WORD_MEMO_LIMIT``
words). A cut's word is a bisection of the running counts; its offset
comes from splitting the words since the previous cut off a window of
the segment that grows until it reaches the word, so placing every cut
reads the segment about once; a cut inside a word of several tokens
tokenizes that word alone. Each cut falls at the start of a token, so
joining a page's chunks reproduces the page string byte for byte. A
whitespace-only page is one zero-token chunk (which ``VectorIndex.add_pages``
does not store); an empty page yields none.
Chunk records are typed: a field of the wrong kind, such as a ``year`` of
``"2013"``, raises TypeError, and a string field holding a lone surrogate
raises ValueError. The quarter rule (``check_quarter``) and the UTF-8 rule
(``_lone_surrogate``) live here, as do the table formats and the default
eval thread count, because every command loads this module; ``layout``,
``preprocess`` and ``evaluation`` re-export them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable

from .embedding import Memo
from .tokens import DEFAULT_TOKENIZER, count_tokens

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

# Most words the token-count memo holds between pages.
_WORD_MEMO_LIMIT = 2**16

# word -> its token count, shared by every caller: a count is a function of
# the word alone, so sharing changes no result, and documents share most of
# their words. Cleared whole, never in part, once it holds more than
# ``_WORD_MEMO_LIMIT`` words; a count already read stays valid.
_word_tokens = Memo(count_tokens)

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


def _token_starts(segment: str, words: list[str], sizes: list[int], indices: range) -> list[int]:
    """The offset in ``segment`` of the start of each token at ``indices``
    (ascending), given ``words = segment.split()`` and their token counts."""
    ends = list(accumulate(sizes))  # ends[j]: the tokens of words[: j + 1]
    width = len(segment) / len(words)  # characters a word spans, with its whitespace
    starts = []
    word = position = 0  # word ``word`` starts at or after ``position``
    spanned, inside = -1, []  # a word and its tokens' offsets in it
    for index in indices:
        target = bisect_right(ends, index)  # the word holding token ``index``
        skip = target - word
        # Skip ``skip`` whole words: the window must also reach the target's
        # first character, and grows until it does.
        span = int((skip + 1) * width) + 8
        while True:
            window = segment[position : position + span]
            parts = window.split(None, skip)
            if len(parts) > skip:
                break
            span *= 2
        position += len(window) - len(parts[-1])
        word = target
        inner = index - ends[target] + sizes[target]  # the token's place in its word
        if inner and spanned != target:
            spanned, inside = target, [start for start, _ in DEFAULT_TOKENIZER.spans(words[target])]
        starts.append(position + inside[inner] if inner else position)
    return starts


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
        words = segment.split()
        sizes = list(map(_word_tokens.__getitem__, words))
        size = sum(sizes)
        if protected and size <= chunk_size:
            # A table or chart that fits in one chunk moves to a chunk whole.
            if count + size > chunk_size:
                cuts.append((tokens, offset + len(segment) - len(segment.lstrip())))
                count = 0
            count += size
        else:
            # Every other token packs one at a time: a cut falls each time
            # the open chunk is full.
            indices = range(chunk_size - count, size, chunk_size)
            if indices:
                starts = _token_starts(segment, words, sizes, indices)
                cuts += [(tokens + index, offset + start) for index, start in zip(indices, starts)]
            count += size - len(indices) * chunk_size
        tokens += size
        offset += len(segment) + len(_SEPARATOR)
    if len(_word_tokens) > _WORD_MEMO_LIMIT:
        _word_tokens.clear()

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
    if type(chunk_size) is not int:  # RetrievalConfig.k's rule: True and 2.5 are refused
        raise ValueError(f"chunk_size must be an integer, got {chunk_size!r}")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: list[DocumentChunk] = []
    for page in pages:
        chunks.extend(_split_page(page, chunk_size, attributes))
    return chunks

