"""Layout-analysis payloads: the document model produced by OCR providers.

A payload is a JSON document (schema shipped in docs/layout_payload.schema.json)
holding per-page text blocks with logical roles, extracted table grids,
and figure bounding regions. Parsing validates structure eagerly and
reports the first offending path instead of coercing silently. A string
holding a lone surrogate (which a JSON ``"\\ud800"`` escape decodes to) is
refused too: the index is UTF-8 and cannot hold it. The regions of text
blocks, tables and cells, and table captions, are validated and then
dropped, since no stage reads them; figures keep their regions.

Parsing costs the payload's values, not the reports it might write. A
dropped region that passes one cheap accepting test (``_region_fits``:
exact JSON types, the enclosing page, at least 3 points of 2 numbers
each, every coordinate in ``[0, sys.float_info.max]``) is never built;
anything else takes the full check, ``_parse_region``, so each error keeps
its path, its message and its order. A list's items are parsed without
their path strings, and a list that fails is parsed again with them:
parsing is a pure function of the data, so the same item fails again, now
at its own path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .chunking import _lone_surrogate, check_quarter  # re-exported: the quarter and UTF-8 rules
from .errors import SchemaError
from .tables import BoundingRegion, CellKind, TableCell, TableGrid


class BlockRole(str, Enum):
    PARAGRAPH = "paragraph"
    SECTION_TITLE = "section_title"
    IMAGE_CAPTION = "image_caption"
    PAGE_FOOTER = "page_footer"
    PAGE_HEADER = "page_header"


@dataclass(frozen=True)
class TextBlock:
    role: BlockRole
    content: str


@dataclass(frozen=True)
class LayoutPage:
    page_number: int
    text_blocks: tuple[TextBlock, ...]
    tables: tuple[TableGrid, ...]
    figures: tuple[BoundingRegion, ...]


@dataclass(frozen=True)
class DocumentAttributes:
    """Document-level metadata carried into chunk metadata."""

    company: str | None = None
    year: int | None = None
    quarter: str | None = None

    def __post_init__(self):
        check_quarter(self.quarter)


@dataclass(frozen=True)
class LayoutPayload:
    document_id: str
    pages: tuple[LayoutPage, ...]
    attributes: DocumentAttributes | None = None

    def __post_init__(self):
        previous = 0
        for page in self.pages:
            if previous == 0 and page.page_number != 1:
                raise ValueError("page numbers must start at 1")
            if page.page_number <= previous:
                raise ValueError("page numbers must be strictly increasing")
            previous = page.page_number


def _expect(data: Any, key: str, types, path: str, *, optional: bool = False):
    if not isinstance(data, dict):
        raise SchemaError(path, f"expected object, got {type(data).__name__}")
    if key not in data:
        if optional:
            return None
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    value = data[key]
    if optional and value is None:
        return None
    if not isinstance(value, types) or (types is int and isinstance(value, bool)):
        want = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise SchemaError(f"{path}.{key}" if path else key, f"expected {want}, got {type(value).__name__}")
    if isinstance(value, str) and not value.isascii() and (surrogate := _lone_surrogate(value)):
        raise SchemaError(f"{path}.{key}" if path else key, surrogate)
    return value


def _parse_region(data: Any, path: str, expected_page: int | None = None) -> BoundingRegion:
    page_number = _expect(data, "page_number", int, path)
    polygon = _expect(data, "polygon", list, path)
    for i, point in enumerate(polygon):
        if (
            not isinstance(point, (list, tuple))
            or len(point) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in point)
        ):
            raise SchemaError(f"{path}.polygon[{i}]", "expected [x, y] number pair")
    try:
        region = BoundingRegion(page_number=page_number, polygon=polygon)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    if expected_page is not None and region.page_number != expected_page:
        raise SchemaError(f"{path}.page_number", f"must equal enclosing page {expected_page}")
    return region


_NUMBERS = (int, float)
_FLOAT_MAX = sys.float_info.max
# Value -> member, a dict lookup in place of an Enum call; a str member
# hashes and compares as its value, so a member given as the value finds itself.
_ROLES = {role.value: role for role in BlockRole}
_KINDS = {kind.value: kind for kind in CellKind}


def _region_fits(data: Any, page_number: int) -> bool:
    """True only if ``_parse_region(data, path, page_number)`` accepts
    ``data``; False means "take the full check", not "invalid". The bounds
    ``0 <= v <= _FLOAT_MAX`` refuse NaN, infinities and ints past float
    range as well as negative values."""
    if type(data) is not dict:
        return False
    polygon = data.get("polygon")
    if type(polygon) is not list or len(polygon) < 3:
        return False
    number = data.get("page_number")
    if type(number) is not int or number != page_number:
        return False
    for point in polygon:
        if type(point) is not list or len(point) != 2:
            return False
        x, y = point
        if type(x) not in _NUMBERS or type(y) not in _NUMBERS:
            return False
        if not (0 <= x <= _FLOAT_MAX and 0 <= y <= _FLOAT_MAX):
            return False
    return True


def _check_region(data: Any, path: str, page_number: int) -> None:
    """Validate a region that is dropped after parsing."""
    if not _region_fits(data, page_number):
        _parse_region(data, f"{path}.region", page_number)


def _parse_each(parse, items: list, path: str, name: str, *args) -> tuple:
    """``parse(item, item_path, *args)`` for each of ``items``, the list at
    ``path``'s key ``name``; the items' paths are built only to report an
    error (see the module docstring)."""
    try:
        return tuple([parse(item, "", *args) for item in items])
    except SchemaError:
        pass
    prefix = f"{path}.{name}" if path else name
    return tuple([parse(item, f"{prefix}[{i}]", *args) for i, item in enumerate(items)])


def _parse_cell(data: Any, path: str, page_number: int) -> TableCell:
    kind_text = _expect(data, "kind", str, path)
    kind = _KINDS.get(kind_text)
    if kind is None:
        raise SchemaError(f"{path}.kind", f"unknown cell kind {kind_text!r}")
    region_data = _expect(data, "region", dict, path, optional=True)
    fields = {name: _expect(data, name, int, path)
              for name in ("row_index", "column_index", "row_span", "column_span")}
    content = _expect(data, "content", str, path)
    if region_data is not None:
        _check_region(region_data, path, page_number)
    try:
        return TableCell(**fields, kind=kind, content=content)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_table(data: Any, path: str, page_number: int) -> TableGrid:
    cells_data = _expect(data, "cells", list, path)
    cells = _parse_each(_parse_cell, cells_data, path, "cells", page_number)
    region_data = _expect(data, "region", dict, path, optional=True)
    row_count = _expect(data, "row_count", int, path)
    column_count = _expect(data, "column_count", int, path)
    _expect(data, "caption", str, path, optional=True)
    if region_data is not None:
        _check_region(region_data, path, page_number)
    try:
        return TableGrid(row_count=row_count, column_count=column_count, cells=cells)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_block(data: Any, path: str, page_number: int) -> TextBlock:
    role_text = _expect(data, "role", str, path)
    role = _ROLES.get(role_text)
    if role is None:
        raise SchemaError(f"{path}.role", f"unknown role {role_text!r}")
    content = _expect(data, "content", str, path)
    _check_region(_expect(data, "region", dict, path), path, page_number)
    return TextBlock(role=role, content=content)


def _parse_page(data: Any, path: str) -> LayoutPage:
    page_number = _expect(data, "page_number", int, path)
    if page_number < 1:
        raise SchemaError(f"{path}.page_number", "must be >= 1")
    blocks_data = _expect(data, "text_blocks", list, path)
    tables_data = _expect(data, "tables", list, path)
    figures_data = _expect(data, "figures", list, path)
    return LayoutPage(
        page_number=page_number,
        text_blocks=_parse_each(_parse_block, blocks_data, path, "text_blocks", page_number),
        tables=_parse_each(_parse_table, tables_data, path, "tables", page_number),
        figures=_parse_each(_parse_region, figures_data, path, "figures", page_number),
    )


def parse_layout_payload(data: Any) -> LayoutPayload:
    """Build a validated LayoutPayload from decoded JSON.

    Raises SchemaError naming the first offending path; never coerces an
    invalid payload.
    """
    document_id = _expect(data, "document_id", str, "")
    pages_data = _expect(data, "pages", list, "")
    attrs_data = _expect(data, "attributes", dict, "", optional=True)
    attributes = None
    if attrs_data is not None:
        try:
            attributes = DocumentAttributes(
                company=_expect(attrs_data, "company", str, "attributes", optional=True),
                year=_expect(attrs_data, "year", int, "attributes", optional=True),
                quarter=_expect(attrs_data, "quarter", str, "attributes", optional=True),
            )
        except ValueError as exc:
            raise SchemaError("attributes.quarter", str(exc)) from exc
    pages = _parse_each(_parse_page, pages_data, "", "pages")
    try:
        return LayoutPayload(document_id=document_id, pages=pages, attributes=attributes)
    except ValueError as exc:
        raise SchemaError("pages", str(exc)) from exc

