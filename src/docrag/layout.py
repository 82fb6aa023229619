"""Layout-analysis payloads: the document model produced by OCR providers.

A payload is a JSON document (schema shipped in docs/layout_payload.schema.json)
holding per-page text blocks with logical roles, extracted table grids,
and figure bounding regions. Parsing validates structure eagerly and
reports the first offending path instead of coercing silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import SchemaError
from .tables import BoundingRegion, CellKind, TableCell, TableGrid


class BlockRole(str, Enum):
    PARAGRAPH = "paragraph"
    SECTION_TITLE = "section_title"
    IMAGE_CAPTION = "image_caption"
    PAGE_FOOTER = "page_footer"
    PAGE_HEADER = "page_header"


_QUARTER_RE = re.compile(r"Q[1-4]")


def check_quarter(quarter: str | None) -> None:
    """Refuse a quarter that is neither None nor one of Q1..Q4."""
    if quarter is not None and not _QUARTER_RE.fullmatch(quarter):
        raise ValueError(f"quarter must match Q1..Q4, got {quarter!r}")


@dataclass(frozen=True)
class TextBlock:
    role: BlockRole
    content: str
    region: BoundingRegion


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
    return value


def _parse_region(data: Any, path: str, expected_page: int | None = None) -> BoundingRegion:
    page_number = _expect(data, "page_number", int, path)
    polygon = _expect(data, "polygon", list, path)
    points = []
    for i, point in enumerate(polygon):
        if (
            not isinstance(point, (list, tuple))
            or len(point) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in point)
        ):
            raise SchemaError(f"{path}.polygon[{i}]", "expected [x, y] number pair")
        points.append((float(point[0]), float(point[1])))
    try:
        region = BoundingRegion(page_number=page_number, polygon=tuple(points))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    if expected_page is not None and region.page_number != expected_page:
        raise SchemaError(f"{path}.page_number", f"must equal enclosing page {expected_page}")
    return region


def _parse_cell(data: Any, path: str, page_number: int) -> TableCell:
    kind_text = _expect(data, "kind", str, path)
    try:
        kind = CellKind(kind_text)
    except ValueError:
        raise SchemaError(f"{path}.kind", f"unknown cell kind {kind_text!r}") from None
    region_data = _expect(data, "region", dict, path, optional=True)
    try:
        return TableCell(
            row_index=_expect(data, "row_index", int, path),
            column_index=_expect(data, "column_index", int, path),
            row_span=_expect(data, "row_span", int, path),
            column_span=_expect(data, "column_span", int, path),
            kind=kind,
            content=_expect(data, "content", str, path),
            region=_parse_region(region_data, f"{path}.region", page_number) if region_data else None,
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_table(data: Any, path: str, page_number: int) -> TableGrid:
    cells_data = _expect(data, "cells", list, path)
    cells = tuple(_parse_cell(cell, f"{path}.cells[{i}]", page_number) for i, cell in enumerate(cells_data))
    region_data = _expect(data, "region", dict, path, optional=True)
    try:
        return TableGrid(
            row_count=_expect(data, "row_count", int, path),
            column_count=_expect(data, "column_count", int, path),
            cells=cells,
            caption=_expect(data, "caption", str, path, optional=True),
            region=_parse_region(region_data, f"{path}.region", page_number) if region_data else None,
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_block(data: Any, path: str, page_number: int) -> TextBlock:
    role_text = _expect(data, "role", str, path)
    try:
        role = BlockRole(role_text)
    except ValueError:
        raise SchemaError(f"{path}.role", f"unknown role {role_text!r}") from None
    return TextBlock(
        role=role,
        content=_expect(data, "content", str, path),
        region=_parse_region(_expect(data, "region", dict, path), f"{path}.region", page_number),
    )


def _parse_page(data: Any, path: str) -> LayoutPage:
    page_number = _expect(data, "page_number", int, path)
    if page_number < 1:
        raise SchemaError(f"{path}.page_number", "must be >= 1")
    blocks_data = _expect(data, "text_blocks", list, path)
    tables_data = _expect(data, "tables", list, path)
    figures_data = _expect(data, "figures", list, path)
    return LayoutPage(
        page_number=page_number,
        text_blocks=tuple(
            _parse_block(block, f"{path}.text_blocks[{i}]", page_number) for i, block in enumerate(blocks_data)
        ),
        tables=tuple(
            _parse_table(table, f"{path}.tables[{i}]", page_number) for i, table in enumerate(tables_data)
        ),
        figures=tuple(
            _parse_region(fig, f"{path}.figures[{i}]", page_number) for i, fig in enumerate(figures_data)
        ),
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
    pages = tuple(_parse_page(page, f"pages[{i}]") for i, page in enumerate(pages_data))
    try:
        return LayoutPayload(document_id=document_id, pages=pages, attributes=attributes)
    except ValueError as exc:
        raise SchemaError("pages", str(exc)) from exc


def payload_to_dict(payload: LayoutPayload) -> dict:
    """Serialize a payload back to its JSON document form (round-trips)."""
    doc: dict[str, Any] = {"document_id": payload.document_id}
    if payload.attributes is not None:
        attrs = payload.attributes
        doc["attributes"] = {"company": attrs.company, "year": attrs.year, "quarter": attrs.quarter}
    doc["pages"] = []
    for page in payload.pages:
        doc["pages"].append(
            {
                "page_number": page.page_number,
                "text_blocks": [
                    {"role": b.role.value, "content": b.content, "region": b.region.to_dict()}
                    for b in page.text_blocks
                ],
                "tables": [
                    {
                        "row_count": t.row_count,
                        "column_count": t.column_count,
                        "caption": t.caption,
                        "region": t.region.to_dict() if t.region else None,
                        "cells": [
                            {
                                "row_index": c.row_index,
                                "column_index": c.column_index,
                                "row_span": c.row_span,
                                "column_span": c.column_span,
                                "kind": c.kind.value,
                                "content": c.content,
                                "region": c.region.to_dict() if c.region else None,
                            }
                            for c in t.cells
                        ],
                    }
                    for t in page.tables
                ],
                "figures": [f.to_dict() for f in page.figures],
            }
        )
    return doc
