"""Table structure model and hierarchical-header flattening.

Extracted tables arrive as a sparse rectangular grid of cells carrying
row/column spans and a header role. Flattening merges stacked column
headers into ";"-joined key strings (one per column) and emits one
key→value record per data row. The flattening is deliberately lossy in
the same way the upstream extraction is: a cell spanning several rows
contributes its content only at its anchor row, every other covered
coordinate flattens to an empty string.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum


class CellKind(str, Enum):
    COLUMN_HEADER = "column_header"
    ROW_HEADER = "row_header"
    CONTENT = "content"


@dataclass(frozen=True)
class BoundingRegion:
    """A polygon on a document page, in page units (points)."""

    page_number: int
    polygon: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            polygon = tuple((float(x), float(y)) for x, y in self.polygon)
        except OverflowError:  # an integer past float64's range
            raise ValueError("polygon coordinates must be finite") from None
        object.__setattr__(self, "polygon", polygon)
        if self.page_number < 1:
            raise ValueError(f"page_number must be >= 1, got {self.page_number}")
        if len(self.polygon) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(self.polygon)}")
        for x, y in self.polygon:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("polygon coordinates must be finite")
            if x < 0 or y < 0:
                raise ValueError("polygon coordinates must be non-negative")


@dataclass(frozen=True)
class TableCell:
    row_index: int
    column_index: int
    row_span: int = 1
    column_span: int = 1
    kind: CellKind = CellKind.CONTENT
    content: str = ""

    def __post_init__(self):
        if self.row_index < 0 or self.column_index < 0:
            raise ValueError("cell indices must be non-negative")
        if self.row_span < 1 or self.column_span < 1:
            raise ValueError("cell spans must be >= 1")

    def covered(self):
        """All (row, column) coordinates inside this cell's span rectangle."""
        for r in range(self.row_index, self.row_index + self.row_span):
            for c in range(self.column_index, self.column_index + self.column_span):
                yield (r, c)


@dataclass(frozen=True)
class TableGrid:
    """A validated sparse cell grid.

    Every coordinate is covered by at most one cell's span rectangle;
    uncovered coordinates read as empty content. Column-header cells
    must occupy a contiguous prefix of rows.
    """

    row_count: int
    column_count: int
    cells: tuple[TableCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.row_count < 1 or self.column_count < 1:
            raise ValueError("grid must have at least one row and one column")
        coverage: dict[tuple[int, int], TableCell] = {}
        header_rows: set[int] = set()
        for cell in self.cells:
            if cell.row_index + cell.row_span > self.row_count:
                raise ValueError(
                    f"cell at ({cell.row_index},{cell.column_index}) spans past row {self.row_count - 1}"
                )
            if cell.column_index + cell.column_span > self.column_count:
                raise ValueError(
                    f"cell at ({cell.row_index},{cell.column_index}) spans past column {self.column_count - 1}"
                )
            for coord in cell.covered():
                if coord in coverage:
                    raise ValueError(f"cells overlap at {coord}")
                coverage[coord] = cell
                if cell.kind is CellKind.COLUMN_HEADER:
                    header_rows.add(coord[0])
        if header_rows and header_rows != set(range(max(header_rows) + 1)):
            raise ValueError(
                f"column-header rows must form a contiguous prefix, got rows {sorted(header_rows)}"
            )
        object.__setattr__(self, "_coverage", coverage)
        object.__setattr__(self, "_header_row_count", (max(header_rows) + 1) if header_rows else 0)

    @property
    def header_row_count(self) -> int:
        return self._header_row_count

    def cell_at(self, row: int, column: int) -> TableCell | None:
        """The cell whose span covers (row, column), or None if uncovered."""
        return self._coverage.get((row, column))


@dataclass(frozen=True)
class FlatRecord:
    """An ordered key→value text mapping for one flattened row.

    Entry order equals source column order; keys are unique within the
    record.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((str(k), str(v)) for k, v in self.entries))
        keys = [k for k, _ in self.entries]
        if len(keys) != len(set(keys)):
            raise ValueError("record keys must be unique")

    def keys(self) -> list[str]:
        return [k for k, _ in self.entries]

    def values(self) -> list[str]:
        return [v for _, v in self.entries]

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)


def _dedupe_keys(keys: list[str]) -> list[str]:
    """Disambiguate duplicate keys: the first of each stays, and each repeat
    takes the next ``#2``, ``#3``, ... suffix that no key holds or took
    already (``v, v, v#2`` gives ``v, v#3, v#2``)."""
    taken = set(keys)
    last: dict[str, int] = {}  # key -> the last suffix it took; 1 for the key itself
    out = []
    for key in keys:
        if key in last:
            n = last[key] + 1
            while f"{key}#{n}" in taken:
                n += 1
            last[key] = n
            key = f"{key}#{n}"
            taken.add(key)
        else:
            last[key] = 1
        out.append(key)
    return out


def merge_column_headers(grid: TableGrid) -> list[str]:
    """Merge stacked column headers into one ";"-joined key per column.

    For each column, the key concatenates the content of the header cell
    covering that column in each header row (top to bottom), each segment
    followed by ";". Header rows with no covering header cell contribute
    an empty segment. A grid without header rows falls back to synthetic
    "col_<index>" keys.
    """
    h = grid.header_row_count
    if h == 0:
        return [f"col_{c}" for c in range(grid.column_count)]
    keys = []
    for c in range(grid.column_count):
        segments = []
        for r in range(h):
            cell = grid.cell_at(r, c)
            if cell is not None and cell.kind is CellKind.COLUMN_HEADER:
                segments.append(cell.content)
            else:
                segments.append("")
        keys.append("".join(seg + ";" for seg in segments))
    return _dedupe_keys(keys)


def flatten_table(grid: TableGrid) -> list[FlatRecord]:
    """Flatten a grid into one record per non-header row.

    Values resolve spans anchor-first: a spanning cell supplies its
    content only at its top-left coordinate; every other covered
    coordinate (and every uncovered one) yields "". A row holding only a
    row-header group label therefore becomes a record whose label sits
    under the first covered key with all other values empty.
    """
    keys = merge_column_headers(grid)
    records = []
    for r in range(grid.header_row_count, grid.row_count):
        values = []
        for c in range(grid.column_count):
            cell = grid.cell_at(r, c)
            if cell is not None and cell.row_index == r and cell.column_index == c:
                values.append(cell.content)
            else:
                values.append("")
        records.append(FlatRecord(tuple(zip(keys, values))))
    return records


def serialize_json(records: list[FlatRecord]) -> str:
    """Serialize records as a JSON array of objects, keys in entry order."""
    return json.dumps([rec.as_dict() for rec in records], ensure_ascii=False)


def serialize_dataframe(records: list[FlatRecord]) -> str:
    """Serialize records as CSV text (RFC 4180 quoting, "\\n" line ends).

    Records that miss keys present in other records are padded with empty
    values; the header order is first-seen key order.
    """
    keys: list[str] = []
    seen: set[str] = set()
    for rec in records:
        for k in rec.keys():
            if k not in seen:
                seen.add(k)
                keys.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        mapping = rec.as_dict()
        writer.writerow([mapping.get(k, "") for k in keys])
    return buf.getvalue()
