"""Chart-to-table output (CSV text) converted into flat records.

Chart extraction providers emit a flat CSV: one header row naming the
series, one row per data point. Conversion preserves every field as
text so downstream serialization matches the table path byte for byte.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

from .errors import ChartExtractionError
from .tables import BoundingRegion, FlatRecord, _dedupe_keys

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChartExtraction:
    """CSV text recovered from one chart image region."""

    source_region: BoundingRegion
    csv_text: str


def chart_csv_to_records(extraction: ChartExtraction) -> list[FlatRecord]:
    """Convert chart CSV text into one FlatRecord per data row.

    Keys are the single-level header names verbatim. Rows shorter than
    the header are padded with empty strings (extraction models routinely
    drop series) and logged; rows longer than the header raise
    ChartExtractionError with the 1-based row/column position, as does
    malformed quoting or a missing header/data row.
    """
    reader = csv.reader(io.StringIO(extraction.csv_text), strict=True)
    rows: list[tuple[int, list[str]]] = []
    try:
        for row in reader:
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise ChartExtractionError(reader.line_num, 1, f"malformed CSV: {exc}") from exc

    if not rows:
        raise ChartExtractionError(1, 1, "CSV has no header row")
    if len(rows) < 2:
        raise ChartExtractionError(rows[0][0] + 1, 1, "CSV has no data rows")

    _, header = rows[0]
    keys = _dedupe_keys(header)
    records = []
    for line_num, row in rows[1:]:
        if len(row) > len(keys):
            raise ChartExtractionError(
                line_num, len(keys) + 1, f"row has {len(row)} fields but header has {len(keys)}"
            )
        if len(row) < len(keys):
            logger.warning(
                "chart CSV row %d has %d of %d fields; padding with empty strings",
                line_num, len(row), len(keys),
            )
            row = row + [""] * (len(keys) - len(row))
        records.append(FlatRecord(tuple(zip(keys, row))))
    return records
