"""Document pre-processing: orchestrates providers into per-page text.

Takes a validated LayoutPayload, flattens its tables, asks the chart
provider for CSV behind each figure, and emits one PageContent per page.
All downstream stages (chunking, indexing) consume PageContent only.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .charts import ChartExtraction, chart_csv_to_records
from .errors import ChartExtractionError, ProviderError
from .layout import BlockRole, LayoutPayload, parse_layout_payload
from .providers import ChartToTableProvider, LayoutSource
from .tables import BoundingRegion, flatten_table, serialize_dataframe, serialize_json

logger = logging.getLogger(__name__)

TABLE_FORMATS = ("json", "dataframe")

_NARRATIVE_ROLES = frozenset({BlockRole.PARAGRAPH, BlockRole.SECTION_TITLE})


@dataclass(frozen=True)
class PageContent:
    document_id: str
    page_number: int
    narrative_text: str
    table_texts: tuple[str, ...]
    chart_texts: tuple[str, ...]
    figure_manifest: tuple[BoundingRegion, ...]
    section_title: str | None = None


@dataclass(frozen=True)
class FigureManifestEntry:
    """One figure awaiting external cropping (pixel work is out of scope)."""

    document_id: str
    page_number: int
    figure_index: int
    polygon: tuple[tuple[float, float], ...]
    suggested_crop_path: str

    def to_dict(self) -> dict:
        return {
            "document_id": self.document_id,
            "page_number": self.page_number,
            "figure_index": self.figure_index,
            "polygon": [list(point) for point in self.polygon],
            "suggested_crop_path": self.suggested_crop_path,
        }


def extract_layout(document_locator: str, provider: LayoutSource) -> LayoutPayload:
    """Fetch and validate a layout payload; invalid responses are rejected."""
    raw = provider.fetch(document_locator)
    return parse_layout_payload(raw)


def extract_figures(payload: LayoutPayload) -> list[FigureManifestEntry]:
    entries = []
    for page in payload.pages:
        for index, region in enumerate(page.figures):
            entries.append(
                FigureManifestEntry(
                    document_id=payload.document_id,
                    page_number=page.page_number,
                    figure_index=index,
                    polygon=region.polygon,
                    suggested_crop_path=(
                        f"{payload.document_id}/p{page.page_number}_f{index}.png"
                    ),
                )
            )
    return entries


def write_figure_manifest(entries: list[FigureManifestEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry.to_dict(), ensure_ascii=False) + "\n")


def _serialize_records(records, table_format: str) -> str:
    if table_format == "json":
        return serialize_json(records)
    if table_format == "dataframe":
        return serialize_dataframe(records)
    raise ValueError(f"unknown table format {table_format!r}; expected one of {TABLE_FORMATS}")


def preprocess_document(
    payload: LayoutPayload,
    chart_provider: ChartToTableProvider,
    table_format: str = "json",
) -> list[PageContent]:
    """Convert one document's layout into per-page multi-structured text.

    Narrative keeps paragraph and section-title blocks in reading order;
    footers and headers are dropped. A chart-provider failure downgrades
    that figure to manifest-only and never aborts the document.
    """
    if table_format not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {table_format!r}; expected one of {TABLE_FORMATS}")
    pages: list[PageContent] = []
    section_title: str | None = None
    for page in payload.pages:
        narrative_parts = []
        for block in page.text_blocks:
            if block.role in _NARRATIVE_ROLES:
                narrative_parts.append(block.content)
            if block.role is BlockRole.SECTION_TITLE:
                section_title = block.content
        table_texts = tuple(
            _serialize_records(flatten_table(table), table_format) for table in page.tables
        )
        chart_texts = []
        for index, region in enumerate(page.figures):
            try:
                csv_text = chart_provider.csv_for(
                    payload.document_id, page.page_number, index, region
                )
            except ProviderError as exc:
                logger.warning(
                    "chart provider failed for %s p%d f%d: %s",
                    payload.document_id, page.page_number, index, exc,
                )
                continue
            if csv_text is None:
                continue
            extraction = ChartExtraction(source_region=region, csv_text=csv_text)
            try:
                records = chart_csv_to_records(extraction)
            except ChartExtractionError as exc:
                logger.warning(
                    "chart CSV rejected for %s p%d f%d: %s",
                    payload.document_id, page.page_number, index, exc,
                )
                continue
            chart_texts.append(_serialize_records(records, table_format))
        pages.append(
            PageContent(
                document_id=payload.document_id,
                page_number=page.page_number,
                narrative_text="\n".join(narrative_parts),
                table_texts=table_texts,
                chart_texts=tuple(chart_texts),
                figure_manifest=page.figures,
                section_title=section_title,
            )
        )
    return pages

