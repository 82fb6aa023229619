"""Document pre-processing: one layout payload into per-page text.

Takes a LayoutPayload already validated by ``parse_layout_payload``,
flattens its tables, asks the chart provider for CSV behind each figure,
and emits one PageContent per page. A page keeps its figure regions in
``figure_manifest``; no file is written. All downstream stages
(chunking, indexing) consume PageContent only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .charts import ChartExtraction, chart_csv_to_records
from .chunking import TABLE_FORMATS  # re-exported: the table serializations
from .errors import ChartExtractionError, ProviderError
from .layout import BlockRole, LayoutPayload
from .providers import ChartToTableProvider
from .tables import BoundingRegion, flatten_table, serialize_dataframe, serialize_json

logger = logging.getLogger(__name__)

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
    serialize = serialize_json if table_format == "json" else serialize_dataframe
    pages: list[PageContent] = []
    section_title: str | None = None
    for page in payload.pages:
        narrative_parts = []
        for block in page.text_blocks:
            if block.role in _NARRATIVE_ROLES:
                narrative_parts.append(block.content)
            if block.role is BlockRole.SECTION_TITLE:
                section_title = block.content
        table_texts = tuple(serialize(flatten_table(table)) for table in page.tables)
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
            chart_texts.append(serialize(records))
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

