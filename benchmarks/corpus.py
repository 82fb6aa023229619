"""Seeded synthetic corpus for the docrag benchmark.

Writes, under one output directory:

    layout/<document_id>.json            layout payloads (narrative, stacked-header tables, figures)
    layout/charts/<doc>__p<n>__f<i>.csv  chart-to-table CSVs for most figures
    qa.jsonl                             questions with gold answers, targets and filters

Every gold answer is planted on exactly one page: its key is unique within
its document and its value is drawn without replacement across the corpus.
Keys repeat across documents, so unfiltered questions depend on retrieval
ranking the right document first. A stacked table yields one question per
year column and a chart one per series, so the default size plants 1,470
answers; 1,050 of them, drawn at random, are asked. Only the standard
library is used, and the program under test sees nothing but these files.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

COMPANIES = (
    "ACME", "BOREAL", "CASCADE", "DUNMORE", "ELARA", "FENWICK", "GRANITE", "HALCYON",
    "IRONWOOD", "JUNIPER", "KESTREL", "LUMEN", "MERIDIAN", "NORTHGATE", "ORION", "PINNACLE",
    "QUARRY", "REDFERN", "SOLSTICE", "TALBOT",
)
YEARS = (2019, 2020, 2021, 2022, 2023)

TEXT_METRICS = (
    "widget output", "fleet size", "store openings", "headcount growth", "warehouse capacity",
    "route count", "backlog value", "order intake", "patent filings", "plant utilisation",
    "energy intensity", "water usage", "customer churn", "subscriber base", "average ticket",
    "same store sales", "inventory turns", "days sales outstanding", "capital expenditure",
    "research spend", "marketing spend", "dividend per share", "share buyback", "net debt",
    "free cash flow", "gross margin", "operating margin", "effective tax rate", "loan book",
    "deposit base", "claims ratio", "combined ratio", "fuel cost", "freight volume",
    "passenger count", "load factor", "tonnage shipped", "acreage planted", "well count",
    "rig utilisation",
)
TABLE_METRICS = (
    "Net revenue", "Operating income", "Segment assets", "Cargo tonnage", "Member base",
    "Premiums written", "Interest income", "Fee income", "Gross bookings", "Unit shipments",
    "Licence revenue", "Service revenue", "Hardware revenue", "Advertising revenue",
    "Royalty income", "Lease income", "Production volume", "Proved reserves", "Retail sales",
    "Wholesale sales", "Export sales", "Domestic sales", "Contract backlog", "Rental income",
    "Software subscriptions", "Maintenance revenue", "Net interest margin", "Trading revenue",
    "Assets under management", "Loan originations",
)
SEGMENTS = (
    "North America", "Europe", "Asia Pacific", "Latin America", "Middle East", "Africa",
    "Consumer", "Commercial", "Industrial", "Government", "Online", "Wholesale",
)
CHART_SERIES = (
    "Cloud revenue", "Charter income", "Loyalty spend", "APE sales Japan", "APE sales Hong Kong",
    "New business margin", "Active users", "Bookings growth", "Order backlog", "Unit margin",
    "Ad impressions", "Trial conversions", "Freight rate", "Spot price", "Yield spread",
    "Claims paid", "Policy count", "Renewal rate", "Net inflows", "Fund returns",
    "Store traffic", "Basket size", "Online share", "Return rate", "Plant output",
    "Defect rate", "Energy use", "Carbon intensity", "Water intensity", "Safety incidents",
)
SECTIONS = (
    "Overview", "Operations", "Financial review", "Segment results", "Risk factors",
    "Liquidity", "Outlook", "Governance", "Sustainability", "Capital allocation",
)
FILLER = (
    "revenue net total margin units growth cash flow segment operating income assets report "
    "quarter basis guidance demand pricing volume mix cost inflation currency impact customers "
    "contracts pipeline investment capacity supply chain logistics regulatory compliance "
    "strategy execution productivity efficiency headwinds tailwinds momentum recovery outlook "
    "performance portfolio divestiture acquisition integration synergies restructuring charges "
    "impairment depreciation amortization working capital liquidity leverage covenant rating "
    "dividend buyback shareholders board management employees talent culture safety quality "
    "innovation digital platform services products markets regions channels partners "
    "competition share expansion contraction stable improved declined increased decreased "
    "compared prior year period reflecting driven primarily higher lower partially offset by "
    "of and to with on as at from our we its this that which were"
).split()

DOCS = 70
PAGES = 25
TEXT_FACTS = 6
TABLES = 3
CHARTS = 3
UNCONVERTED_FIGURES = 2  # figures with no CSV behind them: chart extraction declines
TWO_CHUNK_PAGES = 0.43
# questions asked, at most: a qa pass over 1,050 takes about 10 s, so a qa
# run of three passes and its checks stays near a minute
QUESTIONS = 1050


def _region(page: int) -> dict:
    return {"page_number": page, "polygon": [[36, 40], [576, 40], [576, 300], [36, 300]]}


_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")


def _tokens(text: str) -> int:
    """Token count under the program's default tokenizer rule."""
    return len(_TOKEN_RE.findall(text))


def _sentence(rng: random.Random, company: str) -> str:
    words = [rng.choice(FILLER) for _ in range(rng.randint(8, 22))]
    if rng.random() < 0.04:
        words.insert(rng.randrange(len(words)), company)
    return " ".join(words).capitalize() + "."


def _paragraph(rng: random.Random, company: str, tokens: int) -> str:
    sentences = []
    while tokens > 0:
        sentence = _sentence(rng, company)
        sentences.append(sentence)
        tokens -= _tokens(sentence)
    return " ".join(sentences)


class _Values:
    """Numeric answer strings, never repeated anywhere in the corpus."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def draw(self) -> str:
        while True:
            value = f"{self.rng.randint(1000, 999999):,}"
            if value not in self.used:
                self.used.add(value)
                return value


def _cell(row: int, col: int, kind: str, content: str, span: int = 1) -> dict:
    return {
        "row_index": row, "column_index": col, "row_span": 1, "column_span": span,
        "kind": kind, "content": content, "region": None,
    }


def _stacked_table(rng: random.Random, values: _Values, metric: str, year: int):
    """Two header rows: a metric header spanning three fiscal-year columns."""
    years = [str(year - i) for i in range(3)]
    segments = rng.sample(SEGMENTS, rng.randint(2, 4))
    cells = [
        _cell(0, 0, "column_header", "Segment"),
        _cell(1, 0, "column_header", "(in millions)"),
        _cell(0, 1, "column_header", metric, span=3),
    ]
    cells += [_cell(1, 1 + i, "column_header", y) for i, y in enumerate(years)]
    rows = []
    for r, segment in enumerate(segments, start=2):
        row = [values.draw() for _ in years]
        rows.append(row)
        cells.append(_cell(r, 0, "content", segment))
        cells += [_cell(r, 1 + i, "content", v) for i, v in enumerate(row)]
    table = {
        "row_count": 2 + len(segments), "column_count": 4, "caption": None,
        "region": None, "cells": cells,
    }
    keys = ["Segment;(in millions);"] + [f"{metric};{y};" for y in years]
    records = [dict(zip(keys, [segment, *row])) for segment, row in zip(segments, rows)]
    # The lookup reader takes the first record holding a key, so each gold
    # answer is the first data row under one year column.
    golds = [(f"{metric};{y}", v) for y, v in zip(years, rows[0])]
    return table, golds, records


def _chart_csv(rng: random.Random, values: _Values, series: list[str], year: int):
    quarters = [f"{q}Q{year % 100:02d}" for q in range(1, rng.randint(2, 4) + 1)]
    lines = [",".join(["Quarter", *series])]
    records = []
    for quarter in quarters:
        row = [values.draw() for _ in series]
        records.append(dict(zip(["Quarter", *series], [quarter, *row])))
        lines.append(",".join([quarter] + [f'"{v}"' for v in row]))
    return "\n".join(lines) + "\n", [records[0][name] for name in series], records


def build(seed: int, out: Path, docs: int = DOCS, pages: int = PAGES) -> None:
    """Write the corpus for ``seed`` under ``out``."""
    if pages < TEXT_FACTS:
        raise ValueError(f"need at least {TEXT_FACTS} pages per document")
    rng = random.Random(seed)
    values = _Values(rng)
    layout_dir = out / "layout"
    charts_dir = layout_dir / "charts"
    charts_dir.mkdir(parents=True, exist_ok=True)
    pairs = [(c, y) for c in rng.sample(COMPANIES, len(COMPANIES)) for y in YEARS]
    if docs > len(pairs):
        raise ValueError(f"at most {len(pairs)} documents")
    examples = []
    for company, year in sorted(pairs[:docs]):
        document_id = f"{company.lower()}-{year}-annual"
        text_metrics = rng.sample(TEXT_METRICS, TEXT_FACTS)
        table_metrics = rng.sample(TABLE_METRICS, TABLES)
        chart_series = rng.sample(CHART_SERIES, 2 * CHARTS)
        # Each planted item gets one page; a page can hold several items.
        fact_pages = rng.sample(range(1, pages + 1), TEXT_FACTS)
        table_pages = [rng.randint(1, pages) for _ in range(TABLES)]
        chart_pages = [rng.randint(1, pages) for _ in range(CHARTS + UNCONVERTED_FIGURES)]
        page_dicts = []
        for p in range(1, pages + 1):
            blocks = [
                {"role": "page_header", "content": f"{company} annual report {year}",
                 "region": _region(p)},
            ]
            if p == 1 or rng.random() < 0.2:
                blocks.append({"role": "section_title", "content": rng.choice(SECTIONS),
                               "region": _region(p)})
            # Reports discuss a figure or a metric around the number itself,
            # which gives a lexical retriever something to match.
            planted = []
            for metric in (m for m, fp in zip(text_metrics, fact_pages) if fp == p):
                value = values.draw()
                unit = rng.choice(("units", "million", "thousand", "percent basis"))
                planted.append(
                    f"{company} reported {metric} for fiscal {year}. The {metric} of "
                    f"{company} in fiscal {year} is audited.\n"
                    f"{metric}: {value} {unit} ({company}, fiscal {year})."
                )
                examples.append(("text", f"{value} {unit}", company, year, document_id,
                                 f"What was the {metric} reported by {company} for fiscal {year}?"))
            tables = []
            structured = 0  # tokens of the page's flattened tables and charts
            for metric, tp in zip(table_metrics, table_pages):
                if tp != p:
                    continue
                table, golds, records = _stacked_table(rng, values, metric, year)
                tables.append(table)
                structured += _tokens(json.dumps(records, ensure_ascii=False))
                examples += [
                    ("table", gold, company, year, document_id,
                     f"What is {key} in the {company} fiscal {year} table?")
                    for key, gold in golds
                ]
            figures = []
            for f, cp in enumerate(chart_pages):
                if cp != p:
                    continue
                figure_index = len(figures)
                figures.append(_region(p))
                if f >= CHARTS:
                    continue
                series = chart_series[2 * f: 2 * f + 2]
                csv_text, first_row, records = _chart_csv(rng, values, series, year)
                (charts_dir / f"{document_id}__p{p}__f{figure_index}.csv").write_text(
                    csv_text, encoding="utf-8"
                )
                structured += _tokens(json.dumps(records, ensure_ascii=False))
                planted.append(
                    f"The chart shows {series[0]} and {series[1]} for {company} in fiscal {year}. "
                    f"{company} tracks {series[0]} and {series[1]} each quarter of fiscal {year}."
                )
                examples += [
                    ("chart", gold, company, year, document_id,
                     f"What was the {name} for {company} in fiscal {year}?")
                    for name, gold in zip(series, first_row)
                ]
            # Page lengths aim at one nearly full chunk or two, so that chunk
            # sizes, and with them prompt sizes, vary little between seeds.
            if rng.random() < TWO_CHUNK_PAGES:
                target = rng.randint(880, 1080)
            else:
                target = rng.randint(300, 540)
            budget = target - structured - sum(_tokens(t) for t in planted)
            paragraphs = []
            while budget > 0:
                paragraph = _paragraph(rng, company, min(budget, rng.randint(60, 220)))
                paragraphs.append(paragraph)
                budget -= _tokens(paragraph)
            for text in planted:
                paragraphs.insert(rng.randint(0, len(paragraphs)), text)
            blocks += [{"role": "paragraph", "content": t, "region": _region(p)} for t in paragraphs]
            blocks.append({"role": "page_footer", "content": f"Page {p} of {pages}",
                           "region": _region(p)})
            page_dicts.append({"page_number": p, "text_blocks": blocks, "tables": tables,
                               "figures": figures})
        payload = {
            "document_id": document_id,
            "attributes": {"company": company, "year": year, "quarter": "Q4"},
            "pages": page_dicts,
        }
        with open(layout_dir / f"{document_id}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False)

    rng.shuffle(examples)
    examples = examples[:QUESTIONS]
    with open(out / "qa.jsonl", "w", encoding="utf-8") as handle:
        # Filter counts rotate 0, 1, 2 so that every stretch of questions has
        # the same mix: unfiltered searches cost far more than filtered ones.
        for position, (target, gold, company, year, document_id, question) in enumerate(examples):
            filters = ({}, {"company": company}, {"company": company, "year": year})[position % 3]
            record = {
                "question": question,
                "gold_answer": gold,
                "difficulty": ("high", "medium", "low")[len(filters)],
                "target": target,
                "reference_count": 1,
                "document_id": document_id,
                "filters": filters,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

