"""Shared fixtures: golden grids, layout payloads, and a synthetic corpus."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from docrag.tables import CellKind, TableCell, TableGrid

FIXTURES = Path(__file__).parent / "fixtures"


def region(page: int = 1):
    return {"page_number": page, "polygon": [[0, 0], [10, 0], [10, 10], [0, 10]]}


@pytest.fixture
def revenue_payload() -> dict:
    with open(FIXTURES / "revenue_layout.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def chart_payload() -> dict:
    with open(FIXTURES / "chart_layout.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def chart_csv() -> str:
    return (FIXTURES / "charts" / "chart-doc__p1__f0.csv").read_text(encoding="utf-8")


def make_revenue_grid() -> TableGrid:
    header = CellKind.COLUMN_HEADER
    cells = (
        TableCell(0, 0, 1, 1, header, "Revenues by region"),
        TableCell(1, 0, 1, 1, header, "(Dollars in millions)"),
        TableCell(0, 1, 1, 4, header, "Fiscal Years"),
        TableCell(1, 1, 1, 1, header, "2013"),
        TableCell(1, 2, 1, 1, header, "% Change"),
        TableCell(1, 3, 1, 1, header, "2012"),
        TableCell(1, 4, 1, 1, header, "2011"),
        TableCell(2, 0, content="North America"),
        TableCell(2, 1, content="$ 159"),
        TableCell(2, 2, content="(6%)"),
        TableCell(2, 3, content="$ 130"),
        TableCell(2, 4, content="$ 137"),
    )
    return TableGrid(row_count=3, column_count=5, cells=cells)


@pytest.fixture
def revenue_grid() -> TableGrid:
    return make_revenue_grid()


# One synthetic document: a narrative fact, a one-row table, and a chart.
_CORPUS = [
    {
        "document_id": "alpha-10k",
        "company": "ALPHA",
        "year": 2021,
        "quarter": "Q1",
        "fact": ("Widget output", "4200 units"),
        "table": (("Total staff", "Office count"), ("912", "38")),
        "chart": (("Period", "Cloud revenue"), ("1Q21", "884")),
    },
    {
        "document_id": "beta-10k",
        "company": "BETA",
        "year": 2022,
        "quarter": "Q2",
        "fact": ("Fleet size", "77 vessels"),
        "table": (("Cargo tonnage", "Route count"), ("51600", "214")),
        "chart": (("Period", "Charter income"), ("2Q22", "3095")),
    },
    {
        "document_id": "gamma-10k",
        "company": "GAMMA",
        "year": 2023,
        "quarter": "Q3",
        "fact": ("Store openings", "19 locations"),
        "table": (("Member base", "Churn percent"), ("88210", "2.4")),
        "chart": (("Period", "Loyalty spend"), ("3Q23", "710")),
    },
]


def _corpus_payload(spec: dict) -> dict:
    (key_a, key_b), (val_a, val_b) = spec["table"]
    return {
        "document_id": spec["document_id"],
        "attributes": {
            "company": spec["company"],
            "year": spec["year"],
            "quarter": spec["quarter"],
        },
        "pages": [
            {
                "page_number": 1,
                "text_blocks": [
                    {
                        "role": "section_title",
                        "content": "Operations",
                        "region": region(1),
                    },
                    {
                        "role": "paragraph",
                        "content": f"{spec['company']} annual report.",
                        "region": region(1),
                    },
                    {
                        "role": "paragraph",
                        "content": f"{spec['fact'][0]}: {spec['fact'][1]}.",
                        "region": region(1),
                    },
                ],
                "tables": [
                    {
                        "row_count": 2,
                        "column_count": 2,
                        "caption": None,
                        "region": None,
                        "cells": [
                            {
                                "row_index": 0,
                                "column_index": 0,
                                "row_span": 1,
                                "column_span": 1,
                                "kind": "column_header",
                                "content": key_a,
                                "region": None,
                            },
                            {
                                "row_index": 0,
                                "column_index": 1,
                                "row_span": 1,
                                "column_span": 1,
                                "kind": "column_header",
                                "content": key_b,
                                "region": None,
                            },
                            {
                                "row_index": 1,
                                "column_index": 0,
                                "row_span": 1,
                                "column_span": 1,
                                "kind": "content",
                                "content": val_a,
                                "region": None,
                            },
                            {
                                "row_index": 1,
                                "column_index": 1,
                                "row_span": 1,
                                "column_span": 1,
                                "kind": "content",
                                "content": val_b,
                                "region": None,
                            },
                        ],
                    }
                ],
                "figures": [],
            },
            {
                "page_number": 2,
                "text_blocks": [],
                "tables": [],
                "figures": [region(2)],
            },
        ],
    }


def _corpus_dataset(specs: list[dict]) -> list[dict]:
    examples = []
    difficulties = ("low", "medium", "high")
    for i, spec in enumerate(specs):
        company = spec["company"]
        fact_key, fact_value = spec["fact"]
        table_key = spec["table"][0][0]
        table_value = spec["table"][1][0]
        chart_key = spec["chart"][0][1]
        chart_value = spec["chart"][1][1]
        examples.extend(
            [
                {
                    "question": f"What was the {fact_key.lower()} reported by {company}?",
                    "gold_answer": fact_value,
                    "difficulty": difficulties[i % 3],
                    "target": "text",
                    "reference_count": 1,
                    "document_id": spec["document_id"],
                    "filters": {"company": company},
                },
                {
                    "question": f"What {table_key.lower()} did {company} report?",
                    "gold_answer": table_value,
                    "difficulty": difficulties[(i + 1) % 3],
                    "target": "table",
                    "reference_count": 1,
                    "document_id": spec["document_id"],
                    "filters": {"year": spec["year"]},
                },
                {
                    "question": f"What was the {chart_key.lower()} for {company}?",
                    "gold_answer": chart_value,
                    "difficulty": difficulties[(i + 2) % 3],
                    "target": "chart",
                    "reference_count": 1,
                    "document_id": spec["document_id"],
                    "filters": {"company": company, "quarter": spec["quarter"]},
                },
            ]
        )
    # a repeated question that carries reference_count 2, which is accepted and ignored
    examples.append(
        {
            "question": "What was the widget output reported by ALPHA?",
            "gold_answer": "4200",
            "difficulty": "high",
            "target": "text",
            "reference_count": 2,
            "document_id": "alpha-10k",
            "filters": {"company": "ALPHA"},
        }
    )
    return examples


def build_corpus(root: Path) -> dict:
    """Write a 3-document corpus: layout payloads, chart CSVs, QA dataset.

    Returns the paths plus the raw example list.
    """
    layout_dir = root / "layout"
    charts_dir = layout_dir / "charts"
    charts_dir.mkdir(parents=True)
    for spec in _CORPUS:
        path = layout_dir / f"{spec['document_id']}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_corpus_payload(spec), handle, ensure_ascii=False, indent=1)
        (keys, values) = spec["chart"]
        csv_path = charts_dir / f"{spec['document_id']}__p2__f0.csv"
        csv_path.write_text(
            ",".join(keys) + "\n" + ",".join(values) + "\n", encoding="utf-8"
        )
    dataset_path = root / "dataset.jsonl"
    examples = _corpus_dataset(_CORPUS)
    with open(dataset_path, "w", encoding="utf-8") as handle:
        for example in examples:
            handle.write(json.dumps(example, ensure_ascii=False) + "\n")
    return {
        "layout_dir": layout_dir,
        "charts_dir": charts_dir,
        "dataset": dataset_path,
        "examples": examples,
    }


@pytest.fixture
def corpus(tmp_path) -> dict:
    return build_corpus(tmp_path)
