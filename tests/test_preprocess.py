import json
import logging

import pytest

from docrag.errors import ProviderError
from docrag.layout import parse_layout_payload
from docrag.preprocess import PageContent, preprocess_document
from docrag.providers import DirectoryChartProvider, NullChartProvider


class StaticChartProvider:
    """Returns one fixed CSV for every figure."""

    def __init__(self, csv_text):
        self.csv_text = csv_text
        self.calls = []

    def csv_for(self, document_id, page_number, figure_index, region):
        self.calls.append((document_id, page_number, figure_index))
        return self.csv_text


class FailingChartProvider:
    def csv_for(self, document_id, page_number, figure_index, region):
        raise ProviderError("chart endpoint down")


# --- narrative assembly -----------------------------------------------------

def test_narrative_keeps_paragraphs_and_titles_in_order(revenue_payload):
    payload = parse_layout_payload(revenue_payload)
    pages = preprocess_document(payload, NullChartProvider())
    assert len(pages) == 1
    page = pages[0]
    blocks = payload.pages[0].text_blocks
    assert page.narrative_text == blocks[0].content + "\n" + blocks[1].content
    # the footer is dropped
    assert "Page 1 of 12" not in page.narrative_text


def test_section_title_carries_forward(revenue_payload):
    data = dict(revenue_payload)
    second = json.loads(json.dumps(revenue_payload["pages"][0]))
    second["page_number"] = 2
    second["text_blocks"] = [
        {
            "role": "paragraph",
            "content": "Continued discussion.",
            "region": {"page_number": 2, "polygon": [[0, 0], [10, 0], [10, 10]]},
        }
    ]
    second["tables"] = []
    data["pages"] = [revenue_payload["pages"][0], second]
    pages = preprocess_document(parse_layout_payload(data), NullChartProvider())
    assert pages[0].section_title == "Revenues"
    # no title block on page 2, so the last seen one still applies
    assert pages[1].section_title == "Revenues"


def test_section_title_none_before_first_title(chart_payload):
    pages = preprocess_document(parse_layout_payload(chart_payload), NullChartProvider())
    assert pages[0].section_title is None


# --- tables and charts --------------------------------------------------------

def test_table_text_json_format(revenue_payload):
    pages = preprocess_document(parse_layout_payload(revenue_payload), NullChartProvider())
    assert len(pages[0].table_texts) == 1
    parsed = json.loads(pages[0].table_texts[0])
    assert parsed[0]["Fiscal Years;2013;"] == "$ 159"


def test_table_text_dataframe_format(revenue_payload):
    pages = preprocess_document(
        parse_layout_payload(revenue_payload), NullChartProvider(), table_format="dataframe"
    )
    text = pages[0].table_texts[0]
    assert text.startswith("Revenues by region;(Dollars in millions);,Fiscal Years;2013;")
    assert "North America" in text


def test_unknown_table_format_rejected(revenue_payload):
    with pytest.raises(ValueError, match="unknown table format"):
        preprocess_document(parse_layout_payload(revenue_payload), NullChartProvider(), table_format="parquet")


def test_chart_text_from_provider(chart_payload, chart_csv):
    provider = StaticChartProvider(chart_csv)
    pages = preprocess_document(parse_layout_payload(chart_payload), provider)
    assert provider.calls == [("chart-doc", 1, 0)]
    parsed = json.loads(pages[0].chart_texts[0])
    assert parsed[0]["Quarter"] == "2Q23"


def test_directory_chart_provider(chart_payload, tmp_path, chart_csv):
    (tmp_path / "chart-doc__p1__f0.csv").write_text(chart_csv, encoding="utf-8")
    pages = preprocess_document(
        parse_layout_payload(chart_payload), DirectoryChartProvider(tmp_path)
    )
    assert len(pages[0].chart_texts) == 1


def test_directory_chart_provider_reads_no_file_outside_its_root(chart_payload, tmp_path, chart_csv, caplog):
    # A document_id of "../../secret" read secret__p1__f0.csv two levels
    # above the chart directory and indexed its records.
    root = tmp_path / "layout" / "charts"
    root.mkdir(parents=True)
    (root / "chart-doc__p1__f0.csv").write_text(chart_csv, encoding="utf-8")
    (tmp_path / "secret__p1__f0.csv").write_text("k,v\nsecret,42\n", encoding="utf-8")
    provider = DirectoryChartProvider(root)
    assert len(preprocess_document(parse_layout_payload(chart_payload), provider)[0].chart_texts) == 1
    chart_payload["document_id"] = "../../secret"
    with caplog.at_level(logging.WARNING, logger="docrag.preprocess"):
        pages = preprocess_document(parse_layout_payload(chart_payload), provider)
    assert pages[0].chart_texts == ()
    assert len(pages[0].figure_manifest) == 1
    assert any("'../../secret__p1__f0.csv'" in rec.getMessage() for rec in caplog.records)
    with pytest.raises(ProviderError, match="is not a file name in"):
        provider.csv_for("/etc/secret", 1, 0, None)


def test_null_provider_keeps_manifest_only(chart_payload):
    pages = preprocess_document(parse_layout_payload(chart_payload), NullChartProvider())
    assert pages[0].chart_texts == ()
    assert len(pages[0].figure_manifest) == 1


def test_provider_failure_degrades_with_warning(chart_payload, caplog):
    with caplog.at_level(logging.WARNING, logger="docrag.preprocess"):
        pages = preprocess_document(parse_layout_payload(chart_payload), FailingChartProvider())
    assert pages[0].chart_texts == ()
    assert len(pages[0].figure_manifest) == 1
    assert any("chart provider failed" in rec.message for rec in caplog.records)


def test_bad_chart_csv_degrades_with_warning(chart_payload, caplog):
    provider = StaticChartProvider("header only, no data\n")
    with caplog.at_level(logging.WARNING, logger="docrag.preprocess"):
        pages = preprocess_document(parse_layout_payload(chart_payload), provider)
    assert pages[0].chart_texts == ()
    assert any("chart CSV rejected" in rec.message for rec in caplog.records)


def test_preprocess_is_deterministic(revenue_payload, chart_payload, chart_csv):
    provider = StaticChartProvider(chart_csv)
    for data in (revenue_payload, chart_payload):
        payload = parse_layout_payload(data)
        assert preprocess_document(payload, provider) == preprocess_document(payload, provider)


def test_page_content_is_immutable(revenue_payload):
    page = preprocess_document(parse_layout_payload(revenue_payload), NullChartProvider())[0]
    with pytest.raises(AttributeError):
        page.narrative_text = "changed"
