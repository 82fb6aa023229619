import csv
import io
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.charts import ChartExtraction, chart_csv_to_records
from docrag.errors import ChartExtractionError
from docrag.tables import BoundingRegion, _dedupe_keys, serialize_dataframe

REGION = BoundingRegion(page_number=1, polygon=((10.0, 10.0), (90.0, 10.0), (90.0, 60.0), (10.0, 60.0)))


def extraction(text: str) -> ChartExtraction:
    return ChartExtraction(source_region=REGION, csv_text=text)


# --- golden: the APE sales chart ----------------------------------------

def test_ape_sales_chart_exact_pairs(chart_csv):
    records = chart_csv_to_records(extraction(chart_csv))
    assert len(records) == 1
    assert records[0].entries == (
        ("Quarter", "2Q23"),
        ("APE Sales: Asia other", "552"),
        ("APE Sales: Japan", "59"),
        ("APE Sales: Hong Kong", "268"),
        ("New business CSM: Asia other", "167"),
        ("New business CSM: Japan", "14"),
        ("New business CSM: Hong Kong", "142"),
    )


def test_ape_sales_round_trips_through_dataframe(chart_csv):
    records = chart_csv_to_records(extraction(chart_csv))
    assert chart_csv_to_records(extraction(serialize_dataframe(records))) == records


# --- basic conversion ----------------------------------------------------

def test_two_column_chart():
    records = chart_csv_to_records(extraction("Period,Value\n1Q21,884\n2Q21,902\n"))
    assert [r.as_dict() for r in records] == [
        {"Period": "1Q21", "Value": "884"},
        {"Period": "2Q21", "Value": "902"},
    ]


def test_single_column_chart():
    records = chart_csv_to_records(extraction("Label\nonly\n"))
    assert [r.entries for r in records] == [(("Label", "only"),)]


def test_blank_lines_are_skipped():
    records = chart_csv_to_records(extraction("a,b\n\n1,2\n\n\n3,4\n"))
    assert [r.values() for r in records] == [["1", "2"], ["3", "4"]]


def test_quoted_fields_preserved():
    records = chart_csv_to_records(extraction('k\n"$ 1,159"\n'))
    assert records[0].values() == ["$ 1,159"]


def test_duplicate_headers_deduplicated():
    records = chart_csv_to_records(extraction("v,v,v\n1,2,3\n"))
    assert records[0].keys() == ["v", "v#2", "v#3"]
    assert records[0].values() == ["1", "2", "3"]


def test_header_that_dedupes_into_a_taken_key():
    # v, v#2, v#2 was refused as a record with a repeated key.
    records = chart_csv_to_records(extraction("v,v,v#2\n1,2,3\n"))
    assert records[0].keys() == ["v", "v#3", "v#2"]
    assert records[0].values() == ["1", "2", "3"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["v", "v#2", "v#3", "v#2#2", "w;", ""]), st.text(max_size=4))))
def test_dedupe_keys_is_unique_and_keeps_unique_input(keys):
    out = _dedupe_keys(keys)
    assert len(out) == len(keys)
    assert len(set(out)) == len(out)
    if len(set(keys)) == len(keys):
        assert out == keys


def test_values_stay_text():
    records = chart_csv_to_records(extraction("n\n007\n"))
    assert records[0].values() == ["007"]


# --- degraded and failing inputs -----------------------------------------

def test_short_row_padded_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="docrag.charts"):
        records = chart_csv_to_records(extraction("a,b,c\n1,2\n"))
    assert records[0].values() == ["1", "2", ""]
    assert any("padding" in rec.message for rec in caplog.records)


def test_long_row_raises_with_position():
    with pytest.raises(ChartExtractionError) as info:
        chart_csv_to_records(extraction("a,b\n1,2\n3,4,5\n"))
    assert info.value.row == 3
    assert info.value.column == 3


def test_empty_text_raises_at_origin():
    with pytest.raises(ChartExtractionError) as info:
        chart_csv_to_records(extraction(""))
    assert (info.value.row, info.value.column) == (1, 1)


def test_header_only_raises_on_next_line():
    with pytest.raises(ChartExtractionError) as info:
        chart_csv_to_records(extraction("a,b\n"))
    assert (info.value.row, info.value.column) == (2, 1)


def test_header_after_blank_lines_reports_following_line():
    with pytest.raises(ChartExtractionError) as info:
        chart_csv_to_records(extraction("\n\na,b\n"))
    assert (info.value.row, info.value.column) == (4, 1)


def test_malformed_quoting_raises():
    with pytest.raises(ChartExtractionError) as info:
        chart_csv_to_records(extraction('a,b\n"x"y,2\n'))
    assert info.value.row == 2
    assert info.value.column == 1


# --- cross-parser property -----------------------------------------------

_FIELD = st.text(alphabet=st.sampled_from(list('ab,;" 123$%')), max_size=6)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    header = [draw(_FIELD) for _ in range(width)]
    body = draw(
        st.lists(
            st.lists(_FIELD, min_size=width, max_size=width),
            min_size=1,
            max_size=5,
        )
    )
    return header, body


@settings(max_examples=200)
@given(csv_tables())
def test_records_match_stdlib_parse(table):
    header, body = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    records = chart_csv_to_records(extraction(buf.getvalue()))
    assert [r.values() for r in records] == body
    for record in records:
        assert len(record.entries) == len(header)


@settings(max_examples=100)
@given(csv_tables())
def test_dataframe_round_trip_is_stable(table):
    header, body = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    try:
        records = chart_csv_to_records(extraction(buf.getvalue()))
    except ChartExtractionError:
        return
    text = serialize_dataframe(records)
    assert chart_csv_to_records(extraction(text)) == records
