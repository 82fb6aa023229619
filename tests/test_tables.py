import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.tables import (
    BoundingRegion,
    CellKind,
    FlatRecord,
    TableCell,
    TableGrid,
    flatten_table,
    merge_column_headers,
    serialize_dataframe,
    serialize_json,
)
from reference import oracle_merge

HEADER = CellKind.COLUMN_HEADER
ROW_HEADER = CellKind.ROW_HEADER


def grid(rows, cols, cells):
    return TableGrid(row_count=rows, column_count=cols, cells=tuple(cells))


# --- golden: the two-level revenue table -------------------------------

def test_revenue_grid_keys(revenue_grid):
    assert merge_column_headers(revenue_grid) == [
        "Revenues by region;(Dollars in millions);",
        "Fiscal Years;2013;",
        "Fiscal Years;% Change;",
        "Fiscal Years;2012;",
        "Fiscal Years;2011;",
    ]


def test_revenue_grid_flattens_to_exact_pairs(revenue_grid):
    records = flatten_table(revenue_grid)
    assert len(records) == 1
    assert records[0].entries == (
        ("Revenues by region;(Dollars in millions);", "North America"),
        ("Fiscal Years;2013;", "$ 159"),
        ("Fiscal Years;% Change;", "(6%)"),
        ("Fiscal Years;2012;", "$ 130"),
        ("Fiscal Years;2011;", "$ 137"),
    )


def test_revenue_grid_json_contains_verbatim_pair(revenue_grid):
    text = serialize_json(flatten_table(revenue_grid))
    assert '"Fiscal Years;2013;": "$ 159"' in text


# --- merge_column_headers ----------------------------------------------

def test_spanning_header_repeats_across_columns():
    cells = [
        TableCell(0, 1, 1, 3, HEADER, "Fiscal Years"),
        TableCell(1, 1, 1, 1, HEADER, "2013"),
        TableCell(1, 2, 1, 1, HEADER, "% Change"),
        TableCell(1, 3, 1, 1, HEADER, "2012"),
        TableCell(2, 0, content="r"),
    ]
    keys = merge_column_headers(grid(3, 4, cells))
    assert keys[1:] == ["Fiscal Years;2013;", "Fiscal Years;% Change;", "Fiscal Years;2012;"]
    # column 0 has no header cell in either header row
    assert keys[0] == ";;"


def test_headerless_grid_gets_synthetic_keys():
    cells = [TableCell(0, c, content=str(c)) for c in range(3)]
    assert merge_column_headers(grid(1, 3, cells)) == ["col_0", "col_1", "col_2"]


def test_single_header_row():
    cells = [
        TableCell(0, 0, 1, 1, HEADER, "Quarter"),
        TableCell(0, 1, 1, 1, HEADER, "APE Sales"),
    ]
    assert merge_column_headers(grid(2, 2, cells)) == ["Quarter;", "APE Sales;"]


def test_duplicate_keys_disambiguated_in_column_order():
    cells = [TableCell(0, c, 1, 1, HEADER, "Total") for c in range(3)]
    assert merge_column_headers(grid(2, 3, cells)) == ["Total;", "Total;#2", "Total;#3"]


def test_vertically_spanning_header_repeats_per_row():
    cells = [
        TableCell(0, 0, 2, 1, HEADER, "Region"),
        TableCell(0, 1, 1, 1, HEADER, "FY"),
        TableCell(1, 1, 1, 1, HEADER, "2013"),
    ]
    assert merge_column_headers(grid(3, 2, cells)) == ["Region;Region;", "FY;2013;"]


# --- flatten_table ------------------------------------------------------

def test_one_by_one_content_grid():
    records = flatten_table(grid(1, 1, [TableCell(0, 0, content="x")]))
    assert [r.entries for r in records] == [(("col_0", "x"),)]


def test_multirow_row_header_leaves_empty_values_below_anchor():
    cells = [
        TableCell(0, 0, 1, 1, HEADER, "k0"),
        TableCell(0, 1, 1, 1, HEADER, "k1"),
        TableCell(0, 2, 1, 1, HEADER, "k2"),
        TableCell(1, 0, 2, 1, ROW_HEADER, "Group A"),
        TableCell(1, 1, content="a1"),
        TableCell(1, 2, content="a2"),
        TableCell(2, 1, content="b1"),
        TableCell(2, 2, content="b2"),
        TableCell(3, 0, content="z"),
        TableCell(3, 1, content="z1"),
        TableCell(3, 2, content="z2"),
    ]
    records = flatten_table(grid(4, 3, cells))
    assert records[0].values() == ["Group A", "a1", "a2"]
    # the spanned coordinate flattens to empty, not to the group label
    assert records[1].values() == ["", "b1", "b2"]
    assert records[2].values() == ["z", "z1", "z2"]


def test_row_header_only_row_becomes_label_record():
    cells = [
        TableCell(0, 0, 1, 1, HEADER, "a"),
        TableCell(0, 1, 1, 1, HEADER, "b"),
        TableCell(1, 0, 1, 2, ROW_HEADER, "Section label"),
        TableCell(2, 0, content="1"),
        TableCell(2, 1, content="2"),
    ]
    records = flatten_table(grid(3, 2, cells))
    assert records[0].values() == ["Section label", ""]


def test_uncovered_coordinates_read_empty():
    cells = [
        TableCell(0, 0, 1, 1, HEADER, "k0"),
        TableCell(0, 1, 1, 1, HEADER, "k1"),
        TableCell(1, 0, content="only"),
    ]
    records = flatten_table(grid(2, 2, cells))
    assert records[0].values() == ["only", ""]


# --- grid validation ----------------------------------------------------

def test_overlapping_cells_rejected():
    with pytest.raises(ValueError, match="overlap"):
        grid(2, 2, [TableCell(0, 0, 2, 2, content="a"), TableCell(1, 1, content="b")])


def test_out_of_bounds_span_rejected():
    with pytest.raises(ValueError, match="spans past"):
        grid(1, 2, [TableCell(0, 1, 1, 2, content="wide")])


def test_noncontiguous_header_rows_rejected():
    cells = [
        TableCell(0, 0, 1, 1, HEADER, "top"),
        TableCell(1, 0, content="data"),
        TableCell(2, 0, 1, 1, HEADER, "late"),
    ]
    with pytest.raises(ValueError, match="contiguous"):
        grid(3, 1, cells)


def test_bounding_region_validation():
    with pytest.raises(ValueError):
        BoundingRegion(page_number=0, polygon=((0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        BoundingRegion(page_number=1, polygon=((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        BoundingRegion(page_number=1, polygon=((0, 0), (1, 0), (-1, 1)))
    with pytest.raises(ValueError):
        BoundingRegion(page_number=1, polygon=((0, 0), (1, 0), (float("nan"), 1)))


def test_flat_record_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        FlatRecord((("k", "1"), ("k", "2")))


# --- serialization ------------------------------------------------------

def test_serialize_json_empty():
    assert serialize_json([]) == "[]"


def test_serialize_json_round_trips_and_keeps_order(revenue_grid):
    records = flatten_table(revenue_grid)
    parsed = json.loads(serialize_json(records))
    assert parsed == [r.as_dict() for r in records]
    assert list(parsed[0].keys()) == records[0].keys()


def test_serialize_dataframe_simple():
    records = [FlatRecord((("k1", "a"), ("k2", "b")))]
    assert serialize_dataframe(records) == "k1,k2\na,b\n"


def test_serialize_dataframe_quotes_commas():
    records = [FlatRecord((("k", "$ 1,159"),))]
    assert serialize_dataframe(records) == 'k\n"$ 1,159"\n'


def test_serialize_dataframe_header_starts_with_merged_key(revenue_grid):
    text = serialize_dataframe(flatten_table(revenue_grid))
    assert text.startswith("Revenues by region;(Dollars in millions);")


def test_serialize_dataframe_round_trips_embedded_specials():
    records = [
        FlatRecord((("k1", 'say "hi"'), ("k2", "line\nbreak"), ("k3", "a,b"))),
        FlatRecord((("k1", ""), ("k2", "plain"), ("k3", "x"))),
    ]
    parsed = list(csv.reader(io.StringIO(serialize_dataframe(records))))
    assert parsed[0] == ["k1", "k2", "k3"]
    assert parsed[1] == ['say "hi"', "line\nbreak", "a,b"]
    assert parsed[2] == ["", "plain", "x"]


def test_serialize_dataframe_pads_missing_keys():
    records = [
        FlatRecord((("a", "1"),)),
        FlatRecord((("b", "2"),)),
    ]
    assert serialize_dataframe(records) == "a,b\n1,\n,2\n"


# --- property tests over random grids ----------------------------------

_CONTENT = st.text(
    alphabet=st.sampled_from(list("ab;,\" xyz0123456789")), max_size=8
)


@st.composite
def grids(draw):
    row_count = draw(st.integers(min_value=1, max_value=6))
    column_count = draw(st.integers(min_value=1, max_value=6))
    header_rows = draw(st.integers(min_value=0, max_value=min(row_count, 3)))
    cells = []
    taken = set()

    for r in range(header_rows):
        placed = False
        c = 0
        while c < column_count:
            if draw(st.booleans()):
                span = draw(st.integers(min_value=1, max_value=column_count - c))
                cells.append(TableCell(r, c, 1, span, HEADER, draw(_CONTENT)))
                taken.update((r, cc) for cc in range(c, c + span))
                placed = True
                c += span
            else:
                c += 1
        if not placed:
            # each header row must hold at least one header cell
            cells.append(TableCell(r, 0, 1, 1, HEADER, draw(_CONTENT)))
            taken.add((r, 0))

    for r in range(header_rows, row_count):
        for c in range(column_count):
            if (r, c) in taken:
                continue
            choice = draw(st.integers(min_value=0, max_value=9))
            if choice == 0:
                continue  # leave the coordinate uncovered
            row_span = 1
            if choice in (1, 2) and r + 1 < row_count and (r + 1, c) not in taken:
                row_span = 2
            kind = ROW_HEADER if c == 0 and choice in (2, 3) else CellKind.CONTENT
            cells.append(TableCell(r, c, row_span, 1, kind, draw(_CONTENT)))
            taken.update((rr, c) for rr in range(r, r + row_span))

    return TableGrid(row_count=row_count, column_count=column_count, cells=tuple(cells))


@settings(max_examples=200)
@given(grids())
def test_merge_matches_bruteforce_oracle(table):
    assert merge_column_headers(table) == oracle_merge(table)


@settings(max_examples=200)
@given(grids())
def test_flatten_totality(table):
    records = flatten_table(table)
    assert len(records) == table.row_count - table.header_row_count
    for record in records:
        assert len(record.entries) == table.column_count


@settings(max_examples=100)
@given(grids(), st.randoms())
def test_merge_invariant_under_cell_order(table, rng):
    shuffled = list(table.cells)
    rng.shuffle(shuffled)
    permuted = TableGrid(
        row_count=table.row_count,
        column_count=table.column_count,
        cells=tuple(shuffled),
    )
    assert merge_column_headers(permuted) == merge_column_headers(table)


@settings(max_examples=200)
@given(grids())
def test_json_round_trip_preserves_records(table):
    records = flatten_table(table)
    parsed = json.loads(serialize_json(records))
    assert parsed == [r.as_dict() for r in records]


@settings(max_examples=200)
@given(grids())
def test_dataframe_round_trip_preserves_values(table):
    records = flatten_table(table)
    text = serialize_dataframe(records)
    parsed = list(csv.reader(io.StringIO(text)))
    if not records:
        return
    assert parsed[0] == records[0].keys()
    for row, record in zip(parsed[1:], records):
        assert row == record.values()


@settings(max_examples=200)
@given(grids())
def test_multirow_row_header_produces_empty_value(table):
    spanning = [
        cell
        for cell in table.cells
        if cell.kind is ROW_HEADER and cell.row_span > 1
    ]
    if not spanning:
        return
    records = flatten_table(table)
    for cell in spanning:
        column = cell.column_index
        covered_rows = range(cell.row_index + 1, cell.row_index + cell.row_span)
        for r in covered_rows:
            assert records[r - table.header_row_count].values()[column] == ""
