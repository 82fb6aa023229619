import copy
import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from docrag.errors import SchemaError
from docrag.layout import (
    BlockRole,
    DocumentAttributes,
    LayoutPage,
    LayoutPayload,
    _parse_region,
    _region_fits,
    parse_layout_payload,
)
from docrag.tables import CellKind

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "layout_payload.schema.json").read_text(encoding="utf-8")
)


# --- parsing the fixtures ------------------------------------------------

def test_revenue_payload_parses(revenue_payload):
    payload = parse_layout_payload(revenue_payload)
    assert payload.document_id == "revenue-doc"
    assert payload.attributes == DocumentAttributes(company="ACME", year=2013, quarter="Q4")
    assert len(payload.pages) == 1
    page = payload.pages[0]
    assert [b.role for b in page.text_blocks] == [
        BlockRole.SECTION_TITLE,
        BlockRole.PARAGRAPH,
        BlockRole.PAGE_FOOTER,
    ]
    assert len(page.tables) == 1
    table = page.tables[0]
    assert (table.row_count, table.column_count) == (3, 5)
    assert table.header_row_count == 2
    assert page.figures == ()


def test_chart_payload_parses(chart_payload):
    payload = parse_layout_payload(chart_payload)
    assert payload.document_id == "chart-doc"
    assert len(payload.pages[0].figures) == 1
    assert payload.pages[0].figures[0].page_number == 1


def test_fixtures_satisfy_schema(revenue_payload, chart_payload):
    jsonschema.validate(revenue_payload, SCHEMA)
    jsonschema.validate(chart_payload, SCHEMA)


# --- both validators reject the same broken payloads ---------------------

def _drop(data, *keys):
    node = data
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]


def _set(data, value, *keys):
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


BREAKAGES = [
    ("missing document_id", lambda d: _drop(d, "document_id"), "document_id"),
    ("pages not a list", lambda d: _set(d, {}, "pages"), "pages"),
    ("block role unknown", lambda d: _set(d, "sidebar", "pages", 0, "text_blocks", 0, "role"), "pages[0].text_blocks[0].role"),
    ("block content missing", lambda d: _drop(d, "pages", 0, "text_blocks", 0, "content"), "pages[0].text_blocks[0].content"),
    ("block content not text", lambda d: _set(d, 7, "pages", 0, "text_blocks", 0, "content"), "pages[0].text_blocks[0].content"),
    ("page_number zero", lambda d: _set(d, 0, "pages", 0, "page_number"), "pages[0].page_number"),
    ("page_number boolean", lambda d: _set(d, True, "pages", 0, "page_number"), "pages[0].page_number"),
    ("polygon too short", lambda d: _set(d, [[0, 0], [1, 1]], "pages", 0, "text_blocks", 0, "region", "polygon"), "pages[0].text_blocks[0].region"),
    ("polygon point malformed", lambda d: _set(d, [[0, 0], [1, 1], [2]], "pages", 0, "text_blocks", 0, "region", "polygon"), "pages[0].text_blocks[0].region.polygon[2]"),
    ("polygon negative coordinate", lambda d: _set(d, [[0, 0], [1, 1], [-2, 3]], "pages", 0, "text_blocks", 0, "region", "polygon"), "pages[0].text_blocks[0].region"),
    # Table and cell regions are dropped after parsing but still validated.
    ("table region polygon too short", lambda d: _set(d, {"page_number": 1, "polygon": [[0, 0], [1, 1]]}, "pages", 0, "tables", 0, "region"), "pages[0].tables[0].region"),
    ("cell region polygon too short", lambda d: _set(d, {"page_number": 1, "polygon": [[0, 0], [1, 1]]}, "pages", 0, "tables", 0, "cells", 0, "region"), "pages[0].tables[0].cells[0].region"),
    ("table region empty object", lambda d: _set(d, {}, "pages", 0, "tables", 0, "region"), "pages[0].tables[0].region"),
    ("cell region empty object", lambda d: _set(d, {}, "pages", 0, "tables", 0, "cells", 0, "region"), "pages[0].tables[0].cells[0].region"),
    ("cell kind unknown", lambda d: _set(d, "header", "pages", 0, "tables", 0, "cells", 0, "kind"), "pages[0].tables[0].cells[0].kind"),
    ("cell row_span zero", lambda d: _set(d, 0, "pages", 0, "tables", 0, "cells", 0, "row_span"), "pages[0].tables[0].cells[0]"),
    ("table row_count missing", lambda d: _drop(d, "pages", 0, "tables", 0, "row_count"), "pages[0].tables[0].row_count"),
    ("quarter out of range", lambda d: _set(d, "Q5", "attributes", "quarter"), "attributes.quarter"),
    ("year not an integer", lambda d: _set(d, "2013", "attributes", "year"), "attributes.year"),
]


@pytest.mark.parametrize("label,mutate,path_prefix", BREAKAGES, ids=[b[0] for b in BREAKAGES])
def test_parser_and_schema_agree_on_rejection(revenue_payload, label, mutate, path_prefix):
    broken = copy.deepcopy(revenue_payload)
    mutate(broken)
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(broken)
    assert info.value.path.startswith(path_prefix)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, SCHEMA)


# --- every region refusal, in full ------------------------------------------

# Where a region sits in the revenue fixture's first page: text block,
# table and cell regions are checked and dropped, a figure is one.
REGION_SITES = {
    "block": ("pages[0].text_blocks[0].region", ("text_blocks", 0, "region")),
    "table": ("pages[0].tables[0].region", ("tables", 0, "region")),
    "cell": ("pages[0].tables[0].cells[0].region", ("tables", 0, "cells", 0, "region")),
    "figure": ("pages[0].figures[0]", ("figures", 0)),
}

_SQUARE = [[0, 0], [10, 0], [10, 10]]

# (label, region, the error's path after the region's own, its message)
REGION_REFUSALS = [
    ("empty object", {}, ".page_number", "missing required field"),
    ("page_number missing", {"polygon": _SQUARE}, ".page_number", "missing required field"),
    ("page_number true", {"page_number": True, "polygon": _SQUARE}, ".page_number", "expected int, got bool"),
    ("page_number a float", {"page_number": 1.0, "polygon": _SQUARE}, ".page_number", "expected int, got float"),
    ("page_number zero", {"page_number": 0, "polygon": _SQUARE}, "", "page_number must be >= 1, got 0"),
    ("page_number of another page", {"page_number": 2, "polygon": _SQUARE}, ".page_number",
     "must equal enclosing page 1"),
    ("polygon missing", {"page_number": 1}, ".polygon", "missing required field"),
    ("polygon not a list", {"page_number": 1, "polygon": "0 0 1 1"}, ".polygon", "expected list, got str"),
    ("polygon too short", {"page_number": 1, "polygon": [[0, 0], [1, 1]]}, "",
     "polygon needs at least 3 vertices, got 2"),
    ("point not a list", {"page_number": 1, "polygon": [[0, 0], [1, 1], 2]}, ".polygon[2]",
     "expected [x, y] number pair"),
    ("point of one number", {"page_number": 1, "polygon": [[0, 0], [1, 1], [2]]}, ".polygon[2]",
     "expected [x, y] number pair"),
    ("point of three numbers", {"page_number": 1, "polygon": [[0, 0], [1, 1], [2, 2, 2]]}, ".polygon[2]",
     "expected [x, y] number pair"),
    ("coordinate true", {"page_number": 1, "polygon": [[0, 0], [1, 1], [True, 2]]}, ".polygon[2]",
     "expected [x, y] number pair"),
    ("coordinate a string", {"page_number": 1, "polygon": [[0, 0], [1, 1], [2, "2"]]}, ".polygon[2]",
     "expected [x, y] number pair"),
    ("coordinate null", {"page_number": 1, "polygon": [[0, 0], [1, 1], [2, None]]}, ".polygon[2]",
     "expected [x, y] number pair"),
    # json.load reads NaN and Infinity
    ("coordinate NaN", {"page_number": 1, "polygon": [[0, 0], [1, 1], [math.nan, 2]]}, "",
     "polygon coordinates must be finite"),
    ("coordinate infinite", {"page_number": 1, "polygon": [[0, 0], [1, 1], [2, math.inf]]}, "",
     "polygon coordinates must be finite"),
    ("coordinate negative", {"page_number": 1, "polygon": [[0, 0], [1, 1], [-2, 3]]}, "",
     "polygon coordinates must be non-negative"),
    ("coordinate past float range", {"page_number": 1, "polygon": [[0, 0], [1, 1], [10**400, 3]]}, "",
     "polygon coordinates must be finite"),
    ("bad point before a short polygon", {"page_number": 1, "polygon": [[0, "x"]]}, ".polygon[0]",
     "expected [x, y] number pair"),
    ("negative before non-finite", {"page_number": 1, "polygon": [[-1, 0], [1, 1], [math.nan, 3]]}, "",
     "polygon coordinates must be non-negative"),
]


def _with_region(payload: dict, site: str, region) -> dict:
    data = copy.deepcopy(payload)
    page = data["pages"][0]
    if site == "figure":
        page["figures"] = [None]
    _set(page, copy.deepcopy(region), *REGION_SITES[site][1])
    return data


@pytest.mark.parametrize("site", REGION_SITES)
@pytest.mark.parametrize(
    "label,region,suffix,message", REGION_REFUSALS, ids=[r[0] for r in REGION_REFUSALS]
)
def test_region_refusal_keeps_its_path_and_message(revenue_payload, site, label, region, suffix, message):
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(_with_region(revenue_payload, site, region))
    path = REGION_SITES[site][0] + suffix
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("site", REGION_SITES)
def test_region_that_is_no_object_is_refused_at_its_path(revenue_payload, site):
    path = REGION_SITES[site][0]
    # A figure is parsed as a region; the others are fields of type dict.
    message = "expected object, got list" if site == "figure" else "expected dict, got list"
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(_with_region(revenue_payload, site, []))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("site", REGION_SITES)
def test_region_of_tuples_from_a_library_caller_is_accepted(revenue_payload, site):
    # The polygon must be a list; its points may be tuples.
    region = {"page_number": 1, "polygon": [(0, 0), (10.5, 0), (10, 10**300), [-0.0, 1]]}
    payload = parse_layout_payload(_with_region(revenue_payload, site, region))
    if site == "figure":
        assert payload.pages[0].figures[0].polygon == ((0.0, 0.0), (10.5, 0.0), (10.0, 1e300), (-0.0, 1.0))


@pytest.mark.parametrize(
    "mutate,path,message",
    [
        # a cell's region is checked after its other fields, a table's after
        # its cells and counts, and a block before the next block
        (lambda page: (_set(page, {"page_number": 1, "polygon": [[0, 0]]}, "tables", 0, "cells", 1, "region"),
                       _drop(page, "tables", 0, "cells", 1, "content")),
         "pages[0].tables[0].cells[1].content", "missing required field"),
        (lambda page: (_set(page, {"page_number": 1, "polygon": [[0, 0]]}, "tables", 0, "region"),
                       _drop(page, "tables", 0, "row_count")),
         "pages[0].tables[0].row_count", "missing required field"),
        (lambda page: (_set(page, {"page_number": 1, "polygon": [[0, 0]]}, "tables", 0, "cells", 2, "region"),
                       _set(page, {"page_number": 1, "polygon": [[0, 0]]}, "text_blocks", 1, "region")),
         "pages[0].text_blocks[1].region", "polygon needs at least 3 vertices, got 1"),
        (lambda page: (_set(page, {"page_number": 1, "polygon": [[0, 0]]}, "text_blocks", 2, "region"),
                       _set(page, "x", "text_blocks", 1, "role")),
         "pages[0].text_blocks[1].role", "unknown role 'x'"),
        (lambda page: (_set(page, {"page_number": 1, "polygon": [[0, 0]]}, "tables", 0, "cells", 3, "region"),
                       _set(page, {"page_number": 2, "polygon": _SQUARE}, "tables", 0, "region")),
         "pages[0].tables[0].cells[3].region", "polygon needs at least 3 vertices, got 1"),
    ],
    ids=["cell content first", "table counts first", "blocks before tables", "earlier block first",
         "cells before the table region"],
)
def test_first_fault_in_parse_order_is_reported(revenue_payload, mutate, path, message):
    broken = copy.deepcopy(revenue_payload)
    mutate(broken["pages"][0])
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(broken)
    assert str(info.value) == f"{path}: {message}"


_COORDINATE = st.one_of(
    st.integers(min_value=-3, max_value=10**6),
    st.sampled_from([0, 0.0, -0.0, sys.float_info.max, int(sys.float_info.max), int(sys.float_info.max) + 1,
                     10**400, math.nan, math.inf, -math.inf, True, False, None, "1"]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_POINT = st.one_of(
    st.lists(_COORDINATE, min_size=2, max_size=2),
    st.lists(_COORDINATE, min_size=1, max_size=3),
    st.tuples(_COORDINATE, _COORDINATE),
)
_REGION = st.one_of(
    # mostly well formed, so the quick check accepts often
    st.fixed_dictionaries(
        {"page_number": st.just(1),
         "polygon": st.lists(st.lists(_COORDINATE, min_size=2, max_size=2), min_size=3, max_size=5)}
    ),
    st.fixed_dictionaries(
        {"page_number": st.sampled_from([1, 2, 0, True, 1.0]), "polygon": st.lists(_POINT, max_size=6)}
    ),
    st.fixed_dictionaries({"polygon": st.lists(_POINT, max_size=4)}),
    st.sampled_from([{}, [], None]),
)


@given(_REGION)
def test_whatever_the_quick_region_check_accepts_the_full_check_accepts(region):
    if _region_fits(region, 1):
        _parse_region(region, "region", 1)


def test_quick_region_check_accepts_plain_json_regions():
    assert _region_fits({"page_number": 3, "polygon": [[36, 40], [576.5, 40], [0, 1e300]]}, 3)
    assert _region_fits({"page_number": 1, "polygon": [[0, 0], [1, 1], [sys.float_info.max, -0.0]]}, 1)
    # not refusals, only cases left to the full check
    assert not _region_fits({"page_number": 1, "polygon": [(0, 0), (1, 1), (2, 2)]}, 1)
    assert not _region_fits({"page_number": 1, "polygon": [[0, 0], [1, 1], [int(sys.float_info.max) + 1, 0]]}, 1)


# --- constraints only the parser can check --------------------------------

def test_region_page_must_match_enclosing_page(revenue_payload):
    broken = copy.deepcopy(revenue_payload)
    broken["pages"][0]["text_blocks"][0]["region"]["page_number"] = 2
    jsonschema.validate(broken, SCHEMA)  # structurally fine
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(broken)
    assert info.value.path == "pages[0].text_blocks[0].region.page_number"


def test_coordinate_past_float_range_is_refused_at_its_region(revenue_payload):
    broken = copy.deepcopy(revenue_payload)
    broken["pages"][0]["text_blocks"][0]["region"]["polygon"] = [[10**400, 0], [1, 0], [1, 1]]
    jsonschema.validate(broken, SCHEMA)  # any JSON number is structurally fine
    with pytest.raises(SchemaError, match="must be finite") as info:
        parse_layout_payload(broken)
    assert info.value.path == "pages[0].text_blocks[0].region"


def test_pages_must_start_at_one(revenue_payload):
    broken = copy.deepcopy(revenue_payload)
    broken["pages"][0]["page_number"] = 2
    for block in broken["pages"][0]["text_blocks"]:
        block["region"]["page_number"] = 2
    broken["pages"][0]["tables"][0]["region"]["page_number"] = 2
    jsonschema.validate(broken, SCHEMA)
    with pytest.raises(SchemaError, match="start at 1"):
        parse_layout_payload(broken)


def test_duplicate_pages_rejected(revenue_payload):
    broken = copy.deepcopy(revenue_payload)
    broken["pages"].append(copy.deepcopy(broken["pages"][0]))
    jsonschema.validate(broken, SCHEMA)
    with pytest.raises(SchemaError, match="strictly increasing"):
        parse_layout_payload(broken)


def test_page_gaps_are_allowed(revenue_payload):
    data = copy.deepcopy(revenue_payload)
    second = copy.deepcopy(data["pages"][0])
    second["page_number"] = 3
    second["tables"] = []
    for block in second["text_blocks"]:
        block["region"]["page_number"] = 3
    data["pages"].append(second)
    payload = parse_layout_payload(data)
    assert [p.page_number for p in payload.pages] == [1, 3]


def test_overlapping_cells_rejected_by_parser(revenue_payload):
    broken = copy.deepcopy(revenue_payload)
    cells = broken["pages"][0]["tables"][0]["cells"]
    dup = copy.deepcopy(cells[0])
    dup["content"] = "shadow"
    cells.append(dup)
    jsonschema.validate(broken, SCHEMA)
    with pytest.raises(SchemaError, match="overlap"):
        parse_layout_payload(broken)


# A JSON "\ud800" escape decodes to a lone surrogate, which no UTF-8 file
# can hold; every string field refuses one at its own path.
SURROGATE_FIELDS = [
    ("document_id", ("document_id",)),
    ("attributes.company", ("attributes", "company")),
    ("pages[0].text_blocks[0].content", ("pages", 0, "text_blocks", 0, "content")),
    ("pages[0].tables[0].caption", ("pages", 0, "tables", 0, "caption")),
    ("pages[0].tables[0].cells[2].content", ("pages", 0, "tables", 0, "cells", 2, "content")),
]


@pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"], ids=["D800", "DFFF"])
@pytest.mark.parametrize("path,keys", SURROGATE_FIELDS, ids=[f[0] for f in SURROGATE_FIELDS])
def test_lone_surrogate_is_refused_at_its_path(revenue_payload, path, keys, surrogate):
    broken = copy.deepcopy(revenue_payload)
    _set(broken, f"bad {surrogate} text", *keys)
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(broken)
    assert info.value.path == path
    assert f"lone surrogate U+{ord(surrogate):04X} at character 4" in str(info.value)


def test_paired_surrogates_from_json_are_accepted(revenue_payload):
    # "\ud83d\ude00" in JSON is one character (an emoji), not two surrogates.
    data = copy.deepcopy(revenue_payload)
    data["pages"][0]["text_blocks"][0]["content"] = "smile \U0001F600"
    decoded = json.loads(json.dumps(data))
    assert "\\ud83d\\ude00" in json.dumps(data)
    payload = parse_layout_payload(decoded)
    assert payload.pages[0].text_blocks[0].content == "smile \U0001F600"


# --- model objects ---------------------------------------------------------

def test_attributes_quarter_validation():
    assert DocumentAttributes(quarter="Q1").quarter == "Q1"
    assert DocumentAttributes().quarter is None
    with pytest.raises(ValueError):
        DocumentAttributes(quarter="q1")
    with pytest.raises(ValueError):
        DocumentAttributes(quarter="Q12")


def test_payload_page_order_enforced_in_model():
    page = LayoutPage(page_number=1, text_blocks=(), tables=(), figures=())
    LayoutPayload(document_id="d", pages=(page,))
    with pytest.raises(ValueError):
        LayoutPayload(
            document_id="d",
            pages=(page, LayoutPage(page_number=1, text_blocks=(), tables=(), figures=())),
        )


def test_optional_attributes_absent(revenue_payload):
    data = copy.deepcopy(revenue_payload)
    del data["attributes"]
    payload = parse_layout_payload(data)
    assert payload.attributes is None


def test_parsed_cell_kinds(revenue_payload):
    table = parse_layout_payload(revenue_payload).pages[0].tables[0]
    kinds = {cell.kind for cell in table.cells}
    assert CellKind.COLUMN_HEADER in kinds
    assert CellKind.CONTENT in kinds


@pytest.mark.parametrize("as_member", [False, True], ids=["value", "member"])
def test_every_role_and_kind_parses_to_its_member(revenue_payload, as_member):
    # A library caller may give the member itself (BlockRole.PARAGRAPH):
    # a str member hashes and compares as its value, so it finds itself.
    data = copy.deepcopy(revenue_payload)
    page = data["pages"][0]
    for role in BlockRole:
        _set(page, role if as_member else role.value, "text_blocks", 0, "role")
        assert parse_layout_payload(data).pages[0].text_blocks[0].role is role
    for kind in CellKind:
        _set(page, kind if as_member else kind.value, "tables", 0, "cells", 0, "kind")
        assert parse_layout_payload(data).pages[0].tables[0].cells[0].kind is kind


_BLOCK_ROLE = ("text_blocks", 0, "role")
_CELL_KIND = ("tables", 0, "cells", 0, "kind")


@pytest.mark.parametrize(
    "keys,value,message",
    [
        (_BLOCK_ROLE, "Paragraph", "role: unknown role 'Paragraph'"),
        (_BLOCK_ROLE, CellKind.CONTENT, f"role: unknown role {CellKind.CONTENT!r}"),
        (_CELL_KIND, "header", "kind: unknown cell kind 'header'"),
        (_CELL_KIND, BlockRole.PARAGRAPH, f"kind: unknown cell kind {BlockRole.PARAGRAPH!r}"),
    ],
    ids=["role", "kind-as-role", "kind", "role-as-kind"],
)
def test_unknown_role_or_kind_is_refused_at_its_path(revenue_payload, keys, value, message):
    data = copy.deepcopy(revenue_payload)
    _set(data["pages"][0], value, *keys)
    with pytest.raises(SchemaError) as info:
        parse_layout_payload(data)
    where = "text_blocks[0]" if keys is _BLOCK_ROLE else "tables[0].cells[0]"
    assert str(info.value) == f"pages[0].{where}.{message}"
