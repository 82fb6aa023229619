import copy
import json
from pathlib import Path

import jsonschema
import pytest

from docrag.errors import SchemaError
from docrag.layout import (
    BlockRole,
    DocumentAttributes,
    LayoutPage,
    LayoutPayload,
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
