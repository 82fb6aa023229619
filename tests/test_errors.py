import json

import pytest

from docrag.errors import decode_json


def test_decode_json_refuses_a_bom_with_json_loads_own_error_whatever_the_decoder():
    # A bare JSONDecoder reports "Expecting value" at char 0, naming no BOM.
    text = '\ufeff{"a": 1}'
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    for decode in (json.loads, json.JSONDecoder(parse_float=float).decode):
        with pytest.raises(json.JSONDecodeError) as info:
            decode_json(text, decode)
        assert str(info.value) == str(expected.value)


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000, b"[" * 100_000],
    ids=["array", "object", "bytes"],
)
def test_decode_json_refuses_a_document_nested_too_deeply_as_bad_json(text):
    with pytest.raises(json.JSONDecodeError, match="^document nested too deeply to decode: line 1"):
        decode_json(text)
