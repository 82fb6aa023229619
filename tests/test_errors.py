import json
import os
import re
import stat

import pytest

from docrag.chunking import ChunkMetadata, split_pages
from docrag.cli import _load_config, main
from docrag.costs import PricingConfig, load_pricing
from docrag.embedding import HashingEmbedder
from docrag.errors import DocragError, check_count, check_destination, check_record, decode_json
from docrag.evaluation import EvalReport, QAExample, load_dataset, write_report
from docrag.index import RetrievalConfig, VectorIndex


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


# --- the count and record rules, and every input held to them ---------------------

@pytest.mark.parametrize("value", [True, 2.5, "3", 1], ids=["bool", "float", "str", "below"])
def test_check_count_refuses_what_is_no_int_or_below_the_minimum(value):
    with pytest.raises(ValueError, match=f"^n must be an integer >= 2, got {re.escape(repr(value))}$"):
        check_count("n", value, 2)


def test_check_count_passes_the_minimum():
    assert check_count("n", 2, 2) is None
    assert check_count("n", 1) is None


@pytest.mark.parametrize(
    "data,shown",
    [([1, 2], "[1, 2]"), (None, "None"), (list(range(100)), repr(list(range(100)))[:80])],
    ids=["list", "null", "long-list"],
)
def test_check_record_refuses_what_is_no_object_showing_80_characters(data, shown):
    with pytest.raises(ValueError) as info:
        check_record(data, "thing", ("a",))
    assert str(info.value) == f"thing must be a JSON object, got {shown}"


def test_check_record_names_the_first_unknown_key_in_the_data_order():
    with pytest.raises(ValueError) as info:
        check_record({"a": 1, "z": 2, "y": 3}, "thing", ("a", "b"))
    assert str(info.value) == "thing key 'z' is not one of a, b"


def test_check_record_returns_its_data_and_with_no_keys_takes_any():
    data = {"z": 1}
    assert check_record(data, "thing") is data
    assert check_record(data, "thing", {"z": None}) is data


_QA_FIELDS = dict(question="q", gold_answer="a", difficulty="low", target="text", document_id="d")


def _file(tmp_path, content):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    return path


def _qa(**fields):
    return json.dumps({**_QA_FIELDS, **fields}) + "\n"


def _eval_with_config(tmp_path, config):
    path = _file(tmp_path, config)
    return main(["--config", str(path), "eval", "--index", str(tmp_path / "absent.index"),
                 "--dataset", str(tmp_path / "absent.jsonl"), "--report", str(tmp_path / "r.json")])


_CONFIG_KEYS = "chunk_size, k, eval_workers, table_format, charts, provider, model_tag, pricing"
_EXAMPLE_KEYS = "question, gold_answer, difficulty, target, document_id, reference_count, filters"
_METADATA_KEYS = "document_id, page_number, company, year, quarter, section_title, region"
_PRICING_KEYS = "tokens_per_page, per_token, per_call_flat, per_page, credits"

# Each input the two rules hold: a call through its public entry with a
# value the rule refuses, and the message it must fail with.
RULE_SITES = {
    "retrieval-k": (lambda tmp: RetrievalConfig(k=0), "k must be an integer >= 1, got 0"),
    "chunk-size": (lambda tmp: split_pages([], chunk_size=True), "chunk_size must be an integer >= 1, got True"),
    "index-dimension": (lambda tmp: VectorIndex(dimension=2.0), "dimension must be an integer >= 1, got 2.0"),
    "embedder-dimension": (lambda tmp: HashingEmbedder(dimension=0), "dimension must be an integer >= 1, got 0"),
    "pricing-tokens": (lambda tmp: PricingConfig(tokens_per_page="600"),
                       "pricing tokens_per_page must be an integer >= 1, got '600'"),
    "reference-count": (lambda tmp: QAExample(**_QA_FIELDS, reference_count=0),
                        "reference_count must be an integer >= 1, got 0"),
    "eval-workers": (lambda tmp: _eval_with_config(tmp, {"eval_workers": 0}),
                     "eval_workers must be an integer >= 1, got 0"),
    "header-count": (lambda tmp: VectorIndex.load(_file(tmp, '{"dimension": 4, "count": -1}\n')),
                     "byte 0: header count must be an integer >= 0, got -1"),
    "config": (lambda tmp: _load_config(str(_file(tmp, []))), "config must be a JSON object, got []"),
    "config-key": (lambda tmp: _load_config(str(_file(tmp, {"provder": "mock"}))),
                   f"config key 'provder' is not one of {_CONFIG_KEYS}"),
    "dataset-line": (lambda tmp: load_dataset(_file(tmp, "[1]\n")), "line 1: example must be a JSON object, got [1]"),
    "dataset-key": (lambda tmp: load_dataset(_file(tmp, _qa(filtres={}))),
                    f"line 1: example key 'filtres' is not one of {_EXAMPLE_KEYS}"),
    "dataset-filters": (lambda tmp: load_dataset(_file(tmp, _qa(filters=["company", "A"]))),
                        "line 1: filters must be a JSON object, got ['company', 'A']"),
    "metadata": (lambda tmp: ChunkMetadata.from_dict(None), "metadata must be a JSON object, got None"),
    "metadata-key": (lambda tmp: ChunkMetadata.from_dict({"document_id": "d", "page_number": 1, "compnay": "A"}),
                     f"metadata key 'compnay' is not one of {_METADATA_KEYS}"),
    "pricing": (lambda tmp: load_pricing(_file(tmp, [1])), "pricing must be a JSON object, got [1]"),
    "pricing-key": (lambda tmp: load_pricing(_file(tmp, {"per_tokens": {}})),
                    f"pricing key 'per_tokens' is not one of {_PRICING_KEYS}"),
    "pricing-group": (lambda tmp: load_pricing(_file(tmp, {"per_page": 1})),
                      "pricing per_page must be a JSON object, got 1"),
    "pricing-credits": (lambda tmp: load_pricing(_file(tmp, {"credits": []})),
                        "pricing credits must be a JSON object, got []"),
    "pricing-credit": (lambda tmp: load_pricing(_file(tmp, {"credits": {"x": 1}})),
                       "pricing credits.x must be a JSON object, got 1"),
    "pricing-credit-key": (lambda tmp: load_pricing(_file(tmp, {"credits": {"x": {"credit_per_page": 1}}})),
                           "pricing credits.x key 'credit_per_page' is not one of credits_per_page, usd_per_credit"),
}


@pytest.mark.parametrize("site", RULE_SITES)
def test_every_input_is_refused_in_the_words_of_its_rule(tmp_path, capsys, site):
    # Before the two rules, the same refusals read in five wordings.
    call, message = RULE_SITES[site]
    try:
        status = call(tmp_path)
    except (ValueError, DocragError) as exc:
        assert str(exc) == message
    else:  # the CLI reports the refusal as its one-line JSON error
        assert status == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


# --- the write rule, through both of its writers ------------------------------

def _report(total):
    return EvalReport(
        total=total,
        correct=total,
        accuracy=1.0,
        per_target={"text": {"total": total, "correct": total}},
        per_difficulty={"low": {"total": total, "correct": total}},
        total_cost_usd=0.0,
    )


# Each writer writes version 1 or version 2 of its output to a path.
WRITERS = {
    "index": lambda version, path: VectorIndex(dimension=version + 2).persist(path),
    "report": lambda version, path: write_report(_report(version), path),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_each_writer_replaces_its_output_atomically_and_durably(tmp_path, monkeypatch, writer):
    write = WRITERS[writer]
    path = tmp_path / "out.json"
    write(1, path)
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    plain.unlink()
    before = path.read_bytes()

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(1, path)
    assert calls == ["fsync file", "replace", "fsync directory"]
    assert path.read_bytes() == before

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(2, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("writer", list(WRITERS))
def test_each_writer_replaces_a_symlink_not_its_target(tmp_path, writer):
    target = tmp_path / "target.json"
    target.write_text("kept\n", encoding="utf-8")
    link = tmp_path / "out.json"
    link.symlink_to(target)
    WRITERS[writer](1, link)
    assert not link.is_symlink()
    assert target.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_each_writer_names_the_given_path_and_leaves_no_temp_file(tmp_path, monkeypatch, where):
    monkeypatch.chdir(tmp_path)
    for write in WRITERS.values():
        with pytest.raises(OSError, match=f"output path {re.escape(where)}[ :]"):
            write(1, where)
    assert not list(tmp_path.rglob("*.tmp"))


def test_check_destination_refuses_an_input_of_the_same_command(tmp_path):
    source = tmp_path / "in.json"
    source.write_text("{}", encoding="utf-8")
    os.link(source, tmp_path / "hard.json")
    for path in (source, tmp_path / "hard.json"):
        with pytest.raises(ValueError, match=f"output path {re.escape(str(path))} is the input"):
            check_destination(path, None, source)
    assert check_destination(tmp_path / "new.json", source) == tmp_path / "new.json"
