import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import build_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

import docrag
from docrag import cli
from docrag.chunking import split_pages
from docrag.cli import _load_config, main
from docrag.costs import load_pricing
from docrag.embedding import HashingEmbedder
from docrag.errors import SchemaError
from docrag.evaluation import load_dataset
from docrag.index import IndexEntry, RetrievalConfig, VectorIndex, embed
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import ContextLookupLLM, DirectoryChartProvider
from docrag.tokens import DEFAULT_TOKENIZER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ingest(corpus, tmp_path, capsys, *extra):
    index_path = tmp_path / "corpus.index"
    code, out, err = run(
        capsys,
        "ingest",
        "--layout",
        str(corpus["layout_dir"]),
        "--index",
        str(index_path),
        *extra,
    )
    assert code == 0, err
    return index_path, out


# --- ingest -----------------------------------------------------------------

def test_ingest_builds_index(corpus, tmp_path, capsys):
    index_path, out = ingest(corpus, tmp_path, capsys)
    assert "indexed 6 chunks from 3 documents" in out
    index = VectorIndex.load(index_path)
    assert len(index) == 6
    assert index.provider_tag == "feature-hash-v1-256"


def test_ingest_twice_is_byte_identical(corpus, tmp_path, capsys):
    first, _ = ingest(corpus, tmp_path, capsys)
    again = tmp_path / "again.index"
    code, _, _ = run(
        capsys, "ingest", "--layout", str(corpus["layout_dir"]), "--index", str(again)
    )
    assert code == 0
    assert first.read_bytes() == again.read_bytes()


def test_ingest_matches_golden_digest(corpus, tmp_path, capsys):
    # Digest of the index file the fixture corpus gave before the index kept
    # its vectors only as matrix rows; the persisted format must not move.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    assert (
        hashlib.sha256(index_path.read_bytes()).hexdigest()
        == "5bed4487e00f72d6ef8b16178a47898b99a426c9190ba1a79d7652ef9c25fd3d"
    )


def test_ingest_writes_the_bytes_of_the_entry_by_entry_sequence(corpus, tmp_path, capsys):
    # The library calls a caller of an earlier release made, and the
    # benchmark's ingest pass still makes: per document split_pages, one
    # IndexEntry of a tuple of floats per chunk and upsert_many; then persist.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    embedder = HashingEmbedder()
    index = VectorIndex(dimension=embedder.dimension, tokenizer_tag=DEFAULT_TOKENIZER.tag, provider_tag=embedder.tag)
    charts = DirectoryChartProvider(corpus["charts_dir"])
    for path in sorted(corpus["layout_dir"].glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        chunks = split_pages(preprocess_document(payload, charts, "json"), attributes=payload.attributes)
        index.upsert_many([IndexEntry(chunk=c, vector=tuple(embed(c.text, embedder))) for c in chunks])
    index.persist(tmp_path / "entries.index")
    assert (tmp_path / "entries.index").read_bytes() == index_path.read_bytes()


def test_ingest_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = run(
        capsys, "ingest", "--layout", str(empty), "--index", str(tmp_path / "i")
    )
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "no layout payloads" in error["message"]


def test_ingest_rejects_invalid_payload(revenue_payload, tmp_path, capsys):
    del revenue_payload["document_id"]
    layout = tmp_path / "layout"
    layout.mkdir()
    (layout / "doc.json").write_text(json.dumps(revenue_payload), encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--layout", str(layout), "--index", str(tmp_path / "i")
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize(
    "where, error",
    [
        ("missing/x.index", "FileNotFoundError"),
        ("layout", "IsADirectoryError"),
        ("layout/doc.json", "ValueError"),  # a payload the command reads
    ],
)
def test_ingest_refuses_a_bad_index_path_before_any_payload(
    revenue_payload, tmp_path, capsys, where, error
):
    # Read first, the payload would fail with its SchemaError.
    del revenue_payload["document_id"]
    layout = tmp_path / "layout"
    layout.mkdir()
    payload = layout / "doc.json"
    payload.write_text(json.dumps(revenue_payload), encoding="utf-8")
    before = payload.read_bytes()
    index = str(tmp_path / where)
    code, out, err = run(capsys, "ingest", "--layout", str(layout), "--index", index)
    assert (code, out, err.count("\n")) == (1, "", 1)
    message = json.loads(err)
    assert message["error"] == error
    assert f"output path {index}" in message["message"]
    assert payload.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_ingest_refuses_an_index_path_that_is_its_config(corpus, tmp_path, capsys):
    # The ingest read the config, then replaced it with the index, with exit 0.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk_size": 64}), encoding="utf-8")
    before = config.read_bytes()
    code, out, err = run(
        capsys, "--config", str(config), "ingest", "--layout", str(corpus["layout_dir"]), "--index", str(config)
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "ValueError", "message": f"output path {config} is the input {config}"}
    assert config.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("charts", ["default", "flag"])
def test_ingest_refuses_an_index_path_that_is_a_chart_csv(corpus, tmp_path, capsys, charts):
    # The ingest replaced a chart CSV it had read with the index, with exit 0;
    # the next ingest rejected that chart and indexed its page without it.
    charts_dir = corpus["charts_dir"]
    argv = ["ingest", "--layout", str(corpus["layout_dir"])]
    if charts == "flag":
        charts_dir = Path(shutil.copytree(charts_dir, tmp_path / "fixtures"))
        argv += ["--charts", str(charts_dir)]
    chart = charts_dir / "alpha-10k__p2__f0.csv"
    before = chart.read_bytes()
    code, out, err = run(capsys, *argv, "--index", str(chart))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "ValueError", "message": f"output path {chart} is the input {chart}"}
    assert chart.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_ingest_stores_no_chunk_of_a_whitespace_only_page(revenue_payload, tmp_path, capsys, caplog):
    # The page splits into one 0-token chunk, whose all-zero vector every
    # search that keeps it would score 0 and warn about.
    blank = {"role": "paragraph", "content": "   ", "region": {"page_number": 2, "polygon": [[0, 0], [9, 0], [9, 9]]}}
    revenue_payload["pages"].append({"page_number": 2, "text_blocks": [blank], "tables": [], "figures": []})
    layout = tmp_path / "layout"
    layout.mkdir()
    (layout / "doc.json").write_text(json.dumps(revenue_payload), encoding="utf-8")
    index_path = tmp_path / "doc.index"
    code, out, err = run(capsys, "ingest", "--layout", str(layout), "--index", str(index_path))
    assert code == 0, err
    assert [chunk.metadata.page_number for chunk in VectorIndex.load(index_path).chunks()] == [1]
    with caplog.at_level("WARNING"):
        code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "Revenue by region")
    assert (code, err) == (0, "")
    assert caplog.records == []


def test_ingest_refuses_lone_surrogate_at_its_field(revenue_payload, tmp_path, capsys):
    # The file holds the six-character escape \ud800, valid JSON that
    # decodes to a character no UTF-8 index file can hold.
    revenue_payload["pages"][0]["text_blocks"][0]["content"] = "bad \ud800 text"
    layout = tmp_path / "layout"
    layout.mkdir()
    (layout / "doc.json").write_text(json.dumps(revenue_payload), encoding="utf-8")
    assert "\\ud800" in (layout / "doc.json").read_text(encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--layout", str(layout), "--index", str(tmp_path / "i")
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "SchemaError"
    assert "pages[0].text_blocks[0].content" in error["message"]
    assert "U+D800" in error["message"]
    assert not (tmp_path / "i").exists()


def test_ingest_refuses_repeated_document_id(corpus, tmp_path, capsys):
    # Left unchecked, two payload files under one document_id would merge
    # page by page into one document.
    layout = tmp_path / "twins"
    layout.mkdir()
    source = sorted(corpus["layout_dir"].glob("*.json"))[0]
    for name in ("a.json", "b.json"):
        (layout / name).write_bytes(source.read_bytes())
    code, out, err = run(
        capsys, "ingest", "--layout", str(layout), "--index", str(tmp_path / "i")
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    document_id = json.loads(source.read_text(encoding="utf-8"))["document_id"]
    assert error["error"] == "ValueError"
    assert repr(document_id) in error["message"]
    assert str(layout / "a.json") in error["message"]
    assert str(layout / "b.json") in error["message"]
    assert not (tmp_path / "i").exists()


def _payload_file(revenue_payload, tmp_path, case):
    """A layout directory whose one payload breaks as ``case`` says."""
    layout = tmp_path / "layout"
    layout.mkdir()
    path = layout / "doc.json"
    if case == "schema":
        revenue_payload["pages"][0]["page_number"] = 0
        path.write_text(json.dumps(revenue_payload), encoding="utf-8")
    elif case == "json":
        path.write_text('{"document_id":\n', encoding="utf-8")
    else:  # not UTF-8
        path.write_bytes(json.dumps(revenue_payload).encode("utf-8") + b"\xff")
    return path


@pytest.mark.parametrize(
    "case,error,detail",
    [
        ("schema", "SchemaError", "pages[0].page_number: must be >= 1"),
        ("json", "JSONDecodeError", "line 2 column 1"),
        ("utf8", "UnicodeDecodeError", "0xff"),
    ],
)
def test_ingest_error_names_its_payload_file(revenue_payload, tmp_path, capsys, case, error, detail):
    # In a directory of many payloads, the error said which field broke but
    # not in which file.
    path = _payload_file(revenue_payload, tmp_path, case)
    code, out, err = run(
        capsys, "ingest", "--layout", str(path.parent), "--index", str(tmp_path / "i")
    )
    assert code == 1
    assert out == ""
    message = json.loads(err)
    assert message["error"] == error
    assert message["message"].startswith(f"{path}: ")
    assert detail in message["message"]
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("charts", ["missing", "file", "empty"])
def test_ingest_refuses_charts_that_are_no_directory(corpus, tmp_path, capsys, source, charts):
    # A mistyped --charts dropped every chart from the index, with exit 0.
    target = {"missing": str(tmp_path / "no-such-dir"), "empty": ""}.get(charts)
    if charts == "file":
        target = str(tmp_path / "charts.csv")
        Path(target).write_text("x,y\n1,2\n", encoding="utf-8")
    argv = ["ingest", "--layout", str(corpus["layout_dir"]), "--index", str(tmp_path / "i")]
    if source == "flag":
        argv += ["--charts", target]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"charts": target}), encoding="utf-8")
        argv = ["--config", str(config), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    message = json.loads(err)
    assert message["error"] == "ValueError"
    assert f"chart directory {target!r} is not a directory" in message["message"]
    assert not (tmp_path / "i").exists()


def test_ingest_skips_an_undecodable_chart_csv(corpus, tmp_path, capsys, caplog):
    # A chart CSV holding byte 0xff aborted the whole ingest with an error
    # naming no file.
    broken = corpus["charts_dir"] / "alpha-10k__p2__f0.csv"
    broken.write_bytes(broken.read_bytes() + b"\xff")
    with caplog.at_level("WARNING"):
        index_path, _ = ingest(corpus, tmp_path, capsys)
    assert any(str(broken) in record.getMessage() for record in caplog.records)
    texts = [chunk.text for chunk in VectorIndex.load(index_path).chunks()]
    assert not any("Cloud revenue" in t for t in texts)  # the broken chart's
    assert any("Charter income" in t for t in texts)  # another document's chart


def test_ingest_keeps_a_chart_whose_header_dedupes_into_a_taken_key(corpus, tmp_path, capsys):
    # The header v, v, v#2 aborted the whole ingest with exit 1.
    chart = corpus["charts_dir"] / "alpha-10k__p2__f0.csv"
    chart.write_text("v,v,v#2\n1,2,3\n", encoding="utf-8")
    index_path, _ = ingest(corpus, tmp_path, capsys)
    texts = [chunk.text for chunk in VectorIndex.load(index_path).chunks()]
    assert any('{"v": "1", "v#3": "2", "v#2": "3"}' in t for t in texts)


def test_ingest_charts_dir_autodetected(corpus, tmp_path, capsys):
    # corpus charts live at <layout>/charts, so chart text must be indexed
    index_path, _ = ingest(corpus, tmp_path, capsys)
    index = VectorIndex.load(index_path)
    texts = [index.get(cid).chunk.text for cid in index.chunk_ids()]
    assert any("Cloud revenue" in t for t in texts)


def test_ingest_explicit_charts_dir(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys, "--charts", str(corpus["charts_dir"]))
    index = VectorIndex.load(index_path)
    texts = [index.get(cid).chunk.text for cid in index.chunk_ids()]
    assert any("Charter income" in t for t in texts)


def test_ingest_dataframe_format(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys, "--table-format", "dataframe")
    index = VectorIndex.load(index_path)
    texts = [index.get(cid).chunk.text for cid in index.chunk_ids()]
    assert any("Total staff;,Office count;" in t for t in texts)


def test_ingest_chunk_size_flag(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys, "--chunk-size", "5")
    index = VectorIndex.load(index_path)
    assert len(index) > 6
    for chunk_id in index.chunk_ids():
        assert index.get(chunk_id).chunk.token_count <= 5


@pytest.mark.parametrize("size", ["0", "-3"])
def test_ingest_refuses_a_bad_chunk_size_before_reading_any_payload(tmp_path, capsys, size):
    # The payload's SchemaError was reported instead, and a good payload
    # was read and pre-processed before the refusal.
    layout = tmp_path / "layout"
    layout.mkdir()
    (layout / "doc.json").write_text('{"bad": 1}', encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--layout", str(layout), "--index", str(tmp_path / "i"), "--chunk-size", size
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"chunk_size must be an integer >= 1, got {size}"}
    assert not (tmp_path / "i").exists()


# --- query ------------------------------------------------------------------

def test_query_answers_from_index(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, out, err = run(
        capsys,
        "query",
        "--index",
        str(index_path),
        "--question",
        "What was the widget output reported by ALPHA?",
        "--filter",
        "company=ALPHA",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "answer: 4200 units."
    assert lines[1] == "retrieved:"
    assert all(line.startswith("  alpha-10k:") for line in lines[2:])


def test_query_k_larger_than_index(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, out, _ = run(
        capsys,
        "query",
        "--index",
        str(index_path),
        "--question",
        "What was the fleet size reported by BETA?",
        "--k",
        "50",
    )
    assert code == 0
    assert len(out.splitlines()) == 2 + 6  # answer + header + every chunk


def test_query_filter_coerces_integers(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, out, _ = run(
        capsys,
        "query",
        "--index",
        str(index_path),
        "--question",
        "What total staff did ALPHA report?",
        "--filter",
        "year=2021",
    )
    assert code == 0
    assert out.splitlines()[0] == "answer: 912"


def _one_page_payload(document_id, company, section_title):
    box = {"page_number": 1, "polygon": [[0, 0], [10, 0], [10, 10]]}
    return {
        "document_id": document_id,
        "attributes": {"company": company, "year": 2021},
        "pages": [{
            "page_number": 1,
            "text_blocks": [
                {"role": "section_title", "content": section_title, "region": box},
                {"role": "paragraph", "content": f"{company} staff count.", "region": box},
            ],
            "tables": [],
            "figures": [],
        }],
    }


def test_query_filter_converts_integers_only_for_integer_fields(tmp_path, capsys):
    # A string field's integer-looking value must stay a string to match.
    layout = tmp_path / "layout"
    layout.mkdir()
    for payload in (_one_page_payload("bond", "007", "2023"), _one_page_payload("q", "MI6", "Gadgets")):
        (layout / f"{payload['document_id']}.json").write_text(json.dumps(payload), encoding="utf-8")
    index_path = tmp_path / "two.index"
    assert run(capsys, "ingest", "--layout", str(layout), "--index", str(index_path))[0] == 0
    expected = {"company=007": ["bond:1:0"], "section_title=2023": ["bond:1:0"],
                "year=2021": ["bond:1:0", "q:1:0"]}
    for pair, ids in expected.items():
        code, out, err = run(
            capsys, "query", "--index", str(index_path), "--question", "staff count",
            "--k", "2", "--filter", pair, "--filter", "page_number=1",
        )
        assert code == 0, err
        assert sorted(line.split()[0] for line in out.splitlines()[2:]) == ids, pair
    for pair in ("year=2021.0", "page_number=one", "year="):
        code, out, err = run(
            capsys, "query", "--index", str(index_path), "--question", "q", "--filter", pair
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert pair.split("=")[0] in error["message"] and "integer" in error["message"]


def test_query_bad_filter_syntax(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, _, err = run(
        capsys,
        "query",
        "--index",
        str(index_path),
        "--question",
        "anything",
        "--filter",
        "notapair",
    )
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_query_refuses_filter_on_no_metadata_field(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, out, err = run(
        capsys, "query", "--index", str(index_path), "--question", "q", "--filter", "compnay=ALPHA"
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "'compnay'" in error["message"] and "company" in error["message"]


@pytest.mark.parametrize(
    "flags,shown",
    [(["company=NOBODY"], "{'company': 'NOBODY'}"),
     (["company=ALPHA", "year=1999"], "{'company': 'ALPHA', 'year': 1999}")],
    ids=["no-such-company", "no-such-pair"],
)
def test_query_refuses_filters_that_keep_no_chunk(corpus, tmp_path, capsys, monkeypatch, flags, shown):
    # The answer was empty, the retrieved list too, and the exit status 0.
    index_path, _ = ingest(corpus, tmp_path, capsys)

    def called(*_):
        raise AssertionError("the reader was called")

    monkeypatch.setattr(ContextLookupLLM, "complete", called)
    argv = [arg for text in flags for arg in ("--filter", text)]
    code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "q", *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {
        "error": "ValueError", "message": f"filters {shown} keep no chunk of index {index_path}"
    }


def _empty_index(path):
    """An index of no chunks that ``docrag query`` can embed for."""
    VectorIndex(dimension=8, provider_tag=HashingEmbedder(dimension=8).tag).persist(path)


def test_query_refuses_an_index_of_no_chunks(tmp_path, capsys):
    # The answer was empty, with only a warning, and the exit status 0.
    index_path = tmp_path / "empty.index"
    _empty_index(index_path)
    code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "q")
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "ValueError", "message": f"filters {{}} keep no chunk of index {index_path}"}


# Filters the one rule (chunking.check_filter) refuses, each with the
# --filter text that carries it where there is one: the CLI's text for an
# integer field becomes an int, and no text becomes a float, bool or list.
REFUSED_FILTERS = {
    "misspelt-field": ("compnay", "ACME", "compnay=ACME"),
    "region": ("region", "x", "region=x"),
    "no-such-field": ("colour", "red", "colour=red"),
    "string-year": ("year", "2013", None),
    "float-year": ("year", 2013.0, None),
    "boolean-page-number": ("page_number", True, None),
    "list-value": ("company", ["ACME"], None),
}


@pytest.mark.parametrize("case", REFUSED_FILTERS)
def test_config_query_and_dataset_refuse_a_filter_alike(tmp_path, capsys, case):
    name, value, text = REFUSED_FILTERS[case]
    with pytest.raises(ValueError) as refused:
        RetrievalConfig(filters=((name, value),))
    message = str(refused.value)
    assert repr(name) in message
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(_qa_line(filters={name: value}), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(dataset)
    assert str(info.value) == f"line 1: {message}"
    if text is not None:
        index_path = tmp_path / "empty.index"
        _empty_index(index_path)
        code, out, err = run(
            capsys, "query", "--index", str(index_path), "--question", "q", "--filter", text
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": message}


def test_query_refuses_a_whitespace_only_question(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "   ")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1  # no all-zero query warning before it
    assert json.loads(err) == {"error": "ValueError", "message": "question must be non-empty"}


def test_query_missing_index_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "query", "--index", str(tmp_path / "absent.index"), "--question", "q"
    )
    assert code == 1
    error = json.loads(err)
    assert error["error"] in ("FileNotFoundError", "OSError")


def test_query_index_entry_with_null_metadata_fails_with_one_json_error(tmp_path, capsys):
    index_path = tmp_path / "bad.index"
    _empty_index(index_path)
    header = index_path.read_text(encoding="utf-8")
    line = {"chunk_id": "d:1:0", "text": "t", "token_count": 1, "metadata": None, "vector": [0.0] * 8}
    index_path.write_text(header.replace('"count": 0', '"count": 1') + json.dumps(line) + "\n",
                          encoding="utf-8")
    code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "q")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "IndexLoadError"
    assert error["message"] == f"byte {len(header)}: bad entry line: metadata must be a JSON object, got None"


def test_query_unknown_embedding_provider_fails(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    index = VectorIndex.load(index_path)
    index.provider_tag = "bogus"
    index.persist(index_path)
    code, out, err = run(
        capsys, "query", "--index", str(index_path), "--question", "anything"
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "'bogus'" in error["message"]


def test_query_unknown_tokenizer_fails(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    index = VectorIndex.load(index_path)
    index.tokenizer_tag = "bogus-tokenizer"
    index.persist(index_path)
    code, out, err = run(
        capsys, "query", "--index", str(index_path), "--question", "anything"
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "'bogus-tokenizer'" in error["message"]


def test_query_index_header_tag_that_is_no_string_fails_at_byte_0(tmp_path, capsys):
    # A null tag loaded as the tag 'None', and query then named an "unknown
    # tokenizer 'None'", a value the file never held.
    index_path = tmp_path / "bad.index"
    _empty_index(index_path)
    header = json.loads(index_path.read_text(encoding="utf-8"))
    index_path.write_text(json.dumps({**header, "tokenizer": None}) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "query", "--index", str(index_path), "--question", "q")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "IndexLoadError"
    assert error["message"] == "byte 0: header tokenizer must be a string, got None"


def test_query_refuses_dimension_that_disagrees_with_hash_tag(corpus, tmp_path, capsys):
    # The header's dimension and hashing tag must name the same embedder;
    # querying with either one alone would rank with the wrong vectors.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    index = VectorIndex.load(index_path)
    index.provider_tag = "feature-hash-v1-64"
    index.persist(index_path)
    code, out, err = run(
        capsys, "query", "--index", str(index_path), "--question", "anything"
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "'feature-hash-v1-64'" in error["message"]
    assert "256" in error["message"]


def test_query_refuses_http_embedding_tag(corpus, tmp_path, capsys, monkeypatch):
    # No command writes this tag and it records no model, so a query must
    # not reach an embeddings endpoint for it: the header is refused first.
    monkeypatch.setenv("DOCRAG_EMBED_ENDPOINT", "http://127.0.0.1:9/embed")
    index_path, _ = ingest(corpus, tmp_path, capsys)
    index = VectorIndex.load(index_path)
    index.provider_tag = "http-embedding"
    index.persist(index_path)
    code, out, err = run(
        capsys, "query", "--index", str(index_path), "--question", "anything"
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "'http-embedding'" in error["message"]


def test_query_mock_provider_with_answers(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"Scripted?": "yes indeed"}), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "query",
        "--index",
        str(index_path),
        "--question",
        "Scripted?",
        "--provider",
        "mock",
        "--answers",
        str(answers),
    )
    assert code == 0
    assert out.splitlines()[0] == "answer: yes indeed"


@pytest.mark.parametrize("source", ["flag", "config", "default"])
@pytest.mark.parametrize("command", ["query", "eval"])
def test_answers_refused_unless_provider_is_mock(corpus, tmp_path, capsys, command, source):
    # The file was ignored, with exit 0, under any provider but mock.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"x": 5}), encoding="utf-8")
    report = tmp_path / "report.json"
    argv = {
        "query": ["query", "--index", str(index_path), "--question", "q"],
        "eval": ["eval", "--index", str(index_path), "--dataset", str(corpus["dataset"]),
                 "--report", str(report)],
    }[command] + ["--answers", str(answers)]
    if source == "flag":
        argv += ["--provider", "lookup"]
    elif source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"provider": "lookup"}), encoding="utf-8")
        argv = ["--config", str(config), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "--answers is read only by provider 'mock', not 'lookup'" in error["message"]
    assert not report.exists()


# --- eval --------------------------------------------------------------------

def test_eval_writes_report(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    report_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        "eval",
        "--index",
        str(index_path),
        "--dataset",
        str(corpus["dataset"]),
        "--report",
        str(report_path),
    )
    assert code == 0, err
    assert "accuracy 1.000 (10/10)" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["accuracy"] == 1.0
    assert report["total_cost_usd"] == 0.0


def test_eval_is_deterministic(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run(
            capsys,
            "eval",
            "--index",
            str(index_path),
            "--dataset",
            str(corpus["dataset"]),
            "--report",
            str(path),
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("source", ["index", "dataset"])
def test_eval_refuses_a_report_that_names_a_file_it_reads(corpus, tmp_path, capsys, source):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    paths = {"index": index_path, "dataset": corpus["dataset"]}
    before = paths[source].read_bytes()
    code, out, err = run(
        capsys, "eval", "--index", str(index_path), "--dataset", str(corpus["dataset"]),
        "--report", str(paths[source]),
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"output path {paths[source]} is the input {paths[source]}",
    }
    assert paths[source].read_bytes() == before


def test_eval_model_tag_prices_calls(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "eval",
        "--index",
        str(index_path),
        "--dataset",
        str(corpus["dataset"]),
        "--report",
        str(report_path),
        "--model-tag",
        "gpt-4o",
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total_cost_usd"] > 0


def test_eval_workers_must_be_positive(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eval_workers": 0}), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        "--config",
        str(config),
        "eval",
        "--index",
        str(index_path),
        "--dataset",
        str(corpus["dataset"]),
        "--report",
        str(report_path),
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "eval_workers" in error["message"]
    assert not report_path.exists()


def test_eval_refuses_examples_whose_filters_keep_none_of_their_document(corpus, tmp_path, capsys):
    # One conftest example with its company filter swapped to another
    # company, and one with a year no chunk holds: each would be a certain
    # miss, so the eval exits 1 naming both and writes no report.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    examples = corpus["examples"]
    swapped = {**examples[0], "filters": {"company": "GAMMA"}}
    vintage = {**examples[1], "filters": {"year": 1999}}
    dataset = tmp_path / "excluded.jsonl"
    dataset.write_text("".join(json.dumps(e) + "\n" for e in (examples[2], swapped, vintage)), encoding="utf-8")
    report = tmp_path / "r.json"
    code, _, err = run(capsys, "eval", "--index", str(index_path), "--dataset", str(dataset), "--report", str(report))
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert error["message"] == (
        "examples whose filters keep no chunk of their document: "
        f"question {swapped['question']!r}, filters {{'company': 'GAMMA'}}, document 'alpha-10k'; "
        f"question {vintage['question']!r}, filters {{'year': 1999}}, document 'alpha-10k'"
    )
    assert not report.exists()


def test_eval_missing_documents(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    dataset = tmp_path / "ghost.jsonl"
    dataset.write_text(
        json.dumps(
            {
                "question": "q",
                "gold_answer": "a",
                "difficulty": "low",
                "target": "text",
                "document_id": "ghost-10k",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys,
        "eval",
        "--index",
        str(index_path),
        "--dataset",
        str(dataset),
        "--report",
        str(tmp_path / "r.json"),
    )
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "MissingDocumentsError"
    assert "ghost-10k" in error["message"]


# --- cost ---------------------------------------------------------------------

def test_cost_prints_default_table(capsys):
    code, out, _ = run(capsys, "cost")
    assert code == 0
    assert "ours" in out
    assert "0.00231" in out
    assert "0.0765" in out


def test_cost_tokens_per_page_flag(capsys):
    code, out, _ = run(capsys, "cost", "--tokens-per-page", "1200")
    assert code == 0
    assert "per-call cost at 1200 input tokens" in out
    assert "0.0006" in out  # gpt-3.5 at 1200 tokens


def test_cost_pricing_override(tmp_path, capsys):
    pricing = tmp_path / "pricing.json"
    pricing.write_text(
        json.dumps({"credits": {"llamaparse": {"credits_per_page": 1.0, "usd_per_credit": 0.05}}}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "cost", "--pricing", str(pricing))
    assert code == 0
    assert "0.05000" in out


def test_cost_bad_pricing_file(tmp_path, capsys):
    pricing = tmp_path / "broken.json"
    pricing.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "cost", "--pricing", str(pricing))
    assert code == 1
    # json.JSONDecodeError is a ValueError; the concrete name is reported
    assert json.loads(err)["error"] == "JSONDecodeError"


# --- config file and precedence ---------------------------------------------------

def test_config_supplies_defaults(corpus, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk_size": 5}), encoding="utf-8")
    index_path = tmp_path / "via-config.index"
    code, _, _ = run(
        capsys,
        "--config",
        str(config),
        "ingest",
        "--layout",
        str(corpus["layout_dir"]),
        "--index",
        str(index_path),
    )
    assert code == 0
    index = VectorIndex.load(index_path)
    assert all(index.get(cid).chunk.token_count <= 5 for cid in index.chunk_ids())


def test_flag_beats_config(corpus, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk_size": 5}), encoding="utf-8")
    index_path = tmp_path / "flag-wins.index"
    code, _, _ = run(
        capsys,
        "--config",
        str(config),
        "ingest",
        "--layout",
        str(corpus["layout_dir"]),
        "--index",
        str(index_path),
        "--chunk-size",
        "600",
    )
    assert code == 0
    assert len(VectorIndex.load(index_path)) == 6


def test_config_must_be_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(config), "cost")
    assert code == 1
    assert "JSON object" in json.loads(err)["message"]


# Each setting: (the command that reads it, its default, a config value,
# the flag that overrides it and that flag's value, or None where no flag does).
SETTING_SOURCES = {
    "chunk_size": ("ingest", 600, 5, ("--chunk-size", "7", 7)),
    "k": ("query", 3, 5, ("--k", "7", 7)),
    "eval_workers": ("eval", 4, 2, None),
    "table_format": ("ingest", "json", "dataframe", ("--table-format", "json", "json")),
    "charts": ("ingest", None, "from-config", ("--charts", "from-flag", "from-flag")),
    "provider": ("query", "lookup", "mock", ("--provider", "http", "http")),
    "model_tag": ("eval", None, "gpt-4", ("--model-tag", "gpt-4o", "gpt-4o")),
    "pricing": ("cost", None, "config.json", ("--pricing", "flag.json", "flag.json")),
}

_COMMAND_ARGV = {
    "ingest": ["ingest", "--layout", "layout", "--index", "out.index"],
    "query": ["query", "--index", "in.index", "--question", "q"],
    "eval": ["eval", "--index", "in.index", "--dataset", "qa.jsonl", "--report", "r.json"],
    "cost": ["cost"],
}


def test_setting_sources_cover_every_setting():
    assert set(SETTING_SOURCES) == set(cli._SETTINGS)


@pytest.mark.parametrize("key", SETTING_SOURCES)
def test_each_setting_takes_flag_then_config_then_default(tmp_path, capsys, monkeypatch, key):
    command, default, config_value, flag = SETTING_SOURCES[key]
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(getattr(args, key)) or 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: config_value}), encoding="utf-8")
    argv = _COMMAND_ARGV[command]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "--config", str(config), *argv)[0] == 0
    expected = [default, config_value]
    if flag is not None:
        name, text, value = flag
        assert run(capsys, "--config", str(config), *argv, name, text)[0] == 0
        expected.append(value)
    assert seen == expected


def _refused_before_load(tmp_path, case):
    """(argv, error, text the message must hold) for ``case``, with --index
    naming a file that does not exist."""
    files = {
        "answers.json": "{}",
        "list.json": "[1]",
        "config.json": json.dumps({"provider": "gpt"}),
        "qa.jsonl": _qa_line(),
        "unknown-key.jsonl": _qa_line(filtres={"company": "ALPHA"}),
        "pricing.json": '{"per_token": {"gpt-4o": NaN}}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    absent = str(tmp_path / "absent.index")
    query = ["query", "--index", absent, "--question", "q"]
    evaluate = ["eval", "--index", absent, "--report", str(tmp_path / "r.json"), "--dataset"]
    return {
        "answers-list": (query + ["--provider", "mock", "--answers", str(tmp_path / "list.json")],
                         "ValueError", "must hold a JSON object"),
        "answers-lookup": (query + ["--provider", "lookup", "--answers", str(tmp_path / "answers.json")],
                           "ValueError", "--answers is read only by provider 'mock'"),
        "config-provider": (["--config", str(tmp_path / "config.json"), *query], "ValueError",
                            "config key 'provider' must be one of ('lookup', 'mock', 'http'), got 'gpt'"),
        "filter": (query + ["--filter", "year=x"], "ValueError", "filter year must be an integer"),
        "query-k": (query + ["--k", "0"], "ValueError", "k must be an integer >= 1, got 0"),
        "eval-k": (evaluate + [str(tmp_path / "qa.jsonl"), "--k", "0"], "ValueError", "k must be an integer >= 1, got 0"),
        "dataset": (evaluate + [str(tmp_path / "unknown-key.jsonl")], "SchemaError", "'filtres'"),
        "pricing": (evaluate + [str(tmp_path / "qa.jsonl"), "--pricing", str(tmp_path / "pricing.json")],
                    "ValueError", "per_token.gpt-4o"),
        "model-tag": (evaluate + [str(tmp_path / "qa.jsonl"), "--model-tag", "gpt-5"],
                      "ValueError", "unknown model 'gpt-5'"),
        "blank-question": (["query", "--index", absent, "--question", "   "],
                           "ValueError", "question must be non-empty"),
        "report-missing-directory": (["eval", "--index", absent, "--report", str(tmp_path / "no" / "r.json"),
                                      "--dataset", str(tmp_path / "unknown-key.jsonl")],
                                     "FileNotFoundError", str(tmp_path / "no" / "r.json")),
        "report-is-a-directory": (["eval", "--index", absent, "--report", str(tmp_path),
                                   "--dataset", str(tmp_path / "unknown-key.jsonl")],
                                  "IsADirectoryError", f"output path {tmp_path} is a directory"),
    }[case]


@pytest.mark.parametrize(
    "case",
    ["answers-list", "answers-lookup", "config-provider", "filter", "query-k", "eval-k",
     "dataset", "pricing", "model-tag", "blank-question", "report-missing-directory",
     "report-is-a-directory"],
)
def test_cheap_inputs_are_refused_before_the_index_is_read(tmp_path, capsys, case):
    # Each reported FileNotFoundError for the index, which was loaded first.
    argv, error, text = _refused_before_load(tmp_path, case)
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    message = json.loads(err)
    assert message["error"] == error
    assert text in message["message"]


@pytest.mark.parametrize("command", ["ingest", "query", "eval", "cost"])
def test_every_command_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert f"usage: docrag {command}" in capsys.readouterr().out


# (flags after "query --index i", text the message must hold)
USAGE_ERRORS = {
    "k-no-int": (["--question", "q", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
    "unknown-flag": (["--question", "q", "--colour", "red"], "unrecognized arguments: --colour red"),
    "missing-question": ([], "the following arguments are required: --question"),
    "unknown-provider": (["--question", "q", "--provider", "gpt"], "argument --provider: invalid choice: 'gpt'"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_a_usage_error_is_one_json_line_with_status_2(capsys, case):
    # argparse printed its usage and the error on several lines.
    flags, text = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as done:
        main(["query", "--index", "i", *flags])
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.count("\n")) == ("", 1)
    error = json.loads(captured.err)
    assert error["error"] == "ArgumentError"
    assert text in error["message"]


def _qa_line(**fields):
    record = {
        "question": "q",
        "gold_answer": "a",
        "difficulty": "low",
        "target": "text",
        "document_id": "alpha-10k",
        **fields,
    }
    return json.dumps(record) + "\n"


# (command the file feeds, file content, error type, text the message must hold)
MALFORMED_INPUTS = {
    "dataset-filters-list": (
        "dataset", _qa_line(filters=["company", "ALPHA"]), "SchemaError", "filters"
    ),
    "dataset-filters-string": ("dataset", _qa_line(filters="ALPHA"), "SchemaError", "filters"),
    "dataset-filters-empty-list": ("dataset", _qa_line(filters=[]), "SchemaError", "filters"),
    "dataset-filters-false": ("dataset", _qa_line(filters=False), "SchemaError", "filters"),
    "dataset-list-filter-value": (
        "dataset", _qa_line(filters={"company": ["ALPHA"]}), "SchemaError", "'company'"
    ),
    "dataset-object-filter-value": (
        "dataset", _qa_line(filters={"year": {"eq": 2021}}), "SchemaError", "'year'"
    ),
    "dataset-misspelt-filter-name": (
        "dataset", _qa_line(filters={"compnay": "ALPHA"}), "SchemaError", "'compnay'"
    ),
    "dataset-string-year-filter": (
        "dataset", _qa_line(filters={"year": "2013"}), "SchemaError", "'year'"
    ),
    "dataset-boolean-year-filter": (
        "dataset", _qa_line(filters={"year": True}), "SchemaError", "'year'"
    ),
    "dataset-null-document-id-filter": (
        "dataset", _qa_line(filters={"document_id": None}), "SchemaError", "'document_id'"
    ),
    "dataset-null-reference-count": (
        "dataset", _qa_line(reference_count=None), "SchemaError", "reference_count"
    ),
    "dataset-null-gold-answer": (
        "dataset", _qa_line(gold_answer=None), "SchemaError", "gold_answer"
    ),
    "dataset-number-question": ("dataset", _qa_line(question=7), "SchemaError", "question"),
    "dataset-list-document-id": (
        "dataset", _qa_line(document_id=["alpha-10k"]), "SchemaError", "document_id"
    ),
    # a misspelt key would leave the question unfiltered
    "dataset-unknown-key": (
        "dataset", _qa_line(filtres={"company": "ALPHA"}), "SchemaError", "'filtres'"
    ),
    "pricing-not-object": ("pricing", "[1]", "ValueError", "pricing must be a JSON object, got [1]"),
    "pricing-group-not-object": ("pricing", {"per_token": [1]}, "ValueError", "per_token"),
    "pricing-null-rate": (
        "pricing", {"per_page": {"chart-to-table": None}}, "ValueError", "chart-to-table"
    ),
    "pricing-credits-no-rate": (
        "pricing", {"credits": {"x": {"usd_per_credit": 0.1}}}, "ValueError", "credits_per_page"
    ),
    "pricing-nan-rate": ("pricing", '{"per_token": {"gpt-4o": NaN}}', "ValueError", "gpt-4o"),
    "pricing-bool-rate": ("pricing", {"per_token": {"gpt-4o": True}}, "ValueError", "gpt-4o"),
    "pricing-string-rate": ("pricing", {"per_token": {"gpt-4o": "0.5"}}, "ValueError", "gpt-4o"),
    "pricing-huge-int-rate": (
        "pricing", '{"per_token": {"gpt-4o": 1%s}}' % ("0" * 400), "ValueError", "gpt-4o"
    ),
    "pricing-null-tokens-per-page": (
        "pricing", {"tokens_per_page": None}, "ValueError", "tokens_per_page"
    ),
    "pricing-fractional-tokens-per-page": (
        "pricing", {"tokens_per_page": 2.5}, "ValueError", "tokens_per_page"
    ),
    # an unknown key would leave the default rate in place
    "pricing-unknown-key": ("pricing", {"per_tokens": {"gpt-4o": 1.0}}, "ValueError", "'per_tokens'"),
    "pricing-credits-unknown-key": (
        "pricing",
        {"credits": {"x": {"credits_per_page": 1, "usd_per_credit": 0.1, "usd_per_credits": 2}}},
        "ValueError",
        "'usd_per_credits'",
    ),
    "config-null-k": ("config query", {"k": None}, "ValueError", "'k'"),
    "config-float-k": ("config query", {"k": 2.5}, "ValueError", "'k'"),
    "config-list-model-tag": ("config query", {"model_tag": ["gpt-4o"]}, "ValueError", "model_tag"),
    "config-null-chunk-size": ("config ingest", {"chunk_size": None}, "ValueError", "chunk_size"),
    "config-int-charts": ("config ingest", {"charts": 5}, "ValueError", "charts"),
    "config-unknown-table-format": (
        "config ingest", {"table_format": "xml"}, "ValueError", "'table_format'"
    ),
    "config-null-eval-workers": (
        "config eval", {"eval_workers": None}, "ValueError", "eval_workers"
    ),
    "config-string-eval-workers": (
        "config eval", {"eval_workers": "2"}, "ValueError", "eval_workers"
    ),
    # unknown keys would leave eval on 4 workers with the lookup reader
    "config-unknown-keys": (
        "config eval", {"eval_worker": 1, "provder": "mock"}, "ValueError", "'eval_worker'"
    ),
    "answers-number-answer": ("answers", {"What is x?": 5}, "ValueError", "'What is x?'"),
    "answers-null-answer": ("answers", {"q": None}, "ValueError", "'q'"),
    "answers-list-of-pairs": ("answers", [["What is x?", "7"]], "ValueError", "JSON object"),
    "answers-string": ("answers", '"7"', "ValueError", "JSON object"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_file_fails_with_one_json_error(corpus, tmp_path, capsys, case):
    command, content, error, key = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    index_path = tmp_path / "corpus.index"
    if command not in ("pricing", "config ingest"):
        ingest(corpus, tmp_path, capsys)
    report = str(tmp_path / "report.json")
    argv = {
        "dataset": ["eval", "--index", str(index_path), "--dataset", str(path), "--report", report],
        "pricing": ["cost", "--pricing", str(path)],
        "config query": [
            "--config", str(path), "query", "--index", str(index_path), "--question", "q",
        ],
        "config ingest": [
            "--config", str(path), "ingest", "--layout", str(corpus["layout_dir"]),
            "--index", str(index_path),
        ],
        "config eval": [
            "--config", str(path), "eval", "--index", str(index_path),
            "--dataset", str(corpus["dataset"]), "--report", report,
        ],
        "answers": [
            "query", "--index", str(index_path), "--question", "q",
            "--provider", "mock", "--answers", str(path),
        ],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    message = json.loads(err)
    assert message["error"] == error
    assert key in message["message"]
    if command == "dataset":
        assert message["message"].startswith("line 1:")
    if command == "answers":
        assert str(path) in message["message"]


def test_unknown_key_errors_name_the_known_keys(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"provder": "mock"}), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        _load_config(str(path))
    assert str(info.value) == (
        "config key 'provder' is not one of chunk_size, k, eval_workers, "
        "table_format, charts, provider, model_tag, pricing"
    )
    path.write_text(json.dumps({"per_tokens": {}}), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_pricing(path)
    assert str(info.value) == (
        "pricing key 'per_tokens' is not one of tokens_per_page, per_token, per_call_flat, "
        "per_page, credits"
    )
    path.write_text(json.dumps({"credits": {"x": {"credit_per_page": 1}}}), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_pricing(path)
    assert str(info.value) == (
        "pricing credits.x key 'credit_per_page' is not one of credits_per_page, usd_per_credit"
    )
    path.write_text(_qa_line(filtres={}), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert str(info.value) == (
        "line 1: example key 'filtres' is not one of question, gold_answer, difficulty, target, "
        "document_id, reference_count, filters"
    )


@pytest.mark.parametrize("content", ["", "\n  \n"])
def test_eval_refuses_a_dataset_with_no_examples(corpus, tmp_path, capsys, content):
    # An accuracy of 0/0 measures nothing.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text(content, encoding="utf-8")
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "eval", "--index", str(index_path), "--dataset", str(dataset), "--report", str(report)
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "ValueError", "message": f"dataset {dataset} holds no examples"}
    assert not report.exists()


def test_unknown_provider_rejected_by_parser(corpus, tmp_path, capsys):
    index_path, _ = ingest(corpus, tmp_path, capsys)
    with pytest.raises(SystemExit):
        main(
            [
                "query",
                "--index",
                str(index_path),
                "--question",
                "q",
                "--provider",
                "oracle",
            ]
        )


def test_cli_import_loads_no_http_client():
    code = (
        "import sys, docrag.cli; "
        "print([m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(docrag.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


def _modules_loaded(*steps: str) -> list[list[str]]:
    """The modules each statement of ``steps`` loads, run in turn in a fresh interpreter."""
    script = "import sys\n" + "".join(
        f"before = set(sys.modules)\n{step}\nprint(' '.join(sorted(set(sys.modules) - before)))\n"
        for step in steps
    )
    env = {**os.environ, "PYTHONPATH": str(Path(docrag.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return [line.split() for line in done.stdout.splitlines()]


def test_cli_import_loads_only_what_every_command_shares():
    # No layout, tables, charts, preprocess, evaluation, costs or generation.
    [loaded] = _modules_loaded("import docrag.cli")
    assert [name for name in loaded if name.startswith("docrag")] == [
        "docrag", "docrag.chunking", "docrag.cli", "docrag.embedding", "docrag.errors",
        "docrag.index", "docrag.providers", "docrag.tokens",
    ]
    assert "concurrent.futures" not in loaded  # the eval harness's thread pool


def test_query_setup_adds_only_generation(corpus, tmp_path, capsys):
    # What a query process does past the import: load the index, build the reader.
    index_path, _ = ingest(corpus, tmp_path, capsys)
    _, loaded = _modules_loaded(
        "import docrag.cli",
        f"docrag.cli.VectorIndex.load({str(index_path)!r}); docrag.cli.ContextLookupLLM()",
    )
    assert [name for name in loaded if name.startswith("docrag")] == ["docrag.generation"]


def test_error_output_is_single_json_line(tmp_path, capsys):
    code, _, err = run(
        capsys, "query", "--index", str(tmp_path / "none.index"), "--question", "q"
    )
    assert code == 1
    assert err.count("\n") == 1
    json.loads(err)  # parses cleanly


# --- JSON nested too deeply to decode ----------------------------------------

# Nested far past the interpreter's recursion limit, which the JSON scanner
# meets as a RecursionError.
_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_DEEP = "document nested too deeply to decode"


def _deep_input(tmp_path, case):
    """(argv that feeds ``_DEEP`` to ``case``'s decode site, error, start of
    its message)."""
    path = tmp_path / "deep.json"
    path.write_text(_DEEP, encoding="utf-8")
    absent = str(tmp_path / "absent.index")
    query = ["query", "--index", absent, "--question", "q"]
    if case == "payload":
        layout = tmp_path / "layout"
        layout.mkdir()
        path = path.replace(layout / "doc.json")
        return (["ingest", "--layout", str(layout), "--index", str(tmp_path / "i")],
                "JSONDecodeError", f"{path}: {_TOO_DEEP}")
    if case == "config":
        return ["--config", str(path), "cost"], "JSONDecodeError", _TOO_DEEP
    if case == "pricing":
        return ["cost", "--pricing", str(path)], "JSONDecodeError", _TOO_DEEP
    if case == "answers":
        return query + ["--provider", "mock", "--answers", str(path)], "JSONDecodeError", _TOO_DEEP
    if case == "dataset":
        path.write_text(_qa_line() + _DEEP + "\n", encoding="utf-8")
        return (["eval", "--index", absent, "--report", str(tmp_path / "r.json"), "--dataset", str(path)],
                "SchemaError", f"line 2: invalid JSON: {_TOO_DEEP}")
    index_path = tmp_path / "deep.index"
    if case == "index-header":
        index_path.write_text(_DEEP + "\n", encoding="utf-8")
        where = "byte 0: bad header line"
    else:  # an entry line
        _empty_index(index_path)
        header = index_path.read_text(encoding="utf-8").replace('"count": 0', '"count": 1')
        index_path.write_text(header + _DEEP + "\n", encoding="utf-8")
        where = f"byte {len(header)}: bad entry line"
    return (["query", "--index", str(index_path), "--question", "q"],
            "IndexLoadError", f"{where}: {_TOO_DEEP}")


@pytest.mark.parametrize(
    "case", ["payload", "config", "pricing", "answers", "dataset", "index-header", "index-entry"]
)
def test_input_nested_too_deeply_fails_with_one_json_error_at_its_place(tmp_path, capsys, case):
    # Each raised RecursionError out of main, which printed a traceback.
    argv, error, start = _deep_input(tmp_path, case)
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert "Traceback" not in err
    message = json.loads(err)
    assert message["error"] == error
    assert message["message"].startswith(start)
    assert not (tmp_path / "i").exists()


def test_query_reads_past_a_retrieved_line_nested_too_deeply(corpus, tmp_path, capsys):
    # The lookup reader raised RecursionError on the bracket run; it now
    # skips the line, as any line it cannot decode, and answers from the rest.
    path = corpus["layout_dir"] / "beta-10k.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    run_of_brackets = "[" * 5000 + "]" * 5000
    blocks = payload["pages"][0]["text_blocks"]
    blocks.insert(1, {**blocks[1], "content": run_of_brackets})  # a paragraph before the fact
    path.write_text(json.dumps(payload), encoding="utf-8")
    index_path, _ = ingest(corpus, tmp_path, capsys)
    assert any(run_of_brackets in chunk.text for chunk in VectorIndex.load(index_path).chunks())
    code, out, err = run(
        capsys, "query", "--index", str(index_path),
        "--question", "What was the fleet size reported by BETA?", "--filter", "company=BETA",
    )
    assert code == 0, err
    assert out.splitlines()[0] == "answer: 77 vessels."


# --- any input mutated: a clean run or one JSON error line -------------------

# What a swap puts in a node's place: a value of any other JSON type.
_SWAPS = (None, True, 0, -1, 2.5, "", "x", [], ["x"], {}, {"x": 1})
# A string json.dumps writes as one literal, which is then replaced by _DEEP.
_DEEP_MARK = "\x00deep\x00"
_FLEET = "What was the fleet size reported by BETA?"


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A corpus, its index, and a config, pricing and answers file that all run."""
    root = tmp_path_factory.mktemp("valid")
    corpus = build_corpus(root)
    index = root / "corpus.index"
    with redirect_stdout(io.StringIO()):
        assert main(["ingest", "--layout", str(corpus["layout_dir"]), "--index", str(index)]) == 0
    files = {
        "config": {"chunk_size": 64, "k": 3, "eval_workers": 1, "table_format": "json",
                   "charts": "layout/charts", "provider": "lookup", "model_tag": "gpt-4o"},
        "pricing": {"tokens_per_page": 500, "per_token": {"gpt-4o": 5e-06},
                    "per_call_flat": {"gpt-4o-image": 0.07}, "per_page": {"chart-to-table": 1e-04},
                    "credits": {"llamaparse": {"credits_per_page": 1.0, "usd_per_credit": 0.03}}},
        "answers": {_FLEET: "77 vessels"},
    }
    for name, value in files.items():
        (root / name).write_text(json.dumps(value), encoding="utf-8")
    shutil.copy(corpus["dataset"], root / "dataset")
    shutil.copy(index, root / "index")
    return root


def _mutated_node(data, text, how):
    """``text``'s JSON with one node deleted (or, at the root, swapped),
    swapped for a value of another type, or nested too deeply."""
    value = node = json.loads(text)
    parent = key = None
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if how == "delete" and parent is not None:
        del parent[key]
    else:
        swaps = [swap for swap in _SWAPS if type(swap) is not type(node)]
        new = _DEEP_MARK if how == "deep" else data.draw(st.sampled_from(swaps))
        if parent is None:
            value = new
        else:
            parent[key] = new
    return json.dumps(value).replace(json.dumps(_DEEP_MARK), _DEEP)


def _mutate(data, path, lines):
    """Rewrite ``path`` cut short, or with one node of its JSON (of one of its
    lines, when ``lines``) mutated."""
    text = path.read_text(encoding="utf-8")
    how = data.draw(st.sampled_from(["cut", "delete", "swap", "deep"]))
    if how == "cut":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    elif lines:
        rows = text.splitlines(keepends=True)
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at] = _mutated_node(data, rows[at], how) + "\n"
        text = "".join(rows)
    else:
        text = _mutated_node(data, text, how)
    path.write_text(text, encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), target=st.sampled_from(["payload", "config", "pricing", "answers", "dataset", "index"]))
def test_property_any_mutated_input_runs_or_fails_with_one_json_error(
    valid_inputs, tmp_path_factory, data, target
):
    root = tmp_path_factory.mktemp("mutated")
    for name in ("config", "pricing", "answers", "dataset", "index"):
        shutil.copy(valid_inputs / name, root / name)
    shutil.copytree(valid_inputs / "layout", root / "layout")
    if target == "payload":
        payloads = sorted((root / "layout").glob("*.json"))
        _mutate(data, data.draw(st.sampled_from(payloads)), lines=False)
    else:
        _mutate(data, root / target, lines=target in ("dataset", "index"))
    out = root / "out.index"
    ingesting = ["ingest", "--layout", "layout", "--index", str(out)]
    asking = ["query", "--index", "index", "--question", _FLEET]
    argv = {
        "payload": ingesting,
        "config": ["--config", "config", *ingesting],
        "pricing": ["cost", "--pricing", "pricing"],
        "answers": [*asking, "--provider", "mock", "--answers", "answers"],
        "dataset": ["eval", "--index", "index", "--dataset", "dataset", "--report", "report"],
        "index": asking,
    }[target]
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        err = stderr.getvalue()
        assert (code, err.count("\n")) == (1, 1), err
        assert set(json.loads(err)) == {"error", "message"}
    assert not [path.name for path in root.rglob("*.tmp")]
    if target in ("payload", "config"):
        assert out.exists() == (code == 0)
        if code == 0:
            VectorIndex.load(out)  # whole: persist wrote it in one piece
