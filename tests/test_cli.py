import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import docrag
from docrag.cli import main
from docrag.index import VectorIndex


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


def test_query_missing_index_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "query", "--index", str(tmp_path / "absent.index"), "--question", "q"
    )
    assert code == 1
    error = json.loads(err)
    assert error["error"] in ("FileNotFoundError", "OSError")


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


def test_cli_import_does_not_load_requests():
    code = "import sys, docrag.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(docrag.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "False"


def test_error_output_is_single_json_line(tmp_path, capsys):
    code, _, err = run(
        capsys, "query", "--index", str(tmp_path / "none.index"), "--question", "q"
    )
    assert code == 1
    assert err.count("\n") == 1
    json.loads(err)  # parses cleanly
