import json
import os
import re
import stat

import pytest

from docrag.errors import check_destination, decode_json
from docrag.evaluation import EvalReport, write_report
from docrag.index import VectorIndex


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
