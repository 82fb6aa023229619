"""The whole pipeline against the reference pipeline (``tests/reference.py``).

One hypothesis property writes a few small layout payloads and a dataset,
runs ``docrag ingest`` and ``docrag eval`` through ``main`` with the lookup
reader priced as gpt-4o, and compares what they wrote and answered with
the reference stages composed: the index file byte for byte, and each
question's retrieval, answer, verdict and cost. A fault at a seam between
two stages, which no one stage's oracle sees, fails here.

The payloads hold narrative with non-ASCII text and planted "key: value"
facts, whitespace-only pages, tables with a header spanning year columns,
chart CSVs, and pages repeated across documents, whose chunks then tie
exactly. Planted keys nest ("revenue" in "net revenue"), so the reader's
longest-key rule decides answers. The chunk size is sometimes exactly a
page's narrative plus its first table, so that the table fills the chunk.
"""

import json
import math
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from docrag.cli import main
from docrag.embedding import HashingEmbedder
from docrag.evaluation import evaluate_example, load_dataset
from docrag.index import VectorIndex
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import ContextLookupLLM, DirectoryChartProvider
from reference import _PIECE_RE, reference_ingest, reference_outcome

MODEL_TAG = "gpt-4o"

# Scores agree with the reference's pure-Python cosine to 1e-12 relative.
# A dot product whose exact value is 0 can round to a tiny nonzero score on
# either side (6.4e-19 against the reference's 0.0 has been seen), so
# scores that small agree absolutely.
REL_TOL, ABS_TOL = 1e-12, 1e-15

_COMPANIES = ("ACME", "BETA", "ÉCLAIR")
_YEARS = (2020, 2021)
_QUARTERS = ("Q1", "Q2", None)
_KEYS = ("revenue", "net revenue", "total net revenue", "fleet size", "units", "units shipped", "été sales")
_SERIES = ("cloud revenue", "units", "straße traffic", "revenue")
_WORDS = ("the", "fiscal", "revenue", "units", "été", "Straße", "数据", "naïve", "İstanbul", "$1,204", "(6%)",
          "—", "report", "net", "size")


def _region(page):
    return {"page_number": page, "polygon": [[0, 0], [10, 0], [10, 10], [0, 10]]}


def _cell(row, column, kind, content, span=1):
    return {"row_index": row, "column_index": column, "row_span": 1, "column_span": span,
            "kind": kind, "content": content, "region": None}


_values = st.integers(10, 99999).map(str)
_sentence = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12).map(" ".join)


def _fact(key, value):
    return ("paragraph", f"{key.capitalize()}: {value}"), ("text", key, value)


@st.composite
def _page(draw, planted=False):
    """One page's content, with no page number yet: its (role, content)
    text blocks, at most one table and one chart, and the (target, key,
    value) facts it plants, one a text fact when ``planted``. A table or
    chart fact's key is the one its question names."""
    if not planted and draw(st.integers(0, 5)) == 0:
        return {"blocks": [("paragraph", " \n\u3000 ")], "table": None, "chart": None, "facts": []}
    facts, blocks = [], []
    if planted:
        block, fact = _fact(draw(st.sampled_from(_KEYS)), draw(_values))
        blocks.append(block)
        facts.append(fact)
    if draw(st.booleans()):
        blocks.append(("section_title", draw(_sentence)))
    for _ in range(draw(st.integers(0, 3))):
        blocks.append(("paragraph", draw(_sentence)))
        if draw(st.booleans()):
            block, fact = _fact(draw(st.sampled_from(_KEYS)), draw(_values))
            blocks.append(block)
            facts.append(fact)
    table = None
    if draw(st.booleans()):
        metric, year = draw(st.sampled_from(_KEYS)), draw(st.sampled_from(_YEARS))
        years = [str(year), str(year - 1)]
        rows = [[draw(st.sampled_from(_WORDS))] + [draw(_values) for _ in years]
                for _ in range(draw(st.integers(1, 3)))]
        cells = [_cell(0, 0, "column_header", "Segment"), _cell(1, 0, "column_header", "(in millions)"),
                 _cell(0, 1, "column_header", metric, span=2)]
        cells += [_cell(1, 1 + i, "column_header", y) for i, y in enumerate(years)]
        for r, row in enumerate(rows, start=2):
            cells += [_cell(r, c, "content", text) for c, text in enumerate(row)]
        table = {"row_count": 2 + len(rows), "column_count": 3, "caption": None, "region": None, "cells": cells}
        facts += [("table", f"{metric};{y}", value) for y, value in zip(years, rows[0][1:])]
    chart = None
    if draw(st.booleans()):
        series = draw(st.lists(st.sampled_from(_SERIES), min_size=1, max_size=2, unique=True))
        rows = [[f"{q}Q21"] + [draw(_values) for _ in series] for q in range(1, draw(st.integers(1, 3)) + 1)]
        chart = "".join(",".join(row) + "\n" for row in [["Quarter", *series], *rows])
        facts += [("chart", name, value) for name, value in zip(series, rows[0][1:])]
    if not blocks and table is None and chart is None:
        blocks.append(("paragraph", draw(_sentence)))
    return {"blocks": blocks, "table": table, "chart": chart, "facts": facts}


@st.composite
def _corpora(draw):
    """Each document's id, attributes and pages; a page repeated across
    documents is the same dict in each. The first document plants a text
    fact, so there is always a question to ask."""
    shared = draw(_page())
    documents = []
    for number in range(draw(st.integers(2, 3))):
        pages = [draw(_page(planted=number == 0))] + [draw(_page()) for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            pages.insert(draw(st.integers(0, len(pages))), shared)
        documents.append({
            "document_id": f"doc-{number}",
            "attributes": {"company": draw(st.sampled_from(_COMPANIES)), "year": draw(st.sampled_from(_YEARS)),
                           "quarter": draw(st.sampled_from(_QUARTERS))},
            "pages": pages,
        })
    return documents


def _write_corpus(root, documents):
    """Write the payloads and chart CSVs under ``root/layout``; return every
    planted fact as (document, target, key, value)."""
    charts = root / "layout" / "charts"
    charts.mkdir(parents=True)
    facts = []
    for document in documents:
        pages = []
        for number, page in enumerate(document["pages"], start=1):
            figures = []
            if page["chart"] is not None:
                figures.append(_region(number))
                (charts / f"{document['document_id']}__p{number}__f0.csv").write_text(page["chart"], encoding="utf-8")
            pages.append({
                "page_number": number,
                "text_blocks": [{"role": role, "content": content, "region": _region(number)}
                                for role, content in page["blocks"]],
                "tables": [] if page["table"] is None else [page["table"]],
                "figures": figures,
            })
            facts += [(document, *fact) for fact in page["facts"]]
        payload = {"document_id": document["document_id"], "attributes": document["attributes"], "pages": pages}
        (root / "layout" / f"{document['document_id']}.json").write_text(
            json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return facts


def _dataset(draw, facts):
    """Dataset lines asking for planted facts. Each question's filters are
    its own document's, so they keep at least that document's chunk."""
    lines = []
    for document, target, key, value in draw(st.lists(st.sampled_from(facts), min_size=1, max_size=6)):
        attributes = document["attributes"]
        filters = draw(st.sampled_from([
            {},
            {"company": attributes["company"]},
            {"company": attributes["company"], "year": attributes["year"]},
            {"document_id": document["document_id"]},
            {"quarter": attributes["quarter"]},
        ]))
        lines.append({
            "question": f"What was the {key} for {attributes['company']}?",
            "gold_answer": value,
            "difficulty": draw(st.sampled_from(["low", "medium", "high"])),
            "target": target,
            "document_id": document["document_id"],
            "filters": filters,
        })
    return lines


def _fill_size(layout):
    """A chunk size that a page's narrative and its first table fill
    exactly, counted by the reference's pieces; None if no page has both."""
    charts = DirectoryChartProvider(layout / "charts")
    for path in sorted(layout.glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        for page in preprocess_document(payload, charts, "json"):
            if page.narrative_text and page.table_texts:
                return len(_PIECE_RE.findall(page.narrative_text)) + len(_PIECE_RE.findall(page.table_texts[0]))
    return None


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _check_retrieval(ids, scores, ranking, k):
    """The program's top k against the reference's full sort: the same
    scores position by position, each id one the reference scores (near)
    equally, and ascending ids wherever the program's own scores are equal
    floats. Near-ties may come in either order: the program's BLAS sums
    in its own order."""
    assert len(ids) == len(set(ids)) == min(k, len(ranking))
    for position, (chunk_id, score) in enumerate(zip(ids, scores)):
        assert _close(score, ranking[position][0]), (position, score, ranking[position])
        assert chunk_id in {cid for s, cid in ranking if _close(s, score)}, (chunk_id, score, ranking)
    for (first, a), (second, b) in zip(zip(ids, scores), zip(ids[1:], scores[1:])):
        if a == b:
            assert first < second, (ids, scores)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents=_corpora(), data=st.data())
def test_property_ingest_and_eval_match_the_reference_pipeline(tmp_path_factory, documents, data):
    root = tmp_path_factory.mktemp("pipeline")
    facts = _write_corpus(root, documents)
    layout = root / "layout"
    fill = _fill_size(layout)
    chunk_size = data.draw(st.integers(3, 60) | st.sampled_from([fill] if fill else [600]), label="chunk_size")
    k = data.draw(st.integers(1, 6), label="k")

    index_path = root / "corpus.index"
    assert main(["ingest", "--layout", str(layout), "--index", str(index_path), "--chunk-size", str(chunk_size)]) == 0
    embedder = HashingEmbedder()
    entries, expected = reference_ingest(layout, chunk_size, embedder.dimension, embedder.tag)
    assert index_path.read_bytes() == expected

    dataset = root / "qa.jsonl"
    lines = _dataset(data.draw, facts)
    dataset.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8")
    report_path = root / "report.json"
    assert main(["eval", "--index", str(index_path), "--dataset", str(dataset), "--report", str(report_path),
                 "--k", str(k), "--model-tag", MODEL_TAG]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))

    index = VectorIndex.load(index_path)
    llm = ContextLookupLLM()
    counts, correct, cost = Counter(), Counter(), 0.0
    for example in load_dataset(dataset):
        outcome = evaluate_example(example, index, llm, embedder, k=k, model_tag=MODEL_TAG)
        answer = outcome.answer
        ids = [r.chunk.chunk_id for r in answer.retrieved]
        reference = reference_outcome(entries, embedder.dimension, example, ids, MODEL_TAG)
        _check_retrieval(ids, [r.score for r in answer.retrieved], reference.ranking, k)
        assert answer.text == reference.answer
        assert answer.prompt_token_count == reference.prompt_tokens
        assert outcome.correct == reference.correct
        assert outcome.cost_usd == reference.cost_usd
        counts[example.target.value] += 1
        correct[example.target.value] += reference.correct
        cost += reference.cost_usd
    assert report["per_target"] == {target: {"total": counts[target], "correct": correct[target]} for target in counts}
    assert report["total_cost_usd"] == cost
