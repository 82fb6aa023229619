import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.embedding import HashingEmbedder
from docrag.errors import MissingDocumentsError, SchemaError
from docrag.evaluation import (
    Difficulty,
    EvalReport,
    QAExample,
    Target,
    load_dataset,
    normalize_answer,
    run_eval,
    score_answer,
    write_report,
)
from docrag.index import IndexEntry, VectorIndex
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import ContextLookupLLM, DirectoryChartProvider, LLMResponse
from docrag.chunking import split_pages
from docrag.tokens import count_tokens


# --- normalization -----------------------------------------------------------

def test_normalize_strips_currency_and_case():
    assert normalize_answer("The Value is $ 159") == "the value is 159"
    assert normalize_answer("$1,234.50") == "1234.50"
    assert normalize_answer("6%") == "6"
    assert normalize_answer("  a \t b\nc ") == "a b c"
    assert normalize_answer("€£¥¢") == ""


def test_normalize_is_idempotent():
    for text in ("$ 159", "A  B", "6%", "", "plain"):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


# --- scoring ---------------------------------------------------------------------

def test_score_currency_prefix_sentence():
    assert score_answer("The value is $ 159", "$ 159") is True


def test_score_identity():
    assert score_answer("x", "x") is True


def test_score_close_numbers_false():
    assert score_answer("90", "91") is False  # relative error 0.011 > 1e-3


def test_score_numeric_tolerance():
    assert score_answer("100.05", "100") is True
    assert score_answer("101", "100") is False


def test_score_numeric_ignores_formatting():
    assert score_answer("$1,234", "1234") is True
    assert score_answer("12.5%", "12.5") is True


def test_score_token_containment():
    assert score_answer("alpha beta gamma", "beta gamma") is True
    assert score_answer("alpha beta gamma", "alpha gamma") is False


def test_score_respects_token_boundaries():
    assert score_answer("cartwheel", "cart") is False
    assert score_answer("the cart wheel", "cart") is True


def test_score_case_and_whitespace():
    assert score_answer("Nine  STORES", "nine stores") is True


def test_score_empty_gold():
    assert score_answer("", "") is True
    assert score_answer("   ", "") is True
    assert score_answer("something", "") is False


def test_score_empty_prediction():
    assert score_answer("", "159") is False


def test_score_non_finite_strings_compare_as_text():
    assert score_answer("nan", "nan") is True
    assert score_answer("inf", "inf") is True
    assert score_answer("nan", "0") is False


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_property_score_reflexive(text):
    assert score_answer(text, text) is True


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_property_normalize_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@settings(max_examples=200)
@given(st.text(alphabet=st.sampled_from(list("ab7 $,%")), max_size=20))
def test_property_gold_survives_padding(gold):
    if not normalize_answer(gold):
        return
    assert score_answer(f"the answer is {gold} indeed", gold) is True


# --- dataset loading ---------------------------------------------------------------

def test_load_dataset_round_trip(corpus):
    examples = load_dataset(corpus["dataset"])
    assert len(examples) == len(corpus["examples"])
    first = examples[0]
    assert isinstance(first, QAExample)
    assert first.difficulty is Difficulty.LOW
    assert first.target is Target.TEXT
    assert first.document_id == "alpha-10k"
    assert ("company", "ALPHA") in first.filters


def test_load_dataset_skips_blank_lines(tmp_path, corpus):
    text = corpus["dataset"].read_text(encoding="utf-8")
    path = tmp_path / "padded.jsonl"
    path.write_text("\n" + text.replace("\n", "\n\n", 1), encoding="utf-8")
    assert len(load_dataset(path)) == len(corpus["examples"])


def test_load_dataset_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"question": "q"\n', encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert info.value.path == "line 1"


def test_load_dataset_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {"question": "q", "gold_answer": "a", "difficulty": "low", "target": "text"}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="document_id"):
        load_dataset(path)


def test_load_dataset_bad_enum(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "question": "q",
        "gold_answer": "a",
        "difficulty": "impossible",
        "target": "text",
        "document_id": "d",
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert info.value.path == "line 1"


def test_load_dataset_reports_correct_line(tmp_path):
    good = {
        "question": "q",
        "gold_answer": "a",
        "difficulty": "low",
        "target": "text",
        "document_id": "d",
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n\nnot json\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert info.value.path == "line 3"


def test_qa_example_validation():
    with pytest.raises(ValueError):
        QAExample(
            question="q",
            gold_answer="a",
            difficulty=Difficulty.LOW,
            target=Target.TEXT,
            document_id="d",
            reference_count=0,
        )


# --- the eval harness -----------------------------------------------------------------

def build_index(corpus):
    embedder = HashingEmbedder(dimension=64)
    index = VectorIndex(dimension=64, provider_tag=embedder.tag)
    charts = DirectoryChartProvider(corpus["charts_dir"])
    for path in sorted(corpus["layout_dir"].glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        pages = preprocess_document(payload, charts)
        chunks = split_pages(pages, attributes=payload.attributes)
        index.upsert_many(
            [IndexEntry(chunk=c, vector=tuple(embedder.embed(c.text))) for c in chunks]
        )
    return index, embedder


def test_run_eval_full_marks_on_corpus(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    report = run_eval(examples, index, ContextLookupLLM(), embedder)
    assert report.total == len(examples)
    assert report.correct == report.total
    assert report.accuracy == 1.0
    assert report.total_cost_usd == 0.0  # the lookup provider is free


def test_run_eval_breakdowns_sum_to_total(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    report = run_eval(examples, index, ContextLookupLLM(), embedder)
    assert sum(c["total"] for c in report.per_target.values()) == report.total
    assert sum(c["total"] for c in report.per_difficulty.values()) == report.total
    assert report.per_target["text"]["total"] == 4
    assert report.per_target["table"]["total"] == 3
    assert report.per_target["chart"]["total"] == 3


def test_run_eval_deterministic_across_worker_counts(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    serial = run_eval(examples, index, ContextLookupLLM(), embedder, max_workers=1)
    threaded = run_eval(examples, index, ContextLookupLLM(), embedder, max_workers=4)
    assert serial == threaded


def test_run_eval_costs_sum_per_call(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    prompts = []

    class Recording(ContextLookupLLM):
        def complete(self, request):
            prompts.append(request.prompt)
            return super().complete(request)

    report = run_eval(
        examples, index, Recording(), embedder, model_tag="gpt-4o", max_workers=1
    )
    rate = 0.0030 / 600
    expected = sum(rate * count_tokens(p) for p in prompts)
    assert report.total_cost_usd == pytest.approx(expected, rel=1e-12)
    assert report.total_cost_usd > 0


def test_run_eval_missing_documents_reported_before_any_call(corpus):
    index, embedder = build_index(corpus)

    class Untouchable:
        tag = "untouchable"

        def complete(self, request):
            raise AssertionError("provider must not be called")

    examples = load_dataset(corpus["dataset"])
    ghost = QAExample(
        question="q",
        gold_answer="a",
        difficulty=Difficulty.LOW,
        target=Target.TEXT,
        document_id="ghost-10k",
    )
    with pytest.raises(MissingDocumentsError) as info:
        run_eval(examples + [ghost], index, Untouchable(), embedder)
    assert info.value.document_ids == ["ghost-10k"]


def test_run_eval_empty_dataset(corpus):
    index, embedder = build_index(corpus)
    report = run_eval([], index, ContextLookupLLM(), embedder)
    assert report.total == 0
    assert report.accuracy == 0.0
    assert report.per_target == {}


def test_run_eval_scores_wrong_answers(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])

    class Stubborn:
        tag = "mock"  # priced (free) so cost accounting still works

        def complete(self, request):
            return LLMResponse(text="deliberately wrong", completion_tokens=2)

    report = run_eval(examples, index, Stubborn(), embedder, max_workers=1)
    assert report.correct == 0
    assert report.accuracy == 0.0


def test_write_report(tmp_path, corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    report = run_eval(examples, index, ContextLookupLLM(), embedder)
    path = tmp_path / "report.json"
    write_report(report, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == report.as_dict()


def test_report_as_dict_shape():
    report = EvalReport(
        total=2,
        correct=1,
        accuracy=0.5,
        per_target={"text": {"total": 2, "correct": 1}},
        per_difficulty={"low": {"total": 2, "correct": 1}},
        total_cost_usd=0.1,
    )
    assert set(report.as_dict()) == {
        "total",
        "correct",
        "accuracy",
        "per_target",
        "per_difficulty",
        "total_cost_usd",
    }