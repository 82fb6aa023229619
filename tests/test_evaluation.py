import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrag.costs import DEFAULT_PRICING, cost_per_call
from docrag.embedding import HashingEmbedder
from docrag.errors import MissingDocumentsError, ProviderError, SchemaError
from docrag.evaluation import (
    Difficulty,
    EvalReport,
    Outcome,
    QAExample,
    Target,
    evaluate_example,
    load_dataset,
    normalize_answer,
    run_eval,
    score_answer,
    write_report,
)
from docrag.generation import answer_question, build_prompt, retrieve
from docrag.index import RetrievalConfig, VectorIndex
from docrag.layout import parse_layout_payload
from docrag.preprocess import preprocess_document
from docrag.providers import ContextLookupLLM, DirectoryChartProvider, LLMResponse
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


_WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]


def regex_normalize_answer(text: str) -> str:
    """normalize_answer as two regex substitutions, its earlier form."""
    text = re.sub(r"[$€£¥¢,%]", "", text.lower())
    return re.sub(r"\s+", " ", text).strip()


@settings(max_examples=500)
@given(st.text(alphabet=st.sampled_from(_WHITESPACE + list("$€£¥¢,%") + ["İ", "ß", "A", "b", "7", "."]), max_size=40))
def test_property_normalize_matches_the_regex_form(text):
    # str.split and re's \s split on the same characters.
    assert normalize_answer(text) == regex_normalize_answer(text)


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


@pytest.mark.parametrize(
    ("filters", "key"),
    [
        ({"compnay": "ALPHA"}, "'compnay'"),  # no such metadata field
        ({"company": "ALPHA", "year": "2013"}, "'year'"),  # a year is an int
        ({"page_number": None}, "'page_number'"),  # every chunk has a page
        ({"quarter": 2}, "'quarter'"),
    ],
)
def test_load_dataset_refuses_filters_no_chunk_can_match(tmp_path, filters, key):
    good = {
        "question": "q", "gold_answer": "a", "difficulty": "low", "target": "text", "document_id": "d",
    }
    path = tmp_path / "filters.jsonl"
    lines = [good, {**good, "filters": {"company": "ALPHA", "year": 2013, "quarter": None}},
             {**good, "filters": filters}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert info.value.path == "line 3"
    assert key in str(info.value)


def test_load_dataset_refuses_empty_question(tmp_path):
    # Refused at its line, before any provider call; build_prompt would
    # refuse it only mid-eval, with no line number.
    good = {"question": "q", "gold_answer": "a", "difficulty": "low", "target": "text", "document_id": "d"}
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "question": ""}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="question must be non-empty") as info:
        load_dataset(path)
    assert info.value.path == "line 2"


@pytest.mark.parametrize("question", ["   ", "\t\n", "\u2028"])
def test_load_dataset_refuses_whitespace_only_question(tmp_path, question):
    good = {"question": "q", "gold_answer": "a", "difficulty": "low", "target": "text", "document_id": "d"}
    path = tmp_path / "blank.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "question": question}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="question must be non-empty") as info:
        load_dataset(path)
    assert info.value.path == "line 2"


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



@pytest.mark.parametrize(
    "field,value,message",
    [
        ("question", 5, "question: expected a string, got 5"),
        ("reference_count", True, "reference_count must be an integer >= 1, got True"),
        ("difficulty", "hard", "'hard' is not a valid Difficulty"),
    ],
    ids=["number-question", "bool-reference-count", "unknown-difficulty"],
)
def test_qa_example_refuses_what_a_dataset_line_may_not_hold(field, value, message):
    # A question of 5 crashed run_eval after every provider call; the others were accepted.
    fields = dict(question="q", gold_answer="a", difficulty="low", target="text", document_id="d")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QAExample(**{**fields, field: value})


# --- the eval harness -----------------------------------------------------------------

def build_index(corpus):
    embedder = HashingEmbedder(dimension=64)
    index = VectorIndex(dimension=64, provider_tag=embedder.tag)
    charts = DirectoryChartProvider(corpus["charts_dir"])
    for path in sorted(corpus["layout_dir"].glob("*.json")):
        payload = parse_layout_payload(json.loads(path.read_text(encoding="utf-8")))
        index.add_pages(preprocess_document(payload, charts), embedder, attributes=payload.attributes)
    return index, embedder


@pytest.mark.parametrize("pricing", [DEFAULT_PRICING, dataclasses.replace(DEFAULT_PRICING, per_token={"gpt-4o": 0.5})],
                         ids=["default", "override"])
def test_evaluate_example_is_answer_question_scored_and_priced(corpus, pricing):
    index, embedder = build_index(corpus)
    for example in load_dataset(corpus["dataset"]):
        outcome = evaluate_example(example, index, ContextLookupLLM(), embedder, k=2, model_tag="gpt-4o", pricing=pricing)
        config = RetrievalConfig(k=2, filters=example.filters)
        answer = answer_question(example.question, index, config, ContextLookupLLM(), embedder, model_tag="gpt-4o")
        correct = score_answer(answer.text, example.gold_answer)
        assert outcome == Outcome(answer, correct, cost_per_call("gpt-4o", answer.prompt_token_count, pricing))
        assert len(answer.retrieved) == 2 and outcome.correct and outcome.cost_usd > 0


def test_provider_failure_leaves_evaluate_example_with_the_prompt(corpus):
    index, embedder = build_index(corpus)
    example = load_dataset(corpus["dataset"])[0]

    class Down:
        tag = "mock"

        def complete(self, request):
            raise ProviderError("service unavailable")

    with pytest.raises(ProviderError, match="service unavailable") as info:
        evaluate_example(example, index, Down(), embedder)
    results = retrieve(example.question, index, RetrievalConfig(filters=example.filters), embedder)
    assert info.value.prompt == build_prompt([r.chunk.text for r in results], example.question)


def test_run_eval_full_marks_on_corpus(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    report = run_eval(examples, index, ContextLookupLLM(), embedder)
    assert report.total == len(examples)
    assert report.correct == report.total
    assert report.accuracy == 1.0
    assert report.total_cost_usd == 0.0  # the lookup provider is free



def test_run_eval_takes_plain_strings_for_difficulty_and_target(corpus, tmp_path):
    # run_eval called the provider for every question, then failed on ``.value``.
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    plain = [
        dataclasses.replace(e, difficulty=e.difficulty.value, target=e.target.value)
        for e in examples
    ]
    assert all(e.difficulty in Difficulty and e.target in Target for e in plain)
    for name, dataset in (("enum", examples), ("plain", plain)):
        report = run_eval(dataset, index, ContextLookupLLM(), embedder, model_tag="gpt-4o")
        write_report(report, tmp_path / f"{name}.json")
    assert (tmp_path / "enum.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_run_eval_breakdowns_sum_to_total(corpus):
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    report = run_eval(examples, index, ContextLookupLLM(), embedder)
    assert sum(c["total"] for c in report.per_target.values()) == report.total
    assert sum(c["total"] for c in report.per_difficulty.values()) == report.total
    assert report.per_target["text"]["total"] == 4
    assert report.per_target["table"]["total"] == 3
    assert report.per_target["chart"]["total"] == 3


def test_run_eval_deterministic_across_worker_counts(corpus, tmp_path):
    # Priced, so the summed cost's bits show the order of the sum too.
    index, embedder = build_index(corpus)
    examples = load_dataset(corpus["dataset"])
    for workers in (1, 4):
        report = run_eval(examples, index, ContextLookupLLM(), embedder, model_tag="gpt-4o", max_workers=workers)
        write_report(report, tmp_path / f"{workers}.json")
    assert report.total_cost_usd > 0
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "4.json").read_bytes()


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


def test_run_eval_refuses_examples_whose_filters_keep_none_of_their_document(corpus):
    # A question whose filters exclude its own document is a certain miss
    # that would read as a retrieval failure: every such example is named,
    # before any provider call, and each filter set is resolved once.
    index, embedder = build_index(corpus)

    class Untouchable:
        tag = "untouchable"

        def complete(self, request):
            raise AssertionError("provider must not be called")

    examples = load_dataset(corpus["dataset"])
    swapped = dataclasses.replace(examples[0], filters=(("company", "BETA"),))
    vintage = dataclasses.replace(examples[1], filters=(("year", 1999),))
    again = dataclasses.replace(examples[0], filters=(("company", "BETA"),))
    resolved = []
    with pytest.MonkeyPatch.context() as patch:
        document_ids = index.document_ids
        patch.setattr(index, "document_ids", lambda *filters: resolved.append(filters) or document_ids(*filters))
        with pytest.raises(ValueError) as info:
            run_eval(examples + [swapped, vintage, again], index, Untouchable(), embedder)
    message = str(info.value)
    assert message.startswith("examples whose filters keep no chunk of their document: ")
    assert message.count("question ") == 3
    assert f"question {swapped.question!r}, filters {{'company': 'BETA'}}, document 'alpha-10k'" in message
    assert f"question {vintage.question!r}, filters {{'year': 1999}}, document 'alpha-10k'" in message
    filter_sets = [filters[0] for filters in resolved if filters]
    assert len(filter_sets) == len(set(filter_sets)) == len({e.filters for e in examples} | {swapped.filters, vintage.filters})


@pytest.mark.parametrize(
    "tag,model_tag", [("lookup", "gpt-5"), ("http", None)], ids=["model-tag", "provider-tag"]
)
def test_run_eval_prices_its_tag_before_any_call(corpus, tag, model_tag):
    # It answered every question, spending on each billable call, and only
    # then failed to price the first answer.
    index, embedder = build_index(corpus)
    calls = []

    class Counting(ContextLookupLLM):
        def complete(self, request):
            calls.append(request)
            return super().complete(request)

    provider = Counting()
    provider.tag = tag
    with pytest.raises(ValueError, match=f"unknown model {model_tag or tag!r}"):
        run_eval(load_dataset(corpus["dataset"]), index, provider, embedder, model_tag=model_tag)
    assert calls == []


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
            return LLMResponse(text="deliberately wrong")

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