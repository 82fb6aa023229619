import logging

import pytest

from docrag.embedding import HashingEmbedder
from docrag.errors import ProviderError
from docrag.generation import (
    CONTEXT_SEPARATOR,
    POSTAMBLE,
    PREAMBLE,
    Answer,
    answer_question,
    build_prompt,
    retrieve,
)
from docrag.chunking import ChunkMetadata, DocumentChunk
from docrag.index import IndexEntry, RetrievalConfig, VectorIndex
from docrag.providers import ContextLookupLLM, LLMRequest, LLMResponse, MockLLM
from docrag.tokens import DEFAULT_TOKENIZER, count_tokens


def chunk(chunk_id, text):
    return DocumentChunk(
        chunk_id=chunk_id,
        text=text,
        token_count=count_tokens(text),
        metadata=ChunkMetadata(document_id=chunk_id.split(":")[0], page_number=1),
    )


# --- the pinned prompt ------------------------------------------------------

GOLDEN_PROMPT = (
    "Comprehend the following context and answer the questions in one line:\n"
    "\n"
    "chunk one\n"
    "\n"
    "chunk two\n"
    "\n"
    "Do not add extra information on your own.\n"
    "\n"
    "Question: What was revenue?\n"
    "Answer:"
)


def test_prompt_snapshot_byte_exact():
    assert build_prompt(["chunk one", "chunk two"], "What was revenue?") == GOLDEN_PROMPT


def test_prompt_contains_verbatim_sentences():
    prompt = build_prompt(["C"], "Q")
    assert "Comprehend the following context and answer the questions in one line:" in prompt
    assert "Do not add extra information on your own." in prompt
    assert prompt.endswith("Question: Q\nAnswer:")


def test_prompt_empty_context_slot():
    prompt = build_prompt([], "Q")
    assert prompt == f"{PREAMBLE}\n\n\n\n{POSTAMBLE}\n\nQuestion: Q\nAnswer:"


def test_prompt_three_chunks_two_separators():
    prompt = build_prompt(["A", "B", "C"], "Q")
    context = prompt.split(f"{PREAMBLE}\n\n")[1].split(f"\n\n{POSTAMBLE}")[0]
    assert context == "A\n\nB\n\nC"
    assert context.count(CONTEXT_SEPARATOR) == 2


def test_prompt_requires_question():
    with pytest.raises(ValueError):
        build_prompt(["C"], "")


def test_prompt_determinism():
    chunks = ["alpha", "beta"]
    assert build_prompt(chunks, "Q") == build_prompt(chunks, "Q")


# --- Answer ------------------------------------------------------------------

def test_answer_rejects_negative_counts():
    with pytest.raises(ValueError):
        Answer(text="x", model_tag="mock", prompt_token_count=-1, completion_token_count=0)


# --- answer_question over a small index -----------------------------------------

@pytest.fixture
def tiny_rig():
    embedder = HashingEmbedder(dimension=64)
    index = VectorIndex(dimension=64, provider_tag=embedder.tag)
    texts = {
        "fin:1:0": '[{"Total revenue;": "$ 903"}]',
        "fin:2:0": "The company opened nine stores.",
        "ops:1:0": '[{"Fleet size;": "77 vessels"}]',
    }
    index.upsert_many(
        [
            IndexEntry(chunk=chunk(cid, text=text), vector=tuple(embedder.embed(text)))
            for cid, text in texts.items()
        ]
    )
    return index, embedder


def test_retrieve_returns_ranked_results(tiny_rig):
    index, embedder = tiny_rig
    results = retrieve("What was the total revenue?", index, RetrievalConfig(k=2), embedder)
    assert len(results) == 2
    assert results[0].score >= results[1].score


def test_answer_question_with_lookup_provider(tiny_rig):
    index, embedder = tiny_rig
    answer = answer_question(
        "What was the Total revenue this year?",
        index,
        RetrievalConfig(k=3),
        ContextLookupLLM(),
        embedder,
    )
    assert answer.text == "$ 903"
    assert answer.model_tag == "lookup"
    assert answer.retrieved == tuple(
        retrieve("What was the Total revenue this year?", index, RetrievalConfig(k=3), embedder)
    )


def test_answer_question_with_mock_provider(tiny_rig):
    index, embedder = tiny_rig
    llm = MockLLM({"How many stores opened?": "nine"})
    answer = answer_question(
        "How many stores opened?", index, RetrievalConfig(k=1), llm, embedder
    )
    assert answer.text == "nine"
    assert answer.model_tag == "mock"
    assert answer.completion_token_count == 1


def test_prompt_token_count_is_count_tokens_of_prompt(tiny_rig):
    index, embedder = tiny_rig

    class Recorder:
        tag = "recorder"

        def __init__(self):
            self.prompt = None

        def complete(self, request):
            self.prompt = request.prompt
            return LLMResponse(text="ok", completion_tokens=1)

    recorder = Recorder()
    answer = answer_question("Fleet size?", index, RetrievalConfig(k=2), recorder, embedder)
    assert answer.prompt_token_count == count_tokens(recorder.prompt)


@pytest.mark.parametrize(
    "llm", [ContextLookupLLM(), MockLLM({"Fleet size?": "77 vessels"})], ids=["lookup", "mock"]
)
def test_prompt_is_tokenized_once(tiny_rig, llm, monkeypatch):
    index, embedder = tiny_rig
    config = RetrievalConfig(k=2)
    results = retrieve("Fleet size?", index, config, embedder)
    prompt = build_prompt([r.chunk.text for r in results], "Fleet size?")
    seen = []
    spans = DEFAULT_TOKENIZER.spans

    def recording(text):
        seen.append(text)
        return spans(text)

    monkeypatch.setattr(DEFAULT_TOKENIZER, "spans", recording)
    answer_question("Fleet size?", index, config, llm, embedder)
    assert seen.count(prompt) == 1


def test_context_chunks_appear_verbatim_in_prompt(tiny_rig):
    index, embedder = tiny_rig

    class Recorder:
        tag = "recorder"
        prompt = None

        def complete(self, request):
            Recorder.prompt = request.prompt
            return LLMResponse(text="", completion_tokens=0)

    results = retrieve("Fleet size?", index, RetrievalConfig(k=3), embedder)
    answer_question("Fleet size?", index, RetrievalConfig(k=3), Recorder(), embedder)
    for result in results:
        assert result.chunk.text in Recorder.prompt


def test_model_tag_override(tiny_rig):
    index, embedder = tiny_rig
    answer = answer_question(
        "Fleet size?", index, RetrievalConfig(k=1), MockLLM({}), embedder, model_tag="gpt-4o"
    )
    assert answer.model_tag == "gpt-4o"


def test_empty_retrieval_warns_and_still_calls(tiny_rig, caplog):
    index, embedder = tiny_rig
    calls = []

    class Probe:
        tag = "probe"

        def complete(self, request):
            calls.append(request.prompt)
            return LLMResponse(text="", completion_tokens=0)

    with caplog.at_level(logging.WARNING, logger="docrag.generation"):
        answer_question(
            "Anything?",
            index,
            RetrievalConfig(k=1, filters=(("company", "NOBODY"),)),
            Probe(),
            embedder,
        )
    assert len(calls) == 1
    assert f"{PREAMBLE}\n\n\n\n{POSTAMBLE}" in calls[0]
    assert any("no chunks retrieved" in rec.message for rec in caplog.records)


def test_provider_failure_preserves_prompt(tiny_rig):
    index, embedder = tiny_rig

    class Exploder:
        tag = "exploder"

        def complete(self, request):
            raise ProviderError("rate limited", transient=True)

    with pytest.raises(ProviderError) as info:
        answer_question("Fleet size?", index, RetrievalConfig(k=1), Exploder(), embedder)
    assert info.value.prompt is not None
    assert info.value.prompt.endswith("Question: Fleet size?\nAnswer:")


def test_max_output_tokens_forwarded(tiny_rig):
    index, embedder = tiny_rig
    seen = []

    class Probe:
        tag = "probe"

        def complete(self, request: LLMRequest):
            seen.append(request.max_output_tokens)
            return LLMResponse(text="", completion_tokens=0)

    answer_question(
        "Fleet size?", index, RetrievalConfig(k=1), Probe(), embedder, max_output_tokens=42
    )
    assert seen == [42]


def test_negative_completion_count_clamped(tiny_rig):
    index, embedder = tiny_rig

    class Liar:
        tag = "liar"

        def complete(self, request):
            return LLMResponse(text="x", completion_tokens=-5)

    answer = answer_question("Fleet size?", index, RetrievalConfig(k=1), Liar(), embedder)
    assert answer.completion_token_count == 0
