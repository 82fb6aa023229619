import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docrag.embedding import HashingEmbedder
from docrag.errors import ProviderError
from docrag.generation import (
    CONTEXT_SEPARATOR,
    DEFAULT_MAX_OUTPUT_TOKENS,
    POSTAMBLE,
    PREAMBLE,
    Answer,
    answer_question,
    build_prompt,
    read_prompt,
    retrieve,
)
from docrag.chunking import ChunkMetadata, DocumentChunk
from docrag.index import IndexEntry, RetrievalConfig, VectorIndex
from docrag.providers import ContextLookupLLM, LLMRequest, LLMResponse, MockLLM
from docrag import tokens
from docrag.tokens import count_tokens


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


@pytest.mark.parametrize("question", [" ", "\t\n", "\u2028\u3000", "\x1c\x85"])
def test_prompt_refuses_a_whitespace_only_question(question):
    # It would embed to the all-zero query and be answered from the first k chunks.
    with pytest.raises(ValueError, match="question must be non-empty"):
        build_prompt(["C"], question)


# Texts whose edges hold punctuation, a dotted capital I, a bare combining
# dot, NBSP, U+2028 and a zero-width space (no \s, so it forms a token).
_EDGE = st.sampled_from(
    ["", ".", "%$", "—", "İ", "\u0307", "\u00a0", "\u2028", "\u200b", " ", "\n", "a", "7"]
)
_EDGY_TEXT = st.builds(
    lambda head, body, tail: head + body + tail, _EDGE, st.text(max_size=30), _EDGE
)
_CHUNK_TEXT = st.one_of(
    st.just(""), st.text(alphabet=" \t\n\u00a0\u2028\u3000", max_size=4), _EDGY_TEXT
)


@given(st.lists(_CHUNK_TEXT, max_size=4), _EDGY_TEXT.filter(str.strip))
def test_prompt_count_is_template_plus_chunk_counts(texts, question):
    assert count_tokens(build_prompt(texts, question)) == count_tokens(
        build_prompt([], question)
    ) + sum(map(count_tokens, texts))


# The text that opens the question block: a question holding it could not
# be told from the block, so build_prompt's inverse needs a question without it.
_QUESTION_MARKER = POSTAMBLE + "\n\nQuestion: "
# Pieces of the template and the texts that look like it.
_PROMPT_PIECE = st.sampled_from(
    ["\n\n", "\n", "Question: ", "\nAnswer:", "Answer:", POSTAMBLE, PREAMBLE, _QUESTION_MARKER,
     "Revenue: 10", " ", "x"]
)
_PROMPT_LIKE = st.one_of(st.lists(_PROMPT_PIECE, max_size=8).map("".join), _CHUNK_TEXT)


@settings(max_examples=300)
@given(
    st.lists(_PROMPT_LIKE, max_size=4),
    _PROMPT_LIKE.filter(lambda q: q.strip() and _QUESTION_MARKER not in q),
)
def test_read_prompt_inverts_build_prompt(chunks, question):
    assert read_prompt(build_prompt(chunks, question)) == (CONTEXT_SEPARATOR.join(chunks), question)


@settings(max_examples=300)
@given(st.lists(_PROMPT_PIECE, max_size=8).map("".join))
@example(PREAMBLE + "\n\n\n")  # the prefix's "\n\n" and the suffix overlap
@example(PREAMBLE + "\n\n")
@example(PREAMBLE + "\n\n\n\n")
@example("\n")
def test_read_prompt_context_matches_the_remove_affixes_form(before):
    # read_prompt cuts the context with one slice; its earlier form took
    # removeprefix(PREAMBLE + "\n\n"), then removesuffix("\n\n") of what was left.
    prompt = before + _QUESTION_MARKER + "Q?\nAnswer:"
    expected = prompt.rpartition(_QUESTION_MARKER)[0].removeprefix(PREAMBLE + "\n\n").removesuffix("\n\n")
    assert read_prompt(prompt) == (expected, "Q?")


def test_prompt_determinism():
    chunks = ["alpha", "beta"]
    assert build_prompt(chunks, "Q") == build_prompt(chunks, "Q")


# --- Answer ------------------------------------------------------------------

def test_answer_rejects_negative_counts():
    with pytest.raises(ValueError):
        Answer(text="x", model_tag="mock", prompt_token_count=-1, completion_token_count=0)


# --- answer_question over a small index -----------------------------------------

def build_tiny_rig():
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


@pytest.fixture
def tiny_rig():
    return build_tiny_rig()


class PromptRecorder:
    """Keeps the last prompt it is sent."""

    tag = "recording"
    prompt = None

    def complete(self, request):
        self.prompt = request.prompt
        return LLMResponse(text="")


# Questions with a "Question:" block, separators and punctuation at their edges.
_QUESTION_EDGE = _EDGE | st.sampled_from(["Question: ", "\nQuestion: x\nAnswer:", "\n\n", "\x1c", "\x85", "?!", "\t"])
_QUESTIONS = st.builds(
    lambda head, body, tail: head + body + tail, _QUESTION_EDGE, st.text(max_size=30), _QUESTION_EDGE
).filter(str.strip)


@settings(deadline=None)
@given(_QUESTIONS, st.integers(1, 3))
def test_answer_is_priced_at_its_prompt_count(question, k):
    index, embedder = build_tiny_rig()
    recorder = PromptRecorder()
    answer = answer_question(question, index, RetrievalConfig(k=k), recorder, embedder)
    assert answer.prompt_token_count == count_tokens(recorder.prompt)


@pytest.mark.parametrize("question", ["", "   ", "\u2029\n"])
def test_answer_question_refuses_a_blank_question_before_embedding(tiny_rig, question):
    index, _ = tiny_rig

    class Refusing:
        dimension = 64
        tag = "refusing"

        def embed(self, text):
            raise AssertionError("a blank question was embedded")

    with pytest.raises(ValueError, match="question must be non-empty"):
        answer_question(question, index, RetrievalConfig(k=1), PromptRecorder(), Refusing())


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
            return LLMResponse(text="ok")

    recorder = Recorder()
    answer = answer_question("Fleet size?", index, RetrievalConfig(k=2), recorder, embedder)
    assert answer.prompt_token_count == count_tokens(recorder.prompt)


@pytest.mark.parametrize(
    "llm", [ContextLookupLLM(), MockLLM({"Fleet size?": "77 vessels"})], ids=["lookup", "mock"]
)
def test_retrieved_text_is_never_tokenized(tiny_rig, llm, monkeypatch):
    index, embedder = tiny_rig
    config = RetrievalConfig(k=2)
    results = retrieve("Fleet size?", index, config, embedder)
    texts = [r.chunk.text for r in results]
    prompt = build_prompt(texts, "Fleet size?")
    seen = []
    pattern = tokens._TOKEN_RE

    class Recording:  # every tokenizer entry point matches through this pattern
        def findall(self, text):
            seen.append(text)
            return pattern.findall(text)

        def finditer(self, text):
            seen.append(text)
            return pattern.finditer(text)

    monkeypatch.setattr(tokens, "_TOKEN_RE", Recording())
    answer = answer_question("Fleet size?", index, config, llm, embedder)
    assert seen  # the recorder is on the path: the question is tokenized
    assert prompt not in seen
    assert not set(texts) & set(seen)
    assert answer.prompt_token_count == count_tokens(prompt)


def test_context_chunks_appear_verbatim_in_prompt(tiny_rig):
    index, embedder = tiny_rig

    class Recorder:
        tag = "recorder"
        prompt = None

        def complete(self, request):
            Recorder.prompt = request.prompt
            return LLMResponse(text="")

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
            return LLMResponse(text="")

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
            raise ProviderError("rate limited")

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
            return LLMResponse(text="")

    answer_question("Fleet size?", index, RetrievalConfig(k=1), Probe(), embedder)
    assert seen == [DEFAULT_MAX_OUTPUT_TOKENS]
