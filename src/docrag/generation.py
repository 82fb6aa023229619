"""Prompt assembly and question answering over a vector index.

The prompt wording is pinned and golden-tested; changing a byte of it
invalidates recorded runs. The prompt is the preamble, the retrieved
context and the postamble, each separated by a blank line, then the
question as a trailing "Question: ... Answer:" block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .errors import ProviderError
from .index import RetrievalConfig, RetrievalResult, VectorIndex, embed
from .providers import DEFAULT_MAX_OUTPUT_TOKENS, EmbeddingProvider, LLMProvider, LLMRequest
from .tokens import count_tokens

logger = logging.getLogger(__name__)

PREAMBLE = "Comprehend the following context and answer the questions in one line:"
POSTAMBLE = "Do not add extra information on your own."

CONTEXT_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class Answer:
    text: str
    model_tag: str
    prompt_token_count: int
    completion_token_count: int
    retrieved: tuple[RetrievalResult, ...] = ()

    def __post_init__(self):
        if self.prompt_token_count < 0 or self.completion_token_count < 0:
            raise ValueError("token counts must be >= 0")


def build_prompt(context_chunks: Sequence[str], question: str) -> str:
    """Render the pinned prompt: preamble, the joined chunks and postamble,
    then the question as a trailing "Question: ... Answer:" block."""
    if not question:
        raise ValueError("question must be non-empty")
    context = CONTEXT_SEPARATOR.join(context_chunks)
    return f"{PREAMBLE}\n\n{context}\n\n{POSTAMBLE}\n\nQuestion: {question}\nAnswer:"


def retrieve(
    question: str,
    index: VectorIndex,
    retrieval: RetrievalConfig,
    embedder: EmbeddingProvider,
) -> list[RetrievalResult]:
    query_vector = embed(question, embedder)
    return index.search(query_vector, retrieval)


def answer_question(
    question: str,
    index: VectorIndex,
    retrieval: RetrievalConfig,
    llm: LLMProvider,
    embedder: EmbeddingProvider,
    model_tag: str | None = None,
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
) -> Answer:
    """Embed the question, retrieve top-k, prompt the LLM once. The answer
    carries the retrieved results it was prompted with.

    Empty retrieval still calls the provider (with an empty context slot)
    and records a warning. Provider failures propagate with the prompt
    attached for replay.
    """
    results = retrieve(question, index, retrieval, embedder)
    if not results:
        logger.warning("no chunks retrieved for question %r; prompting with empty context", question)
    prompt = build_prompt([r.chunk.text for r in results], question)
    tag = model_tag if model_tag is not None else llm.tag
    request = LLMRequest(model_tag=tag, prompt=prompt, max_output_tokens=max_output_tokens)
    try:
        response = llm.complete(request)
    except ProviderError as exc:
        if exc.prompt is None:
            exc.prompt = prompt
        raise
    return Answer(
        text=response.text,
        model_tag=tag,
        prompt_token_count=count_tokens(prompt),
        completion_token_count=max(0, response.completion_tokens),
        retrieved=tuple(results),
    )
