"""Prompt assembly and question answering over a vector index.

The prompt wording is pinned and golden-tested; changing a byte of it
invalidates recorded runs. The prompt is the preamble, the retrieved
context and the postamble, each separated by a blank line, then the
question as a trailing "Question: ... Answer:" block. ``_render`` writes
that layout and ``read_prompt``, the one reader of it, reads it back.

A prompt's token count is ``_TEMPLATE_TOKENS`` (the count of the prompt
less its context and question, taken once at import) plus
``count_tokens(question)`` plus the retrieved chunks' stored
``token_count``s; neither the template nor the retrieved text is
tokenized again. This equals ``count_tokens(prompt)`` exactly: no token
contains whitespace, so none crosses the whitespace that separates the
parts, and each stored count is ``count_tokens(chunk.text)`` because the
chunker cuts only at token starts. The count trusts the index file.

A question must hold something other than whitespace: a blank one would
embed to the all-zero query and be answered from the first k chunks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .errors import ProviderError
from .index import RetrievalConfig, RetrievalResult, VectorIndex, embed
from .providers import DEFAULT_MAX_OUTPUT_TOKENS  # re-exported: every request's output cap
from .providers import EmbeddingProvider, LLMProvider, LLMRequest
from .tokens import count_tokens

logger = logging.getLogger(__name__)

PREAMBLE = "Comprehend the following context and answer the questions in one line:"
POSTAMBLE = "Do not add extra information on your own."

CONTEXT_SEPARATOR = "\n\n"
_HEAD = PREAMBLE + "\n\n"
_QUESTION = POSTAMBLE + "\n\nQuestion: "  # opens the question block
_TAIL = "\nAnswer:"


def _render(context: str, question: str) -> str:
    return f"{_HEAD}{context}\n\n{_QUESTION}{question}{_TAIL}"


def read_prompt(prompt: str) -> tuple[str, str]:
    """The (context, question) that ``_render`` wrote into ``prompt``. The
    question block is the last one after a postamble, so a retrieved
    chunk's "Question: ..." line is never taken for it. Text with no such
    block reads as ``(prompt, prompt)``."""
    before, head, block = prompt.rpartition(_QUESTION)
    if not head or not block.endswith(_TAIL):
        return prompt, prompt
    # One slice: less _HEAD, then less a "\n\n" that follows it.
    start = len(_HEAD) if before.startswith(_HEAD) else 0
    end = len(before) - 2 if before.endswith("\n\n", start) else len(before)
    return before[start:end], block[: -len(_TAIL)]


# The tokens of every prompt less its context and question.
_TEMPLATE_TOKENS = count_tokens(_render("", ""))


def check_question(question: str) -> None:
    """Refuse a question that is empty or only whitespace."""
    if not question.strip():
        raise ValueError("question must be non-empty")


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
    then the question as a trailing "Question: ... Answer:" block. A
    question that is empty or only whitespace raises ``ValueError``."""
    check_question(question)
    return _render(CONTEXT_SEPARATOR.join(context_chunks), question)


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
) -> Answer:
    """Embed the question, retrieve top-k, prompt the LLM once for at most
    ``DEFAULT_MAX_OUTPUT_TOKENS`` output tokens. The answer carries the
    retrieved results it was prompted with.

    Empty retrieval still calls the provider (with an empty context slot)
    and records a warning. Provider failures propagate with the prompt
    attached for replay. The prompt is priced from the chunks' stored
    token counts (see the module docstring). A blank question raises
    ``ValueError`` before anything is embedded.
    """
    check_question(question)
    results = retrieve(question, index, retrieval, embedder)
    if not results:
        logger.warning("no chunks retrieved for question %r; prompting with empty context", question)
    prompt = build_prompt([r.chunk.text for r in results], question)
    tag = model_tag if model_tag is not None else llm.tag
    try:
        response = llm.complete(LLMRequest(model_tag=tag, prompt=prompt))
    except ProviderError as exc:
        if exc.prompt is None:
            exc.prompt = prompt
        raise
    return Answer(
        text=response.text,
        model_tag=tag,
        prompt_token_count=_TEMPLATE_TOKENS
        + count_tokens(question)
        + sum(r.chunk.token_count for r in results),
        completion_token_count=response.completion_tokens,
        retrieved=tuple(results),
    )
