"""Adapters for the external model services the pipeline depends on.

Chart-to-table, embeddings and the LLM are each a small protocol with at
least one deterministic offline implementation. Only the LLM has an HTTP
implementation. Layout payloads are no provider: ``docrag ingest`` reads
them from files. Chart CSVs come from a fixture directory or from
nowhere. A query must be embedded exactly as its index was, and the
index header names ``embedding.HashingEmbedder``. An LLM's reply is its
text alone: ``HttpLLM`` reads ``choices[0].message.content``, which must
be a string, and ignores every other key. The LLM endpoint and API key
come from environment variables only:

    DOCRAG_LLM_ENDPOINT / DOCRAG_LLM_KEY
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

import numpy as np

from .embedding import Memo
from .errors import ProviderError, decode_json
from .tokens import count_tokens

if TYPE_CHECKING:
    from .tables import BoundingRegion

ENV_LLM_ENDPOINT = "DOCRAG_LLM_ENDPOINT"
ENV_LLM_KEY = "DOCRAG_LLM_KEY"

_HTTP_TIMEOUT = 30.0

DEFAULT_MAX_OUTPUT_TOKENS = 256


class ChartToTableProvider(Protocol):
    """Turns a figure (chart image) into CSV text, or declines with None."""

    def csv_for(
        self,
        document_id: str,
        page_number: int,
        figure_index: int,
        region: BoundingRegion,
    ) -> str | None: ...


class NullChartProvider:
    """Declines every figure; pages keep it in ``figure_manifest`` only."""

    def csv_for(self, document_id, page_number, figure_index, region) -> str | None:
        return None


class DirectoryChartProvider:
    """Fixture directory keyed by (document_id, page, figure index).

    Expects files named <document_id>__p<page>__f<index>.csv; a missing
    file means the provider has no extraction for that figure, and one it
    cannot read or decode as UTF-8 raises ``ProviderError`` naming it, as
    does a name that is no single file name in ``root`` (a ``document_id``
    holding ``/``), so no file outside ``root`` is read. A ``root`` that is
    not a directory raises ``ValueError``.
    """

    def __init__(self, root: str | Path):
        if root == "" or not Path(root).is_dir():
            raise ValueError(f"chart directory {str(root)!r} is not a directory")
        self.root = Path(root)

    def csv_for(self, document_id, page_number, figure_index, region) -> str | None:
        name = f"{document_id}__p{page_number}__f{figure_index}.csv"
        if Path(name).name != name:
            raise ProviderError(f"chart CSV name {name!r} is not a file name in {self.root}")
        path = self.root / name
        if not path.is_file():
            return None
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ProviderError(f"cannot read chart CSV {path}: {exc}") from exc


class EmbeddingProvider(Protocol):
    """Embeds text as ``dimension`` real numbers: a float64 array (as
    ``embedding.HashingEmbedder`` returns), which the index takes as it
    is, or a sequence of real numbers, which it converts once."""

    tag: str
    dimension: int

    def embed(self, text: str) -> np.ndarray | Sequence[float]: ...


@dataclass(frozen=True)
class LLMRequest:
    model_tag: str
    prompt: str
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS


@dataclass(frozen=True)
class LLMResponse:
    text: str

    @property
    def completion_tokens(self) -> int:
        """The one rule for every reply: the text's count under the one tokenizer."""
        return count_tokens(self.text)


class LLMProvider(Protocol):
    """Completes one prompt.

    The pipeline counts prompt and completion tokens itself, so a provider
    reports only its text.
    """

    tag: str

    def complete(self, request: LLMRequest) -> LLMResponse: ...


class MockLLM:
    """Answers from a fixture mapping of question text to answer text; an
    unknown question answers "". Anything but a mapping whose answers are
    all strings (a list of pairs included) raises ``ValueError``.

    The question is read from the prompt with ``generation.read_prompt``,
    so the mapping stays independent of retrieval contents.
    """

    tag = "mock"

    def __init__(self, answers: Mapping[str, str]):
        if not isinstance(answers, Mapping):
            kind = type(answers).__name__
            raise ValueError(f"answers must hold a JSON object of question to answer, got {kind}")
        for question, answer in answers.items():
            if not isinstance(answer, str):
                raise ValueError(f"answer to {question!r} must be a string, got {answer!r}")
        self.answers = dict(answers)
        from .generation import read_prompt  # once per reader: generation imports this module
        self._read_prompt = read_prompt

    def complete(self, request: LLMRequest) -> LLMResponse:
        return LLMResponse(text=self.answers.get(self._read_prompt(request.prompt)[1], ""))


# Most blocks one lookup reader's memo holds between calls.
_BLOCK_MEMO_LIMIT = 2**12


class ContextLookupLLM:
    """Answers by locating the question's key among key-value pairs in the context.

    ``generation.read_prompt`` splits the prompt into the retrieved
    context and the question, and only the context is read: a question
    that carries its own "key: value" line cannot answer itself. Pairs
    are harvested from serialized records (JSON objects) and from plain
    "key: value" lines; a CSV table (``--table-format dataframe``) holds
    neither, so it yields none. The pair whose key matches the longest
    stretch of the question wins (the first such pair on a tie); no match
    yields an empty answer.

    The context is read as its blank-line blocks (``split("\\n\\n")``):
    no line spans a blank line, so the non-empty lines of the blocks, in
    order, are the context's non-empty lines, and an empty line holds no
    pair. A retrieved chunk recurs across questions, so each reader keeps
    a ``Memo`` from a block to its pairs, each key already lowercased and
    stripped, in both its forms (with and without a trailing ";"); a
    prompt then costs one dict lookup per block and the substring tests.
    A block's pairs depend on the block alone, so the memo is cleared in
    place once it holds more than ``_BLOCK_MEMO_LIMIT`` blocks; a call
    has already read its entries, and a later one fills them again.
    """

    tag = "lookup"

    def __init__(self):
        self._blocks = Memo(self._harvest)
        from .generation import read_prompt  # once per reader: generation imports this module
        self._read_prompt = read_prompt

    def complete(self, request: LLMRequest) -> LLMResponse:
        context, question = self._read_prompt(request.prompt)
        entries = list(map(self._blocks.__getitem__, context.split("\n\n")))
        if len(self._blocks) > _BLOCK_MEMO_LIMIT:
            self._blocks.clear()
        return LLMResponse(text=self._lookup(entries, question))

    @staticmethod
    def _harvest(block: str) -> tuple[tuple[str, str], ...]:
        """The block's pairs, in order, as (candidate key, value) entries:
        each key lowercased and stripped, and again less a trailing ";"
        (flattened table keys carry one) when that differs and is not empty."""
        if ":" not in block and "[" not in block and "{" not in block:
            return ()  # prose: no line can hold a pair
        pairs: list[tuple[str, str]] = []
        for line in block.splitlines():
            stripped = line.strip()
            if stripped.startswith(("[", "{")):
                try:
                    decoded = decode_json(stripped)
                except ValueError:
                    continue
                records = decoded if isinstance(decoded, list) else [decoded]
                for record in records:
                    if isinstance(record, dict):
                        for key, value in record.items():
                            pairs.append((str(key), str(value)))
                continue
            if ":" in stripped:  # a one-character search is far cheaper than ": "
                key, colon, value = stripped.partition(": ")
                if colon and value:
                    pairs.append((key, value))
        entries = []
        for key, value in pairs:
            key_lower = key.lower().strip()
            if key_lower:
                entries.append((key_lower, value))
                bare = key_lower.rstrip(";").strip()
                if bare and bare != key_lower:
                    entries.append((bare, value))
        return tuple(entries)

    @staticmethod
    def _lookup(entries: list[tuple[tuple[str, str], ...]], question: str) -> str:
        question_lower = question.lower()
        best_length, best = 0, ""
        for block in entries:
            for candidate, value in block:
                # a key's two candidates differ in length, so their order is moot
                if candidate in question_lower and len(candidate) > best_length:
                    best_length, best = len(candidate), value
        return best


class HttpLLM:
    """Chat-completions-style HTTP adapter over ``http`` or ``https``."""

    tag = "http"

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENV_LLM_ENDPOINT)
        if not self.endpoint:
            raise ProviderError(f"no LLM endpoint; set {ENV_LLM_ENDPOINT}")
        # urllib would also open file:// and ftp:// URLs.
        scheme = self.endpoint.partition(":")[0].lower()
        if scheme not in ("http", "https"):
            raise ProviderError(
                f"LLM endpoint {self.endpoint!r} has scheme {scheme!r}; expected http or https"
            )
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_LLM_KEY)

    def complete(self, request: LLMRequest) -> LLMResponse:
        # imported here so offline runs never load an HTTP client
        import http.client
        import urllib.error
        import urllib.request

        from . import __version__

        url, prompt = self.endpoint, request.prompt
        body = {
            "model": request.model_tag,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Content-Type": "application/json", "User-Agent": f"docrag/{__version__}"}
        http_request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8"), headers=headers, method="POST"
        )
        if self.api_key:  # "unredirected": never sent on to a redirect's target
            http_request.add_unredirected_header("Authorization", f"Bearer {self.api_key}")

        class FollowNone(urllib.request.HTTPRedirectHandler):
            # urllib would follow a redirect to any host, and to ftp://, so
            # a 3xx reply is raised as an HTTPError and refused below.
            def redirect_request(self, *_args):
                return None

        try:
            try:
                response = urllib.request.build_opener(FollowNone).open(
                    http_request, timeout=_HTTP_TIMEOUT
                )
            except urllib.error.HTTPError as exc:  # a 3xx, 4xx or 5xx reply, readable as a response
                response = exc
            with response:
                status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderError(f"request to {url} failed: {exc}", prompt=prompt) from exc
        if status >= 500:
            raise ProviderError(f"{url} returned {status}", prompt=prompt)
        if status >= 300:
            detail = raw.decode("utf-8", "replace")[:200]
            raise ProviderError(f"{url} returned {status}: {detail}", prompt=prompt)
        try:
            payload = decode_json(raw)
            text = payload["choices"][0]["message"]["content"]
        except ValueError as exc:
            raise ProviderError(f"{url} returned non-JSON body", prompt=prompt) from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}", prompt=prompt) from exc
        if type(text) is not str:  # a null or non-text content is no answer to score
            raise ProviderError(f"malformed completion response: content {text!r}", prompt=prompt)
        return LLMResponse(text=text)
