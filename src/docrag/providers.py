"""Adapters for the external model services the pipeline depends on.

Chart-to-table, embeddings and the LLM are each a small protocol with at
least one deterministic offline implementation. Only the LLM has an HTTP
implementation. Layout payloads are no provider: ``docrag ingest`` reads
them from files. Chart CSVs come from a fixture directory or from
nowhere. A query must be embedded exactly as its index was, and the
index header names ``embedding.HashingEmbedder``. The LLM endpoint and
API key come from environment variables only:

    DOCRAG_LLM_ENDPOINT / DOCRAG_LLM_KEY
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .errors import ProviderError
from .tables import BoundingRegion
from .tokens import count_tokens

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
    file means the provider has no extraction for that figure.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def csv_for(self, document_id, page_number, figure_index, region) -> str | None:
        path = self.root / f"{document_id}__p{page_number}__f{figure_index}.csv"
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


class EmbeddingProvider(Protocol):
    tag: str
    dimension: int

    def embed(self, text: str) -> list[float]: ...


@dataclass(frozen=True)
class LLMRequest:
    model_tag: str
    prompt: str
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS


@dataclass(frozen=True)
class LLMResponse:
    text: str
    completion_tokens: int


class LLMProvider(Protocol):
    """Completes one prompt.

    The pipeline counts prompt tokens itself, so a provider reports only
    its text and completion count.
    """

    tag: str

    def complete(self, request: LLMRequest) -> LLMResponse: ...


_QUESTION_RE = re.compile(r"Question: (?P<q>.*)\nAnswer:$", re.DOTALL)


def _question_in(prompt: str) -> str:
    """The prompt's trailing question line, or the whole prompt if it has none."""
    match = _QUESTION_RE.search(prompt)
    return match.group("q") if match else prompt


class MockLLM:
    """Answers from a fixture mapping of question text to answer text.

    The question is recovered from the prompt's trailing question line, so
    the mapping stays independent of retrieval contents.
    """

    tag = "mock"

    def __init__(self, answers: dict[str, str], default: str = ""):
        self.answers = dict(answers)
        self.default = default

    def complete(self, request: LLMRequest) -> LLMResponse:
        text = self.answers.get(_question_in(request.prompt), self.default)
        return LLMResponse(text=text, completion_tokens=count_tokens(text))


class ContextLookupLLM:
    """Answers by locating the question's key among key-value pairs in the context.

    Pairs are harvested from serialized records (JSON objects) and from
    plain "key: value" lines. The pair whose key matches the longest
    stretch of the question wins; no match yields an empty answer.
    """

    tag = "lookup"
    _SKIP_KEYS = frozenset({"question", "answer"})

    def complete(self, request: LLMRequest) -> LLMResponse:
        text = self._lookup(self._harvest(request.prompt), _question_in(request.prompt))
        return LLMResponse(text=text, completion_tokens=count_tokens(text))

    def _harvest(self, prompt: str) -> list[tuple[str, str]]:
        pairs: list[tuple[str, str]] = []
        for line in prompt.splitlines():
            stripped = line.strip()
            if stripped.startswith("[") or stripped.startswith("{"):
                try:
                    decoded = json.loads(stripped)
                except ValueError:
                    continue
                records = decoded if isinstance(decoded, list) else [decoded]
                for record in records:
                    if isinstance(record, dict):
                        for key, value in record.items():
                            pairs.append((str(key), str(value)))
                continue
            if ": " in stripped:
                key, _, value = stripped.partition(": ")
                if key.lower() not in self._SKIP_KEYS and value:
                    pairs.append((key, value))
        return pairs

    def _lookup(self, pairs: list[tuple[str, str]], question: str) -> str:
        question_lower = question.lower()
        best: tuple[int, str] | None = None
        for key, value in pairs:
            key_lower = key.lower().strip()
            # flattened table keys carry a trailing ";"; match either form
            for candidate in {key_lower, key_lower.rstrip(";").strip()}:
                if candidate and candidate in question_lower:
                    if best is None or len(candidate) > best[0]:
                        best = (len(candidate), value)
        return best[1] if best else ""


class HttpLLM:
    """Chat-completions-style HTTP adapter."""

    tag = "http"

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENV_LLM_ENDPOINT)
        if not self.endpoint:
            raise ProviderError(f"no LLM endpoint; set {ENV_LLM_ENDPOINT}")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_LLM_KEY)

    def complete(self, request: LLMRequest) -> LLMResponse:
        import requests  # imported here so offline runs never load it

        url, prompt = self.endpoint, request.prompt
        body = {
            "model": request.model_tag,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": request.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(url, json=body, headers=headers, timeout=_HTTP_TIMEOUT)
        except requests.RequestException as exc:
            raise ProviderError(
                f"request to {url} failed: {exc}", transient=True, prompt=prompt
            ) from exc
        status = response.status_code
        if status >= 500:
            raise ProviderError(f"{url} returned {status}", transient=True, prompt=prompt)
        if status >= 400:
            raise ProviderError(f"{url} returned {status}: {response.text[:200]}", prompt=prompt)
        try:
            payload = response.json()
            text = payload["choices"][0]["message"]["content"]
        except ValueError as exc:
            raise ProviderError(f"{url} returned non-JSON body", prompt=prompt) from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}", prompt=prompt) from exc
        text = str(text)
        usage = payload.get("usage") or {}  # none reported: count the completion locally
        count = usage.get("completion_tokens", count_tokens(text)) if type(usage) is dict else None
        if type(count) is not int or count < 0:
            raise ProviderError(f"malformed usage in completion response: {usage!r}", prompt=prompt)
        return LLMResponse(text=text, completion_tokens=count)

