"""Adapters for the external model services the pipeline depends on.

Every capability (layout OCR, chart-to-table, embeddings, LLM) is a small
protocol with at least one deterministic offline implementation. Layout,
chart-to-table and the LLM also have an HTTP implementation. Embeddings
have none: a query must be embedded exactly as its index was, and the
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


def _post_json(url: str, body: dict, api_key: str | None) -> dict:
    import requests  # imported here so offline runs never load it

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        response = requests.post(url, json=body, headers=headers, timeout=_HTTP_TIMEOUT)
    except requests.RequestException as exc:
        raise ProviderError(f"request to {url} failed: {exc}", transient=True) from exc
    if response.status_code >= 500:
        raise ProviderError(f"{url} returned {response.status_code}", transient=True)
    if response.status_code >= 400:
        raise ProviderError(f"{url} returned {response.status_code}: {response.text[:200]}")
    try:
        return response.json()
    except ValueError as exc:
        raise ProviderError(f"{url} returned non-JSON body") from exc


class LayoutSource(Protocol):
    """Produces raw layout-analysis JSON for a document locator."""

    def fetch(self, document_locator: str) -> dict: ...


class FileLayoutSource:
    """Reads layout payloads from disk.

    The locator is either a path to a payload JSON file or a document id
    resolved as <root>/<id>.json.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None

    def fetch(self, document_locator: str) -> dict:
        path = Path(document_locator)
        if not path.is_file() and self.root is not None:
            path = self.root / f"{document_locator}.json"
        if not path.is_file():
            raise ProviderError(f"layout fixture not found for {document_locator!r}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


class HttpLayoutSource:
    def __init__(self, endpoint: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key

    def fetch(self, document_locator: str) -> dict:
        return _post_json(self.endpoint, {"document": document_locator}, self.api_key)


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
    """Declines every figure; pages keep a manifest entry only."""

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


class HttpChartProvider:
    def __init__(self, endpoint: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key

    def csv_for(self, document_id, page_number, figure_index, region) -> str | None:
        body = {
            "document_id": document_id,
            "page_number": page_number,
            "figure_index": figure_index,
            "region": region.to_dict(),
        }
        payload = _post_json(self.endpoint, body, self.api_key)
        csv_text = payload.get("csv")
        if csv_text is not None and not isinstance(csv_text, str):
            raise ProviderError("chart provider returned non-text csv field")
        return csv_text


class EmbeddingProvider(Protocol):
    tag: str
    dimension: int

    def embed(self, text: str) -> list[float]: ...


@dataclass(frozen=True)
class LLMRequest:
    model_tag: str
    prompt: str
    max_output_tokens: int = 256


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
        body = {
            "model": request.model_tag,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": request.max_output_tokens,
        }
        try:
            payload = _post_json(self.endpoint, body, self.api_key)
        except ProviderError as exc:
            raise ProviderError(str(exc), transient=exc.transient, prompt=request.prompt) from exc
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(
                f"malformed completion response: {exc}", prompt=request.prompt
            ) from exc
        usage = payload.get("usage", {})
        return LLMResponse(
            text=str(text),
            completion_tokens=int(usage.get("completion_tokens", count_tokens(str(text)))),
        )

