import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from docrag.errors import ProviderError
from docrag.generation import build_prompt
from docrag.providers import (
    ENV_EMBED_ENDPOINT,
    ENV_LLM_ENDPOINT,
    ContextLookupLLM,
    DirectoryChartProvider,
    FileLayoutSource,
    HttpChartProvider,
    HttpEmbeddingProvider,
    HttpLayoutSource,
    HttpLLM,
    LLMRequest,
    MockLLM,
    RetryingLLM,
)
from docrag.tables import BoundingRegion

REGION = BoundingRegion(page_number=1, polygon=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)))

LAYOUT_DOC = {
    "document_id": "remote-doc",
    "pages": [{"page_number": 1, "text_blocks": [], "tables": [], "figures": []}],
}


class StubHandler(BaseHTTPRequestHandler):
    calls: dict[str, int] = {}
    last_auth: str | None = None
    last_body: dict | None = None

    def log_message(self, *_args):
        pass

    def _send(self, status, payload=None, raw=None):
        data = raw if raw is not None else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        cls = type(self)
        cls.calls[self.path] = cls.calls.get(self.path, 0) + 1
        cls.last_auth = self.headers.get("Authorization")
        length = int(self.headers.get("Content-Length", 0))
        cls.last_body = json.loads(self.rfile.read(length) or b"{}")

        if self.path == "/chat":
            self._send(
                200,
                {
                    "choices": [{"message": {"content": "from-http"}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 2},
                },
            )
        elif self.path == "/chat-nousage":
            self._send(200, {"choices": [{"message": {"content": "three plain words"}}]})
        elif self.path == "/chat-bad":
            self._send(200, {"unexpected": True})
        elif self.path == "/embed":
            self._send(200, {"data": [{"embedding": [0.5] * 8}]})
        elif self.path == "/embed-short":
            self._send(200, {"data": [{"embedding": [0.5] * 3}]})
        elif self.path == "/embed-bad":
            self._send(200, {"data": []})
        elif self.path == "/layout":
            self._send(200, LAYOUT_DOC)
        elif self.path == "/chart":
            self._send(200, {"csv": "k\nv\n"})
        elif self.path == "/chart-none":
            self._send(200, {"csv": None})
        elif self.path == "/chart-badtype":
            self._send(200, {"csv": 7})
        elif self.path.startswith("/flaky"):
            if cls.calls[self.path] < 3:
                self._send(503, {"error": "busy"})
            else:
                self._send(
                    200,
                    {
                        "choices": [{"message": {"content": "eventually"}}],
                        "usage": {"prompt_tokens": 1, "completion_tokens": 1},
                    },
                )
        elif self.path == "/error500":
            self._send(500, {"error": "boom"})
        elif self.path == "/error400":
            self._send(400, {"error": "bad request"})
        elif self.path == "/notjson":
            self._send(200, raw=b"<html>nope</html>")
        else:
            self._send(404, {"error": "unknown route"})


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()
    thread.join()


def request(prompt="What is it?\nAnswer:", model="gpt-4o"):
    return LLMRequest(model_tag=model, prompt=prompt)


# --- HttpLLM ---------------------------------------------------------------

def test_http_llm_round_trip(server):
    response = HttpLLM(endpoint=f"{server}/chat").complete(request())
    assert response.text == "from-http"
    assert response.prompt_tokens == 11
    assert response.completion_tokens == 2


def test_http_llm_sends_chat_body(server):
    HttpLLM(endpoint=f"{server}/chat").complete(
        LLMRequest(model_tag="gpt-4o", prompt="hello", max_output_tokens=9)
    )
    body = StubHandler.last_body
    assert body["model"] == "gpt-4o"
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert body["max_tokens"] == 9


def test_http_llm_counts_tokens_without_usage(server):
    response = HttpLLM(endpoint=f"{server}/chat-nousage").complete(request())
    assert response.text == "three plain words"
    assert response.completion_tokens == 3
    assert response.prompt_tokens > 0


def test_http_llm_bearer_auth(server):
    HttpLLM(endpoint=f"{server}/chat", api_key="sk-test").complete(request())
    assert StubHandler.last_auth == "Bearer sk-test"


def test_http_llm_no_auth_header_without_key(server):
    HttpLLM(endpoint=f"{server}/chat").complete(request())
    assert StubHandler.last_auth is None


def test_http_llm_5xx_is_transient_and_keeps_prompt(server):
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint=f"{server}/error500").complete(request(prompt="replay me"))
    assert info.value.transient is True
    assert info.value.prompt == "replay me"


def test_http_llm_4xx_is_permanent(server):
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint=f"{server}/error400").complete(request())
    assert info.value.transient is False


def test_http_llm_non_json_body(server):
    with pytest.raises(ProviderError, match="non-JSON"):
        HttpLLM(endpoint=f"{server}/notjson").complete(request())


def test_http_llm_malformed_payload_keeps_prompt(server):
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint=f"{server}/chat-bad").complete(request(prompt="keep"))
    assert info.value.prompt == "keep"
    assert info.value.transient is False


def test_http_llm_connection_failure_is_transient():
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint="http://127.0.0.1:9/never").complete(request())
    assert info.value.transient is True


def test_http_llm_endpoint_from_environment(server, monkeypatch):
    monkeypatch.setenv(ENV_LLM_ENDPOINT, f"{server}/chat")
    assert HttpLLM().complete(request()).text == "from-http"


def test_http_llm_requires_endpoint(monkeypatch):
    monkeypatch.delenv(ENV_LLM_ENDPOINT, raising=False)
    with pytest.raises(ProviderError, match=ENV_LLM_ENDPOINT):
        HttpLLM()


# --- RetryingLLM ----------------------------------------------------------------

def test_retrying_llm_retries_transient_until_success(server):
    llm = RetryingLLM(HttpLLM(endpoint=f"{server}/flaky/ok"), attempts=3, base_delay=0.01)
    response = llm.complete(request())
    assert response.text == "eventually"
    assert StubHandler.calls["/flaky/ok"] == 3


def test_retrying_llm_gives_up_after_attempts(server):
    llm = RetryingLLM(HttpLLM(endpoint=f"{server}/flaky/short"), attempts=2, base_delay=0.01)
    with pytest.raises(ProviderError) as info:
        llm.complete(request())
    assert info.value.transient is True
    assert StubHandler.calls["/flaky/short"] == 2


def test_retrying_llm_does_not_retry_permanent(server):
    StubHandler.calls.pop("/error400", None)
    llm = RetryingLLM(HttpLLM(endpoint=f"{server}/error400"), attempts=3, base_delay=0.01)
    with pytest.raises(ProviderError):
        llm.complete(request())
    assert StubHandler.calls["/error400"] == 1


def test_retrying_llm_keeps_inner_tag(server):
    assert RetryingLLM(HttpLLM(endpoint=f"{server}/chat")).tag == "http"


def test_retrying_llm_validates_attempts(server):
    with pytest.raises(ValueError):
        RetryingLLM(HttpLLM(endpoint=f"{server}/chat"), attempts=0)


# --- HttpEmbeddingProvider ----------------------------------------------------------

def test_http_embedding_round_trip(server):
    provider = HttpEmbeddingProvider(endpoint=f"{server}/embed", dimension=8)
    assert provider.embed("some text") == [0.5] * 8
    assert StubHandler.last_body == {"model": "text-embedding-ada-002", "input": ["some text"]}


def test_http_embedding_dimension_mismatch(server):
    provider = HttpEmbeddingProvider(endpoint=f"{server}/embed-short", dimension=8)
    with pytest.raises(ProviderError, match="dimension mismatch"):
        provider.embed("text")


def test_http_embedding_malformed_response(server):
    provider = HttpEmbeddingProvider(endpoint=f"{server}/embed-bad", dimension=8)
    with pytest.raises(ProviderError, match="malformed"):
        provider.embed("text")


def test_http_embedding_endpoint_from_environment(server, monkeypatch):
    monkeypatch.setenv(ENV_EMBED_ENDPOINT, f"{server}/embed")
    assert HttpEmbeddingProvider(dimension=8).embed("x") == [0.5] * 8


def test_http_embedding_requires_endpoint(monkeypatch):
    monkeypatch.delenv(ENV_EMBED_ENDPOINT, raising=False)
    with pytest.raises(ProviderError, match=ENV_EMBED_ENDPOINT):
        HttpEmbeddingProvider()


# --- layout and chart adapters --------------------------------------------------------

def test_http_layout_source(server):
    assert HttpLayoutSource(f"{server}/layout").fetch("remote-doc") == LAYOUT_DOC


def test_file_layout_source_by_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LAYOUT_DOC), encoding="utf-8")
    assert FileLayoutSource().fetch(str(path)) == LAYOUT_DOC


def test_file_layout_source_by_id(tmp_path):
    (tmp_path / "remote-doc.json").write_text(json.dumps(LAYOUT_DOC), encoding="utf-8")
    assert FileLayoutSource(root=tmp_path).fetch("remote-doc") == LAYOUT_DOC


def test_file_layout_source_missing():
    with pytest.raises(ProviderError, match="not found"):
        FileLayoutSource().fetch("/nonexistent/nowhere.json")


def test_http_chart_provider(server):
    provider = HttpChartProvider(f"{server}/chart")
    assert provider.csv_for("d", 1, 0, REGION) == "k\nv\n"
    assert StubHandler.last_body["region"]["page_number"] == 1


def test_http_chart_provider_declines_with_none(server):
    assert HttpChartProvider(f"{server}/chart-none").csv_for("d", 1, 0, REGION) is None


def test_http_chart_provider_rejects_non_text(server):
    with pytest.raises(ProviderError, match="non-text"):
        HttpChartProvider(f"{server}/chart-badtype").csv_for("d", 1, 0, REGION)


def test_directory_chart_provider_missing_file(tmp_path):
    assert DirectoryChartProvider(tmp_path).csv_for("d", 1, 0, REGION) is None


# --- offline LLMs -----------------------------------------------------------------------

def test_mock_llm_extracts_question_from_prompt():
    llm = MockLLM({"What was revenue?": "$ 159"})
    prompt = build_prompt(["some context"], "What was revenue?")
    assert llm.complete(request(prompt=prompt)).text == "$ 159"


def test_mock_llm_default_for_unknown_question():
    llm = MockLLM({}, default="n/a")
    prompt = build_prompt([], "Mystery?")
    assert llm.complete(request(prompt=prompt)).text == "n/a"


def test_mock_llm_counts_tokens():
    llm = MockLLM({"Q?": "two words"})
    response = llm.complete(request(prompt=build_prompt(["ctx"], "Q?")))
    assert response.completion_tokens == 2
    assert response.prompt_tokens > 0


def test_lookup_llm_reads_json_records():
    prompt = build_prompt(
        ['[{"Total revenue;": "$ 903", "Units;": "12"}]'], "What was the total revenue?"
    )
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "$ 903"


def test_lookup_llm_reads_colon_lines():
    prompt = build_prompt(["Fleet size: 77 vessels."], "What was the fleet size?")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "77 vessels."


def test_lookup_llm_prefers_longest_key():
    context = 'Sales: 1\nNet sales: 2\nTotal net sales: 3'
    prompt = build_prompt([context], "What were the total net sales?")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "3"


def test_lookup_llm_ignores_question_and_answer_lines():
    prompt = build_prompt(["Revenue: 10"], "What is revenue?")
    # "Question: ..." and "Answer:" lines must not be harvested as pairs
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "10"


def test_lookup_llm_empty_when_no_key_matches():
    prompt = build_prompt(["Profit: 5"], "What was the headcount?")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == ""


def test_lookup_llm_skips_unparseable_json_lines():
    prompt = build_prompt(["[not json", "Margin: 8%"], "What was the margin?")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "8%"
