import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docrag
from docrag import providers
from docrag.cli import main
from docrag.errors import ProviderError
from docrag.generation import CONTEXT_SEPARATOR, POSTAMBLE, build_prompt, read_prompt
from docrag.providers import (
    ENV_LLM_ENDPOINT,
    ContextLookupLLM,
    DirectoryChartProvider,
    HttpLLM,
    LLMRequest,
    LLMResponse,
    MockLLM,
)
from docrag.tables import BoundingRegion
from docrag.tokens import count_tokens
from reference import reference_answer, reference_question_in

REGION = BoundingRegion(page_number=1, polygon=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)))


class StubHandler(BaseHTTPRequestHandler):
    calls: dict[str, int] = {}
    last_auth: str | None = None
    last_agent: str | None = None
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
        cls.last_agent = self.headers.get("User-Agent")
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
        elif self.path == "/chat-nullusage":
            self._send(
                200, {"choices": [{"message": {"content": "three plain words"}}], "usage": None}
            )
        elif self.path == "/chat-badusage":
            self._send(
                200, {"choices": [{"message": {"content": "x"}}], "usage": {"completion_tokens": "2"}}
            )
        elif self.path == "/chat-bad":
            self._send(200, {"unexpected": True})
        elif self.path.startswith("/chat-badcontent?"):
            # the query string is the JSON content value to report
            content = json.loads(unquote(self.path.partition("?")[2]))
            self._send(200, {"choices": [{"message": {"content": content}}]})
        elif self.path == "/error500":
            self._send(500, {"error": "boom"})
        elif self.path == "/error400":
            self._send(400, {"error": "bad request"})
        elif self.path == "/notjson":
            self._send(200, raw=b"<html>nope</html>")
        elif self.path == "/deepjson":  # nested past the interpreter's recursion limit
            self._send(200, raw=b"[" * 100_000 + b"]" * 100_000)
        elif self.path.startswith("/redirect"):
            # /redirect<status>?<target>: a target without a scheme is a route here
            status, _, target = self.path.removeprefix("/redirect").partition("?")
            self.send_response(int(status))
            self.send_header("Location", target if ":" in target else f"/{target}")
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path == "/hangup":
            self.close_connection = True  # closed before any status line
        elif self.path == "/truncated":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choices"')
            self.close_connection = True
        else:
            self._send(404, {"error": "unknown route"})

    do_GET = do_POST  # a redirect followed as a GET would reach its target


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
    assert response.completion_tokens == 3  # counted locally; the usage's 2 is not read


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


def test_http_llm_null_usage_counts_tokens_locally(server):
    response = HttpLLM(endpoint=f"{server}/chat-nullusage").complete(request())
    assert response.text == "three plain words"
    assert response.completion_tokens == 3


@pytest.mark.parametrize("route", ["/chat-badusage", "/chat-nullusage", "/chat-nousage"])
def test_http_eval_reads_no_usage(server, corpus, tmp_path, monkeypatch, capsys, route):
    # A usage of {"completion_tokens": "2"} made the whole eval exit 1 with
    # "malformed usage in completion response", and no report was written.
    monkeypatch.setenv(ENV_LLM_ENDPOINT, f"{server}{route}")
    index, report = tmp_path / "corpus.index", tmp_path / "report.json"
    assert main(["ingest", "--layout", str(corpus["layout_dir"]), "--index", str(index)]) == 0
    before = StubHandler.calls.get(route, 0)
    argv = ["eval", "--index", str(index), "--dataset", str(corpus["dataset"]), "--report", str(report),
            "--provider", "http", "--model-tag", "gpt-4o"]
    assert main(argv) == 0, capsys.readouterr().err
    assert json.loads(report.read_text(encoding="utf-8"))["total"] == 10
    assert StubHandler.calls[route] - before == 10  # one call per question


def test_http_llm_bearer_auth(server):
    HttpLLM(endpoint=f"{server}/chat", api_key="sk-test").complete(request())
    assert StubHandler.last_auth == "Bearer sk-test"


def test_http_llm_no_auth_header_without_key(server):
    HttpLLM(endpoint=f"{server}/chat").complete(request())
    assert StubHandler.last_auth is None


def test_http_llm_5xx_is_transient_and_keeps_prompt(server):
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint=f"{server}/error500").complete(request(prompt="replay me"))
    assert info.value.prompt == "replay me"


def test_http_llm_4xx_is_permanent(server):
    with pytest.raises(ProviderError, match="returned 400"):
        HttpLLM(endpoint=f"{server}/error400").complete(request())


def test_http_llm_non_json_body(server):
    with pytest.raises(ProviderError, match="non-JSON"):
        HttpLLM(endpoint=f"{server}/notjson").complete(request())


def test_http_llm_body_nested_too_deeply_is_non_json_and_keeps_prompt(server):
    # It raised RecursionError, which no caller of an LLM handles.
    with pytest.raises(ProviderError, match="non-JSON") as info:
        HttpLLM(endpoint=f"{server}/deepjson").complete(request(prompt="keep"))
    assert info.value.prompt == "keep"


def test_http_llm_malformed_payload_keeps_prompt(server):
    with pytest.raises(ProviderError) as info:
        HttpLLM(endpoint=f"{server}/chat-bad").complete(request(prompt="keep"))
    assert info.value.prompt == "keep"


@pytest.mark.parametrize("content", ["null", "42", '["x"]', '{"text": "x"}'])
def test_http_llm_non_string_content_keeps_prompt(server, content):
    llm = HttpLLM(endpoint=f"{server}/chat-badcontent?{quote(content)}")
    with pytest.raises(ProviderError, match="malformed completion response: content") as info:
        llm.complete(request(prompt="keep"))
    assert info.value.prompt == "keep"


def test_http_llm_connection_failure_is_transient():
    with pytest.raises(ProviderError, match="request to .* failed"):
        HttpLLM(endpoint="http://127.0.0.1:9/never").complete(request())


@pytest.mark.parametrize("route", ["/hangup", "/truncated"])
def test_http_llm_broken_reply_is_transient_and_keeps_prompt(server, route):
    with pytest.raises(ProviderError, match="request to .* failed") as info:
        HttpLLM(endpoint=f"{server}{route}").complete(request(prompt="replay me"))
    assert info.value.prompt == "replay me"


@pytest.mark.parametrize(
    "status, target", [(302, "chat"), (307, "chat"), (302, "ftp://127.0.0.1/x")]
)
def test_http_llm_follows_no_redirect(server, status, target):
    before = StubHandler.calls.get("/chat", 0)
    llm = HttpLLM(endpoint=f"{server}/redirect{status}?{target}", api_key="sk-test")
    with pytest.raises(ProviderError, match=f"returned {status}") as info:
        llm.complete(request(prompt="keep"))
    assert info.value.prompt == "keep"
    assert StubHandler.last_auth == "Bearer sk-test"  # sent to the endpoint itself
    assert StubHandler.calls.get("/chat", 0) == before  # and to no second URL


@pytest.mark.parametrize("endpoint, scheme", [("file:///etc/hostname", "file"), ("ftp://x", "ftp")])
def test_http_llm_refuses_other_schemes(endpoint, scheme):
    with pytest.raises(ProviderError, match=f"scheme '{scheme}'"):
        HttpLLM(endpoint=endpoint)


def test_http_llm_round_trip_without_requests(server, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # import requests now fails
    assert HttpLLM(endpoint=f"{server}/chat").complete(request()).text == "from-http"


def test_http_llm_sends_docrag_user_agent(server):
    HttpLLM(endpoint=f"{server}/chat").complete(request())
    assert StubHandler.last_agent == f"docrag/{docrag.__version__}"


def test_http_llm_endpoint_from_environment(server, monkeypatch):
    monkeypatch.setenv(ENV_LLM_ENDPOINT, f"{server}/chat")
    assert HttpLLM().complete(request()).text == "from-http"


def test_http_llm_requires_endpoint(monkeypatch):
    monkeypatch.delenv(ENV_LLM_ENDPOINT, raising=False)
    with pytest.raises(ProviderError, match=ENV_LLM_ENDPOINT):
        HttpLLM()


# --- chart adapters --------------------------------------------------------

def test_directory_chart_provider_missing_file(tmp_path):
    assert DirectoryChartProvider(tmp_path).csv_for("d", 1, 0, REGION) is None


def test_directory_chart_provider_names_a_csv_it_cannot_decode(tmp_path):
    path = tmp_path / "d__p1__f0.csv"
    path.write_bytes(b"Period,Sales\n1Q21,\xff\n")
    with pytest.raises(ProviderError, match=f"cannot read chart CSV {path}: .*0xff"):
        DirectoryChartProvider(tmp_path).csv_for("d", 1, 0, REGION)


# --- every reader ------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_llm",
    [
        lambda server: MockLLM({"Q?": "two words"}),
        lambda server: ContextLookupLLM(),
        lambda server: HttpLLM(endpoint=f"{server}/chat"),  # its usage reports 2
    ],
    ids=["mock", "lookup", "http"],
)
def test_completion_tokens_are_the_count_of_the_text(server, make_llm):
    response = make_llm(server).complete(request(prompt=build_prompt(["Q: 77 vessels."], "Q?")))
    assert response.text
    assert response.completion_tokens == count_tokens(response.text)


def test_llm_response_is_its_text():
    with pytest.raises(TypeError):
        LLMResponse(text="x", completion_tokens=1)


# --- offline LLMs -----------------------------------------------------------------------

def test_mock_llm_extracts_question_from_prompt():
    llm = MockLLM({"What was revenue?": "$ 159"})
    prompt = build_prompt(["some context"], "What was revenue?")
    assert llm.complete(request(prompt=prompt)).text == "$ 159"


def test_mock_llm_default_for_unknown_question():
    llm = MockLLM({"Known?": "yes"})
    prompt = build_prompt([], "Mystery?")
    assert llm.complete(request(prompt=prompt)).text == ""


def test_mock_llm_counts_tokens():
    llm = MockLLM({"Q?": "two words"})
    response = llm.complete(request(prompt=build_prompt(["ctx"], "Q?")))
    assert response.completion_tokens == 2



@pytest.mark.parametrize(
    "answers,message",
    [
        ({"q": 5}, "answer to 'q' must be a string, got 5"),
        ([("q", "a")], "answers must hold a JSON object of question to answer, got list"),
    ],
    ids=["number-answer", "list-of-pairs"],
)
def test_mock_llm_refuses_answers_that_are_no_mapping_of_strings(answers, message):
    # A number failed only at complete, with a bare TypeError; a list of pairs was accepted.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MockLLM(answers)


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


def test_readers_work_when_providers_is_imported_first():
    # Each reader resolves generation.read_prompt when it is made, so it
    # needs no earlier import of docrag.generation.
    code = (
        "from docrag.providers import ContextLookupLLM, LLMRequest, MockLLM\n"
        "readers = ContextLookupLLM(), MockLLM({'revenue?': '11'})\n"
        "from docrag.generation import build_prompt\n"
        "prompt = build_prompt(['Revenue: 10'], 'revenue?')\n"
        "print(*(reader.complete(LLMRequest('m', prompt)).text for reader in readers))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(docrag.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == ["10", "11"]


def test_mock_llm_takes_the_question_after_the_postamble():
    # A retrieved chunk with a "Question:" line comes before the postamble
    # and must not take over the question.
    prompt = build_prompt(["FAQ\nQuestion: Who audits us?\nAnswer: KPMG", "Fleet size: 77 vessels"], "Fleet size?")
    assert MockLLM({"Fleet size?": "77 vessels"}).complete(request(prompt=prompt)).text == "77 vessels"


def test_lookup_llm_matches_keys_against_the_question_only():
    # Read from the chunk's "Question:" line on, the question would hold
    # "auditor fees", a longer key than "fleet size".
    chunks = ["FAQ\nQuestion: Who audits us?\nAnswer: KPMG", "Auditor fees: $ 3 million", "Fleet size: 77 vessels"]
    prompt = build_prompt(chunks, "Fleet size?")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == "77 vessels"


def test_lookup_llm_reads_no_pair_from_the_question():
    # The question's own "Revenue: 10" line must not answer it.
    prompt = build_prompt(["Profit: 5"], "What is revenue?\nRevenue: 10")
    assert ContextLookupLLM().complete(request(prompt=prompt)).text == ""


def test_question_in_a_prompt_without_a_question_block_is_the_prompt():
    assert read_prompt("What is it?\nAnswer:") == ("What is it?\nAnswer:", "What is it?\nAnswer:")
    assert read_prompt(build_prompt(["c"], "Two\n\nQuestion: lines")) == ("c", "Two\n\nQuestion: lines")


_PROMPT_PIECES = st.sampled_from(
    ["\n\n", "Question: ", "\nAnswer:", POSTAMBLE, "Revenue: 10", "\n", " ", "?", "x"]
)


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=60), st.lists(_PROMPT_PIECES, max_size=10).map("".join)))
def test_mock_llm_question_matches_the_reference(text):
    question = reference_question_in(text)
    assert read_prompt(text)[1] == question
    assert MockLLM({question: "hit"}).complete(request(prompt=text)).text == "hit"


LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
               "\n\n", "\n\n\n", "\r\n\n", "\n\r\n\n"]
KEYS = ["Fleet size", "fleet size;", "Net sales", "Total net sales;", " Sales ;", ";", "", "Question",
        "answer", "Revenue"]
key_names = st.sampled_from(KEYS)
values = st.sampled_from(["77", "$ 903", "", "x: y", "nine"])
lines = st.one_of(
    st.builds(lambda k, v: f"{k}: {v}", key_names, values),
    st.builds(lambda k, v: json.dumps({k: v}), key_names, values),
    st.builds(lambda k, v, w: json.dumps([{k: v}, 3, {"Units;": w}]), key_names, values, values),
    st.builds(lambda k: json.dumps([k]), key_names),
    st.sampled_from(["[not json", "{broken", "  {}  ", "Question: fleet size?", "Answer: 5", "plain text", ""]),
)
texts = st.builds(
    lambda parts, breaks: "".join(part + brk for part, brk in zip(parts, breaks)),
    st.lists(lines, max_size=6),
    st.lists(st.sampled_from(LINE_BREAKS), min_size=6, max_size=6),
)
questions = st.builds(" ".join, st.lists(st.sampled_from(KEYS + ["what", "was", "?", "units"]), min_size=1, max_size=5))
# (prompt, context, question); a text with no question block is read as
# its own context and question.
prompts = st.one_of(
    st.builds(
        lambda chunks, question: (build_prompt(chunks, question), CONTEXT_SEPARATOR.join(chunks), question),
        st.lists(texts, max_size=4),
        questions.filter(str.strip),
    ),
    texts.map(lambda text: (text, text, text)),
)

SHARED_READER = ContextLookupLLM()  # reused across examples: its memo stays warm
SMALL_LIMIT = 6


@settings(max_examples=400, deadline=None)
@given(st.lists(prompts, min_size=1, max_size=6))
def test_lookup_llm_with_a_block_memo_matches_the_reference(batch):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(providers, "_BLOCK_MEMO_LIMIT", SMALL_LIMIT)  # drops happen often
        for prompt, context, question in batch:
            assert SHARED_READER.complete(request(prompt=prompt)).text == reference_answer(context, question)
            assert len(SHARED_READER._blocks) <= SMALL_LIMIT


def test_lookup_llm_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(providers, "_BLOCK_MEMO_LIMIT", 10)
    llm = ContextLookupLLM()
    sizes = []
    for i in range(40):
        prompt = build_prompt([f"Key {i}: {i}", f"Other {i}: x", "Shared: s"], f"What is key {i}?")
        assert llm.complete(request(prompt=prompt)).text == str(i)
        sizes.append(len(llm._blocks))
    assert max(sizes) <= 10
    assert min(sizes[5:]) < 5  # the memo was dropped, and filled again
    # the question block is read afresh, never kept
    assert not any(block.startswith("Question: ") for block in llm._blocks)


def test_lookup_llm_shared_between_threads_matches_a_fresh_reader(monkeypatch):
    monkeypatch.setattr(providers, "_BLOCK_MEMO_LIMIT", 8)
    interval = sys.getswitchinterval()
    prompts = [
        build_prompt([f"Key {i % 13}: {i % 13}", f'[{{"Units;": "{i % 7}"}}]'], f"Key {i % 13} units?")
        for i in range(300)
    ]
    expected = [ContextLookupLLM().complete(request(prompt=p)).text for p in prompts]
    shared = ContextLookupLLM()
    answers = [None] * len(prompts)

    def work(start):
        for i in range(start, len(prompts), 4):
            answers[i] = shared.complete(request(prompt=prompts[i])).text

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(start,)) for start in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert answers == expected
