"""Prompt rendering, backends, and tau extraction."""

import contextlib
import http.server
import io
import json
import math
import re
import sys
import threading
import time
import urllib.error

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import estune.llm as llm
from estune.es import ConfigurationError
from estune.llm import (
    ExtractionError,
    HttpBackend,
    LlmBackendConfig,
    ScriptedBackend,
    TransportError,
    extract_tau,
    render_analysis_prompt,
    render_tune_prompt,
)

from conftest import FIXTURES

SAMPLE_LOG = "tau = 0.7, Fitness: 0.1162058339177609\ntau = 0.95, Fitness: 66.05538351053897\n"


class TestPrompts:
    def test_default_tune_prompt_matches_golden(self):
        golden = (FIXTURES / "golden_tune_prompt.txt").read_text(encoding="utf-8")
        assert render_tune_prompt() == golden

    def test_default_analysis_prompt_matches_golden(self):
        golden = (FIXTURES / "golden_analysis_prompt.txt").read_text(encoding="utf-8")
        assert render_analysis_prompt(SAMPLE_LOG) == golden

    def test_tune_prompt_first_line(self):
        assert render_tune_prompt().startswith(
            "Tune the hyperparameter tau of an Evolution Stratety.\n"
        )

    def test_analysis_prompt_contains_log_lines(self):
        prompt = render_analysis_prompt(SAMPLE_LOG)
        assert "tau = 0.7, Fitness: 0.1162058339177609" in prompt
        assert prompt.startswith("Analyze the following results concerning")

    def test_analysis_preserves_trailing_newline(self):
        prompt = render_analysis_prompt("tau = 1, Fitness: 2\n")
        assert prompt.endswith("tau = 1, Fitness: 2\n")

    def test_analysis_single_line_log(self):
        prompt = render_analysis_prompt("tau = 1, Fitness: 2")
        assert prompt.endswith("tau = 1, Fitness: 2")

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            render_analysis_prompt("")


class TestScriptedBackend:
    def test_passthrough_in_order(self):
        backend = ScriptedBackend(["tau = 0.7", "tau = 0.9"])
        assert backend.send("p1").response == "tau = 0.7"
        assert backend.send("p2").response == "tau = 0.9"

    def test_exchange_fields_deterministic(self):
        exchange = ScriptedBackend(["tau = 0.7"]).send("prompt text", attempt=2)
        assert exchange.prompt == "prompt text"
        assert exchange.latency_ms == 0.0
        assert exchange.timestamp == llm.SCRIPTED_TIMESTAMP
        assert exchange.attempt == 2

    def test_exhausted_script_errors(self):
        backend = ScriptedBackend(["only one"])
        backend.send("p")
        with pytest.raises(TransportError):
            backend.send("p")


class TestBackendConfig:
    def test_http_requires_base_url(self):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig()

    @pytest.mark.parametrize("kwargs", [{"temperature": 2.5}, {"timeout_seconds": 0},
                                        {"transport_retries": -1},
                                        {"timeout_seconds": 86400.5}])
    def test_bad_numbers(self, kwargs):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(base_url="http://x", **kwargs)

    # No scheme, a scheme urlopen cannot use, no host, an unclosed IPv6
    # bracket, and ports that are not numbers in range.
    @pytest.mark.parametrize("base_url", ["notaurl", "localhost:8080", "ftp://x", "http://",
                                          "http://:80", "http://[::1", "http://x:99999",
                                          "http://x:port"])
    def test_malformed_base_url(self, base_url):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(base_url=base_url)

    @pytest.mark.parametrize("base_url", ["http://127.0.0.1:9", "https://llm.test/v1/",
                                          "http://[::1]:8080"])
    def test_base_url_accepted(self, base_url):
        assert LlmBackendConfig(base_url=base_url).base_url == base_url


class _FakeResponse(io.BytesIO):
    """What urlopen returns for a 2xx reply."""

    status = 200


def _reply(content):
    return _FakeResponse(json.dumps({"choices": [{"message": {"content": content}}]}).encode())


def _http_error(code, body):
    return urllib.error.HTTPError("http://llm.test", code, "error", {}, io.BytesIO(body))


class _EndlessResponse:
    """A 2xx reply whose body never ends: only a bounded read returns."""

    status = 200

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("unbounded read of an endless body")
        return b" " * size

    read1 = read


class _DripHandler(http.server.BaseHTTPRequestHandler):
    """Replies 200 with a valid body, sent 4 bytes every 0.3 s until the
    server's ``stop`` event is set."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = _reply("tau = 1.0").getvalue()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.drip(body)

    def drip(self, data):
        for i in range(0, len(data), 4):
            if self.server.stop.wait(0.3):
                return
            try:
                self.wfile.write(data[i : i + 4])
            except OSError:  # the client has gone
                return

    def log_message(self, *args):
        pass


class _PromptHandler(_DripHandler):
    """Replies at once: 200 with a valid body, or, for the prompt "busy",
    503 with the body "overloaded"."""

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        busy = prompt["messages"][0]["content"] == "busy"
        body = b"overloaded" if busy else _reply("tau = 1.0").getvalue()
        self.send_response(503 if busy else 200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _HeaderDripHandler(_DripHandler):
    """Like ``_DripHandler``, but the status line and headers drip too."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = _reply("tau = 1.0").getvalue()
        head = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        self.drip(head + body)


@contextlib.contextmanager
def _loopback(handler):
    """The port of a loopback HTTP server run by ``handler`` in a thread,
    which is stopped and joined on exit."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    server.stop = threading.Event()
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server.server_port
    finally:
        server.stop.set()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        assert not thread.is_alive()


def _http_backend(retries=2):
    return HttpBackend(LlmBackendConfig(base_url="http://llm.test", transport_retries=retries))


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def _no_requests(self, monkeypatch):
        # The client is stdlib only: importing requests here fails the test.
        monkeypatch.setitem(sys.modules, "requests", None)

    def test_wire_format_and_content_extraction(self, monkeypatch):
        seen = {}

        def fake_urlopen(request, timeout=None):
            seen.update(url=request.full_url, method=request.get_method(),
                        payload=json.loads(request.data), timeout=timeout)
            return _reply("tau = 1.0")

        monkeypatch.setattr(llm, "_urlopen", fake_urlopen)
        exchange = _http_backend().send("pick a tau", attempt=1)
        assert exchange.response == "tau = 1.0"
        assert exchange.attempt == 1
        assert exchange.latency_ms >= 0.0
        assert seen["url"] == "http://llm.test/v1/chat/completions"
        assert seen["method"] == "POST"
        assert seen["payload"] == {
            "model": "llama3",
            "messages": [{"role": "user", "content": "pick a tau"}],
            "temperature": 0.7,
            "stream": False,
        }
        assert seen["timeout"] == 60.0

    def test_bearer_token_from_env(self, monkeypatch):
        monkeypatch.setenv(llm.TOKEN_ENV_VAR, "sekret")
        captured = {}

        def fake_urlopen(request, timeout=None):
            captured.update(authorization=request.get_header("Authorization"))
            return _reply("tau = 1")

        monkeypatch.setattr(llm, "_urlopen", fake_urlopen)
        _http_backend().send("p")
        assert captured["authorization"] == "Bearer sekret"

    def test_retries_with_exponential_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(llm, "_sleep", sleeps.append)
        calls = {"n": 0}

        def fake_urlopen(request, timeout=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise urllib.error.URLError(ConnectionRefusedError("refused"))
            return _reply("tau = 0.8")

        monkeypatch.setattr(llm, "_urlopen", fake_urlopen)
        exchange = _http_backend().send("p")
        assert exchange.response == "tau = 0.8"
        assert sleeps == [1.0, 2.0]

    def test_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setattr(llm, "_sleep", lambda s: None)

        def fake_urlopen(request, timeout=None):
            raise urllib.error.URLError(ConnectionRefusedError("refused"))

        monkeypatch.setattr(llm, "_urlopen", fake_urlopen)
        with pytest.raises(TransportError, match="3 attempts"):
            _http_backend(retries=2).send("p")

    def test_non_2xx_carries_payload(self, monkeypatch):
        monkeypatch.setattr(llm, "_sleep", lambda s: None)

        def fake_urlopen(request, timeout=None):
            raise _http_error(503, b"overloaded")

        monkeypatch.setattr(llm, "_urlopen", fake_urlopen)
        with pytest.raises(TransportError) as exc_info:
            _http_backend(retries=0).send("p")
        assert "overloaded" in exc_info.value.payload

    def test_malformed_body_is_transport_error(self, monkeypatch):
        monkeypatch.setattr(llm, "_sleep", lambda s: None)
        malformed = _FakeResponse(b'{"unexpected": true}')
        monkeypatch.setattr(llm, "_urlopen", lambda request, timeout=None: malformed)
        with pytest.raises(TransportError):
            _http_backend(retries=0).send("p")


    def test_body_at_the_cap_is_read(self, monkeypatch):
        reply = _reply("tau = 1.0")
        monkeypatch.setattr(llm, "MAX_RESPONSE_BYTES", len(reply.getvalue()))
        monkeypatch.setattr(llm, "_urlopen", lambda request, timeout=None: reply)
        assert _http_backend(retries=0).send("p").response == "tau = 1.0"

    def test_body_past_the_cap_is_transport_error(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(llm, "_sleep", sleeps.append)
        monkeypatch.setattr(llm, "MAX_RESPONSE_BYTES", 1000)
        monkeypatch.setattr(llm, "_urlopen", lambda request, timeout=None: _EndlessResponse())
        with pytest.raises(TransportError, match="body longer than 1000 bytes"):
            _http_backend(retries=1).send("p")
        assert sleeps == [1.0]

    def test_slow_drip_times_out_at_the_deadline(self, monkeypatch):
        # The body takes 13 drips, about 3.9 s; each socket read waits only
        # 0.3 s, well inside the 1 s socket timeout.
        monkeypatch.setenv("no_proxy", "*")
        with _loopback(_DripHandler) as port:
            backend = HttpBackend(LlmBackendConfig(
                base_url=f"http://127.0.0.1:{port}", timeout_seconds=1, transport_retries=0,
            ))
            start = time.monotonic()
            with pytest.raises(TransportError, match="TimeoutError"):
                backend.send("p")
            elapsed = time.monotonic() - start
        assert elapsed < 2.0

    def test_loopback_replies_are_read(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        with _loopback(_PromptHandler) as port:
            backend = HttpBackend(LlmBackendConfig(
                base_url=f"http://127.0.0.1:{port}", timeout_seconds=5, transport_retries=0,
            ))
            assert backend.send("p").response == "tau = 1.0"
            with pytest.raises(TransportError) as caught:
                backend.send("busy")
        assert caught.value.payload == "HTTP 503: 'overloaded'"

    def test_header_drip_times_out_at_the_deadline(self, monkeypatch):
        # The status line and headers take about 20 drips, 6 s; each socket
        # read waits only 0.3 s.  The whole reply must arrive within the
        # timeout, not just each read.
        monkeypatch.setenv("no_proxy", "*")
        with _loopback(_HeaderDripHandler) as port:
            backend = HttpBackend(LlmBackendConfig(
                base_url=f"http://127.0.0.1:{port}", timeout_seconds=1, transport_retries=0,
            ))
            start = time.monotonic()
            with pytest.raises(TransportError, match="TimeoutError"):
                backend.send("p")
            elapsed = time.monotonic() - start
        assert elapsed < 1.5


class TestExtractTau:
    def test_fixture_corpus(self):
        fixtures = json.loads((FIXTURES / "extract_fixtures.json").read_text(encoding="utf-8"))
        assert len(fixtures) >= 25
        for fx in fixtures:
            if fx["expect"] is None:
                with pytest.raises(ExtractionError):
                    extract_tau(fx["text"])
            else:
                assert extract_tau(fx["text"]) == fx["expect"], fx["name"]

    def test_log_line_recovers_tau(self):
        assert extract_tau("tau = 0.95, Fitness: 66.05") == 0.95

    def test_fenced_block_single_assignment(self):
        assert extract_tau("```python\ntau = 1.05\n```") == 1.05

    def test_prose_last_match(self):
        text = "...indicating this range is beneficial... I propose a new value tau = 0.9."
        assert extract_tau(text) == 0.9

    def test_pure_function(self):
        text = "tau = 0.77"
        assert extract_tau(text) == extract_tau(text) == 0.77

    @given(st.floats(min_value=0, max_value=1e308, exclude_min=True,
                     allow_nan=False, allow_infinity=False))
    def test_round_trip_over_repr(self, value):
        assert extract_tau(f"tau = {value!r}") == value


# extract_tau's matching as one regex scanned by finditer, before the scan
# became linear; the reference for the equivalence test below.
_REFERENCE_NUMBER = r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_REFERENCE_PATTERN = re.compile(
    rf"\btau\b\s*=\s*({_REFERENCE_NUMBER})"
    rf"|\btau\s+of\b[^.!?]*?({_REFERENCE_NUMBER})"
    rf"|\bvalue\s+for\s+tau\b[^.!?]*?({_REFERENCE_NUMBER})",
    re.IGNORECASE,
)


def _reference_match(text):
    text = llm._BARE_FENCE_LABEL.sub("", llm._FENCE_MARKER.sub("", text))
    last = None
    for m in _REFERENCE_PATTERN.finditer(text):
        last = next(g for g in m.groups() if g is not None)
    return last


def _outcome(text):
    try:
        return extract_tau(text)
    except ExtractionError:
        return None


# Sentences made of an anchor, filler words, an optional number and an
# optional end, so that anchors often find no number before the end.
_SENTENCES = st.tuples(
    st.sampled_from(["", "tau of ", "value for tau ", "tau = ", "Tau=", "xtau of "]),
    st.lists(st.sampled_from(["x", "of", "for", "value", "tau", "e", ",", "="]), max_size=3)
    .map(" ".join),
    st.sampled_from(["", "", " 0.5", " .7", "5.", " 1e5", " -2", "+3"]),
    st.sampled_from([".", "!", "?", " ", "\n"]),
).map("".join)


class TestExtractTauScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SENTENCES | st.text(max_size=3), max_size=8).map("".join))
    @example("tau of x. tau = 5")
    @example("value for tau x! tau of 3")
    def test_matches_the_single_regex_reference(self, text):
        expected = _reference_match(text)
        value = None if expected is None else float(expected)
        if value is not None and not (math.isfinite(value) and value > 0):
            value = None
        assert _outcome(text) == value

    @pytest.mark.parametrize("unit", ["tau of x ", "value for tau "])
    def test_one_megabyte_sentence_without_a_number_is_rejected_within_a_second(self, unit):
        text = unit * (1_000_000 // len(unit))
        start = time.perf_counter()
        with pytest.raises(ExtractionError):
            extract_tau(text)
        assert time.perf_counter() - start < 1.0
