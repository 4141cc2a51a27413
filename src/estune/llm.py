"""Prompt rendering, chat-completion transport, and tau extraction.

Two interchangeable backends speak to the tuning loop: an HTTP client for
any chat-completion endpoint (one POST per proposal, single-turn), and a
scripted stand-in that replays canned responses for network-free,
reproducible runs.  Responses are never executed; the proposed tau is
extracted from the text instead.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import time
import urllib.parse
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

from .es import ConfigurationError

__all__ = [
    "DUPLICATE_REMINDER",
    "ExtractionError",
    "HttpBackend",
    "LlmBackendConfig",
    "LlmExchange",
    "MAX_RESPONSE_BYTES",
    "PARSE_DIRECTIVE",
    "ScriptedBackend",
    "TransportError",
    "extract_tau",
    "render_analysis_prompt",
    "render_tune_prompt",
]

# The 'Stratety' misspelling below is intentional; golden tests pin these
# instruction blocks byte for byte.
TUNE_INSTRUCTION = (
    "Tune the hyperparameter tau of an Evolution Stratety.\n"
    "The algorithm is a (1+1)-ES with Rechenberg rule and parameter tau.\n"
    "The objective is to maximize the fitness.\n"
    "Return the full Python code, but only change tau."
)

ANALYSIS_INSTRUCTION = (
    "Analyze the following results concerning the influence of tau on the fitness.\n"
    "Summarize your analysis in one sentence and propose a new value for tau you have not tried."
)

# Appended to the tune instruction so replies are parseable without running
# any returned code.
PARSE_DIRECTIVE = "Reply with the single line `tau = <value>`."

DUPLICATE_REMINDER = "That value was already tried; propose a different one."

# An analysis prompt is ANALYSIS_PREFIX and the log; a duplicate's re-prompt
# is its proposal's first prompt and REMINDER_SUFFIX.  A session file stores
# its prompts by reference to these templates and the tune prompt, so a
# change to any of them must bump store.SCHEMA_VERSION.
ANALYSIS_PREFIX = f"{ANALYSIS_INSTRUCTION}\n\n"
REMINDER_SUFFIX = f"\n\n{DUPLICATE_REMINDER}"

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"

TOKEN_ENV_VAR = "ESTUNE_TOKEN"

RETRY_BACKOFF_SECONDS = 1.0

# Largest reply body read, far above any chat reply; a longer body is a
# TransportError, so one reply cannot exhaust memory.
MAX_RESPONSE_BYTES = 16 * 1024 * 1024

# Longest request timeout: a day.  Socket timeouts overflow past about 9.2e9 s.
MAX_TIMEOUT_SECONDS = 86400

# Scripted exchanges carry a fixed instant so replayed sessions serialize to
# identical bytes.
SCRIPTED_TIMESTAMP = "1970-01-01T00:00:00+00:00"

# Test hook: patch to avoid real backoff waits.
_sleep = time.sleep


class TransportError(RuntimeError):
    """Backend call failed for good; ``payload`` holds the raw evidence."""

    def __init__(self, message: str, payload: str = ""):
        super().__init__(message)
        self.payload = payload


class ExtractionError(ValueError):
    """No usable tau value could be pulled out of a response."""


@dataclass
class LlmExchange:
    """Verbatim audit record of one backend call."""

    prompt: str
    response: str
    latency_ms: float
    timestamp: str
    attempt: int = 0


@dataclass(frozen=True)
class LlmBackendConfig:
    """Parameterizes the HTTP backend."""

    base_url: str = ""
    model: str = "llama3"
    temperature: float = 0.7
    timeout_seconds: float = 60.0
    transport_retries: int = 2

    def __post_init__(self) -> None:
        # Checked before any connection: urlopen would fail on each attempt.
        try:
            url = urllib.parse.urlsplit(self.base_url)
            url.port  # raises ValueError unless the port is a number in range
        except ValueError:
            url = None
        if not (url and url.scheme in ("http", "https") and url.hostname):
            raise ConfigurationError(f"endpoint {self.base_url!r} is not an http(s) URL with a host")
        if not (0.0 <= self.temperature <= 2.0):
            raise ConfigurationError("temperature must be in [0, 2]")
        if not (0 < self.timeout_seconds <= MAX_TIMEOUT_SECONDS):
            raise ConfigurationError(f"timeout_seconds must be > 0 and <= {MAX_TIMEOUT_SECONDS}")
        if self.transport_retries < 0:
            raise ConfigurationError("transport_retries must be >= 0")


def render_tune_prompt() -> str:
    """Tune instruction verbatim, plus the one-line reply directive."""
    return f"{TUNE_INSTRUCTION}\n\n{PARSE_DIRECTIVE}"


def render_analysis_prompt(log_text: str) -> str:
    """Analysis instruction, a blank line, then the results log verbatim."""
    if not log_text:
        raise ValueError("log text must not be empty")
    return ANALYSIS_PREFIX + log_text


class ScriptedBackend:
    """Replays canned responses in order; no network, no clock."""

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self._cursor = 0

    def send(self, prompt: str, attempt: int = 0) -> LlmExchange:
        if self._cursor >= len(self._responses):
            raise TransportError(
                "scripted response list exhausted",
                payload=f"{self._cursor} scripted responses already consumed",
            )
        response = self._responses[self._cursor]
        self._cursor += 1
        return LlmExchange(
            prompt=prompt,
            response=response,
            latency_ms=0.0,
            timestamp=SCRIPTED_TIMESTAMP,
            attempt=attempt,
        )


class HttpBackend:
    """Single-turn chat-completion client with retry and timeout.

    POSTs ``{"model", "messages", "temperature", "stream": false}`` and reads
    the reply from ``choices[0].message.content``.  Transport failures
    (connection errors, timeouts, non-2xx, malformed bodies, bodies longer
    than ``MAX_RESPONSE_BYTES``) are retried with exponential backoff (1s,
    2s, 4s, ...) before giving up.  ``timeout_seconds`` bounds connecting
    and sending, each, and the reply as a whole: a status line, header or
    body still arriving when that much time has passed since the attempt
    began is a timeout.  An optional bearer token is taken from the
    ESTUNE_TOKEN environment variable.
    """

    def __init__(self, config: LlmBackendConfig):
        self.config = config
        self.token = os.environ.get(TOKEN_ENV_VAR, "")

    def send(self, prompt: str, attempt: int = 0) -> LlmExchange:
        # Imported here: urllib.request adds about 15% to the package's import time.
        import http.client
        import urllib.error
        import urllib.request

        cfg = self.config
        url = cfg.base_url.rstrip("/") + CHAT_COMPLETIONS_PATH
        body = json.dumps({
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "stream": False,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"

        start = time.perf_counter()
        detail = ""
        for i in range(cfg.transport_retries + 1):
            try:
                request = urllib.request.Request(url, data=body, headers=headers, method="POST")
                try:
                    resp = _urlopen(request, timeout=cfg.timeout_seconds)
                except urllib.error.HTTPError as exc:
                    resp = exc  # a non-2xx reply still carries its body
                with resp:
                    status, reply = resp.status, _read_body(resp)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                detail = f"{type(exc).__name__}: {exc}"
            else:
                text = reply.decode("utf-8", errors="replace")
                if len(reply) > MAX_RESPONSE_BYTES:
                    detail = f"HTTP {status}: body longer than {MAX_RESPONSE_BYTES} bytes"
                elif 200 <= status < 300:
                    try:
                        content = json.loads(text)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError, RecursionError):
                        detail = f"malformed response body: {text[:500]!r}"
                    else:
                        if isinstance(content, str):
                            latency = (time.perf_counter() - start) * 1000.0
                            return LlmExchange(
                                prompt=prompt,
                                response=content,
                                latency_ms=latency,
                                timestamp=datetime.now(timezone.utc).isoformat(),
                                attempt=attempt,
                            )
                        detail = f"non-text message content: {text[:500]!r}"
                else:
                    detail = f"HTTP {status}: {text[:500]!r}"
            if i < cfg.transport_retries:
                _sleep(RETRY_BACKOFF_SECONDS * (2**i))
        raise TransportError(
            f"chat completion failed after {cfg.transport_retries + 1} attempts: {detail}",
            payload=detail,
        )


def _read_body(resp) -> bytes:
    """At most ``MAX_RESPONSE_BYTES + 1`` bytes of a reply body, taken as they
    arrive, so that an endless body is cut off."""
    chunks, size = [], 0
    while size <= MAX_RESPONSE_BYTES:
        chunk = resp.read1(MAX_RESPONSE_BYTES + 1 - size)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


def _urlopen(request, timeout: float):
    """``urllib.request.urlopen(request, timeout=timeout)``, except that the
    whole reply, status line, headers and body, must arrive within
    ``timeout`` of the call.  ``urlopen`` reads the status line and headers
    before it returns, with ``timeout`` limiting each socket read only, so a
    server that sent a few bytes at a time could hold an attempt for good.
    """
    return _deadline_opener().open(request, timeout=timeout)


@functools.cache
def _deadline_opener():
    """``urlopen``'s default opener, whose HTTP and HTTPS connections read
    each reply through a ``Reader`` with the request's deadline.  Made on
    first use, like the imports in ``HttpBackend.send``."""
    import http.client
    import io
    import urllib.request

    class Reader(io.RawIOBase):
        """A socket's reads, each waiting only for the time left before
        ``deadline``; ``HTTPResponse`` reads through ``makefile``."""

        def __init__(self, sock, deadline):
            # The socket's own file keeps it open until this one is closed.
            self._sock, self._deadline = sock, deadline
            self._file = sock.makefile("rb", buffering=0)

        def makefile(self, mode):
            return io.BufferedReader(self)

        def readable(self):
            return True

        def readinto(self, buffer):
            left = self._deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("reply not complete within the request's timeout")
            self._sock.settimeout(left)
            return self._file.readinto(buffer)

        def close(self):
            self._file.close()
            super().close()

    class Deadline:
        """A handler whose connections make their replies read through a
        ``Reader``, with the deadline ``req.timeout`` from now."""

        def do_open(self, http_class, req, **kwargs):
            deadline = time.monotonic() + req.timeout

            def reply(sock, *args, **kw):
                return http.client.HTTPResponse(Reader(sock, deadline), *args, **kw)

            def connection(*args, **kw):
                conn = http_class(*args, **kw)
                conn.response_class = reply
                return conn

            return super().do_open(connection, req, **kwargs)

    class HttpHandler(Deadline, urllib.request.HTTPHandler):
        pass

    class HttpsHandler(Deadline, urllib.request.HTTPSHandler):
        pass

    return urllib.request.build_opener(HttpHandler, HttpsHandler)


_NUMBER = r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"

# Three accepted shapes: an assignment, "tau of <x>", and "value for tau
# ... <x>" with the number inside the same sentence.  The last two are an
# anchor here, and the number after it is found with _GAP_NUMBER.
_TAU_ANCHOR = re.compile(
    rf"\btau\b\s*=\s*({_NUMBER})|\btau\s+of\b|\bvalue\s+for\s+tau\b",
    re.IGNORECASE,
)
_GAP_NUMBER = re.compile(rf"[^.!?]*?({_NUMBER})")
_SENTENCE_END = re.compile(r"[.!?]")

_FENCE_MARKER = re.compile(r"```[ \t]*(?:python|code)?", re.IGNORECASE)
_BARE_FENCE_LABEL = re.compile(r"^[ \t]*(?:python|code)[ \t]*$", re.IGNORECASE | re.MULTILINE)


def extract_tau(response: str) -> float:
    """Pull the proposed tau out of a free-text response.

    Fence markers and bare "python"/"code" label lines are stripped first,
    then the last value matching one of the tau phrasings wins; analysis
    replies conventionally restate old values before the fresh proposal.
    """
    text = _FENCE_MARKER.sub("", response)
    text = _BARE_FENCE_LABEL.sub("", text)
    last: str | None = None
    pos = 0
    while m := _TAU_ANCHOR.search(text, pos):
        n = m if m.group(1) is not None else _GAP_NUMBER.match(text, m.end())
        if n:
            last, pos = n.group(1), n.end()
        else:
            # No number can start between here and the sentence's end, so
            # neither can a match: skip the sentence instead of rescanning
            # it from every later anchor, which made long replies quadratic.
            end = _SENTENCE_END.search(text, m.end())
            if end is None:
                break
            pos = end.end()
    if last is None:
        raise ExtractionError("no tau value found in response")
    value = float(last)
    if not math.isfinite(value) or value <= 0:
        raise ExtractionError(f"extracted tau {last!r} is not a positive finite number")
    return value
