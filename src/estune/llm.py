"""Prompt rendering, chat-completion transport, and tau extraction.

Two interchangeable backends speak to the tuning loop: an HTTP client for
any chat-completion endpoint (one POST per proposal, single-turn), and a
scripted stand-in that replays canned responses for network-free,
reproducible runs.  Responses are never executed; the proposed tau is
extracted from the text instead.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Sequence

__all__ = [
    "DUPLICATE_REMINDER",
    "ExtractionError",
    "HttpBackend",
    "LlmBackendConfig",
    "LlmExchange",
    "PARSE_DIRECTIVE",
    "PromptPair",
    "ScriptedBackend",
    "TransportError",
    "extract_tau",
    "make_backend",
    "render_analysis_prompt",
    "render_tune_prompt",
]

# The 'Stratety' misspelling below is intentional; golden tests pin these
# instruction blocks byte for byte.
DEFAULT_TUNE_INSTRUCTION = (
    "Tune the hyperparameter tau of an Evolution Stratety.\n"
    "The algorithm is a (1+1)-ES with Rechenberg rule and parameter tau.\n"
    "The objective is to maximize the fitness.\n"
    "Return the full Python code, but only change tau."
)

DEFAULT_ANALYSIS_INSTRUCTION = (
    "Analyze the following results concerning the influence of tau on the fitness.\n"
    "Summarize your analysis in one sentence and propose a new value for tau you have not tried."
)

# Appended to the tune instruction so replies are parseable without running
# any returned code.
PARSE_DIRECTIVE = "Reply with the single line `tau = <value>`."

DUPLICATE_REMINDER = "That value was already tried; propose a different one."

TOKEN_ENV_VAR = "ESTUNE_TOKEN"

RETRY_BACKOFF_SECONDS = 1.0

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


@dataclass(frozen=True)
class PromptPair:
    """The two instruction blocks driving the loop, defaulting to the stock text."""

    tune_instruction: str = DEFAULT_TUNE_INSTRUCTION
    analysis_instruction: str = DEFAULT_ANALYSIS_INSTRUCTION


@dataclass
class LlmExchange:
    """Verbatim audit record of one backend call."""

    prompt: str
    response: str
    latency_ms: float
    timestamp: str
    attempt: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LlmBackendConfig:
    """Selects and parameterizes the HTTP or scripted backend."""

    kind: str = "http"
    base_url: str = ""
    path: str = "/v1/chat/completions"
    model: str = "llama3"
    temperature: float = 0.7
    timeout_seconds: float = 60.0
    transport_retries: int = 2
    scripted_responses: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("http", "scripted"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http" and not self.base_url:
            raise ValueError("http backend requires base_url")
        if self.kind == "scripted" and not self.scripted_responses:
            raise ValueError("scripted backend requires scripted_responses")
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be in [0, 2]")
        if not (self.timeout_seconds > 0):
            raise ValueError("timeout_seconds must be > 0")
        if self.transport_retries < 0:
            raise ValueError("transport_retries must be >= 0")


def render_tune_prompt(pair: PromptPair, include_directive: bool = True) -> str:
    """Tune instruction verbatim, plus the one-line reply directive."""
    if not pair.tune_instruction.strip():
        raise ValueError("tune instruction must not be empty")
    if not include_directive:
        return pair.tune_instruction
    return f"{pair.tune_instruction}\n\n{PARSE_DIRECTIVE}"


def render_analysis_prompt(pair: PromptPair, log_text: str) -> str:
    """Analysis instruction, a blank line, then the results log verbatim."""
    if not pair.analysis_instruction.strip():
        raise ValueError("analysis instruction must not be empty")
    if not log_text:
        raise ValueError("log text must not be empty")
    return f"{pair.analysis_instruction}\n\n{log_text}"


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
    (connection errors, timeouts, non-2xx, malformed bodies) are retried with
    exponential backoff (1s, 2s, 4s, ...) before giving up.  An optional
    bearer token is taken from the ESTUNE_TOKEN environment variable.
    """

    def __init__(self, config: LlmBackendConfig):
        if config.kind != "http":
            raise ValueError("HttpBackend requires an http backend config")
        self.config = config
        self.token = os.environ.get(TOKEN_ENV_VAR, "")

    def send(self, prompt: str, attempt: int = 0) -> LlmExchange:
        import requests  # imported here: it is most of the package's import time

        cfg = self.config
        url = cfg.base_url.rstrip("/") + cfg.path
        payload = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "stream": False,
        }
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"

        start = time.perf_counter()
        detail = ""
        for i in range(cfg.transport_retries + 1):
            try:
                resp = requests.post(
                    url, json=payload, headers=headers, timeout=cfg.timeout_seconds
                )
            except requests.RequestException as exc:
                detail = f"{type(exc).__name__}: {exc}"
            else:
                if 200 <= resp.status_code < 300:
                    try:
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError):
                        detail = f"malformed response body: {resp.text[:500]!r}"
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
                        detail = f"non-text message content: {resp.text[:500]!r}"
                else:
                    detail = f"HTTP {resp.status_code}: {resp.text[:500]!r}"
            if i < cfg.transport_retries:
                _sleep(RETRY_BACKOFF_SECONDS * (2**i))
        raise TransportError(
            f"chat completion failed after {cfg.transport_retries + 1} attempts: {detail}",
            payload=detail,
        )


def make_backend(config: LlmBackendConfig):
    if config.kind == "scripted":
        return ScriptedBackend(config.scripted_responses)
    return HttpBackend(config)


_NUMBER = r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"

# Three accepted shapes: an assignment, "tau of <x>", and "value for tau
# ... <x>" with the number inside the same sentence.
_TAU_PATTERN = re.compile(
    rf"\btau\b\s*=\s*({_NUMBER})"
    rf"|\btau\s+of\b[^.!?]*?({_NUMBER})"
    rf"|\bvalue\s+for\s+tau\b[^.!?]*?({_NUMBER})",
    re.IGNORECASE,
)

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
    for m in _TAU_PATTERN.finditer(text):
        last = next(g for g in m.groups() if g is not None)
    if last is None:
        raise ExtractionError("no tau value found in response")
    value = float(last)
    if not math.isfinite(value) or value <= 0:
        raise ExtractionError(f"extracted tau {last!r} is not a positive finite number")
    return value
