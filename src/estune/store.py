"""Results log and session persistence.

Two files describe a tuning session.

``<name>.log`` is the human-readable results log, the exact bytes fed back
to the LLM inside analysis prompts.  Grammar, one line per trial::

    tau = <decimal>, Fitness: <decimal>[, Std: <decimal>]\n

Decimals use the shortest representation that round-trips to the same IEEE
double; integral values drop the trailing ".0".

``<name>.session.jsonl`` is the machine-readable record, one JSON object
per line, in chronological order:

* line 1: ``{"record": "header", "schema_version": 1, "config": {...}}``
* ``{"record": "exchange", "prompt", "response", "latency_ms", "timestamp",
  "attempt"}``, one per backend call, in call order
* ``{"record": "trial", "tau", "replicates": [{"seed", "best_f", "score",
  "final_sigma", "generations_run"}, ...], "mean_score", "std_score"}``
* last line, once the session leaves the running state:
  ``{"record": "status", "status", ["best_tau"], ["error"]}``

A running session's files are appended to as it happens (``SessionWriter``):
the header before the first backend call, then after each trial the
exchanges that proposed it and the trial record, in one write, with its
``log_line`` appended to ``.log``; the status record comes last.  Both
files are opened once and held open until the status record is written (or
an exception leaves ``run_session``); each write is flushed to the OS before
the next proposal.  Every record therefore reaches the disk once.  A crash
can leave at most a torn last line, which ``read_session`` reports as a
``SessionFileError`` whose ``partial`` holds everything before it.

Analysis prompts repeat the whole log, so the writer keeps the analysis
prompt over the log it has written, and its JSON escape, and extends both
by one line per trial.  An exchange whose prompt starts with that prompt is
written from the cached escape plus the escape of its own tail; any other
prompt goes through ``json.dumps``.  Either way the bytes are those of
``write_session``, the uncached reference.

``write_session`` writes the same header, trial blocks and tail in one go.
A trial's exchanges precede its record; any exchanges after the last trial
belong to a proposal that has no trial.

Each record holds exactly the fields of its dataclass, in field order: the
config is ``SessionConfig`` (with its nested ``ObjectiveSpec`` and
``EsTemplate``), a replicate ``EsRunResult``, an exchange ``LlmExchange``,
and a trial ``Trial``, with its ``results`` under the key ``replicates`` and
its ``exchanges`` as the records before it.  ``read_session`` requires every
field and ignores any other key.  Each value must have its field's JSON type (``json_value``): a float
field also accepts an integer, and nothing else is converted.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import asdict, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Iterable, Sequence, get_type_hints

from .es import ConfigurationError, EsRunResult
from .llm import LlmExchange, render_analysis_prompt
from .models import (
    STATUS_ABORTED,
    STATUS_COMPLETED,
    STATUS_RUNNING,
    EmptySessionError,
    SessionConfig,
    Trial,
    TuningSession,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "SessionFileError",
    "SessionWriter",
    "format_number",
    "json_value",
    "log_line",
    "read_session",
    "render_log",
    "trial_stats",
    "write_session",
]

SCHEMA_VERSION = 1

_STATUSES = (STATUS_RUNNING, STATUS_COMPLETED, STATUS_ABORTED)


class SessionFileError(ValueError):
    """A session file could not be parsed.

    ``line_number`` names the offending line (1-based); ``partial`` holds
    the session reconstructed from everything before it.
    """

    def __init__(self, message: str, line_number: int = 0, partial: TuningSession | None = None):
        super().__init__(message)
        self.line_number = line_number
        self.partial = partial


class SchemaVersionError(SessionFileError):
    """The file's schema_version is not supported by this build."""


def format_number(x: float) -> str:
    """Shortest decimal string that parses back to exactly ``x``."""
    if not math.isfinite(x):
        raise ValueError("only finite numbers appear in logs")
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def log_line(trial: Trial, include_std: bool = True) -> str:
    """The trial's result line, with its newline."""
    line = f"tau = {format_number(trial.tau)}, Fitness: {format_number(trial.mean_score)}"
    if include_std:
        line += f", Std: {format_number(trial.std_score)}"
    return line + "\n"


def render_log(trials: Iterable[Trial], include_std: bool = True) -> str:
    return "".join(log_line(trial, include_std) for trial in trials)


def trial_stats(scores: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1; 0 for n=1).

    Both sums are plain left-to-right ``+=`` folds, not the builtin
    ``sum()``, whose float sum is compensated since Python 3.12: the folds
    give the same bits on every Python version.
    """
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one score")
    total = 0.0
    for s in scores:
        total += s
    mean = total / n
    if n == 1:
        return mean, 0.0
    squares = 0.0
    for s in scores:
        squares += (s - mean) ** 2
    return mean, math.sqrt(squares / (n - 1))


# Exchanges and replicates hold only scalars, so a shallow dict gives
# asdict's keys and values without its deep copy of each one.
_EXCHANGE_KEYS = tuple(f.name for f in fields(LlmExchange))
_REPLICATE_KEYS = tuple(f.name for f in fields(EsRunResult))


def _exchange_record(exchange: LlmExchange) -> dict[str, Any]:
    rec: dict[str, Any] = {"record": "exchange"}
    for key in _EXCHANGE_KEYS:
        rec[key] = getattr(exchange, key)
    return rec


def _trial_record(trial: Trial) -> dict[str, Any]:
    return {
        "record": "trial",
        "tau": trial.tau,
        "replicates": [{key: getattr(r, key) for key in _REPLICATE_KEYS} for r in trial.results],
        "mean_score": trial.mean_score,
        "std_score": trial.std_score,
    }


def _header_record(session: TuningSession) -> dict[str, Any]:
    return {"record": "header", "schema_version": SCHEMA_VERSION, "config": asdict(session.config)}


def _status_record(session: TuningSession) -> dict[str, Any]:
    status: dict[str, Any] = {"record": "status", "status": session.status}
    if session.best_tau is not None:
        status["best_tau"] = session.best_tau
    if session.error is not None:
        status["error"] = session.error
    return status


# json.dumps with non-default separators builds a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _line(record: dict[str, Any]) -> str:
    return _encode(record) + "\n"


def _exchange_line(exchange: LlmExchange) -> str:
    return _line(_exchange_record(exchange))


def _trial_block(trial: Trial, exchange_line=_exchange_line) -> str:
    """A trial's record, after the exchanges that proposed it."""
    return "".join(map(exchange_line, trial.exchanges)) + _line(_trial_record(trial))


def _tail(session: TuningSession, exchange_line=_exchange_line) -> str:
    """The pending exchanges, then the status record once the session has ended."""
    text = "".join(map(exchange_line, session.pending_exchanges))
    if session.status != STATUS_RUNNING:
        text += _line(_status_record(session))
    return text


def write_session(session: TuningSession, path) -> None:
    blocks = [_line(_header_record(session))] + [_trial_block(t) for t in session.trials]
    Path(path).write_text("".join(blocks) + _tail(session), encoding="utf-8")


# An exchange line up to the first character of its prompt's escape:
# ``prompt`` is the first field of LlmExchange.
_PROMPT_AT = '{"record":"exchange","prompt":"'


class SessionWriter:
    """Appends one session's records and log lines as they happen.

    Both files stay open from the header to ``finish`` (or ``close``).  Each
    trial's block and log line go out with one write and one flush per
    file, so every trial reaches the OS before the next proposal.  The
    finished files equal ``write_session`` of the session and
    ``render_log`` of its trials; in between they hold every trial so far.
    Prompts that start with the analysis prompt over the log so far are
    escaped from a cache, so persisting a trial costs its new bytes, not
    the whole log again.
    """

    def __init__(self, session: TuningSession, out_base):
        base = Path(out_base)
        base.parent.mkdir(parents=True, exist_ok=True)
        self.session_path = base.with_name(base.name + ".session.jsonl")
        self.log_path = base.with_name(base.name + ".log")
        self._log = ""
        self._prompt = self._prompt_json = ""  # render_analysis_prompt(self._log), escaped
        with contextlib.ExitStack() as stack:
            self._session_file = stack.enter_context(open(self.session_path, "w", encoding="utf-8"))
            self._log_file = stack.enter_context(open(self.log_path, "w", encoding="utf-8"))
            _emit(self._session_file, _line(_header_record(session)))
            self._files = stack.pop_all()

    def _fast_exchange_line(self, exchange: LlmExchange) -> str:
        """``_exchange_line(exchange)``, with the prompt escaped from the cache."""
        prompt = exchange.prompt
        if not (self._prompt and prompt.startswith(self._prompt)):
            return _exchange_line(exchange)
        rest = {key: getattr(exchange, key) for key in _EXCHANGE_KEYS[1:]}
        return (_PROMPT_AT + self._prompt_json + _escape(prompt[len(self._prompt):])[1:]
                + "," + _encode(rest)[1:] + "\n")

    def append_trial(self, trial: Trial, line: str) -> None:
        """Append ``trial`` after the exchanges that proposed it, and its log ``line``."""
        _emit(self._session_file, _trial_block(trial, self._fast_exchange_line))
        _emit(self._log_file, line)
        self._log += line
        prompt = render_analysis_prompt(self._log)
        if not prompt.startswith(self._prompt):
            self._prompt = self._prompt_json = ""
        self._prompt_json += _escape(prompt[len(self._prompt):])[1:-1]
        self._prompt = prompt

    def finish(self, session: TuningSession) -> None:
        """Append the pending exchanges, then the status record, and close both files."""
        _emit(self._session_file, _tail(session, self._fast_exchange_line))
        self.close()

    def close(self) -> None:
        """Close both files; a second call does nothing."""
        self._files.close()


def _emit(fh, text: str) -> None:
    fh.write(text)
    fh.flush()


def json_value(name: str, value: Any, kind: type) -> Any:
    """``value``, checked to have the JSON type of a ``kind`` field.

    A float field also accepts an integer, returned as a float; ``bool`` is
    not a number here.  Raises ConfigurationError for any other type.
    """
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    elif type(value) is kind:
        return value
    raise ConfigurationError(f"{name} must be {kind.__name__}, not {value!r}")


@functools.cache
def _field_types(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, resolved type, is a dataclass) of each field of ``cls``."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], is_dataclass(hints[f.name])) for f in fields(cls))


def _build(cls: type, raw: Any, **given: Any) -> Any:
    """A ``cls`` from a JSON object that holds every field not ``given``.

    Each value passes ``json_value``; a dataclass field is built the same
    way.  Keys that are not fields are ignored.
    """
    if not isinstance(raw, dict):
        raise TypeError(f"{cls.__name__} must be an object, not {raw!r}")
    for name, kind, nested in _field_types(cls):
        if name not in given:
            value = raw[name]
            if type(value) is not kind:
                value = _build(kind, value) if nested else json_value(name, value, kind)
            given[name] = value
    return cls(**given)


def _parse(raw: bytes, lineno: int, partial: TuningSession | None) -> Any:
    """The JSON value of one line, or a SessionFileError at that line."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        what = "not UTF-8" if isinstance(exc, UnicodeDecodeError) else "invalid JSON"
        raise SessionFileError(
            f"line {lineno}: {what}: {exc}", line_number=lineno, partial=partial
        ) from exc


def read_session(path) -> TuningSession:
    """Rebuild a TuningSession from its record file.

    Raises EmptySessionError for an empty file, SchemaVersionError for an
    unsupported version, and SessionFileError (with line number and the
    partial session parsed so far) for any corrupt line, a line that is not
    UTF-8 included.
    """
    lines = Path(path).read_bytes().splitlines()
    if not any(line.strip() for line in lines):
        raise EmptySessionError(f"session file {path} is empty")

    header = _parse(lines[0], 1, None)
    if not isinstance(header, dict) or header.get("record") != "header":
        raise SessionFileError("line 1: expected a header record", line_number=1)
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"line 1: schema_version {version!r} not supported (this build reads {SCHEMA_VERSION})",
            line_number=1,
        )
    try:
        config = _build(SessionConfig, header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SessionFileError(f"line 1: bad config: {exc}", line_number=1) from exc

    session = TuningSession(config=config)

    saw_status = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue

        def _fail(message: str) -> SessionFileError:
            return SessionFileError(
                f"line {lineno}: {message}", line_number=lineno, partial=session
            )

        rec = _parse(line, lineno, session)
        if not isinstance(rec, dict):
            raise _fail("record is not an object")
        if saw_status:
            raise _fail("records after the status record")
        kind = rec.get("record")
        try:
            if kind == "trial":
                trial = _build(
                    Trial, rec,
                    results=[_build(EsRunResult, r) for r in rec["replicates"]],
                    exchanges=session.pending_exchanges,
                )
                session.trials.append(trial)
                session.pending_exchanges = []
            elif kind == "exchange":
                session.pending_exchanges.append(_build(LlmExchange, rec))
            elif kind == "status":
                status = rec.get("status")
                if status not in _STATUSES:
                    raise _fail(f"unknown status {status!r}")
                session.status = status
                if "best_tau" in rec:
                    session.best_tau = json_value("best_tau", rec["best_tau"], float)
                if "error" in rec:
                    session.error = json_value("error", rec["error"], str)
                saw_status = True
            else:
                raise _fail(f"unknown record type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SessionFileError):
                raise
            raise _fail(f"bad {kind} record: {exc}") from exc
    return session
