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
exchanges that proposed it and the trial record, in one write, with the
trial's line appended to ``.log``; the status record comes last.  Every
record therefore reaches the disk once.  A crash can leave at most a torn
last line, which ``read_session`` reports as a ``SessionFileError`` whose
``partial`` holds everything before it.

``write_session`` writes the same header, trial blocks and tail in one go.
A trial's exchanges precede its record; any exchanges after the last trial
belong to a proposal that has no trial.  Unknown top-level fields in any
record survive a read/write round trip.

The config, replicate and exchange keys are the fields of ``SessionConfig``
(with its nested ``ObjectiveSpec`` and ``EsTemplate``), ``EsRunResult`` and
``LlmExchange``, in field order.  ``read_session`` requires every field, and
each value must have its field's JSON type (``json_value``): a float field
also accepts an integer, and nothing else is converted.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence, get_type_hints

from .es import ConfigurationError, EsRunResult
from .llm import LlmExchange
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
    "append_log_line",
    "format_log_line",
    "format_number",
    "json_value",
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


def format_log_line(tau: float, fitness: float, std: float | None = None) -> str:
    line = f"tau = {format_number(tau)}, Fitness: {format_number(fitness)}"
    if std is not None:
        line += f", Std: {format_number(std)}"
    return line


def append_log_line(trial: Trial, log: str, include_std: bool = True) -> str:
    """Return ``log`` with the trial's result line appended."""
    std = trial.std_score if include_std else None
    return log + format_log_line(trial.tau, trial.mean_score, std) + "\n"


def render_log(trials: Iterable[Trial], include_std: bool = True) -> str:
    return "".join(append_log_line(trial, "", include_std) for trial in trials)


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


_EXCHANGE_KEYS = ("prompt", "response", "latency_ms", "timestamp", "attempt")
_TRIAL_KEYS = ("tau", "replicates", "mean_score", "std_score")
# A replicate holds only scalars, so a shallow dict gives asdict's keys and
# values without its deep copy of each one.
_REPLICATE_KEYS = tuple(f.name for f in fields(EsRunResult))


def _exchange_record(exchange: LlmExchange) -> dict[str, Any]:
    rec: dict[str, Any] = {"record": "exchange"}
    for key in _EXCHANGE_KEYS:
        rec[key] = getattr(exchange, key)
    rec.update(exchange.extras)
    return rec


def _trial_record(trial: Trial) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "record": "trial",
        "tau": trial.tau,
        "replicates": [{key: getattr(r, key) for key in _REPLICATE_KEYS} for r in trial.results],
        "mean_score": trial.mean_score,
        "std_score": trial.std_score,
    }
    rec.update(trial.extras)
    return rec


def _header_record(session: TuningSession) -> dict[str, Any]:
    header: dict[str, Any] = {
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "config": asdict(session.config),
    }
    header.update(session.extras.get("header", {}))
    return header


def _status_record(session: TuningSession) -> dict[str, Any]:
    status: dict[str, Any] = {"record": "status", "status": session.status}
    if session.best_tau is not None:
        status["best_tau"] = session.best_tau
    if session.error is not None:
        status["error"] = session.error
    status.update(session.extras.get("status", {}))
    return status


def _lines(records: Iterable[dict[str, Any]]) -> str:
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)


def _trial_block(trial: Trial) -> str:
    """A trial's record, after the exchanges that proposed it."""
    return _lines([_exchange_record(e) for e in trial.exchanges] + [_trial_record(trial)])


def _tail(session: TuningSession) -> str:
    """The pending exchanges, then the status record once the session has ended."""
    records = [_exchange_record(e) for e in session.pending_exchanges]
    if session.status != STATUS_RUNNING:
        records.append(_status_record(session))
    return _lines(records)


def write_session(session: TuningSession, path) -> None:
    blocks = [_lines([_header_record(session)])] + [_trial_block(t) for t in session.trials]
    Path(path).write_text("".join(blocks) + _tail(session), encoding="utf-8")


def _append(path: Path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


class SessionWriter:
    """Appends one session's records and log lines as they happen.

    The finished files equal ``write_session`` of the session and
    ``render_log`` of its trials; in between they hold every trial so far.
    """

    def __init__(self, session: TuningSession, out_base):
        base = Path(out_base)
        base.parent.mkdir(parents=True, exist_ok=True)
        self.session_path = base.with_name(base.name + ".session.jsonl")
        self.log_path = base.with_name(base.name + ".log")
        self._log_chars = 0
        self.session_path.write_text(_lines([_header_record(session)]), encoding="utf-8")
        self.log_path.write_text("", encoding="utf-8")

    def append_trial(self, session: TuningSession, log_text: str) -> None:
        """Append the newest trial after the exchanges that proposed it.

        ``log_text`` is the session's whole log so far; its unwritten tail
        goes to ``.log``.
        """
        _append(self.session_path, _trial_block(session.trials[-1]))
        _append(self.log_path, log_text[self._log_chars:])
        self._log_chars = len(log_text)

    def finish(self, session: TuningSession) -> None:
        """Append the pending exchanges, then the status record."""
        _append(self.session_path, _tail(session))


def _extras(rec: dict[str, Any], known: Sequence[str]) -> dict[str, Any]:
    skip = set(known) | {"record"}
    return {k: v for k, v in rec.items() if k not in skip}


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


def read_session(path) -> TuningSession:
    """Rebuild a TuningSession from its record file.

    Raises EmptySessionError for an empty file, SchemaVersionError for an
    unsupported version, and SessionFileError (with line number and the
    partial session parsed so far) for any corrupt line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        raise EmptySessionError(f"session file {path} is empty")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SessionFileError(f"line 1: invalid JSON: {exc}", line_number=1) from exc
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
    header_extras = _extras(header, ("schema_version", "config"))
    if header_extras:
        session.extras["header"] = header_extras

    saw_status = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue

        def _fail(message: str) -> SessionFileError:
            return SessionFileError(
                f"line {lineno}: {message}", line_number=lineno, partial=session
            )

        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(f"invalid JSON: {exc}") from exc
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
                    extras=_extras(rec, _TRIAL_KEYS),
                )
                session.trials.append(trial)
                session.pending_exchanges = []
            elif kind == "exchange":
                exchange = _build(LlmExchange, rec, extras=_extras(rec, _EXCHANGE_KEYS))
                session.pending_exchanges.append(exchange)
            elif kind == "status":
                status = rec.get("status")
                if status not in _STATUSES:
                    raise _fail(f"unknown status {status!r}")
                session.status = status
                if "best_tau" in rec:
                    session.best_tau = json_value("best_tau", rec["best_tau"], float)
                if "error" in rec:
                    session.error = json_value("error", rec["error"], str)
                status_extras = _extras(rec, ("status", "best_tau", "error"))
                if status_extras:
                    session.extras["status"] = status_extras
                saw_status = True
            else:
                raise _fail(f"unknown record type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SessionFileError):
                raise
            raise _fail(f"bad {kind} record: {exc}") from exc
    return session
