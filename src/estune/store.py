"""A session's records, their files, and the other files the CLI reads and names.

The records are ``Trial``, ``SessionConfig`` and ``TuningSession``; two
files describe a tuning session.

``<name>.log`` is the human-readable results log, the exact bytes fed back
to the LLM inside analysis prompts.  Grammar, one line per trial::

    tau = <decimal>, Fitness: <decimal>[, Std: <decimal>]\n

Decimals use the shortest representation that round-trips to the same IEEE
double; integral values drop the trailing ".0".

``<name>.session.jsonl`` is the machine-readable record, one JSON object
per line, in chronological order:

* line 1: ``{"record": "header", "schema_version": 2, "prompts_sha256",
  "config": {...}}``
* ``{"record": "exchange", "prompt_trials", "reminder", "response",
  "latency_ms", "timestamp", "attempt"}``, one per backend call, in call
  order; ``"prompt"`` in place of ``"prompt_trials"`` and ``"reminder"``
  for a prompt stored literally (below)
* ``{"record": "trial", "tau", "replicates": [{"seed", "best_f", "score",
  "final_sigma", "generations_run"}, ...], "mean_score", "std_score"}``
* last line, once the session leaves the running state:
  ``{"record": "status", "status", ["best_tau"], ["error"]}``

A session renders every prompt it sends from the trials before it: the
tune prompt while there are none, otherwise ``llm.ANALYSIS_PREFIX`` and the
log so far; a duplicate's re-prompt adds ``llm.REMINDER_SUFFIX``.  So an
exchange whose prompt is the one its
position renders stores a reference: ``prompt_trials``, the number of
trials before it, which the reader checks against its position, and
``reminder``, whether the reminder follows.  Any other prompt (one a
backend recorded differently) is stored literally, under ``prompt``.  The
writer tells the two apart by comparing the prompt with the log in place,
without rendering it, and ``read_session`` rebuilds each referenced prompt
from the trials it has read, with the header's ``log_std``.  A file's size
therefore grows with its trials, not with the square of them.

The header's ``prompts_sha256`` is the SHA-256 of the three templates the
reader rebuilds prompts from: the tune prompt, ``ANALYSIS_PREFIX`` and
``REMINDER_SUFFIX``.  ``read_session`` refuses a version-2 file whose digest is not
this build's, at line 1, rather than rebuild its prompts from other text.
A later change to a prompt template must also bump ``SCHEMA_VERSION``.

Version-1 files, which store every prompt literally and whose header has
no digest, still load, with their stored text; this build writes version 2
only.

A running session's files are appended to as it happens (``SessionWriter``):
the header before the first backend call, then after each trial the
exchanges that proposed it and the trial record, in one write, with its
``log_line`` appended to ``.log``; the status record comes last.  Both
files are opened once and held open until the status record is written (or
an exception leaves ``run_session``); each write is flushed to the OS before
the next proposal.  Every record therefore reaches the disk once.  A crash
can leave at most a torn last line, which ``read_session`` reports as a
``SessionFileError`` whose ``partial`` holds everything before it.

``write_session`` writes the same header, trial blocks and tail in one go.
A trial's exchanges precede its record; any exchanges after the last trial
belong to a proposal that has no trial.

Each record holds exactly the fields of its dataclass, in field order: the
config is ``SessionConfig`` (with its nested ``ObjectiveSpec`` and
``EsTemplate``), a replicate ``EsRunResult``, an exchange ``LlmExchange``
(its prompt as above), and a trial ``Trial``, with its ``results`` under
the key ``replicates`` and its ``exchanges`` as the records before it.
``read_session`` reads a file in one pass, line by line, holding only the
records it has built and the log of its trials; it requires every field
and ignores any other key.  Each value must have its field's JSON type
(``json_value``): a float field also accepts an integer, and nothing else
is converted.  ``decode_json`` decodes each line, and the CLI's script and
config files too; ``output_paths`` names every file the CLI writes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence, get_type_hints

from .es import TAU_MAX, ConfigurationError, EsRunResult, EsTemplate, ObjectiveSpec
from .llm import ANALYSIS_PREFIX, REMINDER_SUFFIX, LlmExchange, render_tune_prompt

__all__ = [
    "EmptySessionError", "MAX_REPLICATES", "SCHEMA_VERSION", "STATUS_ABORTED",
    "STATUS_COMPLETED", "STATUS_RUNNING", "SchemaVersionError", "SessionConfig",
    "SessionFileError", "SessionWriter", "Trial", "TuningSession", "decode_json",
    "format_number", "json_value", "log_line", "output_paths", "read_session",
    "render_log", "trial_stats", "write_session",
]

SCHEMA_VERSION = 2

# Every version read_session reads.  Version 1 stores each prompt literally.
_READ_VERSIONS = (1, SCHEMA_VERSION)

# The templates of every prompt a session sends (see the module docstring).
# The writer compares prompts with them and the reader rebuilds prompts from
# them, so the two always agree; a version-2 header names them by this
# digest.
_TUNE_PROMPT = render_tune_prompt()
_PROMPTS_SHA256 = hashlib.sha256(
    json.dumps([_TUNE_PROMPT, ANALYSIS_PREFIX, REMINDER_SUFFIX]).encode("utf-8")
).hexdigest()

# Largest accepted replicate count.  A trial is one kernel batch of
# ``replicates`` rows; in lockstep they run in chunks whose buffers fit
# es._LOCKSTEP_BYTES (64 MiB), so at MAX_DIMENSION a trial is 4 chunks.
MAX_REPLICATES = 100

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_ABORTED = "aborted"

_STATUSES = (STATUS_RUNNING, STATUS_COMPLETED, STATUS_ABORTED)


class EmptySessionError(ValueError):
    """A session with no trials was asked for trial-derived data."""


@dataclass
class Trial:
    """One tau value with its replicate results, statistics and proposing exchanges."""

    tau: float
    results: list[EsRunResult]
    mean_score: float
    std_score: float
    exchanges: list[LlmExchange] = field(default_factory=list)


@dataclass(frozen=True)
class SessionConfig:
    """Experiment protocol for one tuning session."""

    objective: ObjectiveSpec
    es_template: EsTemplate
    master_seed: int
    replicates: int = 10
    budget: int = 12
    duplicate_tolerance: float = 1e-9
    max_propose_retries: int = 2
    log_std: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.replicates <= MAX_REPLICATES):
            raise ConfigurationError(f"replicates must be >= 1 and <= {MAX_REPLICATES}")
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if not (0 <= self.master_seed < (1 << 64)):
            raise ConfigurationError("master_seed must be an unsigned 64-bit integer")
        # At TAU_MAX or above every admissible tau duplicates the first trial.
        if not (0 < self.duplicate_tolerance < TAU_MAX):
            raise ConfigurationError(f"duplicate_tolerance must be > 0 and < {TAU_MAX}")
        if self.max_propose_retries < 0:
            raise ConfigurationError("max_propose_retries must be >= 0")
        if self.objective.dimension != self.es_template.dimension:
            raise ConfigurationError(
                f"objective dimension {self.objective.dimension} != "
                f"template dimension {self.es_template.dimension}"
            )


@dataclass
class TuningSession:
    """Ordered trial history, LLM exchanges, and outcome of one session."""

    config: SessionConfig
    trials: list[Trial] = field(default_factory=list)
    # The exchanges of a proposal that has no trial yet.
    pending_exchanges: list[LlmExchange] = field(default_factory=list)
    status: str = STATUS_RUNNING
    best_tau: float | None = None
    error: str | None = None

    @property
    def exchanges(self) -> list[LlmExchange]:
        """Every exchange of the session, in call order."""
        return [e for trial in self.trials for e in trial.exchanges] + self.pending_exchanges


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


def _trial_record(trial: Trial) -> dict[str, Any]:
    return {
        "record": "trial",
        "tau": trial.tau,
        "replicates": [{key: getattr(r, key) for key in _REPLICATE_KEYS} for r in trial.results],
        "mean_score": trial.mean_score,
        "std_score": trial.std_score,
    }


def _header_record(session: TuningSession) -> dict[str, Any]:
    return {
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "prompts_sha256": _PROMPTS_SHA256,
        "config": asdict(session.config),
    }


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


def _reminded(prompt: str, log: str) -> bool | None:
    """Whether ``prompt`` is the prompt a session renders from ``log``
    (False) or that prompt and the duplicate reminder (True); None for any
    other text.  The prompt is compared in place, never rendered."""
    head = ANALYSIS_PREFIX if log else _TUNE_PROMPT
    extra = len(prompt) - len(head) - len(log)
    tail = REMINDER_SUFFIX if extra else ""
    if (extra == len(tail) and prompt.startswith(head)
            and prompt.startswith(log, len(head)) and prompt.endswith(tail)):
        return extra > 0
    return None


def _exchange_line(exchange: LlmExchange, trials_before: int, log: str) -> str:
    """An exchange's record, made after ``trials_before`` trials whose log is ``log``."""
    rec: dict[str, Any] = {"record": "exchange"}
    reminder = _reminded(exchange.prompt, log)
    if reminder is None:
        rec["prompt"] = exchange.prompt
    else:
        rec["prompt_trials"] = trials_before
        rec["reminder"] = reminder
    for key in _EXCHANGE_KEYS[1:]:  # prompt is the first field of LlmExchange
        rec[key] = getattr(exchange, key)
    return _line(rec)


def _trial_block(trial: Trial, trials_before: int, log: str) -> str:
    """A trial's record, after the exchanges that proposed it."""
    exchanges = "".join(_exchange_line(e, trials_before, log) for e in trial.exchanges)
    return exchanges + _line(_trial_record(trial))


def _tail(session: TuningSession, log: str) -> str:
    """The pending exchanges, then the status record once the session has ended."""
    trials = len(session.trials)
    text = "".join(_exchange_line(e, trials, log) for e in session.pending_exchanges)
    if session.status != STATUS_RUNNING:
        text += _line(_status_record(session))
    return text


def write_session(session: TuningSession, path) -> None:
    blocks, log = [_line(_header_record(session))], ""
    for k, trial in enumerate(session.trials):
        blocks.append(_trial_block(trial, k, log))
        log += log_line(trial, session.config.log_std)
    Path(path).write_text("".join(blocks) + _tail(session, log), encoding="utf-8")


def output_paths(out_base, *suffixes: str) -> list[Path]:
    """The path ``<out_base><suffix>`` of each suffix, with its directory made.

    Raises ConfigurationError when ``out_base`` ends in no file name
    (``""``, ``"."``, ``".."``, ``"/"``), holds a NUL byte, gives a file or
    directory name longer than its filesystem's ``PC_NAME_MAX``, or when a
    component of its directory is an existing non-directory, before
    anything is made.
    """
    base = Path(out_base)
    if base.name in ("", ".."):
        raise ConfigurationError(f"output base {str(out_base)!r} names no file")
    if "\0" in str(base):  # no file name can hold one
        raise ConfigurationError(f"output base {str(out_base)!r} holds a NUL byte")
    # The directories still to be made lie on the filesystem of the nearest
    # existing ancestor, which sets the longest name they and the files may
    # have.  os.path.exists is False for a name too long to look up.
    existing = next(p for p in base.parents if os.path.exists(p))
    names = [*base.relative_to(existing).parts[:-1], *(base.name + s for s in suffixes)]
    longest = max(len(os.fsencode(name)) for name in names)
    limit = os.pathconf(existing, "PC_NAME_MAX")
    if 0 <= limit < longest:
        raise ConfigurationError(
            f"output base {str(out_base)!r} gives a name of {longest} bytes;"
            f" its filesystem allows {limit}"
        )
    # Every component above the non-directory exists, so mkdir has made
    # nothing when it fails on it.
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(
            f"output base {str(out_base)!r} is below a non-directory: {exc}"
        ) from exc
    return [base.with_name(base.name + suffix) for suffix in suffixes]


class SessionWriter:
    """Appends one session's records and log lines as they happen.

    Both files stay open from the header to ``finish`` (or ``close``).  Each
    trial's block and log line go out with one write and one flush per
    file, so every trial reaches the OS before the next proposal.  The
    finished files equal ``write_session`` of the session and
    ``render_log`` of its trials; in between they hold every trial so far.
    The writer keeps the log it has written, which the next trial's prompts
    were rendered from.
    """

    def __init__(self, session: TuningSession, out_base):
        self.session_path, self.log_path = output_paths(out_base, ".session.jsonl", ".log")
        self._trials, self._log = 0, ""
        with contextlib.ExitStack() as stack:
            self._session_file = stack.enter_context(open(self.session_path, "w", encoding="utf-8"))
            self._log_file = stack.enter_context(open(self.log_path, "w", encoding="utf-8"))
            _emit(self._session_file, _line(_header_record(session)))
            self._files = stack.pop_all()

    def append_trial(self, trial: Trial, line: str) -> None:
        """Append ``trial`` after the exchanges that proposed it, and its log ``line``."""
        _emit(self._session_file, _trial_block(trial, self._trials, self._log))
        _emit(self._log_file, line)
        self._trials += 1
        self._log += line

    def finish(self, session: TuningSession) -> None:
        """Append the pending exchanges, then the status record, and close both files."""
        _emit(self._session_file, _tail(session, self._log))
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


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


# json.loads with a keyword argument builds a new decoder per call.
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def decode_json(raw: bytes) -> Any:
    """The JSON value of UTF-8 bytes.

    Raises ValueError, its text starting ``not UTF-8: `` or ``invalid
    JSON: ``, for bytes that are not UTF-8 or text that is not JSON (too
    deep a nesting, too long an integer, and Python's ``NaN``, ``Infinity``
    and ``-Infinity`` included).
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from exc
    try:
        return _decode(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def _parse(raw: bytes, lineno: int, partial: TuningSession | None) -> Any:
    """The JSON value of one line, or a SessionFileError at that line."""
    try:
        return decode_json(raw)
    except ValueError as exc:
        raise SessionFileError(f"line {lineno}: {exc}", line_number=lineno, partial=partial) from exc


def _referenced_prompt(rec: dict[str, Any], trials: int, log: str) -> str:
    """The prompt a version-2 exchange record refers to, read after
    ``trials`` trials whose log is ``log``."""
    if json_value("prompt_trials", rec["prompt_trials"], int) != trials:
        raise ValueError(f"prompt_trials {rec['prompt_trials']} after {trials} trials")
    reminder = json_value("reminder", rec["reminder"], bool)
    prompt = ANALYSIS_PREFIX + log if log else _TUNE_PROMPT
    return prompt + REMINDER_SUFFIX if reminder else prompt


def read_session(path) -> TuningSession:
    """Rebuild a TuningSession from its record file, in one pass over it.

    Lines are split as ``bytes.splitlines`` splits them (at LF, CR LF and
    a lone CR) and decoded one at a time, so only the records built so far,
    the log of their trials and the current line are held.  Raises
    EmptySessionError for a file of blank lines, SchemaVersionError for an
    unsupported version, and SessionFileError (with line number and the
    partial session parsed so far) for any corrupt line, a line that is not
    UTF-8 included, and for a version-2 header whose prompt templates are
    not this build's.
    """
    with open(path, "rb") as fh:
        # The file yields chunks that end in \n (or at its end), so no \r\n
        # straddles two of them, and splitting each chunk splits the file.
        lines = enumerate((line for chunk in fh for line in chunk.splitlines()), start=1)
        _, first = next(lines, (1, b""))
        # A blank first line is a corrupt header unless every line is blank.
        if not first.strip() and not any(line.strip() for _, line in lines):
            raise EmptySessionError(f"session file {path} is empty")

        header = _parse(first, 1, None)
        if not isinstance(header, dict) or header.get("record") != "header":
            raise SessionFileError("line 1: expected a header record", line_number=1)
        version = header.get("schema_version")
        if version not in _READ_VERSIONS:
            raise SchemaVersionError(
                f"line 1: schema_version {version!r} not supported "
                f"(this build reads {_READ_VERSIONS})",
                line_number=1,
            )
        if version != 1 and header.get("prompts_sha256") != _PROMPTS_SHA256:
            raise SessionFileError(
                f"line 1: prompts_sha256 {header.get('prompts_sha256')!r} is not this build's "
                f"{_PROMPTS_SHA256!r}: its prompts were rendered from other templates",
                line_number=1,
            )
        try:
            config = _build(SessionConfig, header["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionFileError(f"line 1: bad config: {exc}", line_number=1) from exc

        session = TuningSession(config=config)
        log = ""  # of the trials read so far, in a version-2 file

        saw_status = False
        for lineno, line in lines:
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
                    if version != 1:
                        log += log_line(trial, config.log_std)
                    session.trials.append(trial)
                    session.pending_exchanges = []
                elif kind == "exchange":
                    given = {}
                    if version != 1 and "prompt" not in rec:
                        given["prompt"] = _referenced_prompt(rec, len(session.trials), log)
                    session.pending_exchanges.append(_build(LlmExchange, rec, **given))
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
