"""References that the fast paths are checked against.

``stepwise_run`` is the stepwise (1+1)-ES, built only from the es
primitives: one generation at a time, ``mutate``, then ``sphere_eval``,
then ``update_sigma``.  The lockstep kernel must match it bit for bit and
raise exactly where it raises.

``whole_file_read_session`` reads a session file whole, as
``store.read_session`` once did, and rebuilds a version-2 file's prompts
with the loop's own renderers.  ``version_1_text`` is a session as a
version-1 file, with every prompt stored literally.

``encoded_exchange_line`` and ``encoded_trial_block`` are the version-2
exchange and trial records as ``json.JSONEncoder`` writes them, from a dict
of each record: the store's templates must give the same bytes.
"""

from dataclasses import asdict, fields
from pathlib import Path

from estune.es import EsRunResult, make_rng, mutate, sphere_eval, update_sigma
from estune.llm import DUPLICATE_REMINDER, LlmExchange, render_analysis_prompt, render_tune_prompt
from estune.store import (
    _PROMPTS_SHA256, _READ_VERSIONS, _STATUSES, STATUS_RUNNING, EmptySessionError,
    SchemaVersionError, SessionConfig, SessionFileError, Trial, TuningSession, _build, _line,
    _parse, _reminded, _status_record, json_value, render_log,
)


def stepwise_run(template, tau, seed, history=None):
    """(best_f, final_sigma) of one run; appends f after each generation."""
    rng = make_rng(seed)
    x = rng.uniform(template.init_low, template.init_high, size=template.dimension)
    f = sphere_eval(x)
    sigma = template.sigma0
    for _ in range(template.max_generations):
        candidate = mutate(x, sigma, rng)
        f_new = sphere_eval(candidate)
        success = f_new <= f
        if success:
            x, f = candidate, f_new
        sigma = update_sigma(sigma, tau, success)
        if history is not None:
            history.append(f)
    return f, sigma


def whole_file_read_session(path):
    """``store.read_session`` as it read whole files: every byte and every
    line held at once, split by ``bytes.splitlines``.  The streaming reader
    must give the same session, or the same error at the same line.
    """
    lines = Path(path).read_bytes().splitlines()
    if not any(line.strip() for line in lines):
        raise EmptySessionError(f"session file {path} is empty")

    header = _parse(lines[0], 1, None)
    if not isinstance(header, dict) or header.get("record") != "header":
        raise SessionFileError("line 1: expected a header record", line_number=1)
    version = header.get("schema_version")
    if version not in _READ_VERSIONS:
        raise SchemaVersionError(
            f"line 1: schema_version {version!r} not supported (this build reads {_READ_VERSIONS})",
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
                if version != 1:
                    render_log([trial], config.log_std)  # a version-2 log must hold every trial
                session.trials.append(trial)
                session.pending_exchanges = []
            elif kind == "exchange":
                given = {}
                if version != 1 and "prompt" not in rec:
                    given["prompt"] = _rendered_prompt(rec, session)
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


def _rendered_prompt(rec, session):
    """The prompt a version-2 exchange record names, as the loop renders it."""
    trials = json_value("prompt_trials", rec["prompt_trials"], int)
    if trials != len(session.trials):
        raise ValueError(f"prompt_trials {trials} after {len(session.trials)} trials")
    reminder = json_value("reminder", rec["reminder"], bool)
    log = render_log(session.trials, session.config.log_std)
    prompt = render_analysis_prompt(log) if log else render_tune_prompt()
    return f"{prompt}\n\n{DUPLICATE_REMINDER}" if reminder else prompt


def version_1_text(session):
    """``session`` as a version-1 file: a header without a prompt digest,
    and every prompt stored literally."""
    records = [{"record": "header", "schema_version": 1, "config": asdict(session.config)}]
    for trial in session.trials:
        records += [{"record": "exchange", **asdict(e)} for e in trial.exchanges]
        records.append(_trial_record(trial))
    records += [{"record": "exchange", **asdict(e)} for e in session.pending_exchanges]
    if session.status != STATUS_RUNNING:
        records.append(_status_record(session))
    return "".join(map(_line, records))


def _trial_record(trial):
    return {
        "record": "trial",
        "tau": trial.tau,
        "replicates": [asdict(r) for r in trial.results],
        "mean_score": trial.mean_score,
        "std_score": trial.std_score,
    }


def encoded_exchange_line(exchange, trials_before, log):
    """``store._exchange_line`` of ``exchange``, encoded from a dict."""
    rec = {"record": "exchange"}
    reminder = _reminded(exchange.prompt, log)
    if reminder is None:
        rec["prompt"] = exchange.prompt
    else:
        rec["prompt_trials"] = trials_before
        rec["reminder"] = reminder
    for f in fields(LlmExchange)[1:]:  # prompt is the first field of LlmExchange
        rec[f.name] = getattr(exchange, f.name)
    return _line(rec)


def encoded_trial_block(trial, trials_before, log):
    """``store._trial_block`` of ``trial``, encoded from dicts."""
    exchanges = "".join(encoded_exchange_line(e, trials_before, log) for e in trial.exchanges)
    return exchanges + _line(_trial_record(trial))
