"""The propose -> execute -> log -> analyze tuning cycle.

Each iteration asks the backend for a tau value (the stock tune instruction
when the log is still empty, otherwise the analysis instruction over the
log so far), runs a replicated batch of ES trials at that tau, appends the
result line to the log, and appends the trial to the session files.  The
loop is strictly sequential; every proposal depends on all prior results.
"""

from __future__ import annotations

import bisect
import math

from .es import TAU_MAX, NumericalError, run_batch
from .es import run_es  # noqa: F401  (bench/tracer.py wraps loop.run_es by name)
from .llm import (
    DUPLICATE_REMINDER,
    ExtractionError,
    TransportError,
    extract_tau,
    render_analysis_prompt,
    render_tune_prompt,
)
from .store import (
    STATUS_ABORTED, STATUS_COMPLETED, STATUS_RUNNING, EmptySessionError, SessionConfig,
    SessionWriter, Trial, TuningSession, log_line, trial_stats,
)
from .store import render_log  # also wrapped by name in bench/tracer.py
from .store import write_session  # noqa: F401  (bench/tracer.py wraps loop.write_session by name)

__all__ = [
    "best_of",
    "derive_seed",
    "is_duplicate",
    "propose_next_tau",
    "run_session",
    "run_trial",
    "run_trials",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, trial_index: int, replicate_index: int) -> int:
    """Per-replicate 64-bit seed from (master_seed, trial_index, replicate_index).

    Each word is absorbed through SplitMix64 finalizers, so every replicate
    of every trial owns an independent stream and adding trials later never
    reshuffles earlier randomness.
    """
    z = _splitmix64(master_seed & _MASK64)
    z = _splitmix64(z ^ _splitmix64(trial_index & _MASK64))
    z = _splitmix64(z ^ _splitmix64(replicate_index & _MASK64))
    return z


def run_trial(tau: float, cfg: SessionConfig, trial_index: int) -> Trial:
    """Run ``cfg.replicates`` independent ES runs at one tau and summarize."""
    return run_trials([tau], cfg, [trial_index])[0]


def run_trials(taus, cfg: SessionConfig, trial_indices) -> list[Trial]:
    """``run_trial`` of each (tau, trial_index) pair, in one ES batch.

    Every replicate of every trial is one row of a single ``run_batch``
    call, so each trial equals ``run_trial(tau, cfg, trial_index)`` bit
    for bit.  A trial whose mean score is not finite (an objective value
    that overflowed to inf) raises ``NumericalError``: it has no log line.
    """
    taus, trial_indices = list(taus), list(trial_indices)
    if any(trial_index < 0 for trial_index in trial_indices):
        raise ValueError("trial_index must be >= 0")
    reps = cfg.replicates
    row_taus = [tau for tau in taus for _ in range(reps)]
    seeds = [derive_seed(cfg.master_seed, k, i) for k in trial_indices for i in range(reps)]
    results = run_batch(cfg.es_template, cfg.objective, row_taus, seeds)
    trials = []
    for k, tau in enumerate(taus):
        runs = results[k * reps : (k + 1) * reps]
        mean, std = trial_stats([r.score for r in runs])
        if not math.isfinite(mean):
            raise NumericalError(f"tau {tau!r} gave a non-finite mean score {mean!r}")
        trials.append(Trial(tau=tau, results=runs, mean_score=mean, std_score=std))
    return trials


def is_duplicate(tau: float, session: TuningSession) -> bool:
    """True iff some already-tried tau lies within the session's duplicate tolerance."""
    tried = sorted(trial.tau for trial in session.trials)
    return _near_any(tau, tried, session.config.duplicate_tolerance)


def _near_any(tau: float, tried: list[float], tol: float) -> bool:
    """True iff some tau of the sorted list ``tried`` lies within ``tol`` of
    ``tau``.

    Floating-point subtraction is monotone, so no tried tau is nearer to
    ``tau`` than its two neighbours in the list, and comparing those two
    gives the answer of a scan of the whole list.
    """
    i = bisect.bisect_left(tried, tau)
    return any(abs(tau - t) <= tol for t in tried[max(i - 1, 0) : i + 1])


def best_of(trials) -> Trial:
    """Trial with the highest mean score; ties go to the smallest tau."""
    trials = list(trials)
    if not trials:
        raise EmptySessionError("no trials to pick a best from")
    best = trials[0]
    for trial in trials[1:]:
        if trial.mean_score > best.mean_score or (
            trial.mean_score == best.mean_score and trial.tau < best.tau
        ):
            best = trial
    return best


def propose_next_tau(session: TuningSession, backend, log_text: str | None = None,
                     tried: list[float] | None = None) -> float:
    """Obtain the next untried tau from the backend.

    ``log_text`` is the session's results log; by default it is rendered
    from ``session.trials``.  ``tried`` is the sorted list of the session's
    taus; by default it is sorted from ``session.trials``.

    Duplicate proposals are re-prompted with a reminder up to
    ``max_propose_retries`` times; if the backend keeps repeating itself the
    duplicate is perturbed by factors of 1.05 until it is fresh.  Extraction
    failures, and taus above ``TAU_MAX``, consume the same retry budget but,
    with nothing to perturb, eventually propagate as ``ExtractionError``, as
    does a fallback pushed above ``TAU_MAX`` or stuck at a subnormal tau.
    Every exchange lands in ``session.pending_exchanges``.
    """
    if session.status != STATUS_RUNNING:
        raise ValueError(f"cannot propose on a {session.status} session")
    cfg = session.config

    if log_text is None:
        log_text = render_log(session.trials, include_std=cfg.log_std)
    if tried is None:
        tried = sorted(trial.tau for trial in session.trials)
    tol = cfg.duplicate_tolerance
    if log_text:
        base_prompt = render_analysis_prompt(log_text)
    else:
        base_prompt = render_tune_prompt()

    attempts = cfg.max_propose_retries + 1
    prompt = base_prompt
    last_duplicate: float | None = None
    last_extraction_error: ExtractionError | None = None
    for attempt in range(attempts):
        exchange = backend.send(prompt, attempt=attempt)
        session.pending_exchanges.append(exchange)
        try:
            tau = extract_tau(exchange.response)
            if tau > TAU_MAX:
                raise ExtractionError(f"extracted tau {tau!r} is above TAU_MAX = {TAU_MAX}")
        except ExtractionError as exc:
            last_extraction_error = exc
            prompt = base_prompt
            continue
        if not _near_any(tau, tried, tol):
            return tau
        last_duplicate = tau
        prompt = f"{base_prompt}\n\n{DUPLICATE_REMINDER}"

    if last_duplicate is None:
        assert last_extraction_error is not None
        raise last_extraction_error
    tau = last_duplicate * 1.05
    while _near_any(tau, tried, tol):
        if tau * 1.05 == tau:  # the smallest subnormals round back to themselves
            raise ExtractionError(f"fallback tau {tau!r} does not grow by 1.05")
        tau *= 1.05
    if tau > TAU_MAX:
        raise ExtractionError(f"fallback tau {tau!r} is above TAU_MAX = {TAU_MAX}")
    return tau


def run_session(cfg: SessionConfig, backend, out_base=None) -> TuningSession:
    """Run the full tuning cycle for ``cfg.budget`` trials.

    When ``out_base`` is given, ``<out_base>.session.jsonl`` and
    ``<out_base>.log`` are appended to as the session runs (see
    ``store.SessionWriter``), so the files on disk reflect all completed
    work even if the loop aborts; both are closed however the call ends.
    Backend transport and extraction failures, and an ES run that leaves
    the finite floating-point range, abort the session (status "aborted",
    diagnostics in ``session.error``) instead of raising.
    """
    session = TuningSession(config=cfg)
    writer = SessionWriter(session, out_base) if out_base is not None else None
    log_text = ""
    tried: list[float] = []
    try:
        try:
            for trial_index in range(cfg.budget):
                tau = propose_next_tau(session, backend, log_text, tried)
                trial = run_trial(tau, cfg, trial_index)
                trial.exchanges, session.pending_exchanges = session.pending_exchanges, []
                session.trials.append(trial)
                bisect.insort(tried, tau)
                line = log_line(trial, include_std=cfg.log_std)
                log_text += line
                if writer is not None:
                    writer.append_trial(trial, line)
            session.best_tau = best_of(session.trials).tau
            session.status = STATUS_COMPLETED
        except (TransportError, ExtractionError, NumericalError) as exc:
            session.status = STATUS_ABORTED
            session.error = f"{type(exc).__name__}: {exc}"
        if writer is not None:
            writer.finish(session)
    finally:
        if writer is not None:
            writer.close()
    return session
