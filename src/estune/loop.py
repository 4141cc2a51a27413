"""The propose -> execute -> log -> analyze tuning cycle.

Each iteration asks the backend for a tau value (the stock tune instruction
when the log is still empty, otherwise the analysis instruction over the
log so far), runs a replicated batch of ES trials at that tau, appends the
result line to the log, and persists the session.  The loop is strictly
sequential; every proposal depends on all prior results.
"""

from __future__ import annotations

from pathlib import Path

from .es import TAU_MAX, run_batch
from .es import run_es  # noqa: F401  (bench/tracer.py wraps loop.run_es by name)
from .llm import (
    DUPLICATE_REMINDER,
    ExtractionError,
    PromptPair,
    TransportError,
    extract_tau,
    render_analysis_prompt,
    render_tune_prompt,
)
from .models import (
    STATUS_ABORTED,
    STATUS_COMPLETED,
    STATUS_RUNNING,
    EmptySessionError,
    SessionConfig,
    Trial,
    TuningSession,
)
from .store import render_log, trial_stats, write_session

__all__ = [
    "best_of",
    "best_trial",
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
    for bit.
    """
    taus, trial_indices = list(taus), list(trial_indices)
    if len(taus) != len(trial_indices):
        raise ValueError("need one trial_index per tau")
    if any(trial_index < 0 for trial_index in trial_indices):
        raise ValueError("trial_index must be >= 0")
    reps = cfg.replicates
    configs = [
        cfg.es_template.configure(tau=tau, seed=derive_seed(cfg.master_seed, trial_index, i))
        for tau, trial_index in zip(taus, trial_indices)
        for i in range(reps)
    ]
    results = run_batch(configs, cfg.objective)
    trials = []
    for k, tau in enumerate(taus):
        runs = results[k * reps : (k + 1) * reps]
        mean, std = trial_stats([r.score for r in runs])
        trials.append(Trial(tau=tau, results=runs, mean_score=mean, std_score=std))
    return trials


def is_duplicate(tau: float, session: TuningSession, tol: float) -> bool:
    """True iff some already-tried tau lies within ``tol`` of this one."""
    if not (tol > 0):
        raise ValueError("tol must be > 0")
    return any(abs(tau - trial.tau) <= tol for trial in session.trials)


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


def best_trial(session: TuningSession) -> Trial:
    return best_of(session.trials)


def propose_next_tau(
    session: TuningSession, backend, prompts: PromptPair | None = None
) -> float:
    """Obtain the next untried tau from the backend.

    Duplicate proposals are re-prompted with a reminder up to
    ``max_propose_retries`` times; if the backend keeps repeating itself the
    duplicate is perturbed by factors of 1.05 until it is fresh.  Extraction
    failures, and taus above ``TAU_MAX``, consume the same retry budget but,
    with nothing to perturb, eventually propagate as ``ExtractionError``, as
    does a fallback pushed above ``TAU_MAX``.  Every exchange lands in
    ``session.exchanges``.
    """
    if session.status != STATUS_RUNNING:
        raise ValueError(f"cannot propose on a {session.status} session")
    prompts = prompts if prompts is not None else PromptPair()
    cfg = session.config

    log_text = render_log(session.trials, include_std=cfg.log_std)
    if log_text:
        base_prompt = render_analysis_prompt(prompts, log_text)
    else:
        base_prompt = render_tune_prompt(prompts)

    attempts = cfg.max_propose_retries + 1
    prompt = base_prompt
    last_duplicate: float | None = None
    last_extraction_error: ExtractionError | None = None
    for attempt in range(attempts):
        exchange = backend.send(prompt, attempt=attempt)
        session.exchanges.append(exchange)
        try:
            tau = extract_tau(exchange.response)
            if tau > TAU_MAX:
                raise ExtractionError(f"extracted tau {tau!r} is above TAU_MAX = {TAU_MAX}")
        except ExtractionError as exc:
            last_extraction_error = exc
            prompt = base_prompt
            continue
        if not is_duplicate(tau, session, cfg.duplicate_tolerance):
            return tau
        last_duplicate = tau
        prompt = f"{base_prompt}\n\n{DUPLICATE_REMINDER}"

    if last_duplicate is None:
        assert last_extraction_error is not None
        raise last_extraction_error
    tau = last_duplicate * 1.05
    while is_duplicate(tau, session, cfg.duplicate_tolerance):
        tau *= 1.05
    if tau > TAU_MAX:
        raise ExtractionError(f"fallback tau {tau!r} is above TAU_MAX = {TAU_MAX}")
    return tau


def _persist(session: TuningSession, out_base) -> None:
    base = Path(out_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    write_session(session, base.with_name(base.name + ".session.jsonl"))
    log_path = base.with_name(base.name + ".log")
    log_path.write_text(
        render_log(session.trials, include_std=session.config.log_std), encoding="utf-8"
    )


def run_session(
    cfg: SessionConfig,
    backend,
    prompts: PromptPair | None = None,
    out_base=None,
) -> TuningSession:
    """Run the full tuning cycle for ``cfg.budget`` trials.

    When ``out_base`` is given, ``<out_base>.session.jsonl`` and
    ``<out_base>.log`` are rewritten after every trial, so the files on disk
    reflect all completed work even if the loop aborts.  Backend transport
    and extraction failures abort the session (status "aborted", diagnostics
    in ``session.error``) instead of raising.
    """
    session = TuningSession(config=cfg)
    try:
        for trial_index in range(cfg.budget):
            tau = propose_next_tau(session, backend, prompts)
            session.trials.append(run_trial(tau, cfg, trial_index))
            if out_base is not None:
                _persist(session, out_base)
        session.best_tau = best_of(session.trials).tau
        session.status = STATUS_COMPLETED
    except (TransportError, ExtractionError) as exc:
        session.status = STATUS_ABORTED
        session.error = f"{type(exc).__name__}: {exc}"
    if out_base is not None:
        _persist(session, out_base)
    return session
