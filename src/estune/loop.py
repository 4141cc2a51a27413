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

from . import es
from .es import TAU_MAX, NumericalError, _draws_ahead, _DrawAhead, run_batch
from .es import run_es  # noqa: F401  (bench/tracer.py wraps loop.run_es by name)
from .llm import (
    REMINDER_SUFFIX,
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
from .store import render_log  # noqa: F401  (bench/tracer.py wraps loop.render_log by name)
from .store import write_session  # noqa: F401  (bench/tracer.py wraps loop.write_session by name)

__all__ = [
    "best_of",
    "derive_seed",
    "propose_next_tau",
    "run_session",
    "run_trial",
    "run_trials",
]

_MASK64 = (1 << 64) - 1

# A session derives its seeds, and their SeedSequence states in one
# es._seed_states pass, for at most this many rows of trials at a time.  On
# a 2-CPU host with numpy 2.4 a pass costs about 60 us for a few rows and
# 90 us for 256, 0.35 us a row, where make_rng hashes each seed in about
# 11 us; past 256 rows a row saves little more, and this bounds the memory
# for any budget.
_WINDOW_ROWS = 256


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


def run_trial(tau: float, cfg: SessionConfig, trial_index: int, seeded: tuple | None = None) -> Trial:
    """Run ``cfg.replicates`` independent ES runs at one tau and summarize:
    ``run_trials`` of this one trial."""
    return run_trials([tau], cfg, [trial_index], seeded)[0]


def run_trials(taus, cfg: SessionConfig, trial_indices, seeded: tuple | None = None) -> list[Trial]:
    """``run_trial`` of each (tau, trial_index) pair, in one ES batch.

    Every replicate of every trial is one row of a single ``run_batch``
    call, so each trial equals ``run_trial(tau, cfg, trial_index)`` bit
    for bit.  Within a session (see ``run_session``), ``seeded`` holds the
    rows' seeds and generators, from the session's ``_SeedWindow``; alone,
    the trials derive their seeds and ``run_batch`` seeds the rows.  Either
    way every generator starts in ``make_rng``'s state (see the ``es``
    module docstring).  A trial whose mean score is not finite (an
    objective value that overflowed to inf) raises ``NumericalError``: it
    has no log line.
    """
    taus, reps = list(taus), cfg.replicates
    seeds, rngs = seeded or (_trial_seeds(cfg, list(trial_indices)), None)
    results = run_batch(cfg.es_template, [tau for tau in taus for _ in range(reps)], seeds, rngs)
    trials = []
    for k, tau in enumerate(taus):
        runs = results[k * reps : (k + 1) * reps]
        mean, std = trial_stats([r.score for r in runs])
        if not math.isfinite(mean):
            raise NumericalError(f"tau {tau!r} gave a non-finite mean score {mean!r}")
        trials.append(Trial(tau=tau, results=runs, mean_score=mean, std_score=std))
    return trials


def _trial_seeds(cfg: SessionConfig, trial_indices: list[int]) -> list[int]:
    """``derive_seed`` of every replicate of every trial, in row order.

    derive_seed's rounds are each made once: the master seed's, each
    trial's two and each replicate index's.  That leaves one round a row.
    """
    if any(trial_index < 0 for trial_index in trial_indices):
        raise ValueError("trial_index must be >= 0")
    root = _splitmix64(cfg.master_seed & _MASK64)
    replicate_words = [_splitmix64(i) for i in range(cfg.replicates)]
    return [
        _splitmix64(trial_word ^ replicate_word)
        for trial_word in [_splitmix64(root ^ _splitmix64(k & _MASK64)) for k in trial_indices]
        for replicate_word in replicate_words
    ]


class _SeedWindow:
    """A session's seeds, ``derive_seed`` of each replicate of each trial,
    and their ``es._seed_states`` rows, derived one window of trials at a
    time: from the first trial asked for that the window does not hold, up
    to ``_WINDOW_ROWS`` rows but at least one trial, and never past the
    budget.  Each row's generator is built from its state, by ``ahead``,
    the session's ``es._DrawAhead``, if it has one."""

    def __init__(self, cfg: SessionConfig, ahead: _DrawAhead | None):
        self._cfg, self._ahead = cfg, ahead
        self._first = self._end = 0
        self._seeds: list[int] = []
        self._states = None

    def trial(self, trial_index: int):
        """``(seeds, generators)`` of the trial's rows, in replicate order."""
        reps = self._cfg.replicates
        if not self._first <= trial_index < self._end:
            self._first = trial_index
            self._end = min(trial_index + max(1, _WINDOW_ROWS // reps), self._cfg.budget)
            self._seeds = _trial_seeds(self._cfg, list(range(self._first, self._end)))
            self._states = es._seed_states(self._seeds)
        i = (trial_index - self._first) * reps
        states = self._states[i : i + reps]
        if self._ahead is None:
            return self._seeds[i : i + reps], list(map(es._generator, states))
        return self._seeds[i : i + reps], self._ahead.request(states)


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


def propose_next_tau(session: TuningSession, backend, log_text: str,
                     tried: list[float]) -> float:
    """Obtain the next untried tau from the backend.

    ``log_text`` is the session's results log and ``tried`` the sorted list
    of its taus, both kept by ``run_session``.

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

    tol = cfg.duplicate_tolerance
    if log_text:
        base_prompt = render_analysis_prompt(log_text)
    else:
        base_prompt = render_tune_prompt()

    attempts = cfg.max_propose_retries + 1
    prompt = base_prompt
    last_duplicate: float | None = None
    # Only the message of the last extraction error is kept: the error's
    # traceback holds this frame, which would hold the error in a cycle.
    last_failure: str | None = None
    for attempt in range(attempts):
        exchange = backend.send(prompt, attempt=attempt)
        session.pending_exchanges.append(exchange)
        try:
            tau = extract_tau(exchange.response)
            if tau > TAU_MAX:
                raise ExtractionError(f"extracted tau {tau!r} is above TAU_MAX = {TAU_MAX}")
        except ExtractionError as exc:
            last_failure = str(exc)
            prompt = base_prompt
            continue
        if not _near_any(tau, tried, tol):
            return tau
        last_duplicate = tau
        prompt = base_prompt + REMINDER_SUFFIX

    if last_duplicate is None:
        assert last_failure is not None
        raise ExtractionError(last_failure)
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

    A trial's rows depend on its seeds only, never on its tau, and the
    session knows every seed before it proposes.  So it derives its seeds,
    and their ``es._seed_states`` in one vectorised pass, a window of up to
    ``_WINDOW_ROWS`` rows at a time (``_SeedWindow``), and takes each
    trial's seeds and generators one trial ahead: trial 0's as it starts,
    each later trial's just before the trial before it runs.  Where its
    trials meet ``es._draws_ahead``'s rule, decided once for the session,
    those generators are rows that one helper thread, an ``es._DrawAhead``,
    draws in that order.  How a row's generator starts, and why no thread
    changes its bits: the ``es`` module docstring.  The helper is joined
    before this returns or raises, and an error it meets is raised by the
    trial whose row it was drawing.
    """
    session = TuningSession(config=cfg)
    writer = SessionWriter(session, out_base) if out_base is not None else None
    log_text = ""
    tried: list[float] = []
    ahead = None
    try:
        try:
            if _draws_ahead(cfg.es_template, cfg.replicates):
                ahead = _DrawAhead(cfg.es_template)
            window = _SeedWindow(cfg, ahead)
            seeded = [window.trial(0)]
            for trial_index in range(cfg.budget):
                tau = propose_next_tau(session, backend, log_text, tried)
                if trial_index + 1 < cfg.budget:
                    seeded.append(window.trial(trial_index + 1))
                trial = run_trial(tau, cfg, trial_index, seeded.pop(0))
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
        if ahead is not None:
            ahead.close()
        if writer is not None:
            writer.close()
    return session
