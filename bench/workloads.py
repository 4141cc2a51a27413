"""Workload inputs and passes.

A workload turns a seed into the only inputs the program receives (master
seeds, the tau grid and scripted reply lists) and defines one *pass*: the
unit of work repeated with identical inputs.  A pass times *pieces*: each
piece is a span of wall time from when its trials were requested until
their results were available, measured from outside the program.

* ``paper_grid``: the paper setting run the way ``estune grid`` runs it,
  for several master seeds.  A grid hands back all its trials at once, so
  a piece is one grid and its trials share the grid's wall time.
* ``churn_session``: one long scripted session with a tiny ES, persistence
  on, replies in the shapes of the parser fixtures with duplicates and
  unparseable replies mixed in.
* ``wide_session``: back-to-back scripted sessions at the paper budget on a
  64-D sphere, where vector length sets the per-generation cost.

In a session a piece is one trial: it is requested by its attempt-0
``send`` and is done when the next trial is requested (or ``run_session``
returns), so it covers reply parsing, re-prompts, the ES replicates and
persistence.

Every stamp is taken with ``reference.clock``, which leaves out the time
spent in reference slices (see reference.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import estune.llm as llm_mod
import estune.loop as loop_mod
import estune.report as report_mod
import estune.store as store_mod
from estune import EsTemplate, ObjectiveSpec, ScriptedBackend, SessionConfig

from reference import clock

DEFAULT_SEED = 1
WORKLOADS = ("paper_grid", "churn_session", "wide_session")

# paper_grid: 5-D sphere, 1000 generations, 10 replicates, default grid.
GRIDS_PER_PASS = 3
# churn_session: one long session; the persisted files grow with every trial.
CHURN_BUDGET = 200
# wide_session: sessions at the paper budget; 9 x 12 = 108 trials per pass
# leaves ten latency samples beyond p90.
WIDE_SESSIONS_PER_PASS = 9
WIDE_BUDGET = 12

_TAU_LOW, _TAU_HIGH = 0.4, 1.8


def _paper_config(master_seed: int) -> SessionConfig:
    # The configuration `estune grid` builds from its default flags.
    return SessionConfig(
        objective=ObjectiveSpec("sphere", 5),
        es_template=EsTemplate(sigma0=1.0, dimension=5, max_generations=1000),
        master_seed=master_seed,
        replicates=10,
        budget=report_mod.GridSpec().steps,
    )


def session_config(dim: int, generations: int, replicates: int, budget: int,
                    master_seed: int) -> SessionConfig:
    return SessionConfig(
        objective=ObjectiveSpec("sphere", dim),
        es_template=EsTemplate(sigma0=1.0, dimension=dim, max_generations=generations),
        master_seed=master_seed,
        replicates=replicates,
        budget=budget,
    )


# --- scripted replies -------------------------------------------------------

_FRESH_SHAPES = (
    "tau = {t}",
    "I propose tau = {t}, which is untried.",
    "```python\nimport numpy as np\n\ntau = {t}\nsigma = 1.0\nfor gen in range(1000):\n    pass\n```",
    "Here is the updated code:\n\n```python\ntau = {t}\nsigma = 1.0\nx = np.zeros(5)\n```\n\nOnly tau was changed.",
    "The results show tau = {a} gave 0.116 and tau = {b} gave 66.055, indicating the mid "
    "range is beneficial. I propose a new value tau = {t}.",
    "tau = {a} and tau = {b} both underperform. The best new value for tau is {t}.",
    "I suggest a tau of {t} for the next run.",
)
_UNPARSEABLE = (
    "The fitness landscape looks multimodal; more exploration is needed.",
    "The mean fitness reached 66.05 after 1000 generations.",
    "tau = -0.5",
    "tau = 0",
)
# Attempt plans per proposal: F fresh, D exact duplicate of a tried tau,
# G unparseable.  No plan is all-G, so no proposal runs out of retries; the
# D-only-or-G plans end in the 1.05x duplicate fallback.
_PLAN_MIX = (
    (("F",), 12),
    (("D", "F"), 3),
    (("G", "F"), 2),
    (("D", "G", "F"), 1),
    (("D", "D", "D"), 1),
    (("G", "D", "D"), 1),
)
_TOL = 1e-9


def _is_tried(tau: float, tried: list[float]) -> bool:
    return any(abs(tau - t) <= _TOL for t in tried)


def script_replies(rng: random.Random, budget: int) -> list[str]:
    """Replies for one session of ``budget`` trials.

    Plans come in fixed proportions, shuffled, so every seed sends the same
    number of exchanges.  The tried-tau list is tracked exactly as the loop
    tracks it, including the 1.05x fallback, so every D reply is a true
    duplicate and every F reply a fresh value.
    """
    weight = sum(w for _, w in _PLAN_MIX)
    plans = [plan for plan, w in _PLAN_MIX for _ in range(budget * w // weight)]
    plans += [("F",)] * (budget - len(plans))
    rng.shuffle(plans)
    first = plans.index(("F",))
    plans[0], plans[first] = plans[first], plans[0]

    tried: list[float] = []
    replies: list[str] = []
    for plan in plans:
        last_dup = None
        for step in plan:
            if step == "G":
                replies.append(rng.choice(_UNPARSEABLE))
                continue
            if step == "D":
                tau = rng.choice(tried)
                last_dup = tau
            else:
                tau = round(rng.uniform(_TAU_LOW, _TAU_HIGH), 6)
                while _is_tried(tau, tried):
                    tau = round(rng.uniform(_TAU_LOW, _TAU_HIGH), 6)
            old = [rng.choice(tried) if tried else 1.0 for _ in range(2)]
            shape = rng.choice(_FRESH_SHAPES)
            replies.append(shape.format(t=repr(tau), a=repr(old[0]), b=repr(old[1])))
        if plan[-1] == "F":
            tried.append(tau)
        else:
            tau = last_dup * 1.05
            while _is_tried(tau, tried):
                tau *= 1.05
            tried.append(tau)
    return replies


# --- the benchmark-owned backend --------------------------------------------

class TimedBackend:
    """ScriptedBackend that stamps each attempt-0 send: a trial's request."""

    def __init__(self, responses: list[str]):
        self.scripted = ScriptedBackend(responses)
        self.requests: list[float] = []
        self.sends = 0
        self.prompt_bytes = 0

    def send(self, prompt: str, attempt: int = 0):
        if attempt == 0:
            self.requests.append(clock())
        self.sends += 1
        self.prompt_bytes += len(prompt.encode("utf-8"))
        # Looked up on the class on every call so a traced run can wrap it.
        return llm_mod.ScriptedBackend.send(self.scripted, prompt, attempt)


# --- inputs and passes ------------------------------------------------------

@dataclass
class SessionInput:
    cfg: SessionConfig
    replies: list[str]


@dataclass
class PassResult:
    wall_s: float
    pieces: list[tuple]        # (start, end) of each piece on reference.clock, in a fixed order
    piece_trials: list[int]    # trials delivered by each piece
    trials: int
    sends: int
    prompt_bytes: int
    outputs: list[Path]        # .log/.csv files, digested on the default seed
    sessions: list[tuple]      # (session, .session.jsonl path), read back by the gate
    grids: list[tuple]         # (cfg, trials) pairs, sampled by the oracle
    fallback_trials: int


def make_inputs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper_grid":
        return [_paper_config(rng.getrandbits(32)) for _ in range(GRIDS_PER_PASS)]
    if workload == "churn_session":
        cfg = session_config(3, 20, 2, CHURN_BUDGET, rng.getrandbits(32))
        return [SessionInput(cfg, script_replies(rng, CHURN_BUDGET))]
    if workload == "wide_session":
        return [
            SessionInput(session_config(64, 1000, 2, WIDE_BUDGET, rng.getrandbits(32)),
                         script_replies(rng, WIDE_BUDGET))
            for _ in range(WIDE_SESSIONS_PER_PASS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _grid_pass(inputs: list[SessionConfig], out_dir: Path) -> PassResult:
    pieces, outputs, grids = [], [], []
    start = clock()
    for i, cfg in enumerate(inputs):
        base = out_dir / f"grid{i}"
        t0 = clock()
        # Mirrors `estune grid`: run_grid, then emit_csv, render_log, emit_plot.
        trials = report_mod.run_grid(report_mod.GridSpec(), cfg)
        report_mod.emit_csv(trials, base.with_suffix(".csv"))
        base.with_suffix(".log").write_text(store_mod.render_log(trials), encoding="utf-8")
        best = loop_mod.best_of(trials)
        report_mod.emit_plot(trials, base.with_suffix(".svg"), best_tau=best.tau)
        pieces.append((t0, clock()))
        outputs += [base.with_suffix(".log"), base.with_suffix(".csv")]
        grids.append((cfg, trials))
    wall = clock() - start
    sizes = [len(trials) for _, trials in grids]
    return PassResult(wall, pieces, sizes, sum(sizes), 0, 0, outputs, [], grids, 0)


def _fallback_trials(session) -> int:
    """Trials whose tau is none of the values parsed from their own replies."""
    groups: list[list] = []
    for exchange in session.exchanges:
        if exchange.attempt == 0 or not groups:
            groups.append([])
        groups[-1].append(exchange)
    count = 0
    for trial, group in zip(session.trials, groups):
        parsed = set()
        for exchange in group:
            try:
                parsed.add(llm_mod.extract_tau(exchange.response))
            except llm_mod.ExtractionError:
                pass
        count += trial.tau not in parsed
    return count


def _session_pass(inputs: list[SessionInput], out_dir: Path) -> PassResult:
    pieces, outputs, sessions = [], [], []
    trials = sends = prompt_bytes = 0
    start = clock()
    for i, item in enumerate(inputs):
        base = out_dir / f"session{i}"
        backend = TimedBackend(item.replies)
        session = loop_mod.run_session(item.cfg, backend, out_base=base)
        done = clock()
        stamps = backend.requests + [done]
        pieces += zip(stamps, stamps[1:])
        sessions.append((session, base.with_name(base.name + ".session.jsonl")))
        outputs.append(base.with_name(base.name + ".log"))
        trials += len(session.trials)
        sends += backend.sends
        prompt_bytes += backend.prompt_bytes
    wall = clock() - start
    fallbacks = sum(_fallback_trials(s) for s, _ in sessions)
    return PassResult(wall, pieces, [1] * len(pieces), trials, sends, prompt_bytes, outputs,
                      sessions, [], fallbacks)


def run_pass(workload: str, inputs: list, out_dir: Path) -> PassResult:
    if workload == "paper_grid":
        return _grid_pass(inputs, out_dir)
    return _session_pass(inputs, out_dir)
