"""Correctness gate and hostile-reply probe.

The gate runs on every pass:

* a stepwise oracle, built only from ``make_rng``, ``sphere_eval`` and
  ``update_sigma``, replays a sample of replicates; ``best_f`` and
  ``final_sigma`` must match bit for bit;
* on the default workload seed, the ``.log`` and grid ``.csv`` bytes must
  match the digests recorded in ``digests.json``;
* ``read_session`` of every final session file must equal the in-memory
  session, and every session must have completed.

The probe feeds one-trial sessions untrusted replies.  Each reply must end
in a logged trial or a clean abort with the files on disk; anything raised
out of ``run_session`` is a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import estune.loop as loop_mod
import estune.store as store_mod
from estune.es import make_rng, sphere_eval, update_sigma

from workloads import TimedBackend, session_config

DIGESTS = Path(__file__).with_name("digests.json")
ORACLE_SAMPLES = 2


def replay(cfg, tau: float, seed: int) -> tuple[float, float]:
    """Stepwise (1+1)-ES reference: (best_f, final_sigma) of one replicate."""
    tpl = cfg.es_template
    rng = make_rng(seed)
    x = rng.uniform(tpl.init_low, tpl.init_high, size=tpl.dimension)
    f = sphere_eval(x)
    sigma = tpl.sigma0
    for _ in range(tpl.max_generations):
        candidate = x + sigma * rng.standard_normal(tpl.dimension)
        f_new = sphere_eval(candidate)
        success = f_new <= f
        if success:
            x, f = candidate, f_new
        sigma = update_sigma(sigma, tau, success)
    return f, sigma


def check_oracle(runs, rng: random.Random) -> list[str]:
    """``runs`` is a list of (cfg, trials); sample replicates across them."""
    pool = [(cfg, trial, r) for cfg, trials in runs for trial in trials for r in trial.results]
    errors = []
    for cfg, trial, result in rng.sample(pool, min(ORACLE_SAMPLES, len(pool))):
        best_f, sigma = replay(cfg, trial.tau, result.seed)
        if (best_f.hex(), sigma.hex()) != (result.best_f.hex(), result.final_sigma.hex()):
            errors.append(f"oracle mismatch at tau={trial.tau!r} seed={result.seed}: "
                          f"best_f {result.best_f!r} vs {best_f!r}, "
                          f"final_sigma {result.final_sigma!r} vs {sigma!r}")
    return errors


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_digest(workload: str, paths) -> list[str]:
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    actual = digest(paths)
    if actual != expected:
        return [f"{workload}: output digest {actual} != recorded {expected}"]
    return []


def check_sessions(sessions) -> list[str]:
    errors = []
    for session, path in sessions:
        if session.status != "completed":
            errors.append(f"{path.name}: session {session.status}: {session.error}")
        if store_mod.read_session(path) != session:
            errors.append(f"{path.name}: read_session differs from the in-memory session")
    return errors


HOSTILE_REPLIES = {
    "tau_1000": ["tau = 1000"],
    "tau_1e308": ["tau = 1e308"],
    "empty": ["", "", ""],
    "long": ["The fitness landscape looks multimodal. " * 6000 + "I propose tau = 0.9."],
}


PROBE_OK = ("trial", "clean abort")


def hostile_probe(out_dir: Path) -> dict[str, str]:
    """Outcome per hostile reply: "trial", "clean abort" or the failure."""
    outcomes = {}
    for name, replies in HOSTILE_REPLIES.items():
        base = out_dir / f"probe_{name}"
        cfg = session_config(3, 20, 2, 1, 7)
        try:
            session = loop_mod.run_session(cfg, TimedBackend(replies), out_base=base)
        except Exception as exc:  # any escape is exactly what the probe counts
            outcomes[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        on_disk = (base.with_name(base.name + ".session.jsonl").is_file()
                   and base.with_name(base.name + ".log").is_file())
        if not on_disk:
            outcomes[name] = f"{session.status} without its files"
        elif session.status == "completed" and len(session.trials) == 1:
            outcomes[name] = "trial"
        elif session.status == "aborted":
            outcomes[name] = "clean abort"
        else:
            outcomes[name] = f"unexpected end: {session.status}"
    return outcomes
