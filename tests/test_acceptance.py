"""Acceptance suite: one test per release criterion, each with its runtime bound.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import functools
import json
import math
import re
from time import perf_counter

import numpy as np
import pytest

from estune.es import EsTemplate, ObjectiveSpec, sphere_eval, update_sigma
from estune.llm import ExtractionError, ScriptedBackend, extract_tau
from estune.loop import best_of, run_session, run_trial
from estune.store import SessionConfig
from estune.report import GridSpec, run_grid
from estune.store import SessionFileError, read_session, write_session

from conftest import FIXTURES

LOG_LINE = re.compile(r"^tau = [0-9.e+-]+, Fitness: [0-9.e+-]+(, Std: [0-9.e+-]+)?$")

PAPER_TEMPLATE = EsTemplate(sigma0=1.0, dimension=5, max_generations=1000)


def _paper_session_config(master_seed, budget=2):
    return SessionConfig(
        objective=ObjectiveSpec("sphere", 5),
        es_template=PAPER_TEMPLATE,
        master_seed=master_seed,
        replicates=10,
        budget=budget,
    )


def test_criterion_1_step_size_update_closed_form():
    start = perf_counter()
    rng = np.random.default_rng(20240601)
    for _ in range(1000):
        sigma = float(10.0 ** rng.uniform(-2, 2))
        tau = float(rng.uniform(0.001, 3.0))
        success = bool(rng.integers(0, 2))
        got = update_sigma(sigma, tau, success)
        expected = sigma * math.exp(0.8 * tau) if success else sigma * math.exp(-0.2 * tau)
        assert abs(got - expected) <= 1e-12 * abs(expected)
        product = update_sigma(sigma, tau, True) * update_sigma(sigma, tau, False) ** 4
        assert abs(product - sigma**5) <= 1e-12 * sigma**5
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: step-size update matches closed form ({elapsed:.2f}s)")


def test_criterion_2_sphere_matches_independent_oracle():
    start = perf_counter()
    rng = np.random.default_rng(20240602)
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        vec = rng.uniform(-100, 100, size=n)
        oracle = functools.reduce(lambda acc, v: acc + v * v, [float(v) for v in vec], 0.0)
        # Both sides sum left to right, so equality is exact.
        assert sphere_eval(vec) == oracle
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: sphere equals summation oracle exactly ({elapsed:.2f}s)")


def test_criterion_3_convergence_at_reference_tau():
    start = perf_counter()
    trial = run_trial(0.95, _paper_session_config(master_seed=7), 0)
    assert len(trial.results) == 10
    assert trial.mean_score >= 40.0
    elapsed = perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 3 PASS: mean fitness {trial.mean_score:.2f} >= 40 "
        f"at tau=0.95 ({elapsed:.2f}s)"
    )


def test_criterion_4_grid_shape_across_seed_sets():
    start = perf_counter()
    masters = (7, 42, 101)
    seed_sets = []
    argmax_in_range = 0
    for master in masters:
        cfg = _paper_session_config(master, budget=12)
        trials = run_grid(GridSpec(0.6, 1.5, 10), cfg)
        reference = run_trial(0.95, cfg, 10)
        seed_sets.append(
            {r.seed for t in trials + [reference] for r in t.results}
        )
        best = best_of(trials)
        if 0.8 - 1e-9 <= best.tau <= 1.2 + 1e-9:
            argmax_in_range += 1
        high_tau = trials[-1]
        assert high_tau.tau == 1.5
        assert high_tau.mean_score < reference.mean_score
    assert argmax_in_range >= 2
    for i in range(len(seed_sets)):
        for j in range(i + 1, len(seed_sets)):
            assert not (seed_sets[i] & seed_sets[j])
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 4 PASS: argmax tau in [0.8, 1.2] for {argmax_in_range}/3 "
        f"disjoint seed sets, tau=1.5 below tau=0.95 in 3/3 ({elapsed:.2f}s)"
    )


def test_criterion_5_deterministic_end_to_end_loop(tmp_path):
    start = perf_counter()
    responses = [
        "tau = 0.7",
        "Fitness improves toward the upper middle of the range. "
        "I propose a new value tau = 0.95.",
    ]
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name / "session"
        session = run_session(
            _paper_session_config(master_seed=7),
            ScriptedBackend(responses),
            out_base=out,
        )
        assert session.status == "completed"
        assert [t.tau for t in session.trials] == [0.7, 0.95]
        assert session.best_tau == 0.95
        log_bytes = (tmp_path / name / "session.log").read_bytes()
        session_bytes = (tmp_path / name / "session.session.jsonl").read_bytes()
        outputs.append((log_bytes, session_bytes))

    log_text = outputs[0][0].decode("utf-8")
    assert log_text.startswith("tau = 0.7, Fitness: ")
    for line in log_text.splitlines():
        assert LOG_LINE.match(line), line
    assert outputs[0] == outputs[1]
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS: byte-identical completed loop, best tau 0.95 ({elapsed:.2f}s)")


def test_criterion_6_parser_fixture_corpus():
    fixtures = json.loads((FIXTURES / "extract_fixtures.json").read_text(encoding="utf-8"))
    positives = [f for f in fixtures if f["expect"] is not None]
    negatives = [f for f in fixtures if f["expect"] is None]
    assert len(positives) >= 20
    assert len(negatives) == 5
    for fx in positives:
        assert extract_tau(fx["text"]) == fx["expect"], fx["name"]
    for fx in negatives:
        with pytest.raises(ExtractionError):
            extract_tau(fx["text"])
    print(
        f"\nACCEPTANCE 6 PASS: {len(positives)} positive and {len(negatives)} "
        "negative fixtures, 100% rate"
    )


def test_criterion_7_dedupe_retries_and_fallback():
    cfg = SessionConfig(
        objective=ObjectiveSpec("sphere", 3),
        es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=30),
        master_seed=5,
        replicates=2,
        budget=2,
        max_propose_retries=2,
    )
    backend = ScriptedBackend(["tau = 0.95"] * 4)
    session = run_session(cfg, backend)
    assert session.status == "completed"
    assert session.trials[0].tau == 0.95
    assert session.trials[1].tau == 0.95 * 1.05
    assert session.trials[1].tau == pytest.approx(0.9975)
    # 1 exchange for the first proposal, 3 (attempts 0..2) for the repeated one.
    assert len(session.exchanges) == 4
    assert [e.attempt for e in session.exchanges] == [0, 0, 1, 2]
    print("\nACCEPTANCE 7 PASS: 3 recorded exchanges then fallback tau 0.9975")


def test_criterion_8_persistence_round_trip(tmp_path):
    cfg = SessionConfig(
        objective=ObjectiveSpec("sphere", 3),
        es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=25),
        master_seed=13,
        replicates=2,
        budget=1,
    )
    from dataclasses import replace

    for n_trials in (1, 2, 12):
        taus = [round(0.5 + 0.07 * i, 4) for i in range(n_trials)]
        backend = ScriptedBackend([f"tau = {t}" for t in taus])
        session = run_session(replace(cfg, budget=n_trials), backend)
        assert session.status == "completed"
        path = tmp_path / f"s{n_trials}.session.jsonl"
        write_session(session, path)
        assert read_session(path) == session

    # Corrupt the second trial record of the 12-trial file.
    path = tmp_path / "s12.session.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    trial_lines = [i for i, l in enumerate(lines) if '"record":"trial"' in l]
    corrupt_at = trial_lines[1]
    lines[corrupt_at] = lines[corrupt_at][:20]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SessionFileError) as exc_info:
        read_session(path)
    err = exc_info.value
    assert err.line_number == corrupt_at + 1
    assert str(err.line_number) in str(err)
    assert len(err.partial.trials) == 1
    assert err.partial.trials[0].tau == 0.5
    print("\nACCEPTANCE 8 PASS: round trips for 1/2/12 trials, corrupt line reported by number")
