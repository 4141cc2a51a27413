"""Seed derivation, trials, proposal dedupe, and full sessions."""

import gc
import json
import math
import sys
import tempfile
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from estune.es import (
    TAU_MAX,
    ConfigurationError,
    EsRunResult,
    EsTemplate,
    NumericalError,
    ObjectiveSpec,
)
from estune.llm import (
    DUPLICATE_REMINDER,
    REMINDER_SUFFIX,
    ExtractionError,
    ScriptedBackend,
    TransportError,
    render_analysis_prompt,
    render_tune_prompt,
)
from estune.loop import (
    _near_any,
    best_of,
    derive_seed,
    propose_next_tau,
    run_session,
    run_trial,
    run_trials,
)
import estune.es as es_mod
import estune.loop as loop_mod
import estune.store as store_mod
from estune.store import (
    MAX_REPLICATES, EmptySessionError, SessionConfig, SessionWriter, Trial, TuningSession,
)
from estune.store import read_session, render_log, write_session

from conftest import FIXTURES, read_where_the_row_is, spy_threads, within_a_minute
from oracle import stepwise_run, version_1_text


def reference_splitmix64(z):
    # Independent restatement of the documented mixing function.
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def reference_derive(master, trial, rep):
    z = reference_splitmix64(master)
    z = reference_splitmix64(z ^ reference_splitmix64(trial))
    z = reference_splitmix64(z ^ reference_splitmix64(rep))
    return z


class TestDeriveSeed:
    def test_matches_independent_reference(self):
        for master, trial, rep in [(0, 0, 0), (1, 2, 3), (7, 0, 9), (2**64 - 1, 11, 1)]:
            assert derive_seed(master, trial, rep) == reference_derive(master, trial, rep)

    def test_64_bit_range(self):
        for rep in range(20):
            assert 0 <= derive_seed(42, 0, rep) < 2**64

    def test_no_collisions_across_trials_and_replicates(self):
        seeds = {derive_seed(5, t, r) for t in range(20) for r in range(20)}
        assert len(seeds) == 400

    def test_earlier_trials_unaffected_by_later_ones(self):
        # Seeds depend only on (master, trial, replicate), never on budget.
        first = [derive_seed(9, 0, r) for r in range(10)]
        assert [derive_seed(9, 0, r) for r in range(10)] == first


def _synthetic_trial(tau, mean, std=0.0):
    result = EsRunResult(best_f=1.0, score=mean, final_sigma=1.0, generations_run=1, seed=0)
    return Trial(tau=tau, results=[result], mean_score=mean, std_score=std)


class TestRunTrial:
    def test_single_replicate_stats(self, fast_cfg):
        from dataclasses import replace

        cfg = replace(fast_cfg, replicates=1)
        trial = run_trial(0.9, cfg, 0)
        assert trial.std_score == 0.0
        assert trial.mean_score == trial.results[0].score

    def test_deterministic_repeat(self, fast_cfg):
        assert run_trial(0.9, fast_cfg, 2) == run_trial(0.9, fast_cfg, 2)

    def test_replicate_seeds_derived(self, fast_cfg):
        trial = run_trial(0.9, fast_cfg, 3)
        expected = [derive_seed(fast_cfg.master_seed, 3, i) for i in range(fast_cfg.replicates)]
        assert [r.seed for r in trial.results] == expected

    def test_batch_seeds_are_derive_seed_with_one_round_a_row(self, fast_cfg, monkeypatch):
        # 3 trials of 3 replicates: 1 round for the master seed, 2 for each
        # trial, 1 for each replicate index and 1 for each of the 9 rows.
        indices = [0, 7, 2**64 + 5]
        rounds, splitmix64 = [], loop_mod._splitmix64
        monkeypatch.setattr(loop_mod, "_splitmix64", lambda z: rounds.append(z) or splitmix64(z))
        trials = run_trials([0.9, 1.1, 1.3], fast_cfg, indices)
        assert fast_cfg.replicates == 3
        assert len(rounds) == 1 + 2 * 3 + 3 + 9
        assert [[r.seed for r in trial.results] for trial in trials] == [
            [reference_derive(fast_cfg.master_seed, k & (2**64 - 1), i) for i in range(3)]
            for k in indices
        ]

    def test_all_replicates_share_tau(self, fast_cfg):
        trial = run_trial(1.2, fast_cfg, 0)
        assert trial.tau == 1.2
        assert len(trial.results) == fast_cfg.replicates

    def test_nonpositive_tau_rejected(self, fast_cfg):
        with pytest.raises(ValueError):
            run_trial(0.0, fast_cfg, 0)

    def test_trials_batch_equals_separate_trials(self, fast_cfg):
        trials = run_trials([0.9, 1.3, 0.9], fast_cfg, [4, 0, 2])
        assert trials == [run_trial(0.9, fast_cfg, 4), run_trial(1.3, fast_cfg, 0),
                          run_trial(0.9, fast_cfg, 2)]

    def test_overflowing_objective_raises_numerical_error(self, fast_cfg):
        # Squares of 1e200 overflow: best_f is inf and the score -inf.
        template = replace(fast_cfg.es_template, init_low=-1e200, init_high=1e200,
                           max_generations=5)
        with pytest.raises(NumericalError):
            run_trial(0.9, replace(fast_cfg, es_template=template), 0)

    def test_trials_need_one_index_per_tau(self, fast_cfg):
        with pytest.raises(ValueError):
            run_trials([0.9, 1.0], fast_cfg, [0])

    def test_moderate_tau_beats_large_tau_reference_setting(self, paper_cfg):
        # Fixed seeds, reference setting: the adaptation rate 0.95 clearly
        # outperforms 1.5.
        assert run_trial(0.95, paper_cfg, 0).mean_score > run_trial(1.5, paper_cfg, 1).mean_score


class TestSessionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"replicates": 0},
        {"budget": 0},
        {"master_seed": -1},
        {"master_seed": 1 << 64},
        {"duplicate_tolerance": 0.0},
        {"duplicate_tolerance": math.nan},
        {"max_propose_retries": -1},
        {"objective": ObjectiveSpec("sphere", 4)},
        # Every admissible tau would duplicate the first trial.
        {"duplicate_tolerance": math.inf},
        {"duplicate_tolerance": TAU_MAX},
        {"duplicate_tolerance": 1e300},
        {"replicates": MAX_REPLICATES + 1},
    ])
    def test_bad_setting_rejected(self, fast_cfg, kwargs):
        with pytest.raises(ConfigurationError):
            replace(fast_cfg, **kwargs)

    def test_most_replicates_accepted(self, fast_cfg):
        assert replace(fast_cfg, replicates=MAX_REPLICATES).replicates == MAX_REPLICATES

    def test_largest_duplicate_tolerance_accepted(self, fast_cfg):
        tol = math.nextafter(TAU_MAX, 0)
        assert replace(fast_cfg, duplicate_tolerance=tol).duplicate_tolerance == tol


_TRIED_TAUS = st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True)


def _propose(session, backend):
    """``propose_next_tau`` with the log and sorted taus ``run_session`` keeps."""
    log_text = render_log(session.trials, include_std=session.config.log_std)
    return propose_next_tau(session, backend, log_text, sorted(t.tau for t in session.trials))


class TestIsDuplicate:
    """The loop's duplicate check, ``_near_any`` over the sorted tried taus."""

    def test_exact_match(self):
        assert _near_any(0.95, [0.95], 1e-9)

    def test_within_tolerance(self):
        assert _near_any(0.95 + 1e-12, [0.95], 1e-9)

    def test_outside_tolerance(self):
        assert not _near_any(1.0, [0.95], 1e-9)

    def test_tolerance_is_the_sessions(self, fast_cfg):
        session = TuningSession(config=replace(fast_cfg, duplicate_tolerance=0.1))
        session.trials = [_synthetic_trial(0.95, 1.0)]
        assert _propose(session, ScriptedBackend(["tau = 1.0", "tau = 1.1"])) == 1.1
        assert session.exchanges[1].prompt.endswith(DUPLICATE_REMINDER)

    def test_empty_session(self):
        assert not _near_any(0.95, [], 1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_at_exactly_the_tolerance(self, sign):
        tried = [0.25, 1.0, 2.0]
        edge = 1.0 + sign * 0.25
        assert _near_any(edge, tried, 0.25)
        assert not _near_any(math.nextafter(edge, sign * math.inf), tried, 0.25)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TRIED_TAUS, min_size=1, max_size=40), _TRIED_TAUS, st.data())
    def test_bisect_equals_a_linear_scan(self, taus, tau, data):
        # The tolerance is drawn, or is the distance from tau to a tried tau,
        # so that tau lies exactly at the tolerance; t + tol and t - tol are
        # probed too.
        t = data.draw(st.sampled_from(taus))
        tol = data.draw(st.one_of(st.just(abs(tau - t)), _TRIED_TAUS))
        assume(0 < tol < TAU_MAX)
        for probe in (tau, t + tol, t - tol):
            assert _near_any(probe, sorted(taus), tol) == any(abs(probe - u) <= tol for u in taus)


class TestBestTrial:
    def test_reference_log_values(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [
            _synthetic_trial(0.7, 0.1162058339177609),
            _synthetic_trial(0.95, 66.05538351053897),
        ]
        assert best_of(session.trials).tau == 0.95

    def test_single_trial(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(1.1, 5.0)]
        assert best_of(session.trials) is session.trials[0]

    def test_tie_breaks_to_smaller_tau(self):
        trials = [_synthetic_trial(1.1, 7.0), _synthetic_trial(0.9, 7.0)]
        assert best_of(trials).tau == 0.9

    def test_empty_session_errors(self, fast_cfg):
        with pytest.raises(EmptySessionError):
            best_of(TuningSession(config=fast_cfg).trials)

    def test_argmax_invariant_under_positive_rescaling(self):
        trials = [_synthetic_trial(t, m) for t, m in [(0.6, 3.0), (0.9, 8.0), (1.2, 5.0)]]
        scaled = [_synthetic_trial(t.tau, t.mean_score * 17.5) for t in trials]
        assert best_of(trials).tau == best_of(scaled).tau


class TestProposeNextTau:
    def test_empty_session_uses_tune_prompt(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["tau = 0.7"])
        assert _propose(session, backend) == 0.7
        assert len(session.exchanges) == 1
        assert session.exchanges[0].prompt == render_tune_prompt()

    def test_populated_session_uses_analysis_prompt(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.7, 1.5)]
        backend = ScriptedBackend(["tau = 0.9"])
        _propose(session, backend)
        prompt = session.exchanges[0].prompt
        assert prompt.startswith("Analyze the following results")
        assert "tau = 0.7, Fitness: 1.5" in prompt

    def test_duplicate_then_fresh(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.95, 1.0)]
        backend = ScriptedBackend(["tau = 0.95", "tau = 0.95", "tau = 1.05"])
        assert _propose(session, backend) == 1.05
        assert len(session.exchanges) == 3
        assert [e.attempt for e in session.exchanges] == [0, 1, 2]
        assert not session.exchanges[0].prompt.endswith(DUPLICATE_REMINDER)
        assert session.exchanges[1].prompt.endswith(DUPLICATE_REMINDER)
        assert session.exchanges[2].prompt.endswith(DUPLICATE_REMINDER)

    def test_fallback_after_exhausted_retries(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.95, 1.0)]
        backend = ScriptedBackend(["tau = 0.95"] * 3)
        proposed = _propose(session, backend)
        assert proposed == 0.95 * 1.05
        assert proposed == pytest.approx(0.9975)
        assert len(session.exchanges) == 3

    def test_fallback_skips_over_existing_values(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [
            _synthetic_trial(0.95, 1.0),
            _synthetic_trial(0.95 * 1.05, 1.0),
        ]
        backend = ScriptedBackend(["tau = 0.95"] * 3)
        assert _propose(session, backend) == pytest.approx(0.95 * 1.05 * 1.05)

    def test_extraction_failure_after_retries_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["no numbers here"] * 3)
        with pytest.raises(ExtractionError):
            _propose(session, backend)
        assert len(session.exchanges) == 3

    def test_extraction_recovers_on_retry(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["no numbers here", "tau = 0.8"])
        assert _propose(session, backend) == 0.8

    def test_tau_above_cap_reprompts(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["tau = 1000", "tau = 1e308", "tau = 0.8"])
        assert _propose(session, backend) == 0.8
        assert [e.attempt for e in session.exchanges] == [0, 1, 2]

    def test_tau_above_cap_after_retries_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend([f"tau = {TAU_MAX * 2}"] * 3)
        with pytest.raises(ExtractionError):
            _propose(session, backend)
        assert len(session.exchanges) == 3

    def test_tau_at_cap_accepted(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        assert _propose(session, ScriptedBackend([f"tau = {TAU_MAX}"])) == TAU_MAX

    def test_fallback_above_cap_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(TAU_MAX, 1.0)]
        backend = ScriptedBackend([f"tau = {TAU_MAX}"] * 3)
        with pytest.raises(ExtractionError):
            _propose(session, backend)

    def test_fallback_stuck_at_a_subnormal_raises(self, fast_cfg):
        # 5e-324 * 1.05 rounds back to 5e-324, so the fallback cannot move.
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(5e-324, 1.0)]
        backend = ScriptedBackend(["tau = 5e-324"] * 3)
        with pytest.raises(ExtractionError):
            _propose(session, backend)

    def test_transport_failure_propagates(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend([])  # immediately exhausted
        with pytest.raises(TransportError):
            _propose(session, backend)

    def test_non_running_session_rejected(self, fast_cfg):
        session = TuningSession(config=fast_cfg, status="completed")
        with pytest.raises(ValueError):
            _propose(session, ScriptedBackend(["tau = 1"]))


ANALYSIS_REPLY_095 = (
    "Fitness clearly peaks in the middle of the tried range. "
    "I propose a new value tau = 0.95."
)


class TestRunSession:
    def test_budget_and_order(self, fast_cfg):
        from dataclasses import replace

        cfg = replace(fast_cfg, budget=2)
        backend = ScriptedBackend(["tau = 0.7", ANALYSIS_REPLY_095])
        session = run_session(cfg, backend)
        assert session.status == "completed"
        assert [t.tau for t in session.trials] == [0.7, 0.95]
        assert len(session.exchanges) == 2
        assert session.best_tau in (0.7, 0.95)

    def test_budget_one(self, fast_cfg):
        from dataclasses import replace

        cfg = replace(fast_cfg, budget=1)
        session = run_session(cfg, ScriptedBackend(["tau = 1.3"]))
        assert len(session.trials) == 1
        assert session.best_tau == 1.3

    def test_no_duplicate_taus_in_completed_session(self, fast_cfg):
        backend = ScriptedBackend(["tau = 0.9"] * 12)
        session = run_session(fast_cfg, backend)  # budget 4, endless duplicates
        assert session.status == "completed"
        taus = [t.tau for t in session.trials]
        for i, a in enumerate(taus):
            for b in taus[i + 1:]:
                assert abs(a - b) > fast_cfg.duplicate_tolerance

    def test_abort_on_transport_failure(self, fast_cfg):
        session = run_session(fast_cfg, ScriptedBackend(["tau = 0.7"]))
        assert session.status == "aborted"
        assert len(session.trials) == 1
        assert session.error
        assert "exhausted" in session.error

    def test_abort_with_no_trials(self, fast_cfg):
        class FailingBackend:
            def send(self, prompt, attempt=0):
                raise TransportError("connection refused", payload="refused")

        session = run_session(fast_cfg, FailingBackend())
        assert session.status == "aborted"
        assert session.trials == []
        assert session.error

    def test_persists_partial_session_on_abort(self, fast_cfg, tmp_path):
        out = tmp_path / "runs" / "demo"
        run_session(fast_cfg, ScriptedBackend(["tau = 0.7"]), out_base=out)
        stored = read_session(tmp_path / "runs" / "demo.session.jsonl")
        assert stored.status == "aborted"
        assert [t.tau for t in stored.trials] == [0.7]
        log = (tmp_path / "runs" / "demo.log").read_text(encoding="utf-8")
        assert log.startswith("tau = 0.7, Fitness: ")

    def test_exchanges_in_chronological_order(self, fast_cfg):
        from dataclasses import replace

        cfg = replace(fast_cfg, budget=2)
        backend = ScriptedBackend(["tau = 0.7", "tau = 0.7", "tau = 1.4"])
        session = run_session(cfg, backend)
        assert [e.attempt for e in session.exchanges] == [0, 0, 1]
        responses = [e.response for e in session.exchanges]
        assert responses == ["tau = 0.7", "tau = 0.7", "tau = 1.4"]

    def test_attempt_0_prompts_match_the_reference_renderer(self, fast_cfg):
        for log_std in (True, False):
            cfg = replace(fast_cfg, log_std=log_std)
            session = run_session(cfg, ScriptedBackend(PROBE_REPLIES))
            assert session.status == "completed"
            prompts = [e.prompt for e in session.exchanges if e.attempt == 0]
            assert len(prompts) == cfg.budget
            assert prompts[0] == render_tune_prompt()
            for k, prompt in enumerate(prompts[1:], start=1):
                log = render_log(session.trials[:k], include_std=log_std)
                assert prompt == render_analysis_prompt(log)


class DiskProbe:
    """ScriptedBackend that reads the session files at each attempt-0 send."""

    def __init__(self, responses, out_base):
        self.scripted = ScriptedBackend(responses)
        self.session_path = out_base.with_name(out_base.name + ".session.jsonl")
        self.log_path = out_base.with_name(out_base.name + ".log")
        self.sends = 0
        # (sends before this one, session read back, session bytes, log text)
        self.snapshots = []

    def send(self, prompt, attempt=0):
        if attempt == 0:
            self.snapshots.append((
                self.sends,
                read_session(self.session_path),
                self.session_path.read_bytes(),
                self.log_path.read_text(encoding="utf-8"),
            ))
        self.sends += 1
        return self.scripted.send(prompt, attempt)


class RecordsAnotherPrompt:
    """ScriptedBackend whose exchanges record ``edit(prompt)``, not the prompt sent."""

    def __init__(self, responses, edit):
        self.scripted = ScriptedBackend(responses)
        self.edit = edit

    def send(self, prompt, attempt=0):
        exchange = self.scripted.send(prompt, attempt)
        exchange.prompt = self.edit(prompt)
        return exchange


class CrashingBackend:
    """ScriptedBackend that raises RuntimeError, which the loop does not catch,
    at send number ``crash_at``."""

    def __init__(self, responses, crash_at):
        self.scripted = ScriptedBackend(responses)
        self.crash_at = crash_at
        self.sends = 0

    def send(self, prompt, attempt=0):
        if self.sends == self.crash_at:
            raise RuntimeError("backend bug")
        self.sends += 1
        return self.scripted.send(prompt, attempt)


def _exchange_records(out):
    """The exchange records of ``<out>.session.jsonl``, decoded."""
    lines = out.with_name(out.name + ".session.jsonl").read_text(encoding="utf-8").splitlines()
    return [rec for rec in map(json.loads, lines) if rec["record"] == "exchange"]


# Non-ASCII text, control characters, a lone surrogate, quotes and a backslash.
_ODD_TEXT = 'é ü \U0001f600 "quoted" back\\slash \x00\x1f\x7f \u2028 \ud800'


def _assert_files_match_the_reference(session, out, tmp):
    write_session(session, Path(tmp) / "whole.session.jsonl")
    data = out.with_name(out.name + ".session.jsonl").read_bytes()
    assert data == (Path(tmp) / "whole.session.jsonl").read_bytes()
    assert read_session(out.with_name(out.name + ".session.jsonl")) == session
    log = out.with_name(out.name + ".log").read_text(encoding="utf-8")
    assert log == render_log(session.trials, include_std=session.config.log_std)


# Fresh, duplicate, unparseable and fallback proposals, then (for budget 5)
# an exhausted script.
PROBE_REPLIES = ["tau = 0.7", "tau = 0.7", "tau = 1.1", "nothing"] + ["tau = 0.9"] * 4


class TestSessionFiles:
    def test_header_on_disk_before_the_first_send(self, fast_cfg, tmp_path):
        out = tmp_path / "runs" / "s"
        backend = DiskProbe(PROBE_REPLIES, out)
        run_session(fast_cfg, backend, out_base=out)
        sends, stored, _, log = backend.snapshots[0]
        assert sends == 0
        assert stored == TuningSession(config=fast_cfg)
        assert log == ""

    @pytest.mark.parametrize("budget,status", [(4, "completed"), (5, "aborted")])
    def test_files_hold_every_trial_so_far(self, fast_cfg, tmp_path, budget, status):
        cfg = replace(fast_cfg, budget=budget)
        out = tmp_path / "s"
        backend = DiskProbe(PROBE_REPLIES, out)
        session = run_session(cfg, backend, out_base=out)
        assert session.status == status
        final = backend.session_path.read_bytes()
        assert len(backend.snapshots) == budget
        for k, (sends, stored, data, log) in enumerate(backend.snapshots):
            assert stored == TuningSession(config=cfg, trials=session.trials[:k])
            assert sends == len(stored.exchanges)
            assert final.startswith(data)
            assert log == render_log(session.trials[:k])
        write_session(session, tmp_path / "whole.session.jsonl")
        assert final == (tmp_path / "whole.session.jsonl").read_bytes()
        assert backend.log_path.read_text(encoding="utf-8") == render_log(session.trials)

    @pytest.mark.parametrize("status", ["completed", "aborted"])
    def test_files_match_the_golden_bytes(self, tmp_path, status):
        # The version-2 goldens are what this build writes; the version-1
        # goldens, written before every prompt was stored by reference, are
        # read-only fixtures that must still read back as the same session.
        out = tmp_path / status
        session = run_session(GOLDEN_CFG, ScriptedBackend(GOLDEN_REPLIES[status]), out_base=out)
        assert session.status == status
        golden = FIXTURES / f"golden_{status}_v2.session.jsonl"
        assert out.with_name(status + ".session.jsonl").read_bytes() == golden.read_bytes()
        write_session(session, tmp_path / "whole.session.jsonl")
        assert (tmp_path / "whole.session.jsonl").read_bytes() == golden.read_bytes()
        assert read_session(golden) == session
        golden_v1 = FIXTURES / f"golden_{status}.session.jsonl"
        assert version_1_text(session).encode("utf-8") == golden_v1.read_bytes()
        assert read_session(golden_v1) == session
        log = out.with_name(status + ".log").read_bytes()
        if status == "completed":
            assert log == (FIXTURES / "golden_completed.log").read_bytes()
        assert log == render_log(session.trials).encode("utf-8")


    def test_each_trial_escapes_only_its_new_bytes(self, tmp_path, monkeypatch):
        # Every prompt is stored by reference, so an encode covers one
        # record without its prompt's text.  From the third trial on, a
        # prompt holding the log is longer than any such record: encoding
        # a whole prompt breaks this bound.
        appended, returned = [], []  # (trial, line); (trials appended, length)

        def spy(fn):
            def wrapper(value):
                text = fn(value)
                returned.append((len(appended), len(text)))
                return text
            return wrapper

        monkeypatch.setattr(store_mod, "_encode", spy(store_mod._encode))
        append_trial = SessionWriter.append_trial

        def spy_append_trial(writer, trial, line):
            appended.append((trial, line))
            append_trial(writer, trial, line)

        monkeypatch.setattr(SessionWriter, "append_trial", spy_append_trial)
        replies = ["tau = 0.7", "tau = 0.8", "tau = 0.8", "tau = 0.9", "nothing", "tau = 1.0",
                   "tau = 1.0", "tau = 1.0", "tau = 1.0", "tau = 1.2", "tau = 1.3", "tau = 0.6"]
        cfg = replace(GOLDEN_CFG, replicates=1, budget=8)
        session = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "s")
        assert session.status == "completed"
        records = (tmp_path / "s.session.jsonl").read_text(encoding="utf-8").splitlines()
        trial_records = [r for r in records if r.startswith('{"record":"trial"')]
        for k, (trial, line) in enumerate(appended[2:], start=2):
            references = {"record": "exchange", "prompt_trials": k, "reminder": False}
            fields = [len(trial_records[k])] + [
                len(json.dumps({**references, **{key: value for key, value in asdict(e).items()
                                                 if key != "prompt"}}, separators=(",", ":")))
                for e in trial.exchanges
            ]
            bound = max(fields)
            assert min(len(e.prompt) for e in trial.exchanges) > bound
            sizes = [n for appended_so_far, n in returned if appended_so_far == k + 1]
            assert sizes and max(sizes) <= bound, (k, sizes, bound)
        assert sum(e.attempt > 0 for t in session.trials[2:] for e in t.exchanges) == 4
        _assert_files_match_the_reference(session, tmp_path / "s", tmp_path)

    @pytest.mark.parametrize("status", ["completed", "aborted"])
    @pytest.mark.parametrize("edit", [
        lambda p: p + _ODD_TEXT,
        lambda p: _ODD_TEXT + p,
        lambda p: p[:-1],
        lambda p: _ODD_TEXT,
    ], ids=["appended", "prepended", "cut", "replaced"])
    def test_recorded_prompt_is_written_as_recorded(self, tmp_path, edit, status):
        out = tmp_path / "s"
        backend = RecordsAnotherPrompt(GOLDEN_REPLIES[status], edit)
        session = run_session(GOLDEN_CFG, backend, out_base=out)
        assert session.status == status
        assert session.exchanges[0].prompt == edit(render_tune_prompt())
        # No recorded prompt is the one its position renders, so every
        # exchange stores its prompt literally.
        exchanges = _exchange_records(out)
        assert len(exchanges) == len(session.exchanges)
        assert [r.get("prompt") for r in exchanges] == [e.prompt for e in session.exchanges]
        _assert_files_match_the_reference(session, out, tmp_path)

    def test_text_between_a_prompt_and_its_reminder_is_stored_as_text(self, tmp_path):
        # Such a prompt starts with the rendered prompt and ends with the
        # reminder, but it is not the re-prompt: only its length tells.
        out = tmp_path / "s"
        def edit(prompt):
            return prompt.replace(REMINDER_SUFFIX, " " + REMINDER_SUFFIX)

        backend = RecordsAnotherPrompt(GOLDEN_REPLIES["completed"], edit)
        session = run_session(GOLDEN_CFG, backend, out_base=out)
        reminded = [e.prompt for e in session.exchanges if e.prompt.endswith(REMINDER_SUFFIX)]
        assert len(reminded) == 3
        assert [r["prompt"] for r in _exchange_records(out) if "prompt" in r] == reminded
        _assert_files_match_the_reference(session, out, tmp_path)

    @pytest.mark.parametrize("log_std", [True, False])
    def test_a_plain_session_stores_every_prompt_by_reference(self, tmp_path, log_std):
        out = tmp_path / "s"
        cfg = replace(GOLDEN_CFG, log_std=log_std)
        session = run_session(cfg, ScriptedBackend(GOLDEN_REPLIES["aborted"]), out_base=out)
        assert session.status == "aborted"
        exchanges = _exchange_records(out)
        assert not any("prompt" in r for r in exchanges)
        # Per proposal: a fresh tau, a duplicate and its re-prompt, two
        # unparseable replies, three duplicates and their fallback, a fresh
        # tau, then the aborted proposal's one exchange.
        assert [(r["prompt_trials"], r["reminder"]) for r in exchanges] == [
            (0, False), (1, False), (1, True), (2, False), (2, False),
            (3, False), (3, True), (3, True), (4, False),
        ]
        _assert_files_match_the_reference(session, out, tmp_path)

    def test_files_closed_when_an_exception_escapes(self, tmp_path):
        out = tmp_path / "s"
        backend = CrashingBackend(GOLDEN_REPLIES["completed"], crash_at=4)
        with pytest.raises(RuntimeError, match="backend bug"):
            run_session(GOLDEN_CFG, backend, out_base=out)
        # The traceback is gone: a file left open is collected here and its
        # ResourceWarning fails the test.
        gc.collect()
        stored = read_session(tmp_path / "s.session.jsonl")
        assert stored.status == "running"
        assert [t.tau for t in stored.trials] == [0.7, 1.1]
        assert len(stored.exchanges) == 3  # the crashed proposal's exchange is not on disk
        log = (tmp_path / "s.log").read_text(encoding="utf-8")
        assert log == render_log(stored.trials)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(
            st.floats(0.3, 2.0).map(lambda t: f"tau = {t!r}"),
            st.floats(0.3, 2.0).map(lambda t: f"Für tau = {t!r} ✓ „gut“"),
            st.text(max_size=100),
        ), min_size=1, max_size=12),
        st.one_of(st.none(), st.text(max_size=50)),
    )
    def test_files_equal_the_reference_serializers(self, replies, tail):
        edit = (lambda p: p) if tail is None else (lambda p: p + tail)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "s"
            session = run_session(WRITER_CFG, RecordsAnotherPrompt(replies, edit), out_base=out)
            _assert_files_match_the_reference(session, out, tmp)


# The golden session files were written by this config and these replies.
# Both scripts hold a duplicate with its re-prompt, an unparseable reply and
# a 1.05x fallback (three duplicates of 0.9 give 0.945); the aborted one
# runs out of replies in the middle of its fifth proposal, so an exchange
# follows the last trial.
GOLDEN_CFG = SessionConfig(
    objective=ObjectiveSpec("sphere", 3),
    es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=20),
    master_seed=2024,
    replicates=2,
    budget=5,
)
_GOLDEN_PREFIX = [
    "tau = 0.7",
    "tau = 0.7",
    "I suggest a tau of 1.1 for the next run.",
    "The landscape looks multimodal; more exploration is needed.",
    "```python\ntau = 0.9\n```",
    "tau = 0.9",
    "tau = 0.9",
    "tau = 0.9",
]
GOLDEN_REPLIES = {
    "completed": _GOLDEN_PREFIX + ["tau = 1.3"],
    "aborted": _GOLDEN_PREFIX + ["tau = 1.1"],
}


# Numbers a model might send: huge exponents, subnormals, the float limits,
# the cap and its neighbours, and anything else a float can be.
_HOSTILE_NUMBERS = st.one_of(
    st.integers(-400, 400).map(lambda e: f"1e{e}"),
    st.sampled_from([
        "1e308", "1.7976931348623157e308", "5e-324", "2.2250738585072014e-308",
        repr(math.nextafter(TAU_MAX, 0)), str(TAU_MAX), repr(math.nextafter(TAU_MAX, math.inf)),
        "nan", "inf", "-inf", "0", "-0.0", "1" * 400,
    ]),
    st.floats(min_value=0, max_value=1e-300).map(repr),
    st.floats(allow_nan=False).map(repr),
)
_REPLIES = st.one_of(
    _HOSTILE_NUMBERS.map(lambda t: f"tau = {t}"),
    _HOSTILE_NUMBERS.map(lambda t: f"I suggest a tau of {t} for the next run."),
    st.text(max_size=2000),
)


# A module-level config: hypothesis does not reset function-scoped fixtures.
HOSTILE_CFG = SessionConfig(
    objective=ObjectiveSpec("sphere", 3),
    es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=30),
    master_seed=5,
    replicates=2,
    budget=3,
)


# Without the Std column, so both log grammars pass through the writer's cache.
WRITER_CFG = replace(HOSTILE_CFG, budget=5, log_std=False)


class TestHostileReplies:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_REPLIES, min_size=1, max_size=10))
    def test_every_reply_ends_in_a_trial_or_a_clean_abort(self, replies):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "s"
            session = run_session(HOSTILE_CFG, ScriptedBackend(replies), out_base=out)
            assert session.status in ("completed", "aborted")
            assert (session.status == "aborted") == (session.error is not None)
            assert read_session(Path(tmp) / "s.session.jsonl") == session
            log = (Path(tmp) / "s.log").read_text(encoding="utf-8")
            assert log == render_log(session.trials)


def _wide_cfg(dimension, budget, generations=1000, replicates=2, **kwargs):
    return SessionConfig(
        objective=ObjectiveSpec("sphere", dimension),
        es_template=EsTemplate(dimension=dimension, max_generations=generations, **kwargs),
        master_seed=2024,
        replicates=replicates,
        budget=budget,
    )


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name == "estune-normals"]


class TestDrawAhead:
    """A session whose trials meet es._draws_ahead's rule, at any
    dimension, has one helper thread draw each trial's rows one trial
    ahead."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(es_mod, "_cpus", lambda: 2)

    def test_files_equal_the_one_cpu_session(self, tmp_path, monkeypatch):
        # 20-D x 1000 x 2 replicates, with the helper's floor lowered to
        # take it; trial 2 re-prompts a duplicate and trial 3 falls back to
        # 1.1 x 1.05.
        monkeypatch.setattr(es_mod, "_HELPER_NORMALS", 1)
        cfg = _wide_cfg(20, budget=4)
        replies = ["tau = 0.7", "tau = 0.9", "tau = 0.9", "tau = 1.1"] + ["tau = 1.1"] * 3
        started = spy_threads(monkeypatch)
        ahead = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "ahead")
        assert started == ["estune-normals"]
        monkeypatch.setattr(es_mod, "_cpus", lambda: 1)
        alone = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "alone")
        assert started == ["estune-normals"]
        assert ahead == alone
        assert ahead.status == "completed"
        assert [t.tau for t in ahead.trials] == [0.7, 0.9, 1.1, 1.1 * 1.05]
        assert [len(t.exchanges) for t in ahead.trials] == [1, 1, 2, 3]
        for suffix in (".log", ".session.jsonl"):
            assert ((tmp_path / f"ahead{suffix}").read_bytes()
                    == (tmp_path / f"alone{suffix}").read_bytes())
        for k, trial in enumerate(ahead.trials):
            for r, result in enumerate(trial.results):
                assert result.seed == derive_seed(cfg.master_seed, k, r)
                f, sigma = stepwise_run(cfg.es_template, trial.tau, result.seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_a_256_d_session_draws_ahead(self, tmp_path, monkeypatch):
        # There a row takes longer to draw than to screen, and one helper
        # still draws every row: 3 trials of 2 replicates x 200 generations,
        # 102,400 normals a trial; trial 2 re-prompts a duplicate.
        cfg = _wide_cfg(256, budget=3, generations=200)
        replies = ["tau = 0.7", "tau = 0.9", "tau = 0.9", "tau = 1.1"]
        started = spy_threads(monkeypatch)
        ahead = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "ahead")
        assert started == ["estune-normals"]
        monkeypatch.setattr(es_mod, "_cpus", lambda: 1)
        alone = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "alone")
        assert started == ["estune-normals"]
        assert ahead == alone
        assert ahead.status == "completed"
        assert [t.tau for t in ahead.trials] == [0.7, 0.9, 1.1]
        for suffix in (".log", ".session.jsonl"):
            assert ((tmp_path / f"ahead{suffix}").read_bytes()
                    == (tmp_path / f"alone{suffix}").read_bytes())

    def test_a_1_replicate_session_draws_ahead(self, tmp_path, monkeypatch):
        # One row of 64-D x 1000 generations, 64,000 normals a trial: the
        # floor counts every row a trial draws.  Trial 2 re-prompts a
        # duplicate.
        cfg = _wide_cfg(64, budget=3, replicates=1)
        replies = ["tau = 0.7", "tau = 0.9", "tau = 0.9", "tau = 1.1"]
        started = spy_threads(monkeypatch)
        ahead = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "ahead")
        assert started == ["estune-normals"]
        monkeypatch.setattr(es_mod, "_cpus", lambda: 1)
        alone = run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "alone")
        assert started == ["estune-normals"]
        assert ahead == alone
        assert ahead.status == "completed"
        assert [t.tau for t in ahead.trials] == [0.7, 0.9, 1.1]
        assert [len(t.exchanges) for t in ahead.trials] == [1, 1, 2]
        for suffix in (".log", ".session.jsonl"):
            assert ((tmp_path / f"ahead{suffix}").read_bytes()
                    == (tmp_path / f"alone{suffix}").read_bytes())

    def test_stepwise_rows_drawn_ahead_equal_the_stepwise_oracle(self, monkeypatch):
        # 3-D rows run stepwise; with the floor lowered the helper draws
        # them, and each is read in the blocks of a whole-row draw (300
        # generations span three blocks).
        monkeypatch.setattr(es_mod, "_HELPER_NORMALS", 1)
        cfg = _wide_cfg(3, budget=3, generations=300)
        assert not es_mod._runs_screened(3, 300)
        asked, made, read = [], [], []
        request, blocks = es_mod._DrawAhead.request, es_mod._blocks

        def spy_request(ahead, states):
            asked.append(states.tolist())
            made.extend(request(ahead, states))
            return made[-len(states) :]

        monkeypatch.setattr(es_mod._DrawAhead, "request", spy_request)
        monkeypatch.setattr(es_mod, "_blocks",
                            lambda rng, *rest: read.append(rng) or blocks(rng, *rest))
        started = spy_threads(monkeypatch)
        session = run_session(cfg, ScriptedBackend(["tau = 0.7", "tau = 0.9", "tau = 1.1"]))
        assert session.status == "completed"
        assert started == ["estune-normals"]
        # Each trial reads the rows asked for its seeds' states, in order.
        assert asked == [es_mod._seed_states([derive_seed(cfg.master_seed, k, r)
                                              for r in range(2)]).tolist() for k in range(3)]
        assert len(read) == 6 and all(row is made[i] for i, row in enumerate(read))
        for trial in session.trials:
            for result in trial.results:
                f, sigma = stepwise_run(cfg.es_template, trial.tau, result.seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_trials_hold_under_a_short_switch_interval(self, monkeypatch):
        # The interpreter lock changes hands about every microsecond while
        # the helper draws each trial's rows ahead.
        cfg = _wide_cfg(64, budget=4)
        replies = ["tau = 0.7", "tau = 0.9", "tau = 1.1", "tau = 1.3"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = within_a_minute(lambda: run_session(cfg, ScriptedBackend(replies)))
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(es_mod, "_cpus", lambda: 1)
        assert ahead == run_session(cfg, ScriptedBackend(replies))
        assert ahead.status == "completed"

    def test_the_helper_draws_at_most_one_trial_ahead(self, monkeypatch):
        # While trial k is proposed the helper has been asked for trials 0
        # to k, and however long the proposal takes it draws no further: it
        # holds at most two trials' rows.  Each proposal waits until the
        # helper has drawn what it was asked for, and a little longer.
        cfg = _wide_cfg(64, budget=4)
        generator, drawn = es_mod._generator, []

        class Counted:
            def __init__(self, state):
                self._rng = generator(state)

            def uniform(self, *args, **kwargs):
                return self._rng.uniform(*args, **kwargs)

            def standard_normal(self, size):
                z = self._rng.standard_normal(size)
                drawn.append(threading.current_thread().name)
                return z

        class Slow:
            def __init__(self, responses):
                self.scripted, self.seen = ScriptedBackend(responses), []

            def send(self, prompt, attempt=0):
                asked = (len(self.seen) + 1) * cfg.replicates
                deadline = time.monotonic() + 30
                while len(drawn) < asked and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.05)
                self.seen.append(len(drawn))
                return self.scripted.send(prompt, attempt)

        monkeypatch.setattr(es_mod, "_generator", Counted)
        backend = Slow(["tau = 0.7", "tau = 0.9", "tau = 1.1", "tau = 1.3"])
        session = within_a_minute(lambda: run_session(cfg, backend))
        assert session.status == "completed"
        assert backend.seen == [2, 4, 6, 8]
        assert drawn == ["estune-normals"] * 8

    def test_a_session_below_the_floor_starts_no_thread(self, fast_cfg, monkeypatch):
        # 3 rows x 30 generations x 3-D: 270 normals a trial, below the floor.
        started = spy_threads(monkeypatch)
        session = run_session(fast_cfg, ScriptedBackend(PROBE_REPLIES))
        assert session.status == "completed"
        assert started == []

    @pytest.mark.parametrize("replies, sigma0, status", [
        (["tau = 0.7", "tau = 0.9", "tau = 1.1"], 1.0, "completed"),
        (["tau = 0.7", "nothing", "nothing", "nothing"], 1.0, "aborted"),
        (["tau = 0.7"], 1e308, "aborted"),
    ], ids=["completed", "extraction_error", "numerical_error"])
    def test_no_helper_outlives_the_session(self, tmp_path, monkeypatch, replies, sigma0,
                                            status):
        cfg = _wide_cfg(64, budget=3, sigma0=sigma0)
        started = spy_threads(monkeypatch)
        session = within_a_minute(
            lambda: run_session(cfg, ScriptedBackend(replies), out_base=tmp_path / "s"))
        assert session.status == status
        assert started[1:] == ["estune-normals"]  # after within_a_minute's own
        assert _helpers_alive() == []
        assert read_session(tmp_path / "s.session.jsonl") == session
        if sigma0 == 1e308:
            assert session.error == "NumericalError: a candidate left the finite floating-point range"

    def test_no_helper_outlives_an_exception_that_escapes(self, tmp_path, monkeypatch):
        backend = CrashingBackend(["tau = 0.7", "tau = 0.9", "tau = 1.1"], crash_at=2)
        started = spy_threads(monkeypatch)
        with pytest.raises(RuntimeError, match="backend bug"):
            within_a_minute(lambda: run_session(_wide_cfg(64, budget=3), backend,
                                                out_base=tmp_path / "s"))
        assert started[1:] == ["estune-normals"]
        assert _helpers_alive() == []
        assert [t.tau for t in read_session(tmp_path / "s.session.jsonl").trials] == [0.7, 0.9]

    def test_an_error_met_drawing_ahead_is_raised_by_its_trial(self, tmp_path, monkeypatch):
        # The helper fails on trial 1's rows, which it draws while trial 0
        # runs; trial 1 is proposed only once it has.  Trial 0 is logged,
        # and trial 1 raises the helper's error on the calling thread.
        cfg = _wide_cfg(64, budget=3)
        failing = {tuple(state.tolist()) for state in es_mod._seed_states(
            [derive_seed(cfg.master_seed, 1, r) for r in range(cfg.replicates)])}
        generator, met = es_mod._generator, threading.Event()

        class FailsOnTrial1:
            def __init__(self, state):
                self._rng, self._fails = generator(state), tuple(state.tolist()) in failing

            def uniform(self, *args, **kwargs):
                return self._rng.uniform(*args, **kwargs)

            def standard_normal(self, size):
                if self._fails:
                    met.set()
                    raise MemoryError(f"drawing on {threading.current_thread().name}")
                return self._rng.standard_normal(size)

        class ProposesTrial1Late:
            def __init__(self, responses):
                self.scripted, self.sends = ScriptedBackend(responses), 0

            def send(self, prompt, attempt=0):
                if self.sends == 1:
                    assert met.wait(timeout=30)
                self.sends += 1
                return self.scripted.send(prompt, attempt)

        monkeypatch.setattr(es_mod, "_generator", FailsOnTrial1)
        backend = ProposesTrial1Late(["tau = 0.7", "tau = 0.9", "tau = 1.1"])
        with pytest.raises(MemoryError, match="drawing on estune-normals") as caught:
            within_a_minute(lambda: run_session(cfg, backend, out_base=tmp_path / "s"))
        # Raised again where trial 1 reads its first row.
        assert read_where_the_row_is(caught.traceback)
        assert _helpers_alive() == []
        stored = read_session(tmp_path / "s.session.jsonl")
        assert (stored.status, [t.tau for t in stored.trials]) == ("running", [0.7])


# Trial 2 re-prompts a duplicate and trial 3 falls back to 1.1 x 1.05.
WINDOW_REPLIES = (["tau = 0.7", "tau = 0.9", "tau = 0.9", "tau = 1.1"] + ["tau = 1.1"] * 3
                  + ["tau = 0.5", "tau = 1.3", "tau = 0.6"])


class TestSeedWindow:
    """A session derives its seeds and their SeedSequence states one window
    of trials at a time, and seeds every row from those states."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(es_mod, "_cpus", lambda: 2)

    @staticmethod
    def _spy(monkeypatch):
        """The seeds of each es._seed_states pass, and how many generators
        make_rng and es._generator build, from here on."""
        passes, built = [], {"make_rng": 0, "_generator": 0}
        seed_states = es_mod._seed_states

        def spy_states(seeds):
            passes.append(list(seeds))
            return seed_states(seeds)

        def counted(name):
            build = getattr(es_mod, name)

            def spy(arg):
                built[name] += 1
                return build(arg)

            monkeypatch.setattr(es_mod, name, spy)

        monkeypatch.setattr(es_mod, "_seed_states", spy_states)
        counted("make_rng")
        counted("_generator")
        return passes, built

    # 3-D runs stepwise on the calling thread; at 64-D one helper draws
    # each trial's rows one trial ahead, its requests seeded from the window.
    @pytest.mark.parametrize("dimension, helpers", [(3, []), (64, ["estune-normals"])])
    def test_windows_equal_the_trials_run_alone(self, tmp_path, monkeypatch, dimension,
                                                 helpers):
        # 4 rows a window: trials 0-1, 2-3, 4-5 and 6, the last cut by the
        # budget.
        monkeypatch.setattr(loop_mod, "_WINDOW_ROWS", 4)
        cfg = _wide_cfg(dimension, budget=7)
        passes, built = self._spy(monkeypatch)
        started = spy_threads(monkeypatch)
        session = within_a_minute(lambda: run_session(
            cfg, ScriptedBackend(WINDOW_REPLIES), out_base=tmp_path / "window"))
        assert started[1:] == helpers  # after within_a_minute's own
        assert session.status == "completed"
        assert [t.tau for t in session.trials] == [0.7, 0.9, 1.1, 1.1 * 1.05, 0.5, 1.3, 0.6]
        assert [len(t.exchanges) for t in session.trials] == [1, 1, 2, 3, 1, 1, 1]
        seeds = [[derive_seed(cfg.master_seed, k, r) for k in trials for r in range(2)]
                 for trials in ([0, 1], [2, 3], [4, 5], [6])]
        assert passes == seeds
        assert built == {"make_rng": 0, "_generator": 14}

        # The same trials, each run alone by run_trial with no window, from
        # make_rng's generators.
        alone = TuningSession(config=cfg, status="completed", best_tau=session.best_tau)
        for k, trial in enumerate(session.trials):
            rows = [derive_seed(cfg.master_seed, k, r) for r in range(2)]
            seeded = rows, [es_mod.make_rng(seed) for seed in rows]
            alone.trials.append(replace(run_trial(trial.tau, cfg, k, seeded),
                                        exchanges=trial.exchanges))
        assert passes == seeds
        assert built == {"make_rng": 14, "_generator": 14}
        assert alone == session
        write_session(alone, tmp_path / "alone.session.jsonl")
        assert ((tmp_path / "window.session.jsonl").read_bytes()
                == (tmp_path / "alone.session.jsonl").read_bytes())
        assert ((tmp_path / "window.log").read_bytes()
                == render_log(alone.trials).encode("utf-8"))
        for k, trial in enumerate(session.trials):
            for r, result in enumerate(trial.results):
                assert result.seed == derive_seed(cfg.master_seed, k, r)
                f, sigma = stepwise_run(cfg.es_template, trial.tau, result.seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension", [3, 64])
    def test_a_session_cut_short_derives_one_window(self, monkeypatch, dimension):
        # However large the budget, a window holds _WINDOW_ROWS rows; the
        # script runs out at trial 2.
        cfg = _wide_cfg(dimension, budget=10**9)
        passes, built = self._spy(monkeypatch)
        session = within_a_minute(
            lambda: run_session(cfg, ScriptedBackend(["tau = 0.7", "tau = 0.9"])))
        assert session.status == "aborted" and len(session.trials) == 2
        assert passes == [[derive_seed(cfg.master_seed, k, r)
                           for k in range(loop_mod._WINDOW_ROWS // 2) for r in range(2)]]
        assert built["make_rng"] == 0
