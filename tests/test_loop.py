"""Seed derivation, trials, proposal dedupe, and full sessions."""

import gc
import math
import tempfile
from dataclasses import replace
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
    ExtractionError,
    ScriptedBackend,
    TransportError,
    render_analysis_prompt,
    render_tune_prompt,
)
from estune.loop import (
    best_of,
    derive_seed,
    is_duplicate,
    propose_next_tau,
    run_session,
    run_trial,
    run_trials,
)
from estune.store import MAX_REPLICATES, EmptySessionError, SessionConfig, Trial, TuningSession
from estune.store import read_session, render_log, write_session

from conftest import FIXTURES


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


class TestIsDuplicate:
    def _session(self, fast_cfg, taus):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(tau, 1.0) for tau in taus]
        return session

    def test_exact_match(self, fast_cfg):
        assert is_duplicate(0.95, self._session(fast_cfg, [0.95]))

    def test_within_tolerance(self, fast_cfg):
        assert is_duplicate(0.95 + 1e-12, self._session(fast_cfg, [0.95]))

    def test_outside_tolerance(self, fast_cfg):
        assert not is_duplicate(1.0, self._session(fast_cfg, [0.95]))

    def test_tolerance_is_the_sessions(self, fast_cfg):
        cfg = replace(fast_cfg, duplicate_tolerance=0.1)
        assert is_duplicate(1.0, self._session(cfg, [0.95]))

    def test_empty_session(self, fast_cfg):
        assert not is_duplicate(0.95, self._session(fast_cfg, []))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_at_exactly_the_tolerance(self, fast_cfg, sign):
        session = self._session(replace(fast_cfg, duplicate_tolerance=0.25), [2.0, 0.25, 1.0])
        edge = 1.0 + sign * 0.25
        assert is_duplicate(edge, session)
        assert not is_duplicate(math.nextafter(edge, sign * math.inf), session)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TRIED_TAUS, min_size=1, max_size=40), _TRIED_TAUS, st.data())
    def test_bisect_equals_a_linear_scan(self, taus, tau, data):
        # The tolerance is drawn, or is the distance from tau to a tried tau,
        # so that tau lies exactly at the tolerance; t + tol and t - tol are
        # probed too.
        t = data.draw(st.sampled_from(taus))
        tol = data.draw(st.one_of(st.just(abs(tau - t)), _TRIED_TAUS))
        assume(0 < tol < TAU_MAX)
        session = TuningSession(config=replace(HOSTILE_CFG, duplicate_tolerance=tol))
        session.trials = [_synthetic_trial(tried, 1.0) for tried in taus]
        for probe in (tau, t + tol, t - tol):
            assert is_duplicate(probe, session) == any(abs(probe - u) <= tol for u in taus)


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
        assert propose_next_tau(session, backend) == 0.7
        assert len(session.exchanges) == 1
        assert session.exchanges[0].prompt == render_tune_prompt()

    def test_populated_session_uses_analysis_prompt(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.7, 1.5)]
        backend = ScriptedBackend(["tau = 0.9"])
        propose_next_tau(session, backend)
        prompt = session.exchanges[0].prompt
        assert prompt.startswith("Analyze the following results")
        assert "tau = 0.7, Fitness: 1.5" in prompt

    def test_duplicate_then_fresh(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.95, 1.0)]
        backend = ScriptedBackend(["tau = 0.95", "tau = 0.95", "tau = 1.05"])
        assert propose_next_tau(session, backend) == 1.05
        assert len(session.exchanges) == 3
        assert [e.attempt for e in session.exchanges] == [0, 1, 2]
        assert not session.exchanges[0].prompt.endswith(DUPLICATE_REMINDER)
        assert session.exchanges[1].prompt.endswith(DUPLICATE_REMINDER)
        assert session.exchanges[2].prompt.endswith(DUPLICATE_REMINDER)

    def test_fallback_after_exhausted_retries(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(0.95, 1.0)]
        backend = ScriptedBackend(["tau = 0.95"] * 3)
        proposed = propose_next_tau(session, backend)
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
        assert propose_next_tau(session, backend) == pytest.approx(0.95 * 1.05 * 1.05)

    def test_extraction_failure_after_retries_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["no numbers here"] * 3)
        with pytest.raises(ExtractionError):
            propose_next_tau(session, backend)
        assert len(session.exchanges) == 3

    def test_extraction_recovers_on_retry(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["no numbers here", "tau = 0.8"])
        assert propose_next_tau(session, backend) == 0.8

    def test_tau_above_cap_reprompts(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend(["tau = 1000", "tau = 1e308", "tau = 0.8"])
        assert propose_next_tau(session, backend) == 0.8
        assert [e.attempt for e in session.exchanges] == [0, 1, 2]

    def test_tau_above_cap_after_retries_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend([f"tau = {TAU_MAX * 2}"] * 3)
        with pytest.raises(ExtractionError):
            propose_next_tau(session, backend)
        assert len(session.exchanges) == 3

    def test_tau_at_cap_accepted(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        assert propose_next_tau(session, ScriptedBackend([f"tau = {TAU_MAX}"])) == TAU_MAX

    def test_fallback_above_cap_raises(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(TAU_MAX, 1.0)]
        backend = ScriptedBackend([f"tau = {TAU_MAX}"] * 3)
        with pytest.raises(ExtractionError):
            propose_next_tau(session, backend)

    def test_fallback_stuck_at_a_subnormal_raises(self, fast_cfg):
        # 5e-324 * 1.05 rounds back to 5e-324, so the fallback cannot move.
        session = TuningSession(config=fast_cfg)
        session.trials = [_synthetic_trial(5e-324, 1.0)]
        backend = ScriptedBackend(["tau = 5e-324"] * 3)
        with pytest.raises(ExtractionError):
            propose_next_tau(session, backend)

    def test_transport_failure_propagates(self, fast_cfg):
        session = TuningSession(config=fast_cfg)
        backend = ScriptedBackend([])  # immediately exhausted
        with pytest.raises(TransportError):
            propose_next_tau(session, backend)

    def test_non_running_session_rejected(self, fast_cfg):
        session = TuningSession(config=fast_cfg, status="completed")
        with pytest.raises(ValueError):
            propose_next_tau(session, ScriptedBackend(["tau = 1"]))


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
        out = tmp_path / status
        session = run_session(GOLDEN_CFG, ScriptedBackend(GOLDEN_REPLIES[status]), out_base=out)
        assert session.status == status
        golden = FIXTURES / f"golden_{status}.session.jsonl"
        assert out.with_name(status + ".session.jsonl").read_bytes() == golden.read_bytes()
        write_session(session, tmp_path / "whole.session.jsonl")
        assert (tmp_path / "whole.session.jsonl").read_bytes() == golden.read_bytes()
        assert read_session(golden) == session
        log = out.with_name(status + ".log").read_bytes()
        if status == "completed":
            assert log == (FIXTURES / "golden_completed.log").read_bytes()
        assert log == render_log(session.trials).encode("utf-8")


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
