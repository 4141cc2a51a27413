"""Log grammar, trial statistics, and session persistence."""

import json
import math
import re
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from estune.es import EsRunResult
from estune.llm import ScriptedBackend, extract_tau
from estune.loop import run_session
from estune.models import EmptySessionError, Trial, TuningSession
from estune.store import (
    SCHEMA_VERSION,
    SchemaVersionError,
    SessionFileError,
    format_number,
    log_line,
    read_session,
    render_log,
    trial_stats,
    write_session,
)

LOG_LINE = re.compile(
    r"^tau = -?[0-9.e+-]+, Fitness: -?[0-9.e+-]+(, Std: -?[0-9.e+-]+)?$"
)


def _trial(tau, mean, std=0.0, n=1):
    results = [
        EsRunResult(best_f=1.0, score=mean, final_sigma=0.5, generations_run=3, seed=i)
        for i in range(n)
    ]
    return Trial(tau=tau, results=results, mean_score=mean, std_score=std)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (1.0, "1"),
            (0.7, "0.7"),
            (0.9975, "0.9975"),
            (66.05538351053897, "66.05538351053897"),
            (1e-09, "1e-09"),
            (5.0, "5"),
        ],
    )
    def test_known_values(self, value, expected):
        assert format_number(value) == expected

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips(self, value):
        assert float(format_number(value)) == value

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_number(float("inf"))


class TestLogLines:
    def test_reference_line_bytes(self):
        trial = _trial(0.7, 0.1162058339177609)
        assert log_line(trial, include_std=False) == (
            "tau = 0.7, Fitness: 0.1162058339177609\n"
        )

    def test_append_order(self):
        log = log_line(_trial(0.7, 1.0), include_std=False)
        log += log_line(_trial(0.95, 2.0), include_std=False)
        assert log == "tau = 0.7, Fitness: 1\ntau = 0.95, Fitness: 2\n"
        assert render_log([_trial(0.7, 1.0), _trial(0.95, 2.0)], include_std=False) == log

    def test_std_suffix_for_single_replicate(self):
        assert log_line(_trial(1.1, 3.5)).endswith(", Std: 0\n")

    def test_grammar_and_tau_recovery(self):
        for trial in [_trial(0.7, 0.116), _trial(0.95, 66.055, std=1.25)]:
            for include_std in (False, True):
                line = log_line(trial, include_std)
                assert line.endswith("\n") and line.count("\n") == 1, line
                assert LOG_LINE.match(line[:-1]), line
                assert (", Std: " in line) == include_std
                assert extract_tau(line) == trial.tau

    def test_render_is_append_only(self):
        trials = [_trial(0.6 + 0.1 * i, float(i)) for i in range(5)]
        for k in range(1, 5):
            assert render_log(trials[: k + 1]).startswith(render_log(trials[:k]))


class TestTrialStats:
    def test_single(self):
        assert trial_stats([5.0]) == (5.0, 0.0)

    def test_two_values(self):
        mean, std = trial_stats([1.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_constant(self):
        assert trial_stats([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trial_stats([])

    def test_sums_are_uncompensated(self):
        # A left-to-right fold loses the 1.0; Python 3.12's compensated
        # sum() would keep it and give a mean of 1/3.
        assert trial_stats([1e16, 1.0, -1e16])[0] == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30))
    def test_matches_statistics_module(self, scores):
        mean, std = trial_stats(scores)
        assert mean == pytest.approx(statistics.fmean(scores), rel=1e-9, abs=1e-9)
        assert std == pytest.approx(statistics.stdev(scores), rel=1e-9, abs=1e-9)


def _scripted_session(cfg, taus):
    from dataclasses import replace

    cfg = replace(cfg, budget=len(taus))
    backend = ScriptedBackend([f"tau = {t}" for t in taus])
    return run_session(cfg, backend)


class TestSessionRoundTrip:
    @pytest.mark.parametrize("n_trials", [1, 2, 12])
    def test_write_read_equality(self, fast_cfg, tmp_path, n_trials):
        taus = [round(0.5 + 0.1 * i, 3) for i in range(n_trials)]
        session = _scripted_session(fast_cfg, taus)
        assert session.status == "completed"
        path = tmp_path / "s.session.jsonl"
        write_session(session, path)
        assert read_session(path) == session

    def test_write_is_idempotent_bytes(self, fast_cfg, tmp_path):
        session = _scripted_session(fast_cfg, [0.7, 1.1])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_session(session, p1)
        write_session(read_session(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_running_session_round_trip(self, fast_cfg, tmp_path):
        session = TuningSession(config=fast_cfg)
        session.trials = [_trial(0.8, 4.0)]
        path = tmp_path / "running.jsonl"
        write_session(session, path)
        stored = read_session(path)
        assert stored.status == "running"
        assert stored == session

    def test_aborted_session_round_trip(self, fast_cfg, tmp_path):
        session = TuningSession(config=fast_cfg, status="aborted", error="boom")
        path = tmp_path / "aborted.jsonl"
        write_session(session, path)
        stored = read_session(path)
        assert stored.status == "aborted"
        assert stored.error == "boom"

    def test_trial_record_then_log_agree(self, fast_cfg, tmp_path):
        session = _scripted_session(fast_cfg, [0.7])
        trial = session.trials[0]
        mean, std = trial_stats([r.score for r in trial.results])
        assert trial.mean_score == mean
        assert trial.std_score == std


class TestSessionFileErrors:
    def _write_demo(self, cfg, tmp_path, taus=(0.7, 1.1)):
        session = _scripted_session(cfg, list(taus))
        path = tmp_path / "demo.jsonl"
        write_session(session, path)
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptySessionError):
            read_session(path)

    def test_corrupt_middle_line_names_line_and_keeps_prefix(self, fast_cfg, tmp_path):
        path = self._write_demo(fast_cfg, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        trial_lines = [i for i, l in enumerate(lines) if '"record":"trial"' in l]
        corrupt_at = trial_lines[1]
        lines[corrupt_at] = lines[corrupt_at][:25]  # mid-JSON truncation
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        err = exc_info.value
        assert err.line_number == corrupt_at + 1
        assert f"line {corrupt_at + 1}" in str(err)
        assert err.partial is not None
        assert [t.tau for t in err.partial.trials] == [0.7]

    def test_truncated_final_line(self, fast_cfg, tmp_path):
        path = self._write_demo(fast_cfg, tmp_path)
        text = path.read_text(encoding="utf-8").rstrip("\n")
        path.write_text(text[:-10], encoding="utf-8")
        n_lines = len(text.splitlines())
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        assert exc_info.value.line_number == n_lines
        assert len(exc_info.value.partial.trials) == 2

    def test_version_mismatch(self, fast_cfg, tmp_path):
        path = self._write_demo(fast_cfg, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = SCHEMA_VERSION + 1
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaVersionError):
            read_session(path)

    @pytest.mark.parametrize("kind,keys,value", [
        ("header", ("config", "log_std"), "false"),
        ("header", ("config", "replicates"), 2.9),
        ("header", ("config", "budget"), "5"),
        ("header", ("config", "es_template", "sigma0"), None),
        ("trial", ("replicates", 0, "seed"), 1.5),
        ("trial", ("replicates", 0, "best_f"), 10**400),
        ("exchange", ("attempt",), "0"),
    ], ids=["log_std_string", "replicates_float", "budget_string", "sigma0_missing",
            "seed_float", "best_f_overflows", "attempt_string"])
    def test_value_of_the_wrong_type(self, fast_cfg, tmp_path, kind, keys, value):
        # value None deletes the key.
        path = self._write_demo(fast_cfg, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if f'"record":"{kind}"' in line)
        rec = json.loads(lines[at])
        inner = rec
        for key in keys[:-1]:
            inner = inner[key]
        if value is None:
            del inner[keys[-1]]
        else:
            inner[keys[-1]] = value
        lines[at] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        assert exc_info.value.line_number == at + 1
        assert str(exc_info.value).startswith(f"line {at + 1}: ")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"trial","tau":1.0}\n', encoding="utf-8")
        with pytest.raises(SessionFileError):
            read_session(path)


class TestUnknownKeys:
    @pytest.mark.parametrize("kind", ["header", "exchange", "trial", "status"])
    def test_unknown_key_is_ignored(self, fast_cfg, tmp_path, kind):
        session = _scripted_session(fast_cfg, [0.7, 1.1])
        path = tmp_path / "s.jsonl"
        write_session(session, path)
        original = path.read_bytes()

        lines = original.decode("utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if f'"record":"{kind}"' in line)
        rec = json.loads(lines[at])
        rec["future_field"] = {"keep": at}
        lines[at] = json.dumps(rec, separators=(",", ":"))
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")

        stored = read_session(edited)
        assert stored == read_session(path)
        rewritten = tmp_path / "rewritten.jsonl"
        write_session(stored, rewritten)
        assert rewritten.read_bytes() == original
