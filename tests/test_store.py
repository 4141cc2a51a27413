"""Log grammar, trial statistics, and session persistence."""

import itertools
import json
import math
import os
import re
import statistics
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estune.es import ConfigurationError, EsRunResult, EsTemplate, ObjectiveSpec
from estune.llm import (
    ANALYSIS_PREFIX, DUPLICATE_REMINDER, REMINDER_SUFFIX, LlmExchange, ScriptedBackend,
    extract_tau, render_tune_prompt,
)
from estune.loop import run_session
from estune.store import EmptySessionError, SessionConfig, Trial, TuningSession
from estune.store import (
    SCHEMA_VERSION,
    SchemaVersionError,
    SessionFileError,
    decode_json,
    format_number,
    log_line,
    output_paths,
    read_session,
    render_log,
    trial_stats,
    write_session,
)
import estune.store as store_mod

from conftest import FIXTURES
from oracle import encoded_exchange_line, encoded_trial_block, version_1_text

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


def _long_session(cfg, tmp_path):
    """A scripted session of fresh taus, written to ``tmp_path / "long"``."""
    backend = ScriptedBackend([f"tau = {0.5 + i / 1000}" for i in range(cfg.budget)])
    return run_session(cfg, backend, out_base=tmp_path / "long")


def _read_with_peak(path):
    """``read_session(path)`` and the peak memory it allocated."""
    tracemalloc.start()
    try:
        return read_session(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _churn_replies(budget):
    """Replies for ``budget`` proposals: mostly fresh taus, and in every ten
    proposals a duplicate then a fresh tau, an unparseable reply then a
    fresh tau, and, in every other ten, three duplicates that end in the
    1.05x fallback."""
    fresh = (f"tau = {0.4 + 0.00713 * i!r}" for i in itertools.count())
    replies = []
    for k in range(budget):
        if k % 20 == 19:
            replies += [replies[-1]] * 3
        elif k % 10 == 5:
            replies += [replies[-1], next(fresh)]
        elif k % 10 == 7:
            replies += ["nothing to parse", next(fresh)]
        else:
            replies.append(next(fresh))
    return replies


def _scripted_session(cfg, taus):
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

    def test_reading_holds_about_the_file_once(self, fast_cfg, tmp_path):
        # Prompts repeat the log, so a version-1 file grows with the square
        # of its budget; the reader holds the records it built, not the
        # file's bytes and all its lines beside them (about twice the file).
        cfg = replace(fast_cfg, budget=250, replicates=2)
        written = _long_session(cfg, tmp_path)
        path = tmp_path / "long.v1.session.jsonl"
        path.write_text(version_1_text(written), encoding="utf-8")
        size = path.stat().st_size
        assert size >= 2 << 20
        session, peak = _read_with_peak(path)
        assert session == written
        assert peak < 1.3 * size

    def test_a_churn_session_file_is_under_a_tenth_of_its_prompts(self, tmp_path):
        # A version-1 file held every prompt, and an analysis prompt holds
        # the whole log.  A version-2 file stores each prompt by reference.
        cfg = SessionConfig(
            objective=ObjectiveSpec("sphere", 3),
            es_template=EsTemplate(sigma0=1.0, dimension=3, max_generations=20),
            master_seed=7,
            replicates=2,
            budget=200,
        )
        session = run_session(cfg, ScriptedBackend(_churn_replies(cfg.budget)),
                              out_base=tmp_path / "churn")
        assert (session.status, len(session.trials)) == ("completed", cfg.budget)
        assert sum(e.attempt > 0 for e in session.exchanges) >= 50
        assert sum(e.prompt.endswith(DUPLICATE_REMINDER) for e in session.exchanges) >= 30
        prompts = sum(len(e.prompt.encode("utf-8")) for e in session.exchanges)
        path = tmp_path / "churn.session.jsonl"
        assert path.stat().st_size < 0.1 * prompts
        assert read_session(path) == session

    def test_reading_version_2_holds_the_prompts_once(self, fast_cfg, tmp_path):
        # A version-2 file stores each prompt by reference and the reader
        # rebuilds it, so the reader holds what it holds reading the
        # version-1 file, the rebuilt prompts, and not more.
        cfg = replace(fast_cfg, budget=250, replicates=2)
        written = _long_session(cfg, tmp_path)
        path = tmp_path / "long.session.jsonl"
        assert path.stat().st_size < 0.1 * len(version_1_text(written))
        session, peak = _read_with_peak(path)
        assert session == written
        assert peak < 1.3 * len(version_1_text(written))


# Text that json.JSONEncoder escapes: non-ASCII, control characters,
# quotes, backslashes and lone surrogates, among any other characters.
_ANY_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\ud800",
                     "\udfff", "\U0001f600"]),
    st.characters(),
), max_size=20)
# Floats whose JSON text is easy to get wrong, and any other float.
_ANY_FLOAT = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)
_SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def _exchange_at(draw):
    """(exchange, trials before it, their log), its prompt referenced or literal."""
    trials = draw(st.integers(0, 3))
    log = render_log([_trial(0.5 + 0.25 * k, float(k)) for k in range(trials)])
    rendered = ANALYSIS_PREFIX + log if log else render_tune_prompt()
    prompt = draw(st.one_of(
        st.sampled_from([rendered, rendered + REMINDER_SUFFIX]),
        _ANY_TEXT,
        _ANY_TEXT.map(lambda text: rendered + text),
    ))
    exchange = LlmExchange(prompt=prompt, response=draw(_ANY_TEXT),
                           latency_ms=draw(_ANY_FLOAT), timestamp=draw(_ANY_TEXT),
                           attempt=draw(st.integers()))
    return exchange, draw(st.integers()) if draw(st.booleans()) else trials, log


_REPLICATES = st.builds(EsRunResult, seed=_SEEDS, best_f=_ANY_FLOAT, score=_ANY_FLOAT,
                        final_sigma=_ANY_FLOAT, generations_run=st.integers(0, 10**6))


def _keys(line):
    """The keys of a record line, and of each of its replicates, in order."""
    pairs = json.loads(line, object_pairs_hook=lambda pairs: pairs)
    keys = [key for key, _ in pairs]
    replicates = dict(pairs).get("replicates", [])
    return keys, [[key for key, _ in r] for r in replicates]


class TestRecordTemplates:
    """The exchange and trial templates against ``json.JSONEncoder``."""

    @settings(max_examples=300)
    @given(_exchange_at())
    def test_exchange_line_is_the_encoders(self, drawn):
        exchange, trials_before, log = drawn
        line = store_mod._exchange_line(exchange, trials_before, log)
        assert line == encoded_exchange_line(exchange, trials_before, log)
        names = [f.name for f in fields(LlmExchange)]
        if store_mod._reminded(exchange.prompt, log) is None:
            assert _keys(line) == (["record", *names], [])
        else:
            assert _keys(line) == (["record", "prompt_trials", "reminder", *names[1:]], [])

    @settings(max_examples=300)
    @given(
        st.builds(Trial, tau=_ANY_FLOAT, results=st.lists(_REPLICATES, min_size=1, max_size=3),
                  mean_score=_ANY_FLOAT, std_score=_ANY_FLOAT,
                  exchanges=st.lists(_exchange_at().map(lambda drawn: drawn[0]), max_size=2)),
        st.integers(0, 3),
    )
    def test_trial_block_is_the_encoders(self, trial, trials_before):
        log = render_log([_trial(0.5 + 0.25 * k, float(k)) for k in range(trials_before)])
        block = store_mod._trial_block(trial, trials_before, log)
        assert block == encoded_trial_block(trial, trials_before, log)
        *_, line = block.splitlines()
        names = [f.name for f in fields(Trial) if f.name != "exchanges"]
        assert _keys(line) == (
            ["record", *("replicates" if name == "results" else name for name in names)],
            [[f.name for f in fields(EsRunResult)]] * len(trial.results),
        )


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

    @pytest.mark.parametrize("digest", ["0" * 64, None], ids=["other", "missing"])
    def test_prompt_templates_of_another_build(self, fast_cfg, tmp_path, digest):
        # A version-2 file whose prompts were rendered from other templates
        # cannot rebuild them: refused at its header.
        path = self._write_demo(fast_cfg, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["schema_version"] == SCHEMA_VERSION == 2
        if digest is None:
            del header["prompts_sha256"]
        else:
            header["prompts_sha256"] = digest
        lines[0] = json.dumps(header, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        err = exc_info.value
        assert not isinstance(err, SchemaVersionError)
        assert err.line_number == 1 and err.partial is None
        assert str(err).startswith(f"line 1: prompts_sha256 {digest!r} is not this build's ")

    def test_a_version_1_header_needs_no_digest(self, fast_cfg, tmp_path):
        session = _scripted_session(fast_cfg, [0.7, 1.1])
        path = tmp_path / "v1.jsonl"
        path.write_text(version_1_text(session), encoding="utf-8")
        assert '"prompts_sha256"' not in path.read_text(encoding="utf-8")
        assert read_session(path) == session

    @pytest.mark.parametrize("kind,keys,value", [
        ("header", ("config", "log_std"), "false"),
        ("header", ("config", "replicates"), 2.9),
        ("header", ("config", "budget"), "5"),
        ("header", ("config", "es_template", "sigma0"), None),
        ("trial", ("replicates", 0, "seed"), 1.5),
        ("trial", ("replicates", 0, "best_f"), 10**400),
        ("exchange", ("attempt",), "0"),
        ("exchange", ("prompt_trials",), 1),
        ("exchange", ("prompt_trials",), 0.0),
        ("exchange", ("reminder",), 0),
        ("exchange", ("reminder",), None),
    ], ids=["log_std_string", "replicates_float", "budget_string", "sigma0_missing",
            "seed_float", "best_f_overflows", "attempt_string", "prompt_trials_elsewhere",
            "prompt_trials_float", "reminder_int", "reminder_missing"])
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

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        lines = (FIXTURES / "golden_completed.session.jsonl").read_bytes().splitlines(True)
        lines[3] = lines[3][:40] + b"\xff" + lines[3][40:]  # the exchange after the first trial
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        err = exc_info.value
        assert err.line_number == 4
        assert str(err).startswith("line 4: not UTF-8: ")
        assert [t.tau for t in err.partial.trials] == [0.7]

    def test_nan_tau_names_its_line(self, tmp_path):
        lines = (FIXTURES / "golden_completed.session.jsonl").read_bytes().splitlines(True)
        assert lines[2].startswith(b'{"record":"trial","tau":0.7,')
        lines[2] = lines[2].replace(b'"tau":0.7,', b'"tau":NaN,', 1)
        path = tmp_path / "nan.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        err = exc_info.value
        assert err.line_number == 3
        assert str(err).startswith("line 3: invalid JSON: NaN")
        assert err.partial.trials == [] and len(err.partial.pending_exchanges) == 1

    def test_deeply_nested_header_names_line_1(self, tmp_path):
        lines = (FIXTURES / "golden_completed.session.jsonl").read_bytes().splitlines(True)
        path = tmp_path / "nested.jsonl"
        path.write_bytes(b"[" * 200000 + b"\n" + b"".join(lines[1:]))
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        assert exc_info.value.line_number == 1
        assert str(exc_info.value).startswith("line 1: invalid JSON: ")
        assert exc_info.value.partial is None

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


class TestDecodeJson:
    def test_value_of_utf8_json(self):
        assert decode_json('{"tau": [0.7, "\u00e9"]}'.encode("utf-8")) == {"tau": [0.7, "\u00e9"]}

    @pytest.mark.parametrize("raw,prefix", [
        (b'["\xff"]', "not UTF-8: "),
        (b"{not json", "invalid JSON: "),
        (b"[" * 100_000, "invalid JSON: "),
        (b"1" * 5000, "invalid JSON: "),
        (b"NaN", "invalid JSON: "),
        (b"[Infinity]", "invalid JSON: "),
        (b'{"tau": -Infinity}', "invalid JSON: "),
    ], ids=["not_utf8", "syntax", "nested_too_deep", "integer_too_long", "nan", "infinity",
            "minus_infinity"])
    def test_failures_are_value_errors_named_by_prefix(self, raw, prefix):
        with pytest.raises(ValueError) as exc_info:
            decode_json(raw)
        assert type(exc_info.value) is ValueError
        assert str(exc_info.value).startswith(prefix)

    def test_too_long_integer_in_a_session_file_names_its_line(self, tmp_path):
        lines = (FIXTURES / "golden_completed.session.jsonl").read_bytes().splitlines(True)
        path = tmp_path / "long.jsonl"
        path.write_bytes(lines[0] + b'{"record":"trial","tau":' + b"1" * 5000 + b"}\n")
        with pytest.raises(SessionFileError) as exc_info:
            read_session(path)
        assert str(exc_info.value).startswith("line 2: invalid JSON: ")
        assert exc_info.value.partial.trials == []


class TestOutputPaths:
    def test_suffixes_name_siblings_and_make_the_directory(self, tmp_path):
        base = tmp_path / "runs" / "demo"
        assert output_paths(base, ".csv", ".log") == [
            tmp_path / "runs" / "demo.csv", tmp_path / "runs" / "demo.log",
        ]
        assert (tmp_path / "runs").is_dir()

    @pytest.mark.parametrize("out", ["", ".", "..", "/", "runs/..", "o\x00", "d\x00/o"])
    def test_base_without_file_name_is_a_configuration_error(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError):
            output_paths(out, ".log")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["x", "new/x", "new/d/x"])
    def test_file_name_longer_than_the_filesystem_allows(self, tmp_path, monkeypatch, out):
        # The limit is checked on the longest name the suffixes give, and on
        # each directory still to be made, on the filesystem of the nearest
        # existing directory.
        monkeypatch.chdir(tmp_path)
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        fits = out + "x" * (limit - len("x.session.jsonl"))
        with pytest.raises(ConfigurationError, match=f"a name of {limit + 1} bytes"):
            output_paths(fits + "x", ".log", ".session.jsonl")
        with pytest.raises(ConfigurationError, match=f"a name of {limit + 1} bytes"):
            output_paths("d" * (limit + 1) + "/" + out, ".log")
        assert list(tmp_path.iterdir()) == []
        assert len(output_paths(fits, ".log", ".session.jsonl")[1].name) == limit

    @pytest.mark.parametrize("out", ["script.json/x", "script.json/d/x", "d/script.json/x"])
    def test_base_below_a_file_is_a_configuration_error(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        for name in ("script.json", "d/script.json"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(b"[]")
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ConfigurationError, match="below a non-directory"):
            output_paths(out, ".log")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "script.json").read_bytes() == b"[]"
