"""Exit codes, determinism, and file outputs of the command line."""

import json
from pathlib import Path

import pytest

from estune.store import read_session, render_log

FIXTURES = Path(__file__).parent / "fixtures"
FAST = ["--dim", "3", "--generations", "25", "--replicates", "2", "--seed", "11"]


def _script_file(tmp_path, responses):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(responses), encoding="utf-8")
    return str(path)


class TestRunEsCommand:
    def test_deterministic_stdout(self, run_cli, capsys):
        argv = ["run-es", "--tau", "0.95", "--replicates", "1", "--seed", "7"] + [
            "--dim", "3", "--generations", "30",
        ]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("tau = 0.95, Fitness: ")
        assert first.endswith("\n")

    def test_single_generation(self, run_cli, capsys):
        assert run_cli(["run-es", "--tau", "0.5", "--generations", "1", "--dim", "2"]) == 0
        assert capsys.readouterr().out.startswith("tau = 0.5, Fitness: ")

    def test_negative_tau_exits_2(self, run_cli):
        assert run_cli(["run-es", "--tau", "-1"] + FAST) == 2

    def test_missing_tau_exits_2(self, run_cli):
        assert run_cli(["run-es"] + FAST) == 2

    @pytest.mark.parametrize("tau", ["101", "1000", "1e308", "nan"])
    def test_tau_above_cap_exits_2(self, run_cli, tau, capsys):
        assert run_cli(["run-es", "--tau", tau] + FAST) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma0", "0"],
            ["--sigma0", "inf"],
            ["--sigma0", "nan"],
            ["--generations", "0"],
            ["--init-high", "inf"],
            ["--init-low=-inf"],
            ["--init-low=-1e308", "--init-high", "1e308"],
        ],
    )
    def test_bad_es_flags_exit_2(self, run_cli, flags, capsys):
        assert run_cli(["run-es", "--tau", "1"] + FAST + flags) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma0", "1e308", "--seed", "1", "--replicates", "4"],
            ["--init-low=-1e200", "--init-high", "1e200", "--generations", "5"],
        ],
    )
    def test_kernel_overflow_exits_1_without_traceback(self, run_cli, flags, capsys):
        code = run_cli(["run-es", "--tau", "1"] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSizeBounds:
    """Sizes past their bounds exit 2 before any run starts.

    The runners are replaced, so a missing bound fails the test instead of
    allocating what the size asks for.
    """

    @pytest.fixture(autouse=True)
    def _no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started past a size bound")

        monkeypatch.setattr("estune.cli.run_trial", refuse)
        monkeypatch.setattr("estune.cli.run_grid", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-es", "--tau", "0.9", "--dim", "100000000000"],
            ["run-es", "--tau", "0.9", "--replicates", "100000000000", "--generations", "1"],
            ["grid", "--steps", "100000000000"],
        ],
        ids=["dim", "replicates", "steps"],
    )
    def test_size_past_its_bound_exits_2(self, run_cli, tmp_path, argv, capsys):
        if argv[0] == "grid":
            argv = argv + ["--out", str(tmp_path / "g")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []


class TestTuneCommand:
    def test_scripted_end_to_end(self, run_cli, tmp_path, capsys):
        script = _script_file(tmp_path, ["tau = 0.7", "I propose a new value tau = 0.95."])
        out = tmp_path / "runs" / "demo"
        code = run_cli(
            ["tune", "--backend", "scripted", "--script", script, "--budget", "2",
             "--out", str(out)] + FAST
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("best tau = ")
        session = read_session(tmp_path / "runs" / "demo.session.jsonl")
        assert session.status == "completed"
        assert [t.tau for t in session.trials] == [0.7, 0.95]
        log = (tmp_path / "runs" / "demo.log").read_text(encoding="utf-8")
        assert log.startswith("tau = 0.7, Fitness: ")

    def test_byte_identical_outputs(self, run_cli, tmp_path):
        script = _script_file(tmp_path, ["tau = 0.7", "tau = 1.2"])
        argv = lambda out: (
            ["tune", "--backend", "scripted", "--script", script, "--budget", "2",
             "--out", str(out)] + FAST
        )
        assert run_cli(argv(tmp_path / "a")) == 0
        assert run_cli(argv(tmp_path / "b")) == 0
        for suffix in (".session.jsonl", ".log"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()

    def test_unknown_function_exits_2(self, run_cli, tmp_path, capsys):
        code = run_cli(["tune", "--function", "rosenbrock", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "sphere" in capsys.readouterr().err

    def test_scripted_without_script_exits_2(self, run_cli, tmp_path):
        assert run_cli(["tune", "--backend", "scripted", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("script,config,flags,env", [
        ([], None, [], None),
        (None, {"endpoint": "http://127.0.0.1:9", "temperature": "warm"}, [], None),
        (None, {"endpoint": "http://127.0.0.1:9", "temperature": None}, [], None),
        (None, {"endpoint": "http://127.0.0.1:9", "temperature": True}, [], None),
        (None, {"endpoint": "http://127.0.0.1:9", "model": ["x"]}, [], None),
        (None, {"endpoint": 9}, [], None),
        # The config is checked before any connection is made.
        (None, None, ["--endpoint", "http://127.0.0.1:9", "--timeout", "inf"], None),
        (None, None, ["--endpoint", "http://127.0.0.1:9", "--timeout", "1e300"], None),
        (None, None, ["--endpoint", "http://127.0.0.1:9", "--timeout", "1e10"], None),
        (None, None, ["--endpoint", "notaurl"], None),
        (None, None, ["--endpoint", "http://[::1"], None),
        (None, None, ["--endpoint", "http://127.0.0.1:99999"], None),
        (None, None, [], "notaurl"),
        (None, {"endpoint": "http://[::1"}, [], None),
    ], ids=["scripted_requires_responses", "temperature_warm", "temperature_null",
            "temperature_true", "model_list", "endpoint_number", "timeout_inf",
            "timeout_1e300", "timeout_1e10", "endpoint_flag_no_scheme",
            "endpoint_flag_open_bracket", "endpoint_flag_port_range", "endpoint_env_no_scheme",
            "endpoint_config_open_bracket"])
    def test_bad_backend_setting_exits_2(self, run_cli, tmp_path, monkeypatch, capsys, script,
                                         config, flags, env):
        import estune.llm as llm

        def no_connection(*args, **kwargs):
            raise AssertionError("a connection was attempted")

        monkeypatch.setattr(llm, "_urlopen", no_connection)
        if env is not None:
            monkeypatch.setenv("ESTUNE_ENDPOINT", env)
        argv = ["tune", "--out", str(tmp_path / "x")] + FAST + flags
        if script is not None:
            argv += ["--backend", "scripted", "--script", _script_file(tmp_path, script)]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "x.session.jsonl").exists()

    @pytest.mark.parametrize("tolerance", ["inf", "100", "1e300"])
    def test_duplicate_tolerance_at_tau_max_exits_2(self, run_cli, tmp_path, capsys, tolerance):
        # Every admissible tau would duplicate the first trial, so every
        # session would abort at its second proposal.
        script = _script_file(tmp_path, ["tau = 0.7", "tau = 1.1"])
        code = run_cli(["tune", "--backend", "scripted", "--script", script, "--budget", "2",
                        "--duplicate-tolerance", tolerance, "--out", str(tmp_path / "x")] + FAST)
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: duplicate_tolerance")
        assert not (tmp_path / "x.session.jsonl").exists()

    def test_http_without_endpoint_exits_2(self, run_cli, tmp_path, capsys):
        code = run_cli(["tune", "--out", str(tmp_path / "x")] + FAST)
        assert code == 2
        assert "ESTUNE_ENDPOINT" in capsys.readouterr().err

    def test_unreachable_endpoint_aborts_with_partial_session(self, run_cli, tmp_path, capsys):
        out = tmp_path / "aborted"
        code = run_cli(
            ["tune", "--backend", "http", "--endpoint", "http://127.0.0.1:9",
             "--transport-retries", "0", "--timeout", "0.5", "--budget", "2",
             "--out", str(out)] + FAST
        )
        assert code == 1
        assert "aborted" in capsys.readouterr().err
        session = read_session(tmp_path / "aborted.session.jsonl")
        assert session.status == "aborted"
        assert session.trials == []
        assert session.error

    def test_oversized_reply_aborts_with_exit_1(self, run_cli, tmp_path, monkeypatch, capsys):
        import io

        import estune.llm as llm

        monkeypatch.setattr(llm, "MAX_RESPONSE_BYTES", 1000)
        monkeypatch.setattr(llm, "_sleep", lambda s: None)

        class Oversized(io.BytesIO):
            status = 200

        monkeypatch.setattr(llm, "_urlopen",
                            lambda request, timeout=None: Oversized(b" " * 1001))
        out = tmp_path / "big"
        code = run_cli(["tune", "--backend", "http", "--endpoint", "http://llm.test",
                        "--out", str(out)] + FAST)
        assert code == 1
        assert "body longer than 1000 bytes" in capsys.readouterr().err
        session = read_session(tmp_path / "big.session.jsonl")
        assert session.status == "aborted"
        assert session.trials == []

    def test_exhausted_script_aborts_with_exit_1(self, run_cli, tmp_path):
        script = _script_file(tmp_path, ["tau = 0.7"])
        code = run_cli(
            ["tune", "--backend", "scripted", "--script", script, "--budget", "2",
             "--out", str(tmp_path / "p")] + FAST
        )
        assert code == 1
        session = read_session(tmp_path / "p.session.jsonl")
        assert session.status == "aborted"
        assert [t.tau for t in session.trials] == [0.7]


    def test_hostile_tau_aborts_with_exit_1_and_files(self, run_cli, tmp_path):
        script = _script_file(tmp_path, ["tau = 1000", "tau = 1e308", "tau = 1000"])
        code = run_cli(
            ["tune", "--backend", "scripted", "--script", script, "--budget", "1",
             "--out", str(tmp_path / "h")] + FAST
        )
        assert code == 1
        session = read_session(tmp_path / "h.session.jsonl")
        assert session.status == "aborted"
        assert "ExtractionError" in session.error
        assert (tmp_path / "h.log").exists()


    def test_kernel_overflow_aborts_with_exit_1_and_files(self, run_cli, tmp_path, capsys):
        script = _script_file(tmp_path, ["tau = 0.7", "tau = 1.2"])
        code = run_cli(
            ["tune", "--backend", "scripted", "--script", script, "--budget", "2",
             "--sigma0", "1e308", "--out", str(tmp_path / "n")] + FAST
        )
        assert code == 1
        assert "NumericalError" in capsys.readouterr().err
        session = read_session(tmp_path / "n.session.jsonl")
        assert session.status == "aborted"
        assert session.error.startswith("NumericalError: ")
        # The exchange that proposed the failing trial is on disk too.
        assert len(session.exchanges) == len(session.trials) + 1
        log = (tmp_path / "n.log").read_text(encoding="utf-8")
        assert log == render_log(session.trials)


class TestGridCommand:
    def test_defaults_write_csv_log_and_plot(self, run_cli, tmp_path, capsys):
        out = tmp_path / "grid"
        code = run_cli(["grid", "--steps", "3", "--out", str(out)] + FAST)
        assert code == 0
        csv_lines = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "tau,mean_fitness,std_fitness,replicates"
        assert len(csv_lines) == 4
        log_lines = (tmp_path / "grid.log").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 3
        assert (tmp_path / "grid.svg").exists()
        assert capsys.readouterr().out.startswith("best tau = ")

    def test_two_step_grid_hits_endpoints(self, run_cli, tmp_path):
        out = tmp_path / "ends"
        assert run_cli(
            ["grid", "--tau-min", "0.5", "--tau-max", "1.5", "--steps", "2",
             "--out", str(out)] + FAST
        ) == 0
        rows = (tmp_path / "ends.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.5", "1.5"]

    def test_inverted_range_exits_2(self, run_cli, tmp_path):
        assert run_cli(
            ["grid", "--tau-min", "1.5", "--tau-max", "0.6", "--out", str(tmp_path / "x")] + FAST
        ) == 2

    def test_tau_max_above_cap_exits_2(self, run_cli, tmp_path, capsys):
        assert run_cli(
            ["grid", "--tau-max", "101", "--out", str(tmp_path / "x")] + FAST
        ) == 2
        assert "usage error" in capsys.readouterr().err

    def test_defaults_match_the_golden_paper_grid(self, run_cli, tmp_path):
        # No flag but the seed: the defaults are the paper setting.
        assert run_cli(["grid", "--seed", "1", "--out", str(tmp_path / "paper")]) == 0
        golden = FIXTURES / "golden_paper_grid"
        for suffix in (".csv", ".log"):
            assert (tmp_path / ("paper" + suffix)).read_bytes() == (
                golden.with_suffix(suffix).read_bytes()
            )

    def test_byte_identical_outputs(self, run_cli, tmp_path):
        argv = lambda out: ["grid", "--steps", "3", "--out", str(out)] + FAST
        assert run_cli(argv(tmp_path / "g1")) == 0
        assert run_cli(argv(tmp_path / "g2")) == 0
        for suffix in (".csv", ".log", ".svg"):
            assert (tmp_path / ("g1" + suffix)).read_bytes() == (
                tmp_path / ("g2" + suffix)
            ).read_bytes()


class TestPrecedence:
    def test_env_endpoint_used_when_flag_absent(self, run_cli, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ESTUNE_ENDPOINT", "http://127.0.0.1:9")
        code = run_cli(
            ["tune", "--transport-retries", "0", "--timeout", "0.5", "--budget", "1",
             "--out", str(tmp_path / "env")] + FAST
        )
        # Reaches the (unreachable) endpoint from the environment: runtime
        # failure, not a usage error.
        assert code == 1

    def test_config_file_endpoint(self, run_cli, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"endpoint": "http://127.0.0.1:9"}), encoding="utf-8")
        code = run_cli(
            ["tune", "--config", str(cfg), "--transport-retries", "0", "--timeout", "0.5",
             "--budget", "1", "--out", str(tmp_path / "file")] + FAST
        )
        assert code == 1

    @pytest.mark.parametrize("via", ["env", "flag"])
    def test_config_file_ignored_by_scripted_backend(self, run_cli, tmp_path, monkeypatch, via):
        # Every config-file key is an HTTP setting, so an offline replay
        # never reads the file.
        missing = str(tmp_path / "nonexistent" / "cfg.json")
        argv = ["tune", "--backend", "scripted", "--script", _script_file(tmp_path, ["tau = 0.7"]),
                "--budget", "1", "--dim", "3", "--generations", "20", "--replicates", "2",
                "--out", str(tmp_path / "replay")]
        if via == "env":
            monkeypatch.setenv("ESTUNE_CONFIG", missing)
        else:
            argv += ["--config", missing]
        assert run_cli(argv) == 0
        assert read_session(tmp_path / "replay.session.jsonl").status == "completed"

    def test_corrupt_config_file_exits_2(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert run_cli(
            ["tune", "--config", str(cfg), "--out", str(tmp_path / "x")] + FAST
        ) == 2


class TestFilesTheCliNames:
    """An output base with no file name or with a NUL byte, and a script or
    config file that cannot be decoded, are usage errors, not tracebacks."""

    @pytest.mark.parametrize("out", ["", ".", "/", "o\x00", "d\x00/o"])
    def test_tune_out_without_file_name_exits_2(self, run_cli, tmp_path, capsys, out):
        script = _script_file(tmp_path, ["tau = 0.7"])
        code = run_cli(["tune", "--backend", "scripted", "--script", script, "--budget", "1",
                        "--out", out] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("out", ["", ".", "/", "g\x00", "d\x00/g"])
    def test_grid_out_without_file_name_exits_2_before_any_run(
        self, run_cli, monkeypatch, capsys, out
    ):
        import estune.cli as cli

        def no_run(*args):
            raise AssertionError("the grid ran before its outputs were named")

        monkeypatch.setattr(cli, "run_grid", no_run)
        assert run_cli(["grid", "--steps", "2", "--out", out] + FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["tune", "grid"])
    def test_out_below_an_existing_file_exits_2_before_any_run(
        self, run_cli, tmp_path, monkeypatch, capsys, command
    ):
        import estune.es as es

        def no_run(*args):
            raise AssertionError("an ES run started before the outputs were named")

        monkeypatch.setattr(es, "run_batch", no_run)
        for name in ("_stepwise", "_screened", "_lockstep"):
            monkeypatch.setattr(es, name, no_run)
        script = _script_file(tmp_path, ["tau = 0.7"])
        before = Path(script).read_bytes()
        args = (["tune", "--backend", "scripted", "--script", script, "--budget", "1"]
                if command == "tune" else ["grid", "--steps", "2"])
        assert run_cli(args + ["--out", script + "/x"] + FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1
        assert Path(script).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [Path(script).name]

    @pytest.mark.parametrize("out", ["x" * 300, "x" * 300 + "/x"], ids=["file", "directory"])
    @pytest.mark.parametrize("command", ["tune", "grid"])
    def test_too_long_file_name_exits_2_before_any_run(
        self, run_cli, tmp_path, monkeypatch, capsys, command, out
    ):
        import estune.loop as loop

        ran, run_batch = [], loop.run_batch
        monkeypatch.setattr(loop, "run_batch", lambda *args: ran.append(args) or run_batch(*args))
        monkeypatch.chdir(tmp_path)
        script = _script_file(tmp_path, ["tau = 0.7"])
        args = (["tune", "--backend", "scripted", "--script", script, "--budget", "1"]
                if command == "tune" else ["grid", "--steps", "2"])
        assert run_cli(args + ["--out", out] + FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [Path(script).name]

    def test_file_name_with_a_line_break_stays_on_one_line(self, run_cli, capsys):
        code = run_cli(["tune", "--endpoint", "http://127.0.0.1:9", "--config", "a\nb\r"] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read config file a\\nb\\r: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"[\"tau = 0.7\xff\"]", b"[" * 100_000, b"[NaN]"],
                             ids=["not_utf8", "nested_too_deep", "nan"])
    def test_undecodable_script_file_exits_2(self, run_cli, tmp_path, capsys, content):
        script = tmp_path / "script.json"
        script.write_bytes(content)
        code = run_cli(["tune", "--backend", "scripted", "--script", str(script),
                        "--out", str(tmp_path / "x")] + FAST)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"usage error: cannot read script file {script}")
        assert not (tmp_path / "x.session.jsonl").exists()

    @pytest.mark.parametrize("content", [b"{\"model\": \"\xff\"}", b"[" * 100_000,
                                         b"{\"temperature\": Infinity}"],
                             ids=["not_utf8", "nested_too_deep", "infinity"])
    def test_undecodable_config_file_exits_2(self, run_cli, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code = run_cli(["tune", "--endpoint", "http://127.0.0.1:9", "--config", str(cfg),
                        "--out", str(tmp_path / "x")] + FAST)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"usage error: cannot read config file {cfg}")
        assert not (tmp_path / "x.session.jsonl").exists()

    def test_too_deep_http_reply_aborts_with_exit_1(self, run_cli, tmp_path, monkeypatch, capsys):
        import io

        import estune.llm as llm

        monkeypatch.setattr(llm, "_sleep", lambda s: None)

        class Nested(io.BytesIO):
            status = 200

        monkeypatch.setattr(llm, "_urlopen",
                            lambda request, timeout=None: Nested(b"[" * 200_000))
        code = run_cli(["tune", "--backend", "http", "--endpoint", "http://llm.test",
                        "--out", str(tmp_path / "deep")] + FAST)
        assert code == 1
        assert "malformed response body" in capsys.readouterr().err
        session = read_session(tmp_path / "deep.session.jsonl")
        assert session.status == "aborted"
        assert session.trials == []
