"""Command-line surface: tune, grid, and run-es."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .es import TAU_MAX, EsTemplate, ObjectiveSpec, objective_names
from .llm import LlmBackendConfig, TransportError, make_backend
from .loop import best_of, best_trial, run_session, run_trial
from .models import STATUS_COMPLETED, SessionConfig
from .report import GridSpec, emit_csv, emit_plot, run_grid
from .store import append_log_line, format_number, render_log

ENDPOINT_ENV_VAR = "ESTUNE_ENDPOINT"
MODEL_ENV_VAR = "ESTUNE_MODEL"
CONFIG_ENV_VAR = "ESTUNE_CONFIG"

_EPILOG = (
    "Settings resolve as: command-line flags, then ESTUNE_ENDPOINT / "
    "ESTUNE_MODEL environment variables, then the --config JSON file "
    "(keys: endpoint, model, temperature), then built-in defaults. "
    "An optional bearer token is read from ESTUNE_TOKEN only."
)


class UsageError(Exception):
    pass


def _add_es_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", default="sphere", choices=objective_names(),
                   help="objective function (default: sphere)")
    p.add_argument("--dim", type=int, default=5, help="problem dimension (default: 5)")
    p.add_argument("--generations", type=int, default=1000,
                   help="generations per ES run (default: 1000)")
    p.add_argument("--sigma0", type=float, default=1.0,
                   help="initial step size (default: 1.0)")
    p.add_argument("--init-low", type=float, default=-5.0,
                   help="initialization box lower bound (default: -5)")
    p.add_argument("--init-high", type=float, default=5.0,
                   help="initialization box upper bound (default: 5)")
    p.add_argument("--replicates", type=int, default=None,
                   help="ES runs per trial (default: 10; run-es: 1)")
    p.add_argument("--seed", type=int, default=1, help="master seed (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estune",
        description="Tune the (1+1)-ES step-size adaptation rate tau via an LLM feedback loop.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run the LLM feedback loop", epilog=_EPILOG)
    _add_es_args(tune)
    tune.add_argument("--budget", type=int, default=12, help="number of trials (default: 12)")
    tune.add_argument("--backend", choices=("http", "scripted"), default="http")
    tune.add_argument("--endpoint", default=None, help="chat-completion base URL")
    tune.add_argument("--model", default=None, help="model name (default: llama3)")
    tune.add_argument("--temperature", type=float, default=None)
    tune.add_argument("--timeout", type=float, default=60.0,
                      help="request timeout in seconds (default: 60)")
    tune.add_argument("--transport-retries", type=int, default=2,
                      help="HTTP retries before aborting (default: 2)")
    tune.add_argument("--script", default=None,
                      help="JSON file with an array of scripted responses")
    tune.add_argument("--duplicate-tolerance", type=float, default=1e-9)
    tune.add_argument("--max-propose-retries", type=int, default=2)
    tune.add_argument("--config", default=None, help="JSON config file")
    tune.add_argument("--out", default="estune_tune", help="output base path")
    tune.set_defaults(func=cmd_tune, default_replicates=10)

    grid = sub.add_parser("grid", help="sweep tau over an even grid (no LLM)")
    _add_es_args(grid)
    grid.add_argument("--tau-min", type=float, default=0.6)
    grid.add_argument("--tau-max", type=float, default=1.5)
    grid.add_argument("--steps", type=int, default=10)
    grid.add_argument("--out", default="estune_grid", help="output base path")
    grid.set_defaults(func=cmd_grid, default_replicates=10)

    run_es_p = sub.add_parser("run-es", help="run one trial and print its log line")
    run_es_p.add_argument("--tau", type=float, required=True)
    _add_es_args(run_es_p)
    run_es_p.set_defaults(func=cmd_run_es, default_replicates=1)

    return parser


def _session_config(args: argparse.Namespace, budget: int) -> SessionConfig:
    replicates = args.replicates if args.replicates is not None else args.default_replicates
    try:
        return SessionConfig(
            objective=ObjectiveSpec(name=args.function, dimension=args.dim),
            es_template=EsTemplate(
                sigma0=args.sigma0,
                dimension=args.dim,
                max_generations=args.generations,
                init_low=args.init_low,
                init_high=args.init_high,
            ),
            master_seed=args.seed,
            replicates=replicates,
            budget=budget,
            duplicate_tolerance=getattr(args, "duplicate_tolerance", 1e-9),
            max_propose_retries=getattr(args, "max_propose_retries", 2),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _backend_config(args: argparse.Namespace) -> LlmBackendConfig:
    file_cfg = _load_config_file(args.config)
    if args.backend == "scripted":
        if not args.script:
            raise UsageError("--backend scripted requires --script FILE")
        try:
            responses = json.loads(Path(args.script).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read script file {args.script}: {exc}") from exc
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise UsageError(f"script file {args.script} must hold a JSON array of strings")
        return LlmBackendConfig(kind="scripted", scripted_responses=tuple(responses))

    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV_VAR) or file_cfg.get("endpoint")
    if not endpoint:
        raise UsageError(
            "http backend needs an endpoint: pass --endpoint, set ESTUNE_ENDPOINT, "
            "or put 'endpoint' in the config file"
        )
    model = args.model or os.environ.get(MODEL_ENV_VAR) or file_cfg.get("model") or "llama3"
    temperature = args.temperature
    if temperature is None:
        temperature = float(file_cfg.get("temperature", 0.7))
    try:
        return LlmBackendConfig(
            kind="http",
            base_url=str(endpoint),
            model=str(model),
            temperature=temperature,
            timeout_seconds=args.timeout,
            transport_retries=args.transport_retries,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_tune(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    cfg = _session_config(args, budget=args.budget)
    backend = make_backend(_backend_config(args))
    session = run_session(cfg, backend, out_base=args.out)
    if session.status != STATUS_COMPLETED:
        print(f"session aborted: {session.error}", file=sys.stderr)
        return 1
    best = best_trial(session)
    print(f"best tau = {format_number(best.tau)} (mean fitness {format_number(best.mean_score)})")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    try:
        spec = GridSpec(tau_min=args.tau_min, tau_max=args.tau_max, steps=args.steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cfg = _session_config(args, budget=max(args.steps, 1))
    trials = run_grid(spec, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(trials, out.with_name(out.name + ".csv"))
    out.with_name(out.name + ".log").write_text(render_log(trials), encoding="utf-8")
    best = best_of(trials)
    emit_plot(trials, out.with_name(out.name + ".svg"), best_tau=best.tau)
    print(f"best tau = {format_number(best.tau)} (mean fitness {format_number(best.mean_score)})")
    return 0


def cmd_run_es(args: argparse.Namespace) -> int:
    if not (0 < args.tau <= TAU_MAX):
        raise UsageError(f"--tau must be > 0 and <= {TAU_MAX}")
    cfg = _session_config(args, budget=1)
    trial = run_trial(args.tau, cfg, 0)
    sys.stdout.write(append_log_line(trial, "", include_std=cfg.log_std))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
