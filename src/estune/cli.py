"""Command-line surface: tune, grid, and run-es."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .es import ConfigurationError, EsTemplate, NumericalError, ObjectiveSpec, objective_names
from .llm import HttpBackend, LlmBackendConfig, ScriptedBackend, TransportError
from .loop import best_of, run_session, run_trial
from .models import STATUS_COMPLETED, SessionConfig
from .report import GridSpec, emit_csv, emit_plot, run_grid
from .store import format_number, json_value, log_line, render_log

ENDPOINT_ENV_VAR = "ESTUNE_ENDPOINT"
MODEL_ENV_VAR = "ESTUNE_MODEL"
CONFIG_ENV_VAR = "ESTUNE_CONFIG"

# The config file's keys, each with the JSON type its value must have.
_CONFIG_TYPES = {"endpoint": str, "model": str, "temperature": float}

_EPILOG = (
    "HTTP settings resolve as: command-line flags, then ESTUNE_ENDPOINT / "
    "ESTUNE_MODEL environment variables, then the --config JSON file "
    "(keys: endpoint, model, temperature), then built-in defaults. "
    "An optional bearer token is read from ESTUNE_TOKEN only."
)


def _add_es_args(p: argparse.ArgumentParser, replicates: int = SessionConfig.replicates) -> None:
    p.add_argument("--function", default="sphere", choices=objective_names(),
                   help="objective function (default: %(default)s)")
    p.add_argument("--dim", type=int, default=EsTemplate.dimension,
                   help="problem dimension (default: %(default)s)")
    p.add_argument("--generations", type=int, default=EsTemplate.max_generations,
                   help="generations per ES run (default: %(default)s)")
    p.add_argument("--sigma0", type=float, default=EsTemplate.sigma0,
                   help="initial step size (default: %(default)s)")
    p.add_argument("--init-low", type=float, default=EsTemplate.init_low,
                   help="initialization box lower bound (default: %(default)s)")
    p.add_argument("--init-high", type=float, default=EsTemplate.init_high,
                   help="initialization box upper bound (default: %(default)s)")
    p.add_argument("--replicates", type=int, default=replicates,
                   help="ES runs per trial (default: %(default)s)")
    p.add_argument("--seed", type=int, default=1, help="master seed (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estune",
        description="Tune the (1+1)-ES step-size adaptation rate tau via an LLM feedback loop.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run the LLM feedback loop", epilog=_EPILOG)
    _add_es_args(tune)
    tune.add_argument("--budget", type=int, default=SessionConfig.budget,
                      help="number of trials (default: %(default)s)")
    tune.add_argument("--backend", choices=("http", "scripted"), default="http")
    tune.add_argument("--endpoint", default=None, help="chat-completion base URL")
    tune.add_argument("--model", default=None,
                      help=f"model name (default: {LlmBackendConfig.model})")
    tune.add_argument("--temperature", type=float, default=None)
    tune.add_argument("--timeout", type=float, default=LlmBackendConfig.timeout_seconds,
                      help="request timeout in seconds (default: %(default)s)")
    tune.add_argument("--transport-retries", type=int, default=LlmBackendConfig.transport_retries,
                      help="HTTP retries before aborting (default: %(default)s)")
    tune.add_argument("--script", default=None,
                      help="JSON file with an array of scripted responses")
    tune.add_argument("--duplicate-tolerance", type=float,
                      default=SessionConfig.duplicate_tolerance)
    tune.add_argument("--max-propose-retries", type=int, default=SessionConfig.max_propose_retries)
    tune.add_argument("--config", default=None, help="JSON config file (http backend only)")
    tune.add_argument("--out", default="estune_tune", help="output base path")
    tune.set_defaults(func=cmd_tune)

    grid = sub.add_parser("grid", help="sweep tau over an even grid (no LLM)")
    _add_es_args(grid)
    grid.add_argument("--tau-min", type=float, default=GridSpec.tau_min)
    grid.add_argument("--tau-max", type=float, default=GridSpec.tau_max)
    grid.add_argument("--steps", type=int, default=GridSpec.steps)
    grid.add_argument("--out", default="estune_grid", help="output base path")
    grid.set_defaults(func=cmd_grid)

    run_es_p = sub.add_parser("run-es", help="run one trial and print its log line")
    run_es_p.add_argument("--tau", type=float, required=True)
    _add_es_args(run_es_p, replicates=1)
    run_es_p.set_defaults(func=cmd_run_es)

    return parser


def _session_config(args: argparse.Namespace, **settings) -> SessionConfig:
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
        replicates=args.replicates,
        **settings,
    )


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    for key, kind in _CONFIG_TYPES.items():
        if key in data:
            data[key] = json_value(f"config file {path}: {key}", data[key], kind)
    return data


def _backend(args: argparse.Namespace) -> ScriptedBackend | HttpBackend:
    if args.backend == "scripted":
        if not args.script:
            raise ConfigurationError("--backend scripted requires --script FILE")
        try:
            responses = json.loads(Path(args.script).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read script file {args.script}: {exc}") from exc
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise ConfigurationError(f"script file {args.script} must hold a JSON array of strings")
        if not responses:
            raise ConfigurationError(f"script file {args.script} holds no responses")
        return ScriptedBackend(responses)

    # Every key of the config file, and every environment fallback, is an HTTP setting.
    file_cfg = _load_config_file(args.config)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV_VAR) or file_cfg.get("endpoint")
    if not endpoint:
        raise ConfigurationError(
            "http backend needs an endpoint: pass --endpoint, set ESTUNE_ENDPOINT, "
            "or put 'endpoint' in the config file"
        )
    model = args.model or os.environ.get(MODEL_ENV_VAR) or file_cfg.get("model")
    temperature = args.temperature
    if temperature is None:
        temperature = file_cfg.get("temperature", LlmBackendConfig.temperature)
    return HttpBackend(LlmBackendConfig(
        base_url=endpoint,
        model=model or LlmBackendConfig.model,
        temperature=temperature,
        timeout_seconds=args.timeout,
        transport_retries=args.transport_retries,
    ))


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = _session_config(args, budget=args.budget, duplicate_tolerance=args.duplicate_tolerance,
                          max_propose_retries=args.max_propose_retries)
    backend = _backend(args)
    session = run_session(cfg, backend, out_base=args.out)
    if session.status != STATUS_COMPLETED:
        print(f"session aborted: {session.error}", file=sys.stderr)
        return 1
    best = best_of(session.trials)
    print(f"best tau = {format_number(best.tau)} (mean fitness {format_number(best.mean_score)})")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    spec = GridSpec(tau_min=args.tau_min, tau_max=args.tau_max, steps=args.steps)
    cfg = _session_config(args, budget=args.steps)
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
    cfg = _session_config(args, budget=1)
    trial = run_trial(args.tau, cfg, 0)
    sys.stdout.write(log_line(trial, include_std=cfg.log_std))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, TransportError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
