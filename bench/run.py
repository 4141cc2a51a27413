"""The estune benchmark: one command, every workload, outputs checked.

    python3 bench/run.py [--workload paper_grid|churn_session|wide_session|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own fresh worker process, one at a time, with no
threads.  With ``--trace 0`` the end-to-end metrics listed in
BENCHMARK.json are measured with tracing off:

* ``setup_s``: fresh interpreter to ready (``import estune``, configs and
  generated inputs), the median of several separate starts, each at the
  reference speed of slices the fresh process runs once ready;
* ``trials_per_s``: logged trials over the wall time of one pass;
* ``trial_ms_p50`` / ``trial_ms_p90``: per-trial latency over the trials of
  one pass (see workloads.py for where a trial starts and ends);
* ``peak_rss_mb``: ``ru_maxrss`` of the worker process.

A run repeats passes over identical inputs for ``--seconds`` and keeps, for
each timed piece of a pass, its median time over the repeats.  The machine's
speed drifts by tens of percent within seconds, so every time is reported
at reference speed: scaled by a fixed reference workload sampled while the
passes run (see reference.py).

With ``--trace 1`` the per-layer metrics come from a traced run (see
tracer.py), with the tracing overhead against untraced passes of the same
inputs; the spans are written to ``.bench_out/``.

Every pass goes through the correctness gate (see gate.py).  A gate failure
is printed, counted in ``failed`` and makes the exit code 1.  The
``churn_session`` run also feeds hostile replies to one-trial sessions; what
they raise is reported in ``error_rate`` on its own line, not as a failed
workload operation.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "churn_session", "wide_session")
SETUP_STARTS = 12
TIME_LIMIT_S = 170.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _worker(mode: str, workload: str, args, out_dir: Path, stamp: dict) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", str(out_dir),
            "--stamp", json.dumps(stamp)]


def setup_seconds(cmd: list[str], starts: int) -> list[float]:
    """Times from process start to its "ready" line, over fresh starts, each
    less and at the reference speed of the slices the process ran."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup start failed: {line!r}, exit {proc.returncode}")
        slices = json.loads(rest)
        times.append(at_reference_speed(elapsed - slices["spent_s"], slices["slice_s"]))
    return times


def run_workload(workload: str, args, out_dir: Path, stamp: dict, deadline: float) -> dict:
    """The timed run in a fresh worker, with fresh setup starts around it.

    Half the setup starts come before the run and half after, so their
    median spans the run's window instead of one short stretch of machine
    speed.
    """
    setup_cmd = _worker("setup", workload, args, out_dir, stamp)
    setup = [] if args.trace else setup_seconds(setup_cmd, SETUP_STARTS // 2)
    proc = subprocess.run(_worker("run", workload, args, out_dir, stamp),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += setup_seconds(setup_cmd, SETUP_STARTS - len(setup))
        result["setup_s"] = statistics.median(setup)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, r: dict, spec: dict, trace: int) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    probe_failed = r["probe_failed"]
    attempted = r["attempted"] + len(r["probe"])
    failed = r["failed"] + probe_failed
    metrics, notes = {}, {}
    if trace:
        declared = spec["per_layer"]
        values = r["metrics"]
        wall = values["trace.wall_ms"]
        for layer in ("es", "loop", "llm", "store", "report"):
            notes[f"{layer}.self_ms"] = f"{values[layer + '.self_ms'] / wall:.1%} of traced pass wall"
        notes["trace.overhead_ms"] = f"median of {r['_passes']} traced minus untraced passes"
    else:
        declared = spec["end_to_end"]
        values = {k: r[k] for k in ("setup_s", "trials_per_s", "trial_ms_p50",
                                    "trial_ms_p90", "peak_rss_mb")}
        beyond = r["_latency_samples"] - int(0.9 * r["_latency_samples"])
        notes = {
            "setup_s": f"median of {SETUP_STARTS} fresh starts",
            "trials_per_s": f"median of {r['_passes']} passes per piece, {r['slices']} slices",
            "trial_ms_p50": f"{r['_latency_samples']} samples",
            "trial_ms_p90": f"{r['_latency_samples']} samples, {beyond} beyond p90",
            "peak_rss_mb": "one fresh process",
        }
    print(f"# {workload}")
    for m in declared:
        if m["name"] not in values:
            print(f"  {m['name']:<28} absent (wrapped function no longer exists)")
            continue
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {_fmt(value):>12} {m['unit']:<10} {notes.get(m['name'], '')}")
    print(f"  {'error_rate':<28} {_fmt(failed / attempted):>12} {'ratio':<10} "
          f"{failed} failed of {attempted} attempted "
          f"(gate {r['failed']} of {r['attempted']}, hostile probe {probe_failed} of {len(r['probe'])})")
    for name, outcome in r["probe"].items():
        print(f"    probe {name}: {outcome}")
    for error in r["errors"]:
        print(f"    GATE FAILED: {error}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "estune" / "__init__.py").is_file():
        print(f"error: no estune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stamp = {"git_sha": _git_sha(), "python": platform.python_version(),
             "cpus": os.cpu_count()}
    out_dir = ROOT / ".bench_out"
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {w: run_workload(w, args, out_dir, stamp, time.monotonic() + TIME_LIMIT_S)
               for w in chosen}
    stamp["numpy"] = next(iter(results.values()))["numpy"]
    print("# " + "  ".join(f"{k} {v}" for k, v in stamp.items())
          + f"  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    metrics = {}
    for workload, r in results.items():
        found = report(workload, r, spec, args.trace)
        if args.workload == "all":
            found = {f"{workload}.{k}": v for k, v in found.items()}
        metrics.update(found)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
