"""One fresh process per workload; started by run.py, not meant to be run by hand.

    worker.py setup --workload W --seed N
        set up exactly as a measured run does, print "ready", then the time
        spent in reference slices during set-up and their mean, and exit
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
        measure, then print one JSON object as the last line

A run first makes a warm-up pass on the default-seed inputs, whose output
bytes are checked against the recorded digests, then times passes on the
``--seed`` inputs until ``--seconds`` have elapsed.  Every pass goes through
the correctness gate.  With ``--trace 0`` reference slices sample the
machine's speed while the passes run (see reference.py).  With ``--trace 1``
untraced and traced passes take turns, without slices, so the difference
between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from reference import (at_reference_speed, reference_slice, slice_near,  # noqa: E402
                       start_sampling, stop_sampling)

# Set-up is timed with reference slices running from here to "ready" (see
# setup_s in run.py); the slices need numpy, so its import runs unsampled.
# The first slice pays for first use: it runs outside the sample.
_SETUP_SPENT = reference_slice()
_SETUP_SLICES = start_sampling()
# Slices after "ready" top up a set-up too short to hold this many.
SETUP_SLICES_MIN = 10

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def setup(workload: str, seed: int):
    """Everything a run needs before its first pass; timed as setup_s."""
    return (workloads.make_inputs(workload, workloads.DEFAULT_SEED),
            workloads.make_inputs(workload, seed))


class Run:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.oracle_rng = random.Random(f"oracle:{workload}:{seed}")
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, result, digest: bool = False) -> None:
        runs = [(s.config, s.trials) for s, _ in result.sessions] + result.grids
        checks = [gate.check_oracle(runs, self.oracle_rng), gate.check_sessions(result.sessions)]
        if digest:
            checks.append(gate.check_digest(self.workload, result.outputs))
        self.attempted += result.trials + gate.ORACLE_SAMPLES + len(result.sessions) + digest
        for errors in checks:
            self.errors += errors
        # The gate is their only reader; kept, they would grow the heap (and
        # the cost of each garbage collection) with every pass.
        result.sessions.clear()
        result.grids.clear()

    def run_pass(self, inputs):
        """One pass, started from a collected heap like a fresh session."""
        gc.collect()
        return workloads.run_pass(self.workload, inputs, self.out_dir)

    def passes(self, inputs, until: float):
        """Timed passes, at least one, until the clock passes ``until``."""
        results = []
        while not results or time.perf_counter() < until:
            result = self.run_pass(inputs)
            self.check(result)
            results.append(result)
        return results


def _pct(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, slices: list[tuple]) -> dict:
    """Each piece's median time over the passes, at the reference speed of
    the slices run during and around it, then rates and percentiles over
    the pieces."""
    sizes = results[0].piece_trials
    if any(r.piece_trials != sizes for r in results):
        raise RuntimeError("passes over identical inputs timed different pieces")
    scaled = [[at_reference_speed(end - start, slice_near(slices, start, end))
               for start, end in r.pieces] for r in results]
    typical = [statistics.median(times) for times in zip(*scaled)]
    latencies = [s * 1000.0 for s, n in zip(typical, sizes) for _ in range(n)]
    return {
        "trials_per_s": sum(sizes) / sum(typical),
        "trial_ms_p50": statistics.median(latencies),
        "trial_ms_p90": _pct(latencies, 90),
        "_passes": len(results),
        "_latency_samples": len(latencies),
    }


def per_layer(summary: dict, result) -> dict:
    """The per-layer metrics of one traced pass; absent names are left out."""
    m = {}

    def put(name, *fields):
        if name in summary:
            for field in fields:
                m[f"{name}.{field}"] = summary[name].get(field, 0)

    for name in ("es.run_es", "es.sphere_eval", "es.mutate", "es.update_sigma"):
        put(name, "calls", "ms")
    put("loop.run_trial", "calls", "ms", "self_ms")
    put("loop.propose_next_tau", "ms")
    put("loop.run_session", "self_ms")
    put("llm.send", "calls")
    put("llm.extract_tau", "calls", "failures", "ms")
    put("llm.render_prompt", "ms")
    put("store.write_session", "calls", "ms")
    put("store.render_log", "calls", "ms")
    put("store.read_session", "ms")
    for name in ("report.run_grid", "report.emit_csv", "report.emit_plot"):
        put(name, "ms")
    if "es.run_es" in summary:
        run_es_s = summary["es.run_es"]["ms"] / 1000.0
        m["es.gens_per_s"] = summary["_generations"] / run_es_s if run_es_s else 0.0
    if "store.write_session" in summary:
        m["store.bytes_written"] = summary["_bytes_written"]
    m["loop.exchanges_per_trial"] = result.sends / result.trials
    m["loop.fallback_trials"] = result.fallback_trials
    m["llm.prompt_bytes"] = result.prompt_bytes / result.trials
    for layer in ("es", "loop", "llm", "store", "report"):
        m[f"{layer}.self_ms"] = sum(row["self_ms"] for name, row in summary.items()
                                    if name.startswith(layer + "."))
    return m


def traced(run: Run, inputs, seconds: float, spans_path: Path, stamp: dict) -> dict:
    """Untraced and traced passes in turn, so drift falls on both alike."""
    tracer = Tracer()
    plain, layers, walls = [], [], []
    until = time.perf_counter() + seconds
    while not walls or time.perf_counter() < until:
        result = run.run_pass(inputs)
        run.check(result)
        plain.append(result.wall_s)
        with tracer:
            mark = tracer.mark()
            result = run.run_pass(inputs)
            summary = tracer.summary(mark)
            # The gate's read-back runs after the pass; report it with the pass.
            mark = tracer.mark()
            run.check(result)
            readback = tracer.summary(mark)
        if "store.read_session" in readback:
            summary["store.read_session"] = readback["store.read_session"]
        layers.append(per_layer(summary, result))
        walls.append(result.wall_s)
    tracer.dump(spans_path, stamp)
    metrics = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
    plain_ms = statistics.median(plain) * 1000.0
    traced_ms = statistics.median(walls) * 1000.0
    metrics["trace.wall_ms"] = traced_ms
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    return {"metrics": metrics, "absent": sorted(tracer.absent), "_passes": len(walls)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--stamp", default="{}")
    args = parser.parse_args()

    default_inputs, inputs = setup(args.workload, args.seed)
    stop_sampling()
    if args.mode == "setup":
        print("ready", flush=True)
        slices = [s for _, s in _SETUP_SLICES]
        spent = _SETUP_SPENT + sum(slices)
        slices += [reference_slice() for _ in range(SETUP_SLICES_MIN - len(slices))]
        print(json.dumps({"spent_s": spent, "slice_s": statistics.fmean(slices)}))
        return 0

    args.out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="files-", dir=args.out_dir))
    try:
        run = Run(args.workload, args.seed, scratch)
        warm = run.run_pass(default_inputs)
        run.check(warm, digest=True)
        out = {"numpy": numpy.__version__}
        if args.trace:
            stamp = dict(json.loads(args.stamp), numpy=numpy.__version__)
            spans = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            out.update(traced(run, inputs, args.seconds, spans, stamp))
        else:
            slices = start_sampling()
            try:
                results = run.passes(inputs, time.perf_counter() + args.seconds)
            finally:
                stop_sampling()
            out.update(end_to_end(results, slices), slices=len(slices))
        probe = gate.hostile_probe(scratch) if args.workload == "churn_session" else {}
        probe_failed = sum(outcome not in gate.PROBE_OK for outcome in probe.values())
        if args.trace:
            out["metrics"]["probe.attempted"] = len(probe)
            out["metrics"]["probe.failures"] = probe_failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.update(
        attempted=run.attempted,
        failed=len(run.errors),
        errors=run.errors,
        probe=probe,
        probe_failed=probe_failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
