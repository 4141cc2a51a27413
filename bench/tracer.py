"""Traced runs: spans and counters recorded from outside the program.

The tracer replaces module attributes at the place each caller looks them
up (``estune.loop.run_es``, ``estune.es.mutate``, the ``"sphere"`` entry of
the objective registry, ...) and puts the originals back afterwards.

* Calls at trial granularity and above become spans: name, start, end and
  the index of the enclosing span.  They stay in memory until ``dump``.
* Per-generation leaves (``mutate``, ``sphere_eval``, ``update_sigma``) are
  only counted and timed in aggregate; one span per generation would
  dominate memory.  Their time is charged to the enclosing span as child
  time, so self time is span time minus spans and leaves inside it.

A name that no longer exists is skipped and listed in ``absent``; its
metrics are then left out of the report instead of failing the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import estune.cli as cli_mod
import estune.es as es_mod
import estune.llm as llm_mod
import estune.loop as loop_mod
import estune.report as report_mod
import estune.store as store_mod

_clock = time.perf_counter_ns

# (module, attribute, span name); several call sites may feed one span name.
_SPANS = (
    (loop_mod, "run_es", "es.run_es"),
    (report_mod, "run_trial", "loop.run_trial"),
    (loop_mod, "run_trial", "loop.run_trial"),
    (loop_mod, "propose_next_tau", "loop.propose_next_tau"),
    (loop_mod, "run_session", "loop.run_session"),
    (llm_mod.ScriptedBackend, "send", "llm.send"),
    (loop_mod, "extract_tau", "llm.extract_tau"),
    (loop_mod, "render_tune_prompt", "llm.render_prompt"),
    (loop_mod, "render_analysis_prompt", "llm.render_prompt"),
    (loop_mod, "write_session", "store.write_session"),
    (loop_mod, "render_log", "store.render_log"),
    (store_mod, "render_log", "store.render_log"),
    (store_mod, "read_session", "store.read_session"),
    (report_mod, "run_grid", "report.run_grid"),
    (report_mod, "emit_csv", "report.emit_csv"),
    (report_mod, "emit_plot", "report.emit_plot"),
)
_LEAVES = (
    (es_mod, "mutate", "es.mutate"),
    (es_mod, "update_sigma", "es.update_sigma"),
)
# The objective is not looked up by attribute: run_es fetches it from the
# registry by name, so it is wrapped there.
_OBJECTIVE = ("sphere", "es.sphere_eval")

SPAN_NAMES = sorted({name for _, _, name in _SPANS})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent]
        self.child_ns: list[int] = []    # time covered by children, per span
        self.failures: dict[str, int] = defaultdict(int)
        self.leaves: dict[str, list[int]] = {}   # name -> [calls, ns]
        self.generations = 0
        self.bytes_written = 0
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        spans, child_ns, stack = self.spans, self.child_ns, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            record = [name, 0, 0, parent]
            spans.append(record)
            child_ns.append(0)
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    child_ns[parent] += end - start
            self._after(name, args, result)
            return result

        return wrapper

    def _after(self, name, args, result):
        if name == "es.run_es":
            self.generations += result.generations_run
        elif name == "store.write_session":
            self.bytes_written += os.path.getsize(args[1])

    def _leaf(self, name, fn):
        cell = self.leaves.setdefault(name, [0, 0])
        child_ns, stack = self.child_ns, self._stack

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    child_ns[stack[-1]] += elapsed

        return wrapper

    # -- install / restore -----------------------------------------------

    def install(self):
        for owner, attr, name in _SPANS:
            self._replace(owner, attr, name, self._span)
        for owner, attr, name in _LEAVES:
            self._replace(owner, attr, name, self._leaf)
        key, name = _OBJECTIVE
        try:
            original = es_mod.get_objective(key)
        except (AttributeError, es_mod.ConfigurationError):
            self.absent.add(name)
        else:
            es_mod.register_objective(key, self._leaf(name, original))
            self._saved.append((None, key, original))

    def _replace(self, owner, attr, name, wrap):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        setattr(owner, attr, wrap(name, original))
        self._saved.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            if owner is None:
                es_mod.register_objective(attr, original)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results ---------------------------------------------------------

    def mark(self) -> tuple:
        """Counter state, so one pass can be reported as a difference."""
        return (len(self.spans), {k: list(v) for k, v in self.leaves.items()},
                dict(self.failures), self.generations, self.bytes_written)

    def summary(self, since: tuple) -> dict:
        """Per-name calls, total ms and self ms for spans opened after ``since``."""
        first, leaves0, failures0, gens0, bytes0 = since
        out: dict[str, dict] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - self.child_ns[idx]) / 1e6
        for name, (calls, ns) in self.leaves.items():
            c0, ns0 = leaves0.get(name, (0, 0))
            ms = (ns - ns0) / 1e6
            out[name] = {"calls": calls - c0, "ms": ms, "self_ms": ms}
        for name in SPAN_NAMES:
            if name not in self.absent:
                out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for name, count in self.failures.items():
            out[name]["failures"] = count - failures0.get(name, 0)
        out["_generations"] = self.generations - gens0
        out["_bytes_written"] = self.bytes_written - bytes0
        return out

    def dump(self, path, stamp: dict):
        """Write every span as JSON lines, after a header line with the stamp."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp, "leaves": self.leaves}) + "\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                self_ns = end - start - self.child_ns[idx]
                fh.write(json.dumps({"id": idx, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "self_ns": self_ns}) + "\n")
