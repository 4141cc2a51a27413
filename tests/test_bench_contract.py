"""The benchmark's tracer must find, and see called, every name it wraps.

``bench/tracer.py`` replaces module attributes by name; a name that no
longer resolves silently drops its metrics from the traced report, and a
name the program no longer calls reads 0.  These tests read ``bench/``
without changing it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import estune.es as es_mod
import estune.loop as loop_mod
from estune.llm import ScriptedBackend

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    return Tracer


def test_tracer_resolves_every_wrapped_name(tracer_cls):
    tracer = tracer_cls()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.restore()
    assert loop_mod.run_es is es_mod.run_es
    assert es_mod.get_objective("sphere") is es_mod.sphere_eval


def test_session_spans_are_called(tracer_cls, fast_cfg, tmp_path):
    cfg, backend = replace(fast_cfg, budget=2), ScriptedBackend(["tau = 0.7", "tau = 1.1"])
    with tracer_cls() as tracer:
        since = tracer.mark()
        session = loop_mod.run_session(cfg, backend, out_base=tmp_path / "s")
        summary = tracer.summary(since)
    assert session.status == "completed"
    for name in ("loop.propose_next_tau", "loop.run_trial", "llm.render_prompt",
                 "llm.extract_tau", "llm.send"):
        assert summary[name]["calls"] > 0, name


def test_traced_trial_takes_the_untraced_path(tracer_cls, fast_cfg):
    # fast_cfg's 3 rows at 3-D run stepwise, with the squares summed inline.
    # The tracer wraps the registry's sphere entry; that must not send a
    # traced trial down another path.
    untraced = loop_mod.run_trial(0.9, fast_cfg, 0)
    with tracer_cls() as tracer:
        since = tracer.mark()
        traced = loop_mod.run_trial(0.9, fast_cfg, 0)
        summary = tracer.summary(since)
    assert traced == untraced
    assert summary["es.sphere_eval"]["calls"] == 0
