"""The benchmark's tracer must find every name it wraps.

``bench/tracer.py`` replaces module attributes by name; a name that no
longer resolves silently drops its metrics from the traced report.  This
test reads ``bench/`` without changing it.
"""

from pathlib import Path

import estune.es as es_mod
import estune.loop as loop_mod

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_resolves_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.restore()
    assert loop_mod.run_es is es_mod.run_es
    assert es_mod.get_objective("sphere") is es_mod.sphere_rows
