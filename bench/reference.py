"""Machine speed, sampled by a fixed reference workload while pieces run.

On a shared host the speed of the same code drifts by up to 1.7x, in CPU
time as well as wall time: from one minute to the next, and also in
stretches of tens of milliseconds within a one-second piece.  No number of
repeats makes a raw time repeat from one run to the next.

While the timed passes run, ``start_sampling`` runs a fixed *slice* of
work every ``INTERVAL_S`` of wall time, from a timer signal, so the slices
sample the machine's speed evenly over the same time as the pieces, inside
them too.
``clock`` leaves out the time spent in slices, so a piece's span holds only
the program's own work.  The end-to-end timings are then reported at
*reference speed*: a piece's time times ``REF_SLICE_S`` over the mean time
of the slices run during it or within ``NEAR_S`` of either end.  A mean,
like a long piece, grows in proportion to the share of time the machine ran
slow.  A change to estune moves the pieces and not the slices, so it moves a
scaled time by the same share as the raw one.

A slice does the kinds of work the program does, in code of its own that no
change to estune can speed up: a (1+1)-ES on small numpy vectors with a
Python-float objective, and JSON lines and formatted floats built and parsed
back.  It does no file I/O, whose time jitters far more than the CPU work.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time

import numpy as np

# Mean slice time of this benchmark's runs on a quiet 2-CPU sandbox
# (Python 3.11, numpy 2.4); it only sets the scale of the reported times.
REF_SLICE_S = 0.0031
INTERVAL_S = 0.03
# A 10 ms trial still sees two or three slices.
NEAR_S = 0.045

_spent = 0.0           # wall time spent in slices run by the timer
_slices: list[tuple] = []  # (clock at its start, wall time) of each slice
_busy = False


def _es(dim: int = 8, generations: int = 150, seed: int = 3) -> float:
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-5.0, 5.0, size=dim)
    f = sum(float(v) * float(v) for v in x)
    sigma = 1.0
    for _ in range(generations):
        candidate = x + sigma * rng.standard_normal(dim)
        f_new = 0.0
        for v in candidate:
            f_new += float(v) * float(v)
        success = f_new <= f
        if success:
            x, f = candidate, f_new
        sigma *= math.exp(1.0 * ((1.0 if success else 0.0) - 0.2))
    return f


def _text(rows: int = 75) -> int:
    records = [{"tau": 0.5 + i * 1e-3, "scores": [math.sin(i + j) for j in range(4)],
                "note": f"trial {i}"} for i in range(rows)]
    lines = [json.dumps(r) for r in records]
    lines += [f"{r['tau']:.6g}, {r['scores'][0]:.6g}, {r['scores'][1]:.6g}" for r in records]
    back = ("\n".join(lines) + "\n").splitlines()
    return len([json.loads(line) for line in back[:rows]])


def reference_slice() -> float:
    """Run one reference slice; return its wall time in seconds."""
    start = time.perf_counter()
    _es()
    _text()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, slice_s: float) -> float:
    """``seconds`` measured where a reference slice took ``slice_s``."""
    return seconds * REF_SLICE_S / slice_s


def clock() -> float:
    """``time.perf_counter`` less the time spent in timer-driven slices."""
    return time.perf_counter() - _spent


def _on_timer(signum, frame) -> None:
    global _spent, _busy
    if _busy:  # a slice outran the interval; skip rather than nest
        return
    _busy = True
    start = time.perf_counter()
    try:
        _slices.append((start - _spent, reference_slice()))
    finally:
        _spent += time.perf_counter() - start
        _busy = False


def slice_near(slices: list[tuple], start: float, end: float) -> float:
    """Mean time of the slices run from ``NEAR_S`` before ``start`` to
    ``NEAR_S`` after ``end`` (times on ``clock``)."""
    lo = bisect.bisect_left(slices, (start - NEAR_S,))
    hi = bisect.bisect_right(slices, (end + NEAR_S,))
    return statistics.fmean(s for _, s in slices[lo:hi])


def start_sampling() -> list[tuple]:
    """Run a slice every ``INTERVAL_S`` until ``stop_sampling``; return the
    list of ``(clock, seconds)`` slices, which fills meanwhile."""
    _slices.clear()
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    return _slices


def stop_sampling() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
