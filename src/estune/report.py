"""Grid sweeps over tau plus CSV and plot emission.

The plot is written as a self-contained SVG with no renderer dependency:
identical inputs produce identical bytes, so outputs can be diffed in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .es import TAU_MAX, ConfigurationError
from .loop import run_trial  # noqa: F401  (bench/tracer.py wraps report.run_trial by name)
from .loop import run_trials
from .store import SessionConfig, Trial, format_number

__all__ = ["MAX_GRID_STEPS", "GridSpec", "emit_csv", "emit_plot", "grid_values", "run_grid"]

# Largest accepted grid.  A grid is one kernel batch of steps * replicates
# rows, run in lockstep chunks whose buffers fit es._LOCKSTEP_BYTES (64 MiB):
# at the paper's 5-D and MAX_REPLICATES, 10^4 rows are 2 chunks.
MAX_GRID_STEPS = 100


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced tau values, inclusive of both ends."""

    tau_min: float = 0.6
    tau_max: float = 1.5
    steps: int = 10

    def __post_init__(self) -> None:
        if not (self.tau_min > 0):
            raise ConfigurationError("tau_min must be > 0")
        if not (self.tau_min < self.tau_max):
            raise ConfigurationError("tau_min must be < tau_max")
        if not (self.tau_max <= TAU_MAX):
            raise ConfigurationError(f"tau_max must be <= {TAU_MAX}")
        if not (2 <= self.steps <= MAX_GRID_STEPS):
            raise ConfigurationError(f"steps must be >= 2 and <= {MAX_GRID_STEPS}")


def grid_values(spec: GridSpec) -> list[float]:
    step = (spec.tau_max - spec.tau_min) / (spec.steps - 1)
    values = [spec.tau_min + i * step for i in range(spec.steps)]
    values[-1] = spec.tau_max
    return values


def run_grid(spec: GridSpec, cfg: SessionConfig) -> list[Trial]:
    """One replicated trial per grid value; no LLM involved.

    Every (grid value, replicate) row runs in one ES batch, whose chunks of
    more than 3 rows run in lockstep (see ``es.run_batch``); trial i equals
    ``run_trial(grid_values(spec)[i], cfg, i)``.
    """
    taus = grid_values(spec)
    return run_trials(taus, cfg, range(len(taus)))


def emit_csv(trials, path) -> None:
    """Write one row per trial, tau ascending, round-trip decimals."""
    trials = sorted(trials, key=lambda t: t.tau)
    if not trials:
        raise ValueError("need at least one trial")
    lines = ["tau,mean_fitness,std_fitness,replicates"]
    for t in trials:
        lines.append(
            f"{format_number(t.tau)},{format_number(t.mean_score)},"
            f"{format_number(t.std_score)},{len(t.results)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_WIDTH, _HEIGHT = 640, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 24, 24, 56


def emit_plot(trials, path, best_tau: float | None = None) -> None:
    """Write the tau-vs-fitness curve as a standalone SVG.

    Line plus one marker per trial, tau ascending; when ``best_tau`` is
    given the matching point gets a highlight ring.
    """
    trials = sorted(trials, key=lambda t: t.tau)
    if len(trials) < 2:
        raise ValueError("plot needs at least 2 trials; use emit_csv instead")

    taus = [t.tau for t in trials]
    means = [t.mean_score for t in trials]
    x_lo, x_hi = min(taus), max(taus)
    y_lo, y_hi = min(means), max(means)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(tau: float) -> str:
        return f"{_LEFT + (tau - x_lo) / x_span * plot_w:.2f}"

    def sy(v: float) -> str:
        return f"{_TOP + (1.0 - (v - y_lo) / y_span) * plot_h:.2f}"

    x_axis_y = _HEIGHT - _BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_LEFT}" y1="{x_axis_y}" x2="{_WIDTH - _RIGHT}" y2="{x_axis_y}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{x_axis_y}" stroke="black"/>',
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.2f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-size="16">tau</text>',
        f'<text x="16" y="{(_TOP + x_axis_y) / 2:.2f}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 16 {(_TOP + x_axis_y) / 2:.2f})">fitness (-log f)</text>',
        f'<text x="{sx(x_lo)}" y="{x_axis_y + 20}" text-anchor="middle" font-size="12">'
        f"{x_lo:.6g}</text>",
        f'<text x="{sx(x_hi)}" y="{x_axis_y + 20}" text-anchor="middle" font-size="12">'
        f"{x_hi:.6g}</text>",
        f'<text x="{_LEFT - 6}" y="{sy(y_lo)}" text-anchor="end" font-size="12">{y_lo:.6g}</text>',
        f'<text x="{_LEFT - 6}" y="{sy(y_hi)}" text-anchor="end" font-size="12">{y_hi:.6g}</text>',
    ]
    points = " ".join(f"{sx(t)},{sy(v)}" for t, v in zip(taus, means))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
    for t, v in zip(taus, means):
        parts.append(f'<circle class="pt" cx="{sx(t)}" cy="{sy(v)}" r="4" fill="#1f77b4"/>')
    if best_tau is not None:
        nearest = min(trials, key=lambda t: abs(t.tau - best_tau))
        parts.append(
            f'<circle class="best" cx="{sx(nearest.tau)}" cy="{sy(nearest.mean_score)}" '
            f'r="8" fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
