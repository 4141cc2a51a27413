"""(1+1)-Evolution Strategy with Rechenberg's 1/5th success rule.

A single parent produces a single offspring per generation via isotropic
Gaussian mutation.  The offspring replaces the parent iff it is not worse.
The mutation strength sigma is adapted every generation through the
exponential update

    sigma <- sigma * exp(tau * (I - 1/5))

where the indicator I is 1 when the offspring was accepted and 0 otherwise.
One acceptance therefore balances four rejections, which drives the
acceptance rate toward the classic 1/5 target.  The adaptation rate ``tau``
is the quantity the rest of this package tunes.

Reference: Rechenberg, I. (1973). Evolutionsstrategie: Optimierung
technischer Systeme nach Prinzipien der biologischen Evolution.

Reproducibility contract: every run owns a ``numpy.random.Generator`` backed
by the PCG64 bit generator, seeded with a 64-bit integer.  Initialization
draws one ``uniform(init_low, init_high, size=dimension)`` vector, then each
generation consumes one ``standard_normal(dimension)`` vector (numpy's
ziggurat transform).  Identical seeds yield bit-identical trajectories.

``run_batch`` is the one kernel: it advances many runs ("rows", one per
(tau, seed)) in lockstep on ``(rows, dimension)`` arrays, and every row is
bit-identical to the stepwise loop built from ``mutate``, ``sphere_eval``
and ``update_sigma``:

* each row keeps its own generator and draws its normals in blocks of at
  most ``BLOCK_GENERATIONS`` generations, ``standard_normal((k, dimension))``,
  which yields exactly the values of k successive
  ``standard_normal(dimension)`` draws;
* a candidate is ``x + sigma * z``: one multiply, then one add;
* the sphere sums its squares strictly left to right with ``np.cumsum``
  along each row.  Do not replace it with ``np.sum``, ``np.dot``,
  ``math.fsum`` or the builtin ``sum()``: the first two sum pairwise or
  blocked, the last two round differently (since Python 3.12 ``sum()`` of
  floats is compensated), and any of them changes the last bits;
* the offspring is accepted iff ``f_new <= f``, ties included;
* sigma is multiplied by ``math.exp(tau * (1.0 - 0.2))`` or
  ``math.exp(tau * (0.0 - 0.2))``, computed once per row with the same
  expression ``update_sigma`` evaluates every generation.  ``TAU_MAX``
  keeps both factors finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FITNESS_FLOOR",
    "ConfigurationError",
    "EsConfig",
    "EsRunResult",
    "EsTemplate",
    "ObjectiveSpec",
    "TAU_MAX",
    "get_objective",
    "make_rng",
    "mutate",
    "register_objective",
    "run_batch",
    "run_es",
    "score_of",
    "sphere_eval",
    "sphere_rows",
    "update_sigma",
]

# Objective values are clamped here before the log so scores stay finite.
FITNESS_FLOOR = 1e-300

# Largest accepted tau: about 60x the top of the paper grid, and small enough
# that exp(0.8 * tau) stays finite (it overflows near tau = 887).
TAU_MAX = 100

# The kernel draws normals for at most this many generations at a time, so
# its block buffers stay small however long the run.
BLOCK_GENERATIONS = 128

_SEED_LIMIT = 1 << 64


class ConfigurationError(ValueError):
    """Raised when a run configuration violates its invariants."""


def sphere_eval(x) -> float:
    """Sum of squared coordinates; global optimum 0 at the origin.

    Accumulates left to right in IEEE double precision, so the result is
    bit-for-bit reproducible and directly comparable against any other
    left-to-right summation of the same squares.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    total = 0.0
    for v in arr:
        total += float(v) * float(v)
    return total


def sphere_rows(x: np.ndarray) -> np.ndarray:
    """``sphere_eval`` of every row of a 2-D array, bit for bit.

    ``np.cumsum`` adds the squares strictly left to right, the order
    ``sphere_eval`` uses.  Rows are not checked for finiteness here;
    ``run_batch`` checks its candidates.
    """
    return np.cumsum(x * x, axis=1)[:, -1]


# Objectives map a (rows, dimension) array to one value per row.
_OBJECTIVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {"sphere": sphere_rows}


def register_objective(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Add a row-wise objective to the registry used by ObjectiveSpec lookups."""
    _OBJECTIVES[name] = fn


def get_objective(name: str) -> Callable[[np.ndarray], np.ndarray]:
    if name not in _OBJECTIVES:
        known = ", ".join(sorted(_OBJECTIVES))
        raise ConfigurationError(f"unknown objective {name!r} (known: {known})")
    return _OBJECTIVES[name]


def objective_names() -> list[str]:
    return sorted(_OBJECTIVES)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A registered objective function instantiated at a fixed dimension."""

    name: str
    dimension: int

    def __post_init__(self) -> None:
        get_objective(self.name)
        if self.dimension < 1:
            raise ConfigurationError("dimension must be >= 1")


@dataclass(frozen=True)
class EsConfig:
    """Full parameterization of one (1+1)-ES run."""

    tau: float
    sigma0: float
    dimension: int
    max_generations: int
    init_low: float = -5.0
    init_high: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ConfigurationError("tau must be > 0")
        if not (self.tau <= TAU_MAX):
            raise ConfigurationError(f"tau must be <= {TAU_MAX}")
        _check_run_shape(self)
        if not (0 <= self.seed < _SEED_LIMIT):
            raise ConfigurationError("seed must be an unsigned 64-bit integer")


def _check_run_shape(cfg) -> None:
    """The checks EsConfig and EsTemplate share: everything but tau and seed."""
    if not (0 < cfg.sigma0 < math.inf):
        raise ConfigurationError("sigma0 must be > 0 and finite")
    if cfg.dimension < 1:
        raise ConfigurationError("dimension must be >= 1")
    if cfg.max_generations < 1:
        raise ConfigurationError("max_generations must be >= 1")
    # Also rejects infinite bounds; numpy's uniform() raises on a range
    # that overflows.
    if not math.isfinite(cfg.init_high - cfg.init_low):
        raise ConfigurationError("init_high - init_low must be finite")
    if not (cfg.init_low < cfg.init_high):
        raise ConfigurationError("init_low must be < init_high")


@dataclass(frozen=True)
class EsTemplate:
    """EsConfig minus the two per-run fields (tau and seed).

    A tuning session holds one template and stamps out configs per trial.
    """

    sigma0: float = 1.0
    dimension: int = 5
    max_generations: int = 1000
    init_low: float = -5.0
    init_high: float = 5.0

    def __post_init__(self) -> None:
        _check_run_shape(self)

    def configure(self, tau: float, seed: int) -> EsConfig:
        return EsConfig(
            tau=tau,
            sigma0=self.sigma0,
            dimension=self.dimension,
            max_generations=self.max_generations,
            init_low=self.init_low,
            init_high=self.init_high,
            seed=seed,
        )


@dataclass(frozen=True)
class EsRunResult:
    """Outcome of one run: accepted solution quality and final step size."""

    best_f: float
    score: float
    final_sigma: float
    generations_run: int
    seed: int


def make_rng(seed: int) -> np.random.Generator:
    """The one random stream used everywhere: PCG64 behind a Generator."""
    return np.random.Generator(np.random.PCG64(seed))


def mutate(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Return ``x + sigma * g`` with g standard normal, leaving x untouched."""
    if not (sigma > 0):
        raise ValueError("sigma must be > 0")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return arr + sigma * rng.standard_normal(arr.shape[0])


def update_sigma(sigma: float, tau: float, success: bool) -> float:
    """One exponential step-size update: sigma * exp(tau * (I - 1/5))."""
    if not (sigma > 0):
        raise ValueError("sigma must be > 0")
    if not (tau > 0):
        raise ValueError("tau must be > 0")
    indicator = 1.0 if success else 0.0
    return sigma * math.exp(tau * (indicator - 0.2))


def score_of(f_value: float) -> float:
    """Fitness score -ln(max(f, floor)); higher is better, floor keeps it finite."""
    if math.isnan(f_value) or f_value < 0:
        raise ValueError("objective value must be >= 0")
    return -math.log(max(f_value, FITNESS_FLOOR))


def run_es(config: EsConfig, objective: ObjectiveSpec) -> EsRunResult:
    """Run the full (1+1)-ES loop for ``config.max_generations`` generations.

    The candidate is accepted when its objective value is less than or equal
    to the parent's, and sigma is updated every generation from that same
    indicator.  Pure: identical inputs give bit-identical results.
    """
    return run_batch([config], objective)[0]


def run_batch(configs: Sequence[EsConfig], objective: ObjectiveSpec) -> list[EsRunResult]:
    """Run every config as one row of a lockstep (1+1)-ES batch.

    Rows share the dimension and the generation count; tau, seed, sigma0
    and the init box are per row.  Each row's result is bit-identical to the
    stepwise loop of its config alone (see the module docstring), and the
    batch raises ``ValueError`` exactly when some row's stepwise loop would:
    a non-finite candidate, or sigma at 0 before a generation.
    """
    configs = list(configs)
    if not configs:
        return []
    dim, generations = objective.dimension, configs[0].max_generations
    for config in configs:
        if config.dimension != dim:
            raise ConfigurationError(
                f"objective dimension {dim} != config dimension {config.dimension}"
            )
        if config.max_generations != generations:
            raise ConfigurationError("a batch needs one max_generations for all rows")
    fn = get_objective(objective.name)
    rngs = [make_rng(config.seed) for config in configs]
    x = np.array([rng.uniform(c.init_low, c.init_high, size=dim) for rng, c in zip(rngs, configs)])
    sigma = np.array([float(config.sigma0) for config in configs])
    up = np.array([math.exp(config.tau * (1.0 - 0.2)) for config in configs])
    down = np.array([math.exp(config.tau * (0.0 - 0.2)) for config in configs])

    block = min(BLOCK_GENERATIONS, generations)
    z = np.empty((len(configs), block, dim))
    candidates = np.empty((block, len(configs), dim))
    finite = True
    # A failing row runs on with inf/nan and is reported once the run ends;
    # squares that overflow to inf are legal, as in sphere_eval.
    with np.errstate(over="ignore", invalid="ignore"):
        f = fn(x)
        for start in range(0, generations, block):
            n = min(block, generations - start)
            for row, rng in enumerate(rngs):
                rng.standard_normal(out=z[row, :n])
            for g in range(n):
                c = candidates[g]
                np.multiply(sigma[:, None], z[:, g], out=c)
                np.add(x, c, out=c)
                f_new = fn(c)
                success = f_new <= f
                np.copyto(x, c, where=success[:, None])
                np.copyto(f, f_new, where=success)
                before_last, sigma = sigma, sigma * np.where(success, up, down)
            finite = finite and bool(np.isfinite(candidates[:n]).all())
    # Finite factors keep a sigma of 0 at 0, so a row whose sigma reached 0
    # before any generation still shows it before the last one.
    if not finite:
        raise ValueError("a candidate left the finite floating-point range")
    if not (before_last > 0).all():
        raise ValueError("sigma reached 0 before the last generation")
    return [
        EsRunResult(
            best_f=best_f,
            score=score_of(best_f),
            final_sigma=final_sigma,
            generations_run=generations,
            seed=config.seed,
        )
        for config, best_f, final_sigma in zip(configs, f.tolist(), sigma.tolist())
    ]
