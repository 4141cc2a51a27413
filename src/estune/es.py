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

``run_batch`` is the one kernel.  Its rows share one ``EsTemplate`` (sigma0,
dimension, generation count and init box) and differ in tau and seed.  It
has three paths, chosen by row count, objective name and dimension:

* a batch of at most 3 sphere rows of at most 12 dimensions runs one row
  at a time, one generation at a time, in Python floats.  At these sizes
  numpy's fixed cost per call, 1-3 us, outweighs its arithmetic, while
  Python floats cost about 0.1 us per coordinate and generation; past
  about 12 dimensions speculation wins again.  The sphere is chosen by its
  registry name, not by the registered function, so a wrapped entry (the
  benchmark's tracer installs one) keeps the path;
* any other batch of at most 3 rows runs one row at a time by
  speculation.  Under the 1/5th rule about four offspring in five are
  rejected, so a round assumes the next k (at most 12) are all rejected,
  makes all k candidates and evaluates them in one objective call, and
  keeps the prefix up to the first acceptance.  With so few rows numpy's
  fixed cost per call dominates; a round makes about as many calls as a
  lockstep generation and advances about five generations;
* a batch of 4 or more rows advances its rows in lockstep, one generation
  at a time on ``(dimension, rows)`` arrays, one row per column.  The rows
  run in chunks whose buffers fit ``_LOCKSTEP_BYTES``; rows are
  independent, so the chunks change no result.

An objective takes a ``(dimension, N)`` array of any strides, one candidate
per column, and returns N values.  Summing down a column's coordinates is
then one vectorised step per coordinate across all N candidates.

Every row on each path is bit-identical to the stepwise loop built from
``mutate``, ``sphere_eval`` and ``update_sigma``:

* each row keeps its own generator and draws its normals in blocks of at
  most ``BLOCK_GENERATIONS`` generations, ``standard_normal((k, dimension))``,
  which yields exactly the values of k successive
  ``standard_normal(dimension)`` draws;
* a candidate is ``x + sigma * z``: one multiply, then one add, in numpy
  or per coordinate in Python floats, which round alike;
* the sphere sums its squares strictly in coordinate order, never along
  the array's fast axis in memory, where numpy sums pairwise.  A
  C-ordered array of at least 2 columns, the lockstep path's layout, has
  its columns along the fast axis, so ``np.add.reduce`` down axis 0 adds
  whole rows in turn; any other layout (the speculative path's F-ordered
  transpose, a single column) goes through ``np.add.accumulate`` down
  each column, and the stepwise path folds with ``+=``.  Do not replace
  these with ``np.sum`` along the fast axis, ``np.dot``, ``math.fsum`` or
  the builtin ``sum()``: the first two sum pairwise or blocked, the last
  two round differently (since Python 3.12 ``sum()`` of floats is
  compensated), and any of them changes the last bits.  For the same
  reason ``store.trial_stats`` folds its sums with ``+=``;
* the offspring is accepted iff ``f_new <= f``, ties included;
* sigma is multiplied by ``math.exp(tau * (1.0 - 0.2))`` or
  ``math.exp(tau * (0.0 - 0.2))``, computed once per row with the same
  expression ``update_sigma`` evaluates every generation.  ``TAU_MAX``
  keeps both factors finite;
* a speculation round takes the sigmas of its k generations from
  ``np.multiply.accumulate([sigma, down, ..., down])``, which makes the
  same rounded products, in the same order, as k stepwise rejections.
  Until the first acceptance the parent does not change, so each candidate
  up to it is exactly the stepwise loop's.  Candidates after it were never
  made by the stepwise loop: they are discarded, and may overflow without
  raising.

All three paths raise ``NumericalError`` with the same message in the
same cases: a non-finite candidate among those the stepwise loop makes,
then, checked only after all rows, sigma at 0 before a generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FITNESS_FLOOR",
    "MAX_DIMENSION",
    "ConfigurationError",
    "EsRunResult",
    "EsTemplate",
    "NumericalError",
    "ObjectiveSpec",
    "TAU_MAX",
    "get_objective",
    "make_rng",
    "mutate",
    "register_objective",
    "run_batch",
    "run_es",
    "score_of",
    "sphere_columns",
    "sphere_eval",
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

# Largest accepted dimension.  A lockstep row holds 2 * BLOCK_GENERATIONS *
# dimension doubles of normals and candidates: at most 2 MB here.
MAX_DIMENSION = 1000

# The lockstep path runs a batch's rows in chunks whose normals and
# candidates take at most this many bytes (32 rows at MAX_DIMENSION), so a
# batch of any size stays within it; the paper grid's 100 rows are one chunk.
_LOCKSTEP_BYTES = 64 << 20

# Batches of at most this many rows run one row at a time by speculation;
# larger ones run in lockstep (see the module docstring).
_SPECULATIVE_ROWS = 3

# Sphere rows of at most this dimension, in batches of at most
# _SPECULATIVE_ROWS rows, run stepwise in Python floats: below it numpy's
# fixed cost per call outweighs the arithmetic (crossover table in CHANGES.md).
_STEPWISE_DIMENSION = 12

# How many generations one speculation round makes and evaluates at once.
_SPECULATION_DEPTH = 12

_SEED_LIMIT = 1 << 64

_NON_FINITE = "a candidate left the finite floating-point range"


class ConfigurationError(ValueError):
    """A setting violates its invariants; the command line exits 2 on it."""


class NumericalError(ValueError):
    """A run left the finite floating-point range: its result is undefined."""


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


def sphere_columns(x: np.ndarray) -> np.ndarray:
    """``sphere_eval`` of every column of a ``(dimension, N)`` array, bit for bit.

    The squares are added strictly in coordinate order, the order
    ``sphere_eval`` uses; ``x`` may have any strides.  numpy sums pairwise
    only along the fast axis in memory.  When the squares are C-ordered
    with at least 2 columns, that axis runs across the columns and
    ``np.add.reduce`` down axis 0 adds one whole row at a time; otherwise
    (F order, as in the speculative path's transpose, or a single column,
    which is its own fast axis) ``np.add.accumulate`` folds down each
    column.  Columns are not checked for finiteness here; ``run_batch``
    checks its candidates.
    """
    squares = x * x
    # The flag first: the speculative path's F-ordered rounds stop there.
    if squares.flags.c_contiguous and squares.shape[1] > 1:
        return np.add.reduce(squares, axis=0)
    np.add.accumulate(squares, axis=0, out=squares)
    return squares[-1]


# Objectives map a (dimension, N) array, one candidate per column, to N values.
_OBJECTIVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {"sphere": sphere_columns}


def register_objective(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Add a column-wise objective to the registry used by ObjectiveSpec lookups.

    ``fn`` takes a ``(dimension, N)`` array of any strides, one candidate per
    column, and returns N values.  It must give each column's value from
    that column alone, and a non-finite value for a column with a
    non-finite entry: ``run_batch`` screens its candidates by their values.
    """
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
    """A registered objective function instantiated at a fixed dimension.

    The dimension must equal the ``EsTemplate``'s, which checks it.
    """

    name: str
    dimension: int

    def __post_init__(self) -> None:
        get_objective(self.name)


@dataclass(frozen=True)
class EsTemplate:
    """Everything a run needs but its tau and seed.

    A tuning session holds one template; every row of a batch shares it.
    """

    sigma0: float = 1.0
    dimension: int = 5
    max_generations: int = 1000
    init_low: float = -5.0
    init_high: float = 5.0

    def __post_init__(self) -> None:
        if not (0 < self.sigma0 < math.inf):
            raise ConfigurationError("sigma0 must be > 0 and finite")
        if not (1 <= self.dimension <= MAX_DIMENSION):
            raise ConfigurationError(f"dimension must be >= 1 and <= {MAX_DIMENSION}")
        if self.max_generations < 1:
            raise ConfigurationError("max_generations must be >= 1")
        # Also rejects infinite bounds; numpy's uniform() raises on a range
        # that overflows.
        if not math.isfinite(self.init_high - self.init_low):
            raise ConfigurationError("init_high - init_low must be finite")
        if not (self.init_low < self.init_high):
            raise ConfigurationError("init_low must be < init_high")


@dataclass(frozen=True)
class EsRunResult:
    """Outcome of one run: accepted solution quality and final step size.

    The field order is the key order of a replicate in a session file.
    """

    seed: int
    best_f: float
    score: float
    final_sigma: float
    generations_run: int


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


def run_es(template: EsTemplate, objective: ObjectiveSpec, tau: float, seed: int) -> EsRunResult:
    """Run the full (1+1)-ES loop for ``template.max_generations`` generations.

    The candidate is accepted when its objective value is less than or equal
    to the parent's, and sigma is updated every generation from that same
    indicator.  Pure: identical inputs give bit-identical results.
    """
    return run_batch(template, objective, [tau], [seed])[0]


def run_batch(
    template: EsTemplate, objective: ObjectiveSpec, taus: Sequence[float], seeds: Sequence[int]
) -> list[EsRunResult]:
    """Run one (1+1)-ES row per (tau, seed) pair, all on ``template``.

    Each row's result is bit-identical to the stepwise loop of its tau and
    seed alone (see the module docstring), and the batch raises
    ``NumericalError`` exactly when some row's stepwise loop would raise
    ``ValueError``: a non-finite candidate, or sigma at 0 before a
    generation.
    """
    taus, seeds = list(taus), list(seeds)
    if len(taus) != len(seeds):
        raise ConfigurationError("need one seed per tau")
    if not all(0 < tau <= TAU_MAX for tau in taus):  # NaN fails too
        raise ConfigurationError(f"tau must be > 0 and <= {TAU_MAX}")
    if not all(0 <= seed < _SEED_LIMIT for seed in seeds):
        raise ConfigurationError("seed must be an unsigned 64-bit integer")
    dim, generations = template.dimension, template.max_generations
    if objective.dimension != dim:
        raise ConfigurationError(f"objective dimension {objective.dimension} != template's {dim}")
    if not taus:
        return []
    fn = get_objective(objective.name)
    rngs = [make_rng(seed) for seed in seeds]
    starts = [rng.uniform(template.init_low, template.init_high, size=dim) for rng in rngs]
    up = [math.exp(tau * (1.0 - 0.2)) for tau in taus]
    down = [math.exp(tau * (0.0 - 0.2)) for tau in taus]
    sigma0 = template.sigma0
    # On the numpy paths a failing row runs on with inf/nan until the check
    # at the end of its block or round; squares that overflow to inf are
    # legal, as in sphere_eval.
    if len(rngs) > _SPECULATIVE_ROWS:
        # A row's normals and candidates: 2 * block * dim + 8 doubles.
        block_doubles = 2 * min(BLOCK_GENERATIONS, generations) * dim + 8
        chunk = max(1, _LOCKSTEP_BYTES // (8 * block_doubles))
        rows = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(rngs), chunk):
                part = slice(i, i + chunk)
                rows += _lockstep(fn, rngs[part], np.array(starts[part]), sigma0, up[part],
                                  down[part], generations)
    else:
        # By name, not by fn: a wrapped registry entry must not change the path.
        if objective.name == "sphere" and dim <= _STEPWISE_DIMENSION:
            rows = [
                _stepwise(rng, starts[i].tolist(), sigma0, up[i], down[i], generations)
                for i, rng in enumerate(rngs)
            ]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                rows = [
                    _speculate(fn, rng, starts[i][None], sigma0, up[i], down[i], generations)
                    for i, rng in enumerate(rngs)
                ]
    f, sigma, before_last = zip(*rows)
    # Finite factors keep a sigma of 0 at 0, so a row whose sigma reached 0
    # before any generation still shows it before the last one.
    if not all(s > 0 for s in before_last):
        raise NumericalError("sigma reached 0 before the last generation")
    return [
        EsRunResult(
            seed=seed,
            best_f=best_f,
            score=score_of(best_f),
            final_sigma=final_sigma,
            generations_run=generations,
        )
        for seed, best_f, final_sigma in zip(seeds, f, sigma)
    ]


def _lockstep(fn, rngs, x, sigma0, up, down, generations):
    """All rows one generation at a time: ``(f, sigma, sigma before the last
    generation)`` of each row.

    ``x`` holds the start points as ``(rows, dimension)``; the loop keeps
    the parents and candidates as ``(dimension, rows)``, one row per column.
    """
    rows, dim = x.shape
    x = np.ascontiguousarray(x.T)
    sigma = np.full(rows, float(sigma0))
    up, down = np.array(up), np.array(down)
    block = min(BLOCK_GENERATIONS, generations)
    # Each row draws its block of normals into its own row of this buffer;
    # generation g reads them through the (dimension, rows) view z[:, g].T.
    # 8 doubles of padding keep the row stride off a power of two, where
    # those strided reads would contend for the same cache sets.
    z = np.empty((rows, block * dim + 8))[:, : block * dim].reshape(rows, block, dim)
    candidates = np.empty((block, dim, rows))
    success = np.empty(rows, dtype=bool)
    f = fn(x)
    for start in range(0, generations, block):
        n = min(block, generations - start)
        for row, rng in enumerate(rngs):
            rng.standard_normal(out=z[row, :n])
        for g in range(n):
            c = candidates[g]
            np.multiply(sigma, z[:, g].T, out=c)
            np.add(x, c, out=c)
            f_new = fn(c)
            np.less_equal(f_new, f, out=success)
            np.copyto(x, c, where=success)
            np.copyto(f, f_new, where=success)
            before_last, sigma = sigma, sigma * np.where(success, up, down)
        if not np.isfinite(candidates[:n]).all():
            raise NumericalError(_NON_FINITE)
    return list(zip(f.tolist(), sigma.tolist(), before_last.tolist()))


def _stepwise(rng, x, sigma, up, down, generations):
    """One sphere row, one generation at a time in Python floats: ``(f,
    sigma, sigma before the last generation)``.

    ``x`` is the row's start point as a list.  Each candidate coordinate is
    ``xi + sigma * zi`` and the squares are summed with ``+=`` in coordinate
    order: the stepwise loop's own operations, in its order.  Only an
    accepted candidate is kept, made again from the same operands.
    """
    f = 0.0
    for xi in x:
        f += xi * xi
    for start in range(0, generations, BLOCK_GENERATIONS):
        n = min(BLOCK_GENERATIONS, generations - start)
        for z in rng.standard_normal((n, len(x))).tolist():
            f_new = 0.0
            for xi, zi in zip(x, z):
                ci = xi + sigma * zi
                f_new += ci * ci
            # A non-finite candidate has a non-finite value; so has a finite
            # one whose squares overflow, which is legal.
            if not f_new < math.inf and not all(
                math.isfinite(xi + sigma * zi) for xi, zi in zip(x, z)
            ):
                raise NumericalError(_NON_FINITE)
            before_last = sigma
            if f_new <= f:
                x = [xi + sigma * zi for xi, zi in zip(x, z)]
                f, sigma = f_new, sigma * up
            else:
                sigma = sigma * down
    return f, sigma, before_last


def _speculate(fn, rng, x, sigma, up, down, generations):
    """One row by speculation: ``(f, sigma, sigma before the last generation)``.

    Each round assumes the next k offspring are all rejected, makes and
    evaluates them at once, and keeps the prefix up to the first acceptance.
    ``x`` is the row's ``(1, dimension)`` start point; it is overwritten.
    The candidates are rows of a ``(k, dimension)`` buffer; the objective
    sees them as columns through its transpose.
    """
    block = min(BLOCK_GENERATIONS, generations)
    z = np.empty((block, x.shape[1]))
    candidates = np.empty((_SPECULATION_DEPTH, x.shape[1]))
    factors = np.full(_SPECULATION_DEPTH, down)
    sigmas = np.empty(_SPECULATION_DEPTH)
    f = fn(x.T).item(0)
    for start in range(0, generations, block):
        n = min(block, generations - start)
        rng.standard_normal(out=z[:n])
        g = 0
        while g < n:
            k = min(_SPECULATION_DEPTH, n - g)
            # sigma before each of the next k generations if all are rejected:
            # the stepwise loop's own sequence of rounded products.
            factors[0] = sigma
            np.multiply.accumulate(factors[:k], out=sigmas[:k])
            c = candidates[:k]
            np.multiply(sigmas[:k, None], z[g : g + k], out=c)
            np.add(x, c, out=c)
            values = fn(c.T).tolist()
            # j: the first acceptance, or the last candidate if there is none.
            for j, value in enumerate(values):
                if value <= f:
                    break
            # Candidates past j were never made by the stepwise loop.  A
            # non-finite candidate has a non-finite value, so only a
            # non-finite sum needs the exact check.
            if not math.isfinite(sum(values[: j + 1])) and not np.isfinite(c[: j + 1]).all():
                raise NumericalError(_NON_FINITE)
            before_last = sigmas.item(j)
            if values[j] <= f:
                x[0] = c[j]
                f, sigma = values[j], before_last * up
            else:
                sigma = before_last * down
            g += j + 1
    return f, sigma, before_last
