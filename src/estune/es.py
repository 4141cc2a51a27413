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
by the PCG64 bit generator, seeded with a 64-bit integer through numpy's
``SeedSequence``: ``make_rng`` is that generator.  Initialization draws one
``uniform(init_low, init_high, size=dimension)`` vector, then each
generation consumes one ``standard_normal(dimension)`` vector (numpy's
ziggurat transform).  Identical seeds yield bit-identical trajectories.

``run_batch`` is the one kernel, and it computes the sphere only.  Its rows
share one ``EsTemplate`` (sigma0, dimension, generation count and init box)
and differ in tau and seed.  It has three paths, chosen by row count and
dimension only:

* stepwise: a batch of at most 3 rows of at most 8 dimensions runs one row
  at a time, one generation at a time, in Python floats.  At these sizes
  numpy's fixed cost per call, 1-3 us, outweighs its arithmetic, while
  Python floats cost about 0.1 us per coordinate and generation;
* screened: a batch of at most 3 rows of more dimensions runs one row at a
  time and makes only the offspring that may be accepted.  From
  ``|z|**2``, one call per block of normals, and ``z . x``, one
  matrix-vector product per acceptance, it estimates each candidate's value
  in Python floats.  It skips a candidate only when the estimate exceeds
  the parent's value by more than a proven bound on its error,
  ``(4 d + 64) eps (f + sigma**2 |z|**2) + 1e-300`` at d dimensions
  (derived in ``_screened``'s docstring), and makes every other candidate
  as the stepwise loop does.  Under the 1/5th rule about four offspring in
  five are rejected, so it makes about one candidate in five;
* lockstep: any other batch advances its rows in lockstep, one generation
  at a time on ``(dimension, rows)`` arrays, one row per column.  The rows
  run in chunks whose buffers fit ``_LOCKSTEP_BYTES``; rows are
  independent, so the chunks change no result.  Each chunk seeds its rows
  in one vectorised pass (``_seed_states``) whose states equal
  ``SeedSequence(seed).generate_state(4, np.uint64)``, so its generators
  start in ``make_rng``'s state; ``make_rng`` stays the reference, and
  the other two paths use it.  It runs in preallocated buffers; each block
  of generations is checked by its values and replayed, keeping its
  candidates, only when a value is not finite (see ``_lockstep``).

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
  whole rows in turn; any other layout (F order, a single column) goes
  through ``np.add.accumulate`` down each column, as does each candidate
  the screened path makes, and the stepwise path folds with ``+=``.  Do
  not replace these with ``np.sum`` along the fast axis, ``np.dot``,
  ``math.fsum`` or the builtin ``sum()``: the first two sum pairwise or
  blocked, the last two round differently (since Python 3.12 ``sum()`` of
  floats is compensated), and any of them changes the last bits.  The
  screened path's estimates use ``np.dot`` and ``np.einsum``, whose error
  its bound covers in any order, but never for a value it keeps.  For the
  same reason ``store.trial_stats`` folds its sums with ``+=``;
* the offspring is accepted iff ``f_new <= f``, ties included;
* sigma is multiplied by ``math.exp(tau * (1.0 - 0.2))`` or
  ``math.exp(tau * (0.0 - 0.2))``, computed once per row with the same
  expression ``update_sigma`` evaluates every generation.  ``TAU_MAX``
  keeps both factors finite;
* the screened path skips only candidates whose value provably exceeds
  the parent's, so its acceptances, and with them its sigmas, are the
  stepwise loop's.  A skipped candidate is finite, so the stepwise loop
  would not have raised on it.

All three paths raise ``NumericalError`` with the same message in the
same cases: a non-finite candidate among those the stepwise loop makes,
then, checked only after all rows, sigma at 0 before a generation.
"""

from __future__ import annotations

import functools
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

# Batches of at most this many rows run one row at a time, stepwise or
# screened; larger ones run in lockstep (see the module docstring).
_FEW_ROWS = 3

# Rows of at most this dimension, in batches of at most _FEW_ROWS rows, run
# stepwise in Python floats; above it the screened path wins from about 100
# generations on (crossover table in CHANGES.md).
_STEPWISE_DIMENSION = 8

# The screened path's margin (see _screened): machine epsilon, the absolute
# term that covers subnormal roundings, and the range of |z|**2 in which
# both hold.
_EPS = 2.0**-52
_SCREEN_TINY = 1e-300
_SCREEN_NORMS = (1e-200, 1e20)

# How many generations ahead the screened path computes z . x at a time.
_SCREEN_AHEAD = 16

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
    (F order, or a single column, which is its own fast axis)
    ``np.add.accumulate`` folds down each column.  Columns are not checked
    for finiteness.  This is the registry's ``"sphere"`` entry, which the
    benchmark's tracer wraps; no kernel path calls it, as ``run_batch``
    sums the sphere's squares itself.
    """
    squares = x * x
    if squares.flags.c_contiguous and squares.shape[1] > 1:
        return np.add.reduce(squares, axis=0)
    np.add.accumulate(squares, axis=0, out=squares)
    return squares[-1]


# Objectives map a (dimension, N) array, one candidate per column, to N values.
_OBJECTIVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {"sphere": sphere_columns}


def register_objective(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
    """Replace a registered objective's entry; ``"sphere"`` is the only one.

    ``fn`` takes a ``(dimension, N)`` array of any strides, one candidate per
    column, and returns N values.  No kernel path calls an entry, so
    replacing one changes no result.  Any other name raises
    ``ConfigurationError``: the kernel would run it as the sphere.
    """
    get_objective(name)
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


def _hash_chain(start: int, mult: int, n: int) -> np.ndarray:
    """The column of ``start * mult**i`` mod 2**32 for i < n, as uint32."""
    chain = [start]
    while len(chain) < n:
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx): the
# multiplier chains of its pool hash (4 + 4 * 3 uses) and of its output hash
# (8 words), and the two multipliers of its mix.
_POOL_HASH = _hash_chain(0x43B0D7E5, 0x931E8875, 17)
_STATE_HASH = _hash_chain(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.array([0xCA01F9DD], dtype=np.uint32)
_MIX_R = np.array([0x4973F715], dtype=np.uint32)
_OTHER_WORDS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _hash(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row i of ``words`` with constants
    ``chain[i]`` and ``chain[i + 1]``."""
    out = words ^ chain[:-1]
    out *= chain[1:]
    out ^= out >> 16
    return out


def _seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed, one
    row each, from one pass over all of them.

    SeedSequence hashes a seed's 32-bit words, low first, into a pool of 4
    words, padding with hashed zeros; a seed below 2**32 thus hashes as one
    with a zero high word.  It then mixes the hash of every pool word into
    every other word, and hashes the pool out, twice round, into 8 words,
    read as 4 little-endian uint64.  Each step here runs on all seeds at
    once in uint32 arrays, which wrap as the reference's arithmetic does.
    ``make_rng`` stays the reference: the tests and the benchmark's gate
    compare the two.
    """
    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(words)), dtype=np.uint32)
    pool[0] = words
    pool[1] = words >> 32
    pool = _hash(pool, _POOL_HASH[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = pool[dst] * _MIX_L
        mixed -= _hash(pool[src], _POOL_HASH[4 + 3 * src : 8 + 3 * src]) * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hash(np.tile(pool, (2, 1)), _STATE_HASH)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """A seed sequence that hands ``PCG64`` one state computed beforehand:
    ``PCG64(SeedState(state))`` asks it only for ``generate_state(4,
    np.uint64)``.

    Made on first use: subclassing ``ISeedSequence`` imports
    ``numpy.random``, about 15 ms that ``import numpy`` leaves to the first
    generator made.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _seeded_generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``make_rng(seed)`` of every seed, from one pass of ``_seed_states``."""
    seed_state = _seed_state_type()
    return [np.random.Generator(np.random.PCG64(seed_state(state)))
            for state in _seed_states(seeds)]


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
    up = [math.exp(tau * (1.0 - 0.2)) for tau in taus]
    down = [math.exp(tau * (0.0 - 0.2)) for tau in taus]
    sigma0 = template.sigma0

    def start(rng):
        return rng.uniform(template.init_low, template.init_high, size=dim)

    if len(seeds) <= _FEW_ROWS:
        row = _stepwise if dim <= _STEPWISE_DIMENSION else _screened
        rows = [
            row(rng, start(rng), sigma0, up[i], down[i], generations)
            for i, rng in enumerate(map(make_rng, seeds))
        ]
    else:
        # A row's normals and a replayed block's candidates: 2 * block * dim + 8 doubles.
        block_doubles = 2 * min(BLOCK_GENERATIONS, generations) * dim + 8
        chunk = max(1, _LOCKSTEP_BYTES // (8 * block_doubles))
        rows = []
        # Each chunk seeds its generators and draws its start points itself,
        # so a batch holds one chunk's rows at a time.
        for i in range(0, len(seeds), chunk):
            part = slice(i, i + chunk)
            rngs = _seeded_generators(seeds[part])
            rows += _lockstep(rngs, np.array([start(rng) for rng in rngs]), sigma0,
                              up[part], down[part], generations)
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


# A failing row runs on with inf/nan until the check at the end of its
# block; squares that overflow to inf are legal, as in sphere_eval.
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(rngs, x, sigma0, up, down, generations):
    """All rows one generation at a time: ``(f, sigma, sigma before the last
    generation)`` of each row.

    ``x`` holds the start points as ``(rows, dimension)``; the loop keeps
    the parents and candidates as ``(dimension, rows)``, one row per column.
    Row g of ``sigmas`` holds the sigmas of generation g of a block, so row
    0 keeps the block's start.

    One candidate buffer and one buffer of squares are reused, and
    ``np.add.reduce`` writes each generation's sums, in coordinate order,
    into a ``(block, rows)`` buffer of values (``_fold_column`` does so for
    a one-row chunk).  The parent's value is ``np.minimum(f_new, f)``,
    which equals the accepted value wherever ``f_new <= f``: sums of
    squares are never -0, and a nan value comes only from a non-finite
    candidate.  The block is checked by its values, since a non-finite
    candidate has a non-finite value.  When one is not finite, the parents
    and their values are restored to the block's start and the block runs
    again, keeping each candidate in a ``(block, dimension, rows)`` buffer
    to check it.  This tells a non-finite candidate, which raises, from
    finite squares that overflow, which are legal.  Both runs make the same
    candidates up to the first non-finite one, so they raise alike.
    """
    rows, dim = x.shape
    x = np.ascontiguousarray(x.T)
    up, down = np.array(up), np.array(down)
    block = min(BLOCK_GENERATIONS, generations)
    # Each row draws its block of normals into its own row of this buffer;
    # generation g reads them through the (dimension, rows) view
    # z.transpose(1, 2, 0)[g].  8 doubles of padding keep the row stride off
    # a power of two, where those strided reads would contend for the same
    # cache sets.
    z = np.empty((rows, block * dim + 8))[:, : block * dim].reshape(rows, block, dim)
    draws = [(rng.standard_normal, row) for rng, row in zip(rngs, z)]
    normals = z.transpose(1, 2, 0)
    sigmas = np.empty((block + 1, rows))
    sigmas[0] = sigma0
    success = np.empty(rows, dtype=bool)
    factor = np.empty(rows)
    squares = np.empty((dim, rows))
    fold = np.add.reduce if rows > 1 else _fold_column
    f = np.empty(rows)
    fold(np.multiply(x, x, out=squares), axis=0, out=f)
    values = np.empty((block, rows))
    start_x, start_f = np.empty_like(x), np.empty_like(f)

    def advance(views):
        # Every view a generation uses is made before the loop, so that it
        # allocates nothing.
        for normal, c, f_new, sigma, next_sigma in views:
            np.multiply(sigma, normal, out=c)
            np.add(x, c, out=c)
            fold(np.multiply(c, c, out=squares), axis=0, out=f_new)
            np.less_equal(f_new, f, out=success)
            np.copyto(x, c, where=success)
            np.minimum(f_new, f, out=f)
            np.copyto(factor, down)
            np.copyto(factor, up, where=success)
            np.multiply(sigma, factor, out=next_sigma)

    def make_views(candidates):
        return list(zip(normals, candidates, values, sigmas[:-1], sigmas[1:]))

    block_views = make_views([np.empty((dim, rows))] * block)
    for start in range(0, generations, block):
        n = min(block, generations - start)
        if start:
            np.copyto(sigmas[0], sigmas[block])
        for draw, out in draws:
            draw(out=out if n == block else out[:n])
        np.copyto(start_x, x)
        np.copyto(start_f, f)
        advance(block_views[:n])
        if np.isfinite(values[:n]).all():
            continue
        np.copyto(x, start_x)
        np.copyto(f, start_f)
        kept = np.empty((n, dim, rows))
        advance(make_views(kept))
        if not np.isfinite(kept).all():
            raise NumericalError(_NON_FINITE)
    return list(zip(f.tolist(), sigmas[n].tolist(), sigmas[n - 1].tolist()))


def _fold_column(squares, axis, out):
    """``np.add.reduce(squares, axis, out=out)`` for a ``(dimension, 1)``
    array, summed in coordinate order: a single column is its own fast
    axis, where ``reduce`` sums pairwise."""
    np.add.accumulate(squares, axis=axis, out=squares)
    np.copyto(out, squares[-1])


def _stepwise(rng, x, sigma, up, down, generations):
    """One sphere row, one generation at a time in Python floats: ``(f,
    sigma, sigma before the last generation)``.

    ``x`` is the row's start point as a 1-D array, taken as a list.  Each
    candidate coordinate is ``xi + sigma * zi`` and the squares are summed
    with ``+=`` in coordinate order: the stepwise loop's own operations, in
    its order.  Only an accepted candidate is kept, made again from the same
    operands.
    """
    x = x.tolist()
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


# Squares and products that overflow to inf are legal, as in sphere_eval.
@np.errstate(over="ignore", invalid="ignore")
def _screened(rng, x, sigma, up, down, generations):
    """One sphere row that makes only the offspring that may be accepted:
    ``(f, sigma, sigma before the last generation)``.

    ``x`` is the row's start point as a 1-D array.  Let ``f`` be the
    parent's value, ``s`` the sigma of a generation and ``z`` its normals.
    The screen estimates the value of the candidate ``x + s z`` as
    ``approx = f + D`` with ``D = 2 s a + s s b``, from ``b = |z|**2``, one
    call per block of normals, and ``a = z . x``, one matrix-vector product
    per acceptance (made for ``_SCREEN_AHEAD`` generations at a time).  It
    skips the candidate, a rejection, only when ``approx - m > f``, tested
    as ``D > m``, with ``m = k (f + s s b) + 1e-300`` and
    ``k = (4 d + 64) eps`` at ``d`` dimensions.  Sigma runs through the
    stepwise loop's own products.  Every other candidate is made and summed
    as the stepwise loop does, ``x + s z`` then its squares in coordinate
    order, so every acceptance, tie, inf and nan is the stepwise loop's
    own, and so is the non-finite check.

    Why a skipped candidate is rejected.  Let u = eps / 2, eta the
    smallest subnormal and ``gamma_d = d u / (1 - d u)`` (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sections 2.2 and 3.1).
    Each rounding is ``fl(p op q) = (p op q)(1 + delta) + e`` with
    ``|delta| <= u`` and ``|e| <= eta / 2``, and ``e`` is 0 but for a
    product that underflows.  Take the exact ``X = |x|**2``,
    ``Y = s**2 |z|**2``, ``P = X + Y`` and
    ``T = |x + s z|**2 = X + 2 s (z . x) + Y``.  A sum of d terms in any
    order, FMA or not, as any BLAS makes it, is off by at most ``gamma_d``
    of the sum of their magnitudes plus ``d eta``, and
    ``2 s sum |x_i z_i| <= P``.  So:

    * the candidate's value ``F``: ``|F - T| <= (2 gamma_d + 8 u) P + d eta``,
      where ``x + s z`` rounds twice a coordinate;
    * the parent's value: ``|f - X| <= gamma_d X + d eta``;
    * ``|D - (T - X)| <= (2 gamma_d + 5 u) P + 2 s d eta + s**2 d eta
      + eta b / 2``, through ``a``, ``b`` and four roundings.  While ``b`` lies
      in ``_SCREEN_NORMS``, ``[1e-200, 1e20]``, the last three terms are at
      most ``2 u P + 3e-304``; a block with a ``b`` outside it skips
      nothing.

    Hence ``F - f >= D - (5 gamma_d + 15 u) P - 3.1e-304`` (terms of order
    ``u**2 P`` left out), and ``P <= (1 + gamma_d + 5 u)(f + s s b)`` plus
    as little, so ``F - f >= D - (2.5 d + 8.5) eps (f + s s b) - 3.2e-304``
    at ``d <= MAX_DIMENSION``.  ``m`` exceeds that bound even after its own
    roundings, so ``D > m`` gives ``F > f``.  A skip needs a finite ``m``,
    so ``f`` and ``s s b`` are finite, and so is every coordinate of the
    skipped candidate.  If ``D`` overflows, ``T - X`` is within the error
    terms of the top of the float range, far above ``f``, so ``F > f``
    still.  A nan ``D`` or ``m``, or an inf ``m``, fails the test and the
    candidate is made.
    """
    dim = x.shape[0]
    k = (4 * dim + 64) * _EPS
    f = _fold_squares(x)
    kf = k * f + _SCREEN_TINY
    for start in range(0, generations, BLOCK_GENERATIONS):
        n = min(BLOCK_GENERATIONS, generations - start)
        z = rng.standard_normal((n, dim))
        b = np.einsum("ij,ij->i", z, z).tolist()
        if not (_SCREEN_NORMS[0] <= min(b) and max(b) <= _SCREEN_NORMS[1]):
            b = [math.nan] * n
        g = 0
        while g < n:
            # The next acceptance is about 5 generations away under the
            # 1/5th rule, so a is made for a few at a time.
            a = z[g : g + _SCREEN_AHEAD].dot(x).tolist()
            for ai, bi in zip(a, b[g : g + _SCREEN_AHEAD]):
                s = sigma
                g += 1
                ssb = s * s * bi
                if (s + s) * ai + ssb > kf + k * ssb:
                    sigma = s * down
                    continue
                c = z[g - 1] * s
                c += x
                f_new = _fold_squares(c)
                # A non-finite candidate has a non-finite value; so has a
                # finite one whose squares overflow, which is legal.
                if not f_new < math.inf and not np.isfinite(c).all():
                    raise NumericalError(_NON_FINITE)
                if f_new <= f:
                    x, f, sigma = c, f_new, s * up
                    kf = k * f + _SCREEN_TINY
                    break
                sigma = s * down
    return f, sigma, s


def _fold_squares(c):
    """``sphere_eval`` of the 1-D array ``c``: its squares summed in order."""
    squares = c * c
    return np.add.accumulate(squares, out=squares).item(-1)
