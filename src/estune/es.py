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
``SeedSequence``.  ``make_rng`` builds it from the seed and stays the
reference, which the tests and the benchmark's gate compare against.  Every
kernel row's generator is built instead from its ``_seed_states`` row, its
seed's ``SeedSequence`` state from one vectorised pass over many seeds
(``_generator``), in ``make_rng``'s state: each chunk of ``run_batch`` seeds
its rows so, and a tuning session seeds every row of a window of trials so
and hands the generators over (``loop.run_session``).  Initialization draws
one ``uniform(init_low, init_high, size=dimension)`` vector, then each
generation consumes one ``standard_normal(dimension)`` vector (numpy's
ziggurat transform).  Identical seeds yield bit-identical trajectories.

``run_batch`` is the one kernel, and it computes the sphere only.  Its rows
share one ``EsTemplate`` (sigma0, dimension, generation count and init box)
and differ in tau and seed.  They run in chunks whose lockstep buffers fit
``_LOCKSTEP_BYTES`` (the paper grid's 100 rows are one); rows are
independent, so chunks change no result.  A chunk of at most 3 rows runs row
by row, on one of two paths chosen by dimension and generation count
(``_SCREENED_FROM``); a larger chunk runs in lockstep:

* stepwise: rows of at most 3 dimensions, of 4 below 1000 generations, and
  of 5 to 8 below 100, run one generation at a time in Python floats.  At
  these sizes numpy's fixed cost per call, 1-3 us, outweighs its
  arithmetic, while Python floats cost about 0.1 us per coordinate and
  generation;
* screened: all other rows run one generation at a time, make only
  the offspring that may be accepted and sum squares only where they must.
  From ``|z|**2``, one call per block of normals, and ``z . x``, one
  matrix-vector product per acceptance, a row estimates in Python floats the
  change of each candidate's value from the parent's.  The estimate's error
  is at most ``(4 d + 64) eps (h + sigma**2 |z|**2) + 1e-300`` either way,
  at d dimensions, with h an upper bound on the parent's value (derived in
  ``_screened``'s docstring).  A change above the bound proves a rejection,
  and the candidate is not made; one below minus the bound proves an
  acceptance, and the candidate is made but not summed, h growing by the
  change plus the bound.  Only an undecided screen sums the parent's
  squares, and then makes and sums the candidate as the stepwise loop does;
  the row sums them once more at its end.  Under the 1/5th rule about four
  offspring in five are rejected, so it makes about one candidate in five,
  and at 64-D it sums squares a few times a row;
* lockstep: a chunk of more than 3 rows advances them one generation at a
  time on ``(dimension, rows)`` arrays, one row per column.  It runs in
  preallocated buffers; each block of generations is checked by its values
  and replayed, keeping its candidates, only when a value is not finite
  (see ``_lockstep``).

Who draws the normals.  A row's start point and normals come from its own
generator, built as the contract above says, in that order.  A lockstep
chunk draws its start points on the calling thread before any of its rows
runs, and each row then draws its normals there, block by block.  A row of
a few-row chunk is drawn on the calling thread as it runs (``_blocks``),
unless it is handed over as a ``_DrawnRow`` of a ``_DrawAhead``, whose one
helper thread draws it.  Only a tuning session keeps one
(``loop.run_session``), and only where its trials meet ``_draws_ahead``'s
rule, decided once per session.  The helper draws every row of each trial
one trial ahead, while the trial before it runs, persists and proposes: a
trial's rows depend on its seeds, not its tau.  A row's start point is
drawn as the row is made, and the helper draws its normals in one call,
rows in the order asked.  numpy's generators release the interpreter lock
while they fill an array, so the draws overlap the rows' arithmetic.  The
bits cannot change: each generator starts in ``make_rng``'s state and is
used by one thread, in stream order, a whole-row draw yields the values of
the block draws it spans, and a row's arithmetic reads only the values.
An error the helper meets is raised on the thread that reads the row it
was drawing.

Every row on each path is bit-identical to the stepwise loop built from
``mutate``, ``sphere_eval`` and ``update_sigma``:

* each row keeps its own generator and reads its normals in blocks of at
  most ``BLOCK_GENERATIONS`` generations, drawn as ``standard_normal((k,
  dimension))`` or sliced from a whole-row draw, which yield exactly the
  values of k successive ``standard_normal(dimension)`` draws;
* a candidate is ``x + sigma * z``: one multiply, then one add, in numpy
  or per coordinate in Python floats, which round alike;
* the sphere sums its squares strictly in coordinate order, never along
  the array's fast axis in memory, where numpy sums pairwise.  The
  lockstep path's C-ordered ``(dimension, rows)`` squares, of more than 3
  columns, have their columns along the fast axis, so ``np.add.reduce``
  down axis 0 adds whole rows in turn; each sum the screened path makes
  goes through ``np.add.accumulate``, and the stepwise path folds with
  ``+=``.  Do not replace these with ``np.sum`` along the fast axis, ``np.dot``,
  ``math.fsum`` or the builtin ``sum()``: the first two sum pairwise or
  blocked, the last two round differently (since Python 3.12 ``sum()`` of
  floats is compensated), and any of them changes the last bits.  The
  screened path's estimates and its bound on the parent's value use
  ``np.dot`` and ``np.einsum``, whose error its bound covers in any order,
  but never for a value it compares exactly or returns.  For the
  same reason ``store.trial_stats`` folds its sums with ``+=``;
* the offspring is accepted iff ``f_new <= f``, ties included;
* sigma is multiplied by ``math.exp(tau * (1.0 - 0.2))`` or
  ``math.exp(tau * (0.0 - 0.2))``, computed once per row with the same
  expression ``update_sigma`` evaluates every generation.  ``TAU_MAX``
  keeps both factors finite;
* the screened path skips only candidates whose value provably exceeds
  the parent's, and accepts without summing only those whose value is
  provably below it, so its acceptances, and with them its sigmas, are the
  stepwise loop's.  Those candidates are finite, so the stepwise loop would
  not have raised on them.

All three paths raise ``NumericalError`` with the same message in the
same cases: a non-finite candidate among those the stepwise loop makes,
then, checked only after all rows, sigma at 0 before a generation.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
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
    "sphere_eval",
    "update_sigma",
]

# Objective values are clamped here before the log so scores stay finite.
FITNESS_FLOOR = 1e-300

# Largest accepted tau: about 60x the top of the paper grid, and small enough
# that exp(0.8 * tau) stays finite (it overflows near tau = 887).
TAU_MAX = 100

# A row reads its normals, and the calling thread draws them, for at most
# this many generations at a time, so the block buffers stay small however
# long the run.  A _DrawnRow is drawn whole and read in blocks (see the
# module docstring's "Who draws the normals").
BLOCK_GENERATIONS = 128

# Largest accepted dimension.  A lockstep row holds 2 * BLOCK_GENERATIONS *
# dimension doubles of normals and candidates: at most 2 MB here.
MAX_DIMENSION = 1000

# run_batch runs a batch's rows in chunks whose lockstep normals and
# candidates take at most this many bytes (32 rows at MAX_DIMENSION), so a
# batch of any size stays within it; the paper grid's 100 rows are one chunk.
_LOCKSTEP_BYTES = 64 << 20

# Chunks of at most this many rows run one row at a time, stepwise or
# screened; larger ones run in lockstep (see the module docstring).
_FEW_ROWS = 3

# Rows in chunks of at most _FEW_ROWS rows run screened from each (dimension,
# generation count) here on, and stepwise below all of them: the measured
# crossover of the two paths (table in ROADMAP item 12).
_SCREENED_FROM = ((4, 1000), (5, 100), (9, 1))

# The fewest normals a trial draws (rows x generations x dimension) for which
# a session draws its rows ahead (see _draws_ahead).  Whole 12-trial
# sessions, draw-ahead against the calling thread, read 0.56-0.65x at 360
# and 1,000 normals a trial, 0.97x at 16,000 (8-D x 1000 x 2 rows), and
# 1.02-1.48x from 32,000 up at every shape measured, from 16-D x 1000 x 2 to
# 800-D x 20 x 2 (2 CPUs, numpy 2.4; table in ROADMAP item 12).  So the
# crossover lies between 16,000 and 32,000 normals a trial.
_HELPER_NORMALS = 32_000

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


# Objectives map a non-empty 1-D vector to a float.
_OBJECTIVES: dict[str, Callable[[np.ndarray], float]] = {"sphere": sphere_eval}


def register_objective(name: str, fn: Callable[[np.ndarray], float]) -> None:
    """Replace a registered objective's entry; ``"sphere"`` is the only one.

    ``fn`` maps a non-empty 1-D vector to a float.  The benchmark's tracer
    wraps the ``"sphere"`` entry, ``sphere_eval``; no kernel path calls an
    entry, as ``run_batch`` sums the sphere's squares itself, so replacing
    one changes no result.  Any other name raises ``ConfigurationError``:
    the kernel would run it as the sphere.
    """
    get_objective(name)
    _OBJECTIVES[name] = fn


def get_objective(name: str) -> Callable[[np.ndarray], float]:
    if name not in _OBJECTIVES:
        known = ", ".join(sorted(_OBJECTIVES))
        raise ConfigurationError(f"unknown objective {name!r} (known: {known})")
    return _OBJECTIVES[name]


def objective_names() -> list[str]:
    return sorted(_OBJECTIVES)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A registered objective function instantiated at a fixed dimension.

    ``SessionConfig`` checks that the dimension equals its template's.
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


def _generator(state: np.ndarray) -> np.random.Generator:
    """``make_rng(seed)``, built from ``state``, the seed's ``_seed_states``
    row: about 1.5 us where ``make_rng`` hashes the seed in about 11 us."""
    return np.random.Generator(np.random.PCG64(_seed_state_type()(state)))


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


def run_es(template: EsTemplate, tau: float, seed: int) -> EsRunResult:
    """Run the full (1+1)-ES loop for ``template.max_generations`` generations.

    The candidate is accepted when its objective value is less than or equal
    to the parent's, and sigma is updated every generation from that same
    indicator.  Pure: identical inputs give bit-identical results.
    """
    return run_batch(template, [tau], [seed])[0]


def run_batch(
    template: EsTemplate, taus: Sequence[float], seeds: Sequence[int],
    rngs: Sequence | None = None,
) -> list[EsRunResult]:
    """Run one (1+1)-ES row per (tau, seed) pair, all on ``template``.

    The rows run in chunks that fit ``_LOCKSTEP_BYTES``: a chunk of more
    than ``_FEW_ROWS`` rows runs in lockstep, a smaller one row by row,
    stepwise or screened as the dimension and generation count decide.
    Each row draws from its generator in ``rngs``, which a tuning session
    hands over, or else from one its chunk builds from its seed's
    ``_seed_states`` row (see the module docstring).  A session's rows may
    be drawn ahead by a ``_DrawAhead``; a row a helper met an error drawing
    raises it here.  This starts no thread.  Each row's result is
    bit-identical to the stepwise loop of its tau and seed alone, whichever
    thread drew it, and the batch raises ``NumericalError`` exactly when
    some row's stepwise loop would raise ``ValueError``: a non-finite
    candidate, or sigma at 0 before a generation.
    """
    taus, seeds = list(taus), list(seeds)
    if len(taus) != len(seeds):
        raise ConfigurationError("need one seed per tau")
    if not all(0 < tau <= TAU_MAX for tau in taus):  # NaN fails too
        raise ConfigurationError(f"tau must be > 0 and <= {TAU_MAX}")
    if not all(0 <= seed < _SEED_LIMIT for seed in seeds):
        raise ConfigurationError("seed must be an unsigned 64-bit integer")
    if not taus:
        return []
    dim, generations, sigma0 = template.dimension, template.max_generations, template.sigma0
    up = [math.exp(tau * (1.0 - 0.2)) for tau in taus]
    down = [math.exp(tau * (0.0 - 0.2)) for tau in taus]
    row = _screened if _runs_screened(dim, generations) else _stepwise
    # A row's normals and a replayed block's candidates: 2 * block * dim + 8 doubles.
    block_doubles = 2 * min(BLOCK_GENERATIONS, generations) * dim + 8
    chunk = max(1, _LOCKSTEP_BYTES // (8 * block_doubles))
    rows = []
    # Each chunk seeds its generators, unless handed them, and draws its
    # start points itself, so a batch holds one chunk's rows at a time.
    for i in range(0, len(seeds), chunk):
        part = (list(map(_generator, _seed_states(seeds[i : i + chunk]))) if rngs is None
                else rngs[i : i + chunk])
        if len(part) > _FEW_ROWS:
            rows += _lockstep(part, np.array([_start(rng, template) for rng in part]), sigma0,
                              up[i : i + chunk], down[i : i + chunk], generations)
            continue
        for j, rng in enumerate(part, i):
            x = _start(rng, template)
            rows.append(row(_blocks(rng, generations, dim), x, sigma0, up[j], down[j]))
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


@functools.cache
def _runs_screened(dimension: int, generations: int) -> bool:
    """Whether rows of a few-row chunk of this size run ``_screened``
    (``_SCREENED_FROM``), else ``_stepwise``."""
    return any(dimension >= d and generations >= g for d, g in _SCREENED_FROM)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draws_ahead(template: EsTemplate, rows: int) -> bool:
    """Whether a session of batches of ``rows`` rows on ``template`` has one
    ``_DrawAhead`` draw them, decided on the normals a batch draws, ``rows
    * max_generations * dimension``: where a batch is a few-row chunk (at
    most ``_FEW_ROWS`` rows) whose rows hold at least ``_HELPER_NORMALS``
    normals, and at most ``_LOCKSTEP_BYTES // 16``, so that two batches'
    rows, the most the helper holds, fit the lockstep budget; and where the
    process may run on 2 or more CPUs."""
    normals = rows * template.max_generations * template.dimension
    return (rows <= _FEW_ROWS and _HELPER_NORMALS <= normals <= _LOCKSTEP_BYTES // 16
            and _cpus() >= 2)


class _DrawAhead:
    """Rows drawn on one helper thread, named ``estune-normals``, ahead of
    the batches that read them.  A tuning session keeps one
    (``loop.run_session``).

    ``request(states)`` returns one ``_DrawnRow`` per ``_seed_states`` row
    in ``states``, its generator built from it (see the module docstring),
    and the helper draws the rows whole, in the order asked
    (``_draw_rows``).  ``close()`` lets the helper draw the rows asked for,
    and joins it.
    """

    def __init__(self, template: EsTemplate):
        self._template = template
        self._requests: queue.SimpleQueue[list[_DrawnRow] | None] = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=_draw_rows, name="estune-normals",
            args=((template.max_generations, template.dimension), iter(self._requests.get, None)))
        self._thread.start()

    def request(self, states: np.ndarray) -> list[_DrawnRow]:
        rows = [_DrawnRow(_generator(state), self._template) for state in states]
        self._requests.put(rows)
        return rows

    def close(self) -> None:
        self._requests.put(None)
        self._thread.join()


class _DrawnRow:
    """A row's generator, as ``run_batch``'s few-row paths use it, with its
    normals drawn by a ``_DrawAhead``'s helper.

    Its start point is drawn as it is made, on the calling thread, before
    the helper draws the rest.  ``uniform`` returns that start point, and
    ``standard_normal`` the next ``size[0]`` generations of the whole-row
    draw, waiting for the helper on its first call and raising there any
    error the helper met drawing it.  A whole-row draw yields the values of
    the block draws it spans.
    """

    def __init__(self, rng: np.random.Generator, template: EsTemplate):
        self.rng, self.drawn = rng, queue.SimpleQueue()
        self._x, self._rest = _start(rng, template), None

    def uniform(self, *args, **kwargs) -> np.ndarray:
        return self._x

    def standard_normal(self, size) -> np.ndarray:
        if self._rest is None:
            z = self.drawn.get()
            if isinstance(z, BaseException):
                raise z
            self._rest = z
        z, self._rest = self._rest[: size[0]], self._rest[size[0] :]
        return z


def _start(rng, template):
    """A row's start point, its generator's first draw."""
    return rng.uniform(template.init_low, template.init_high, size=template.dimension)


def _blocks(rng, generations, dim):
    """A row's normals, drawn from ``rng`` as the row reads them: one
    ``(n, dim)`` array per block of at most ``BLOCK_GENERATIONS``
    generations."""
    for start in range(0, generations, BLOCK_GENERATIONS):
        yield rng.standard_normal((min(BLOCK_GENERATIONS, generations - start), dim))


def _draw_rows(shape, requests):
    """The helper thread: hand each ``_DrawnRow`` of each list in
    ``requests``, in order, its normals drawn whole as a ``shape`` array,
    or the exception met drawing them, and stop there."""
    for rows in requests:
        for row in rows:
            try:
                z = row.rng.standard_normal(shape)
            except BaseException as exc:  # raised on the reading thread by the row
                row.drawn.put(exc)
                return
            row.drawn.put(z)


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

    It takes at least 2 rows, so that ``np.add.reduce`` sums down axis 0 in
    coordinate order; ``run_batch`` gives it more than ``_FEW_ROWS``.  One
    candidate buffer and one buffer of squares are reused, and the reduce
    writes each generation's sums into a ``(block, rows)`` buffer of values.
    The parent's value is ``np.minimum(f_new, f)``, which equals the
    accepted value wherever ``f_new <= f``: sums of squares are never -0,
    and a nan value comes only from a non-finite candidate.  The block is
    checked by its values, since a non-finite candidate has a non-finite
    value.  When one is not finite, the parents and their values are
    restored to the block's start and the block runs again, keeping each
    candidate in a ``(block, dimension, rows)`` buffer to check it.  This
    tells a non-finite candidate, which raises, from finite squares that
    overflow, which are legal.  Both runs make the same candidates up to the
    first non-finite one, so they raise alike.
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
    f = np.empty(rows)
    np.add.reduce(np.multiply(x, x, out=squares), axis=0, out=f)
    values = np.empty((block, rows))
    start_x, start_f = np.empty_like(x), np.empty_like(f)

    def advance(views):
        # Every view a generation uses is made before the loop, so that it
        # allocates nothing.
        for normal, c, f_new, sigma, next_sigma in views:
            np.multiply(sigma, normal, out=c)
            np.add(x, c, out=c)
            np.add.reduce(np.multiply(c, c, out=squares), axis=0, out=f_new)
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


def _stepwise(blocks, x, sigma, up, down):
    """One sphere row, one generation at a time in Python floats: ``(f,
    sigma, sigma before the last generation)``.

    ``blocks`` yields the row's normals as ``(n, dimension)`` arrays, n
    generations each, and ``x`` is its start point as a 1-D array, taken as
    a list.  Each candidate coordinate is ``xi + sigma * zi`` and the
    squares are summed with ``+=`` in coordinate order: the stepwise loop's
    own operations, in its order.  Only an accepted candidate is kept, made
    again from the same operands.
    """
    x = x.tolist()
    f = 0.0
    for xi in x:
        f += xi * xi
    for block in blocks:
        for z in block.tolist():
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
def _screened(blocks, x, sigma, up, down):
    """One sphere row that makes only the offspring that may be accepted and
    sums only the squares it must: ``(f, sigma, sigma before the last
    generation)``.

    ``blocks`` yields the row's normals as ``(n, dimension)`` arrays, n
    generations each, and ``x`` is its start point as a 1-D array.  Let
    ``f`` be the parent's value, its squares summed in coordinate order as
    the stepwise loop sums them, ``s`` the sigma of a generation and ``z``
    its normals.  The screen estimates the value of the candidate
    ``x + s z`` as ``approx = f + D`` with ``D = 2 s a + s s b``, from
    ``b = |z|**2``, one call per block of normals, and ``a = z . x``, one
    matrix-vector product per acceptance (made for ``_SCREEN_AHEAD``
    generations at a time).  With ``m = k (h + s s b) + 1e-300``,
    ``k = (4 d + 64) eps`` at ``d`` dimensions and ``h`` an upper bound on
    ``f``, it decides two ways:

    * ``D > m``: a rejection.  The candidate is not made;
    * ``D < -m``, ``D`` finite: an acceptance.  The candidate is made, as
      the stepwise loop makes it, since later dots and candidates use it,
      but its squares are not summed: ``h`` becomes ``fl(fl(h + D) + m)``.

    Only when the screen cannot decide (a tie, ``|D| <= m``, or a block
    whose ``b`` is outside ``_SCREEN_NORMS``) does it sum the parent's
    squares, if ``h`` is not already their sum, and set ``h`` to it; the
    candidate is then made and summed as the stepwise loop does, ``x + s
    z`` then its squares in coordinate order, so that acceptance, tie, inf
    and nan are the stepwise loop's own, and so is the non-finite check.
    The parent's squares are summed once more at the end of the row.  Sigma
    runs through the stepwise loop's own products.

    Why a decision is right.  Let u = eps / 2, eta the smallest subnormal
    and ``gamma_d = d u / (1 - d u)`` (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 2.2 and 3.1).  Each rounding is
    ``fl(p op q) = (p op q)(1 + delta) + e`` with ``|delta| <= u`` and
    ``|e| <= eta / 2``, and ``e`` is 0 but for a product that underflows.
    Take the exact ``X = |x|**2``, ``Y = s**2 |z|**2``, ``P = X + Y`` and
    ``T = |x + s z|**2 = X + 2 s (z . x) + Y``.  A sum of d terms in any
    order, FMA or not, as any BLAS makes it, is off by at most ``gamma_d``
    of the sum of their magnitudes plus ``d eta``, and
    ``2 s sum |x_i z_i| <= P``.  So, each bound two-sided:

    * the candidate's value ``F``: ``|F - T| <= (2 gamma_d + 8 u) P + d eta``,
      where ``x + s z`` rounds twice a coordinate;
    * the parent's value: ``|f - X| <= gamma_d X + d eta``;
    * ``|D - (T - X)| <= (2 gamma_d + 5 u) P + 2 s d eta + s**2 d eta
      + eta b / 2``, through ``a``, ``b`` and four roundings.  While ``b`` lies
      in ``_SCREEN_NORMS``, ``[1e-200, 1e20]``, the last three terms are at
      most ``2 u P + 3e-304``; a block with a ``b`` outside it decides
      nothing.

    Hence ``|F - f - D| <= (5 gamma_d + 15 u) P + 3.1e-304`` (terms of
    order ``u**2 P`` left out), and ``P <= (1 + gamma_d + 5 u)(h + s s b)``
    plus as little, so ``|F - f - D| <= E = (2.5 d + 8.5) eps (h + s s b)
    + 3.2e-304`` at ``d <= MAX_DIMENSION``.  After its own three roundings
    ``m`` still exceeds ``E`` by at least ``(1.5 d + 55) eps (h + s s b)
    + 0.99e-300``.  So ``D > m`` gives ``F > f`` and ``D < -m`` gives
    ``F < f``, for any ``f`` up to ``h``.  A decision needs a finite
    ``m``, so ``h`` and ``s s b`` are finite.  A skipped candidate then has
    finite coordinates, and so has an accepted one, whose value is below
    ``f``: the stepwise loop would not have raised on either.  If ``D``
    overflows to inf, ``T - X`` is within the error terms of the top of
    the float range, far above ``f``, so ``F > f`` still.  A ``D`` of -inf
    decides nothing: ``T - X`` is then within the error terms of minus the
    top of the float range, but ``Y``, up to the top of it, may cancel
    that.  A nan ``D`` or ``m``, or an inf ``m``, decides nothing.

    Why ``h`` stays at or above ``f``.  At a proven acceptance, with ``E``
    taken at the old ``h``, ``F <= f + D + E <= h + D + E``.  ``F >= 0`` gives
    ``D >= -h - E``, and ``D < 0``, so ``|h + D| <= h + E`` and the two
    roundings of ``fl(fl(h + D) + m)`` are at most ``2 u (1 + u)
    (h + E + m)``, about ``eps (h + s s b)``: less than the margin by which
    ``m`` exceeds ``E``.  So the new ``h`` is at least ``h + D + E >= F``.
    Only this upper end is kept: both decisions read ``h`` only, through
    ``m``, so a lower end would never be read.  ``h`` moves away from ``f``
    by up to about ``2 m`` per proven acceptance; an undecided screen, which
    the larger ``m`` makes likelier, sums the squares and makes ``h`` exact
    again.
    """
    dim = x.shape[0]
    k = (4 * dim + 64) * _EPS
    # h is the parent's value, summed, while exact is true, and otherwise
    # an upper bound on it.
    h = _fold_squares(x)
    exact = True
    kh = k * h + _SCREEN_TINY
    for z in blocks:
        n = len(z)
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
                d = (s + s) * ai + ssb
                m = kh + k * ssb
                if d > m:
                    sigma = s * down
                    continue
                c = z[g - 1] * s
                c += x
                if -m > d > -math.inf:
                    x, h, sigma, exact = c, h + d + m, s * up, False
                    kh = k * h + _SCREEN_TINY
                    break
                if not exact:
                    h, exact = _fold_squares(x), True
                    kh = k * h + _SCREEN_TINY
                f_new = _fold_squares(c)
                # A non-finite candidate has a non-finite value; so has a
                # finite one whose squares overflow, which is legal.
                if not f_new < math.inf and not np.isfinite(c).all():
                    raise NumericalError(_NON_FINITE)
                if f_new <= h:
                    x, h, sigma = c, f_new, s * up
                    kh = k * h + _SCREEN_TINY
                    break
                sigma = s * down
    return (h if exact else _fold_squares(x)), sigma, s


def _fold_squares(c):
    """``sphere_eval`` of the 1-D array ``c``: its squares summed in order."""
    squares = c * c
    return np.add.accumulate(squares, out=squares).item(-1)
