"""Unit and property tests for the (1+1)-ES core."""

import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import estune.cli as cli_mod
import estune.es as es_mod
from estune.es import (
    FITNESS_FLOOR,
    MAX_DIMENSION,
    TAU_MAX,
    ConfigurationError,
    EsTemplate,
    NumericalError,
    ObjectiveSpec,
    make_rng,
    mutate,
    run_batch,
    run_es,
    score_of,
    sphere_eval,
    update_sigma,
)
from estune.llm import ScriptedBackend
from estune.loop import derive_seed, run_session, run_trial, run_trials
from estune.report import GridSpec, grid_values, run_grid
from estune.store import SessionConfig, log_line

from conftest import read_where_the_row_is, spy_threads, within_a_minute
from oracle import stepwise_run


def sum_of_squares_oracle(values):
    # Independent left-to-right accumulation; must agree bit-for-bit with
    # sphere_eval, which documents the same summation order.
    return functools.reduce(lambda acc, v: acc + v * v, [float(v) for v in values], 0.0)


class TestSphere:
    def test_global_optimum(self):
        assert sphere_eval([0.0, 0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_sum_of_ones(self):
        assert sphere_eval([1.0, 1.0, 1.0, 1.0, 1.0]) == 5.0

    def test_three_four(self):
        assert sphere_eval([3.0, 4.0]) == 25.0

    def test_zero_only_at_origin(self):
        assert sphere_eval([1e-8, 0.0]) > 0.0

    @pytest.mark.parametrize("bad", [[float("nan"), 1.0], [float("inf")], [1.0, -float("inf")]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            sphere_eval(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sphere_eval([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40))
    def test_matches_independent_oracle_exactly(self, values):
        assert sphere_eval(np.array(values)) == sum_of_squares_oracle(values)


class TestMutate:
    def test_length_preserved_and_input_untouched(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        out = mutate(x, 0.5, make_rng(3))
        assert out.shape == x.shape
        assert np.array_equal(x, before)

    def test_seeded_determinism(self):
        a = mutate(np.array([1.0, 1.0]), 1.0, make_rng(7))
        b = mutate(np.array([1.0, 1.0]), 1.0, make_rng(7))
        assert np.array_equal(a, b)

    def test_vanishing_sigma_limit(self):
        out = mutate(np.array([0.0, 0.0]), 1e-300, make_rng(0))
        assert np.allclose(out, [0.0, 0.0], atol=1e-290)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            mutate(np.array([0.0]), 0.0, make_rng(0))

    def test_noise_scale_statistical(self):
        # 1e5 coordinates at sigma=2: the sample std estimates sigma with
        # standard error ~ sigma/sqrt(2n) ~ 0.0045, so [1.97, 2.03] is a
        # comfortable band for a fixed seed.
        out = mutate(np.zeros(100_000), 2.0, make_rng(123))
        assert 1.97 <= float(np.std(out, ddof=1)) <= 2.03


class TestUpdateSigma:
    def test_success_value(self):
        assert update_sigma(1.0, 0.95, True) == pytest.approx(2.1382762204968184, rel=1e-12)

    def test_failure_value(self):
        assert update_sigma(2.0, 0.5, False) == pytest.approx(1.809674836071919, rel=1e-12)

    def test_tiny_tau_is_identity(self):
        assert update_sigma(3.7, 1e-18, True) == 3.7
        assert update_sigma(3.7, 1e-18, False) == 3.7

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.001, max_value=3.0),
        st.booleans(),
    )
    def test_closed_form(self, sigma, tau, success):
        expected = sigma * math.exp(0.8 * tau) if success else sigma * math.exp(-0.2 * tau)
        assert update_sigma(sigma, tau, success) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.001, max_value=3.0))
    def test_one_success_balances_four_failures(self, sigma, tau):
        product = update_sigma(sigma, tau, True) * update_sigma(sigma, tau, False) ** 4
        assert product == pytest.approx(sigma**5, rel=1e-12)


# The first draws of make_rng(seed): uniform(-5, 5, 3), then, from a fresh
# generator, standard_normal(3).  Every golden file and bench digest rests
# on this stream.
STREAM_CANARY = {
    0: (
        ["0x1.5e9f361e81990p+0", "-0x1.26ac4a2571befp+1", "-0x1.25c6e5d8bafd4p+2"],
        ["0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1"],
    ),
    2**64 - 1: (
        ["0x1.ccde48c97ac90p+0", "0x1.b9ffc1cdc0188p+1", "-0x1.3b4314409a990p+2"],
        ["0x1.715303191d87bp-1", "-0x1.f10c32096a2bdp-1", "0x1.1b8d40660f8bfp-4"],
    ),
}


class TestRandomStream:
    @pytest.mark.parametrize("seed", sorted(STREAM_CANARY))
    def test_first_draws_are_pinned(self, seed):
        drawn = (
            [x.hex() for x in make_rng(seed).uniform(-5, 5, 3)],
            [x.hex() for x in make_rng(seed).standard_normal(3)],
        )
        assert drawn == STREAM_CANARY[seed], (
            f"numpy {np.__version__} changed its PCG64 or ziggurat standard_normal "
            f"stream at seed {seed}: every golden session, grid and digest changes with it"
        )


class TestSeedStates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=8))
    @example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_one_pass_equals_seed_sequence(self, seeds):
        states = es_mod._seed_states(seeds)
        assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
        for seed, state in zip(seeds, states):
            assert state.tolist() == (
                np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            )
        for seed, state in zip(seeds, states):
            rng = es_mod._generator(state)
            assert rng.bit_generator.state == make_rng(seed).bit_generator.state

    def test_importing_the_package_leaves_numpy_random_to_first_use(self):
        # numpy 2 imports numpy.random, about 15 ms, only when first used;
        # the one-pass seeding must not pull it into every start-up.
        code = (
            "import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "import estune.cli\n"
            "sys.exit(('numpy.random' in sys.modules) != before)\n"
        )
        assert subprocess.run([sys.executable, "-c", code], env=dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path))).returncode == 0


class TestScore:
    def test_log_of_one(self):
        assert score_of(1.0) == 0.0

    def test_inverse_of_exp(self):
        assert score_of(math.exp(-10)) == pytest.approx(10.0, rel=1e-12)

    def test_floor_at_zero(self):
        assert score_of(0.0) == pytest.approx(690.7755278982137, rel=1e-12)
        assert score_of(0.0) == -math.log(FITNESS_FLOOR)

    def test_monotone_decreasing(self):
        assert score_of(0.5) > score_of(1.0) > score_of(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            score_of(-1e-9)


def _paper_template(generations=1000):
    return EsTemplate(sigma0=1.0, dimension=5, max_generations=generations)


class TestRunEs:
    def test_bit_identical_repeat(self):
        a = run_es(_paper_template(), 0.95, 42)
        b = run_es(_paper_template(), 0.95, 42)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_es(_paper_template(50), 0.95, 1)
        b = run_es(_paper_template(50), 0.95, 2)
        assert a.best_f != b.best_f

    def test_objective_values_non_increasing(self):
        history = []
        template = _paper_template(400)
        stepwise_run(template, 0.95, 5, history)
        assert len(history) == 400
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert history[-1] == run_es(template, 0.95, 5).best_f

    def test_score_recomputable_from_best_f(self):
        result = run_es(_paper_template(200), 0.95, 9)
        assert result.score == score_of(result.best_f)

    def test_final_sigma_positive(self):
        for seed in range(5):
            assert run_es(_paper_template(100), 0.95, seed).final_sigma > 0

    def _first_generation_outcome(self, seed, tau=0.95):
        template = EsTemplate(sigma0=1.0, dimension=3, max_generations=1)
        result = run_es(template, tau, seed)
        rng = make_rng(seed)
        x0 = rng.uniform(template.init_low, template.init_high, size=3)
        return template, result, sphere_eval(x0)

    def test_single_generation_rejection_trace(self):
        # A rejected first mutation leaves the initial point and shrinks
        # sigma by exp(-tau/5).
        for seed in range(100):
            template, result, f0 = self._first_generation_outcome(seed)
            if result.best_f == f0 and result.final_sigma < template.sigma0:
                assert result.final_sigma == pytest.approx(
                    template.sigma0 * math.exp(-0.95 / 5), rel=1e-12
                )
                return
        pytest.fail("no rejecting seed found in 100 tries")

    def test_single_generation_acceptance_trace(self):
        for seed in range(100):
            template, result, f0 = self._first_generation_outcome(seed)
            if result.best_f < f0:
                assert result.final_sigma == pytest.approx(
                    template.sigma0 * math.exp(0.8 * 0.95), rel=1e-12
                )
                return
        pytest.fail("no accepting seed found in 100 tries")

    def test_paper_setting_score_magnitude(self):
        # Single run of the reference setting; scores land in the tens.
        result = run_es(_paper_template(), 0.95, 7)
        assert 20.0 < result.score < 150.0

    def test_generations_run_recorded(self):
        result = run_es(_paper_template(17), 0.95, 3)
        assert result.generations_run == 17


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": -1.0},
            {"sigma0": 0.0},
            {"dimension": 0},
            {"max_generations": 0},
            {"init_low": 5.0, "init_high": -5.0},
            {"seed": -1},
            {"seed": 1 << 64},
            {"tau": TAU_MAX * 1.0000001},
            {"tau": 1e308},
            {"tau": math.nan},
            {"sigma0": math.inf},
            {"init_high": math.inf},
            {"init_low": -1e308, "init_high": 1e308},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        # tau and seed are rows of run_batch; the rest build the template.
        base = dict(tau=0.95, sigma0=1.0, dimension=5, max_generations=10, seed=0)
        base.update(kwargs)
        tau, seed = base.pop("tau"), base.pop("seed")
        with pytest.raises(ConfigurationError):
            run_batch(EsTemplate(**base), [0.95, tau], [1, seed])

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError, match="sphere"):
            ObjectiveSpec("rastrigin_misspelled", 5)

    def test_only_a_registered_entry_can_be_replaced(self, monkeypatch):
        # No kernel path calls the registry, so the kernel would run a new
        # name as the sphere.
        before = dict(es_mod._OBJECTIVES)
        with pytest.raises(ConfigurationError):
            es_mod.register_objective("other", sphere_eval)
        with pytest.raises(ConfigurationError):
            ObjectiveSpec("other", 5)
        assert es_mod._OBJECTIVES == before
        monkeypatch.setitem(es_mod._OBJECTIVES, "sphere", sphere_eval)
        wrapped = functools.partial(sphere_eval)
        es_mod.register_objective("sphere", wrapped)
        assert es_mod.get_objective("sphere") is wrapped
        assert es_mod.objective_names() == ["sphere"]

    def test_template_stamps_configs(self):
        # The template supplies all but tau and seed: a run is its stepwise
        # loop at that tau and seed.
        template = EsTemplate(sigma0=2.0, dimension=4, max_generations=50)
        result = run_es(template, 1.1, 77)
        assert result.seed == 77
        assert result.generations_run == 50
        assert (result.best_f, result.final_sigma) == stepwise_run(template, 1.1, 77)

    def test_largest_dimension_accepted(self):
        assert EsTemplate(dimension=MAX_DIMENSION).dimension == MAX_DIMENSION

    def test_tau_max_itself_accepted(self):
        run_es(_paper_template(10), TAU_MAX, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma0": 0.0},
            {"sigma0": math.inf},
            {"sigma0": math.nan},
            {"dimension": 0},
            {"max_generations": 0},
            {"init_low": 5.0, "init_high": -5.0},
            {"init_low": -math.inf},
            {"init_high": math.inf},
            {"dimension": MAX_DIMENSION + 1},
        ],
    )
    def test_bad_template_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EsTemplate(**kwargs)


# Dimensions on both sides of where the row paths cross: at 1-200
# generations rows run stepwise up to 4-D and screened from 9-D, and 5-8-D
# rows take either path by their generation count.
_DIMENSIONS = st.one_of(st.integers(1, 8), st.integers(9, 64))


@st.composite
def _batches(draw, min_rows=1, max_rows=8):
    """One template and min_rows to max_rows (tau, seed) rows; sigma0
    reaches down to 1e-300, where an unmoved candidate ties its parent."""
    template = EsTemplate(
        sigma0=draw(st.floats(min_value=1e-300, max_value=1e3)),
        dimension=draw(_DIMENSIONS),
        max_generations=draw(st.integers(1, 200)),
    )
    rows = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
        st.integers(0, (1 << 64) - 1),
    ), min_size=min_rows, max_size=max_rows))
    return template, rows


def _lockstep_budget(template, rows):
    """The ``_LOCKSTEP_BYTES`` that makes chunks of ``rows`` rows."""
    block = min(es_mod.BLOCK_GENERATIONS, template.max_generations)
    return rows * 8 * (2 * block * template.dimension + 8)


def _hex_rows_or_error(template, taus, seeds):
    try:
        results = run_batch(template, taus, seeds)
    except NumericalError:
        return "NumericalError"
    return [(r.best_f.hex(), r.final_sigma.hex()) for r in results]


def _rows_or_message(template, taus, seeds):
    try:
        results = run_batch(template, taus, seeds)
    except NumericalError as exc:
        return str(exc)
    return [(r.best_f.hex(), r.final_sigma.hex()) for r in results]


def _spy_paths(monkeypatch):
    """The path name and start points, as a ``(rows, dimension)`` array, of
    each kernel call ``run_batch`` makes from here on."""
    calls = []
    for name in ("_stepwise", "_screened", "_lockstep"):
        def spy(normals, x, *rest, _name=name, _real=getattr(es_mod, name)):
            calls.append((_name, np.atleast_2d(x).copy()))
            return _real(normals, x, *rest)

        monkeypatch.setattr(es_mod, name, spy)
    return calls


def _oracle_or_error(template, tau, seed):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return stepwise_run(template, tau, seed)
    except ValueError:
        return None


def _assert_rows_match_oracle(template, rows):
    taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
    expected = [_oracle_or_error(template, tau, seed) for tau, seed in rows]
    if None in expected:
        with pytest.raises(ValueError):
            run_batch(template, taus, seeds)
        return
    results = run_batch(template, taus, seeds)
    got = [(r.best_f.hex(), r.final_sigma.hex()) for r in results]
    assert got == [(f.hex(), sigma.hex()) for f, sigma in expected]


class TestRunBatch:
    @settings(max_examples=200, deadline=None)
    @given(_batches())
    def test_rows_match_stepwise_oracle_bit_for_bit(self, batch):
        _assert_rows_match_oracle(*batch)

    @settings(max_examples=100, deadline=None)
    @given(_batches(4, 8))
    def test_lockstep_rows_equal_few_row_chunks(self, batch):
        # 4+ rows run in lockstep, chunks of at most 3 stepwise or screened,
        # as their dimension decides.
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        chunks = [
            _hex_rows_or_error(template, taus[i : i + 3], seeds[i : i + 3])
            for i in range(0, len(rows), 3)
        ]
        few_rows = (
            "NumericalError" if "NumericalError" in chunks else [r for c in chunks for r in c]
        )
        assert _hex_rows_or_error(template, taus, seeds) == few_rows

    def test_one_row_at_the_paper_setting_matches_stepwise(self):
        # run-es traffic: one row, 5-D, 1000 generations.
        template = _paper_template()
        for seed in (0, 7, 123456789):
            result = run_es(template, 0.95, seed)
            f, sigma = stepwise_run(template, 0.95, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_paper_grid_rows_match_stepwise(self):
        # The paper grid's 100 rows in lockstep; 300 generations cross two
        # boundaries of the normals' blocks.
        assert 2 * es_mod.BLOCK_GENERATIONS < 300 < 3 * es_mod.BLOCK_GENERATIONS
        template = _paper_template(300)
        taus = [tau for tau in grid_values(GridSpec()) for _ in range(10)]
        seeds = list(range(100))
        results = run_batch(template, taus, seeds)
        for result, tau, seed in zip(results, taus, seeds):
            f, sigma = stepwise_run(template, tau, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize(
        "rows, dimension, path",
        [
            (1, 1, "_stepwise"),
            (3, 8, "_stepwise"),
            (1, 9, "_screened"),
            (3, 64, "_screened"),
            (4, 3, "_lockstep"),
            (4, 64, "_lockstep"),
        ],
    )
    def test_path_is_chosen_by_rows_and_dimension(self, monkeypatch, rows, dimension, path):
        # A wrapped registry entry, as the benchmark's tracer installs, must
        # not change the path: no path calls the registry.
        sphere = es_mod.get_objective("sphere")
        monkeypatch.setitem(es_mod._OBJECTIVES, "sphere", lambda x: sphere(x))
        calls = _spy_paths(monkeypatch)
        template = EsTemplate(dimension=dimension, max_generations=20)
        results = run_batch(template, [0.9] * rows, list(range(rows)))
        assert {name for name, _ in calls} == {path}
        for result, seed in zip(results, range(rows)):
            f, sigma = stepwise_run(template, 0.9, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension, generations, path", [
        (3, 1000, "_stepwise"),
        (4, 999, "_stepwise"),
        (4, 1000, "_screened"),
        (5, 99, "_stepwise"),
        (5, 100, "_screened"),
        (8, 99, "_stepwise"),
        (8, 100, "_screened"),
        (9, 1, "_screened"),
    ])
    def test_path_is_chosen_by_dimension_and_generations(self, monkeypatch, dimension,
                                                          generations, path):
        # The measured crossover of the two row paths (ROADMAP item 12).
        calls = _spy_paths(monkeypatch)
        template = EsTemplate(dimension=dimension, max_generations=generations)
        result = run_batch(template, [0.9], [4])[0]
        assert [name for name, _ in calls] == [path]
        f, sigma = stepwise_run(template, 0.9, 4)
        assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("generations", [1, es_mod.BLOCK_GENERATIONS,
                                             es_mod.BLOCK_GENERATIONS + 1, 300])
    @pytest.mark.parametrize("dimension, path", [(5, "_stepwise"), (16, "_screened")])
    def test_lockstep_rows_equal_the_row_paths(self, generations, dimension, path):
        # Whole rows, the sigma before the last generation included: it is
        # what the zero-sigma check reads.
        taus, seeds = [0.3, 0.9, 1.7, 4.0], [0, 5, 2**32, 2**64 - 1]
        up = [math.exp(tau * (1.0 - 0.2)) for tau in taus]
        down = [math.exp(tau * (0.0 - 0.2)) for tau in taus]

        def seeded():
            rngs = [make_rng(seed) for seed in seeds]
            return rngs, np.array([rng.uniform(-5.0, 5.0, size=dimension) for rng in rngs])

        rngs, starts = seeded()
        expected = [getattr(es_mod, path)(es_mod._blocks(rng, generations, dimension), x, 1.0, u, d)
                    for rng, x, u, d in zip(rngs, starts, up, down)]
        rngs, starts = seeded()
        assert es_mod._lockstep(rngs, starts, 1.0, up, down, generations) == expected

    def test_non_finite_message_is_the_same_on_both_paths(self, monkeypatch):
        # Three paths: 2 rows at 5-D and 20 generations run stepwise, 2 rows
        # at 9-D screened, 4 rows in lockstep.
        seed = 16789950873655392269
        cases = [
            (5, 20, [2, seed], "_stepwise"),
            (9, 200, [2, seed], "_screened"),
            (5, 200, [2, seed, 3, 4], "_lockstep"),
        ]
        messages = []
        for dimension, generations, seeds, path in cases:
            template = EsTemplate(sigma0=1e308, dimension=dimension, max_generations=generations)
            with monkeypatch.context() as patch:
                calls = _spy_paths(patch)
                with pytest.raises(NumericalError) as caught:
                    run_batch(template, [1.0] * len(seeds), seeds)
            assert {name for name, _ in calls} == {path}
            messages.append(str(caught.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("dimension", [5, 64])
    @pytest.mark.parametrize("sigma0, box, taus", [(1e160, 5.0, [30, 50, 75, TAU_MAX]),
                                                   (1.0, 1e300, [0.5, 0.75, 1.0, 1.25])])
    def test_squares_that_overflow_do_not_raise_in_lockstep(self, monkeypatch, dimension,
                                                            sigma0, box, taus):
        # Each row's first candidate is finite but its squares overflow: the
        # lockstep sphere's values are inf, so the block is replayed from its
        # start, finds no non-finite candidate, and goes on.  At sigma0 1e160
        # such candidates are rejected until these taus bring sigma down to
        # where offspring are accepted, within the same block; in a box of
        # 1e300 the parent's value is inf too, so each one ties its parent.
        template = EsTemplate(sigma0=sigma0, dimension=dimension, max_generations=200,
                              init_low=-box, init_high=box)
        rows = list(zip(taus, [2, 3, 5, 8]))
        for _, seed in rows:
            rng = make_rng(seed)
            x = rng.uniform(template.init_low, template.init_high, size=dimension)
            assert sphere_eval(mutate(x, template.sigma0, rng)) == math.inf
        calls = _spy_paths(monkeypatch)
        _assert_rows_match_oracle(template, rows)
        assert {name for name, _ in calls} == {"_lockstep"}

    @pytest.mark.parametrize("sigma0", [1.0, 1e160])
    def test_a_one_row_chunk_matches_stepwise(self, monkeypatch, sigma0):
        # 5 rows in chunks of 4: the last chunk holds one row, which runs
        # row by row, screened at 64-D, and not as a single lockstep column.
        template = EsTemplate(sigma0=sigma0, dimension=64, max_generations=200)
        monkeypatch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, 4))
        calls = _spy_paths(monkeypatch)
        _assert_rows_match_oracle(template, [(0.9, seed) for seed in range(5)])
        assert [(name, len(x)) for name, x in calls] == [("_lockstep", 4), ("_screened", 1)]

    def test_raises_on_a_non_finite_candidate(self):
        template = EsTemplate(sigma0=1e308, dimension=5, max_generations=200)
        seed = 16789950873655392269
        assert _oracle_or_error(template, 1.0, seed) is None
        assert _oracle_or_error(template, 1.0, 2) is not None
        with pytest.raises(NumericalError):
            run_batch(template, [1.0, 1.0], [2, seed])
        assert issubclass(NumericalError, ValueError)

    def test_raises_only_when_sigma_is_0_before_a_generation(self, monkeypatch):
        # The stepwise loop raises in the first generation that starts at
        # sigma 0, not when sigma reaches 0 in the last one.  A row path
        # returns (f, sigma, sigma before the last generation); the paper
        # setting's row runs screened.
        monkeypatch.setattr(es_mod, "_screened", lambda *args: (1.0, 0.0, 5e-324))
        assert run_batch(_paper_template(), [1.0], [0])[0].final_sigma == 0.0
        monkeypatch.setattr(es_mod, "_screened", lambda *args: (1.0, 0.0, 0.0))
        with pytest.raises(NumericalError, match="sigma reached 0"):
            run_batch(_paper_template(), [1.0], [0])

    def test_zero_sigma_message_is_the_same_on_both_paths(self, monkeypatch):
        # On the sphere a tiny sigma leaves the candidate equal to its parent,
        # a tie that is accepted, so sigma cannot fall to 0: each path's rows
        # are started at sigma 0, which stays 0.  Lockstep runs 4 rows in one
        # chunk, and 8 rows in two chunks of 4.
        stepwise, screened, lockstep = es_mod._stepwise, es_mod._screened, es_mod._lockstep
        start = [1.0, -2.0, 3.0, 0.5, 0.0]
        assert stepwise(es_mod._blocks(make_rng(0), 200, 5), np.array(start), 0.0, 2.0,
                        0.5) == (14.25, 0.0, 0.0)
        assert screened(es_mod._blocks(make_rng(0), 200, 15), np.array(start * 3), 0.0, 2.0,
                        0.5) == (42.75, 0.0, 0.0)
        assert lockstep([make_rng(0), make_rng(1)], np.array([start] * 2), 0.0, [2.0] * 2,
                        [0.5] * 2, 200) == [(14.25, 0.0, 0.0)] * 2
        monkeypatch.setattr(es_mod, "_stepwise",
                            lambda blocks, x, sigma, *rest: stepwise(blocks, x, 0.0, *rest))
        monkeypatch.setattr(es_mod, "_screened",
                            lambda blocks, x, sigma, *rest: screened(blocks, x, 0.0, *rest))
        monkeypatch.setattr(es_mod, "_lockstep",
                            lambda rngs, x, sigma, *rest: lockstep(rngs, x, 0.0, *rest))
        messages = []
        for dimension, rows, chunk_rows in [(3, 1, None), (15, 1, None), (5, 4, None), (5, 8, 4)]:
            template = EsTemplate(dimension=dimension, max_generations=200)
            with monkeypatch.context() as patch:
                if chunk_rows is not None:
                    patch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, chunk_rows))
                with pytest.raises(NumericalError) as caught:
                    run_batch(template, [TAU_MAX] * rows, list(range(rows)))
            messages.append(str(caught.value))
        assert set(messages) == {"sigma reached 0 before the last generation"}

    @settings(max_examples=60, deadline=None)
    @given(_batches(8, 16), st.integers(4, 8))
    def test_rows_in_chunks_equal_one_chunk(self, batch, chunk_rows):
        # A budget of 4-8 rows splits the 8-16 rows into lockstep chunks,
        # and maybe a last chunk of at most 3 rows, run row by row.
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        whole = _rows_or_message(template, taus, seeds)
        with mock.patch.object(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, chunk_rows)):
            assert _rows_or_message(template, taus, seeds) == whole

    @settings(max_examples=60, deadline=None)
    @given(_batches(1, 16), st.integers(1, 8))
    def test_chunks_cover_the_rows_in_order(self, batch, chunk_rows):
        # Every lockstep chunk holds more than _FEW_ROWS rows, and the
        # chunks take the rows' start points in order.
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        whole = _rows_or_message(template, taus, seeds)
        starts = [make_rng(seed).uniform(template.init_low, template.init_high,
                                         size=template.dimension) for seed in seeds]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, chunk_rows))
            calls = _spy_paths(patch)
            assert _rows_or_message(template, taus, seeds) == whole
        assert all(len(x) > es_mod._FEW_ROWS for name, x in calls if name == "_lockstep")
        taken = [start for _, x in calls for start in x]
        assert len(taken) == len(seeds) or isinstance(whole, str)
        assert [s.tobytes() for s in taken] == [s.tobytes() for s in starts[: len(taken)]]

    def test_a_last_row_past_the_real_budget_runs_alone(self, monkeypatch):
        # 33 rows at 1000-D and 128 generations fill one 32-row lockstep
        # chunk; the 33rd row runs row by row, not as a one-column chunk.
        template = EsTemplate(dimension=MAX_DIMENSION, max_generations=es_mod.BLOCK_GENERATIONS)
        calls = _spy_paths(monkeypatch)
        results = run_batch(template, [0.9] * 33, range(33))
        assert [(name, len(x)) for name, x in calls] == [("_lockstep", 32), ("_screened", 1)]
        f, sigma = stepwise_run(template, 0.9, 32)
        assert (results[32].best_f.hex(), results[32].final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_chunks_raise_as_one_batch(self, monkeypatch):
        # Two lockstep chunks of 4 rows.  The first chunk's rows are started
        # at sigma 0, where they stay; at sigma0 1e308 a candidate of the
        # second chunk's second row overflows.  The batch raises for the
        # candidate, though the first chunk's rows reached sigma 0 before
        # it: sigma is checked only after every chunk.
        template = EsTemplate(sigma0=1e308, dimension=5, max_generations=200)
        seeds = [0, 1, 4, 5, 2, 16789950873655392269, 3, 6]
        chunks, finished = [], []
        lockstep = es_mod._lockstep

        def spy(rngs, x, sigma0, *rest):
            chunks.append(len(rngs))
            finished.append(lockstep(rngs, x, 0.0 if len(chunks) == 1 else sigma0, *rest))
            return finished[-1]

        monkeypatch.setattr(es_mod, "_lockstep", spy)
        monkeypatch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, 4))
        with pytest.raises(NumericalError) as caught:
            run_batch(template, [1.0] * len(seeds), seeds)
        assert str(caught.value) == es_mod._NON_FINITE
        assert chunks == [4, 4]
        assert [row[2] for row in finished[0]] == [0.0] * 4

    def test_lockstep_chunks_seed_in_one_pass(self, monkeypatch):
        # Every chunk, a chunk of at most 3 rows too, seeds its rows in one
        # pass, into generators in make_rng's state; run_batch calls no
        # make_rng.
        template = EsTemplate(dimension=5, max_generations=20)
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 7]
        passes, made, states = [], [], []
        seed_states, start = es_mod._seed_states, es_mod._start

        def spy_start(rng, template):
            x = start(rng, template)
            states.append(rng.bit_generator.state)
            return x

        monkeypatch.setattr(es_mod, "_seed_states",
                            lambda part: passes.append(list(part)) or seed_states(part))
        monkeypatch.setattr(es_mod, "make_rng", lambda seed: made.append(seed) or make_rng(seed))
        monkeypatch.setattr(es_mod, "_start", spy_start)
        monkeypatch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, 4))
        results = run_batch(template, [0.9] * len(seeds), seeds)
        assert passes == [seeds[:4], seeds[4:]]
        assert made == []
        assert len(states) == len(seeds)
        for seed, state in zip(seeds, states):
            rng = make_rng(seed)
            rng.uniform(template.init_low, template.init_high, size=template.dimension)
            assert state == rng.bit_generator.state
        for result, seed in zip(results, seeds):
            f, sigma = stepwise_run(template, 0.9, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())
        # 3 rows, stepwise at 5-D and screened at 9-D, in one chunk.
        monkeypatch.setattr(es_mod, "_LOCKSTEP_BYTES", _lockstep_budget(template, 64))
        for dimension in (5, 9):
            passes.clear()
            run_batch(EsTemplate(dimension=dimension, max_generations=20), [0.9] * 3, seeds[:3])
            assert passes == [seeds[:3]]
        assert made == []

    def test_a_batch_holds_about_one_chunk(self):
        # 1000 rows at 1000-D in chunks of 32 rows: the start points of all
        # rows alone would take 8 MB, 15 times the chunk budget.
        template = EsTemplate(dimension=1000, max_generations=1)
        budget = 32 * 8 * (2 * template.dimension + 8)
        with mock.patch.object(es_mod, "_LOCKSTEP_BYTES", budget):
            run_batch(template, [1.0] * 4, range(4))
            tracemalloc.start()
            try:
                run_batch(template, [1.0] * 1000, range(1000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 * budget

    def test_empty_batch(self):
        assert run_batch(_paper_template(), [], []) == []

    def test_one_seed_per_tau_required(self):
        with pytest.raises(ConfigurationError):
            run_batch(_paper_template(10), [0.9, 1.1], [1])

    @pytest.mark.parametrize("master_seed", [7, 42, 101])
    def test_grid_rows_equal_separate_trials(self, paper_cfg, master_seed):
        cfg = replace(paper_cfg, master_seed=master_seed)
        spec = GridSpec(0.3, 2.4, 4)
        trials = run_grid(spec, cfg)
        for i, tau in enumerate(grid_values(spec)):
            assert trials[i] == run_trial(tau, cfg, i)


# At sigma0 1e308 and TAU_MAX a 64-D row raises in its first generation
# unless all 64 of its normals lie below about 1.798 in magnitude; this
# seed's do, and the row runs to its end.
_SURVIVES_1E308 = 42


def _drawn_ahead(template, taus, seeds):
    """``run_batch`` of rows that a ``_DrawAhead`` draws on its helper
    thread, as a tuning session hands them over; the helper is closed
    however the batch ends."""
    ahead = es_mod._DrawAhead(template)
    try:
        return run_batch(template, taus, seeds, ahead.request(es_mod._seed_states(seeds)))
    finally:
        ahead.close()


def _session_cfg(template, replicates, budget=2):
    return SessionConfig(objective=ObjectiveSpec("sphere", template.dimension),
                         es_template=template, master_seed=2024, replicates=replicates,
                         budget=budget)


# The stepwise oracle of each (template, tau, seed), run once per test run.
_cached_oracle = functools.cache(stepwise_run)


class TestHelper:
    """Rows that a ``_DrawAhead``, the helper thread a tuning session keeps,
    draws and hands to run_batch, and the rule by which a session starts
    it.  A kernel call alone draws every row on the calling thread."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        # A session starts the helper only where the process may run on 2 CPUs.
        monkeypatch.setattr(es_mod, "_cpus", lambda: 2)

    @pytest.mark.parametrize("generations", [1, 127, 128, 129, 1000])
    @pytest.mark.parametrize("rows", [2, 3])
    # Who draws the rows: a _DrawAhead's helper, one whole-row call each,
    # or the calling thread, block by block.
    @pytest.mark.parametrize("threads", [1, 0], ids=["calls", "blocks"])
    def test_rows_equal_the_stepwise_oracle(self, monkeypatch, generations, rows, threads):
        template = EsTemplate(dimension=64, max_generations=generations)
        taus, seeds = [0.9, 1.7, 0.3][:rows], [3, 2**64 - 1, 0][:rows]
        started = spy_threads(monkeypatch)
        before = threading.active_count()
        results = (_drawn_ahead if threads else run_batch)(template, taus, seeds)
        assert threading.active_count() == before
        assert started == ["estune-normals"] * threads
        for result, tau, seed in zip(results, taus, seeds):
            f, sigma = stepwise_run(template, tau, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_rows_hold_under_a_short_switch_interval(self, monkeypatch):
        # The interpreter lock changes hands about every microsecond while
        # the helper draws the rows.
        template = EsTemplate(dimension=64, max_generations=1000)
        taus, seeds = [0.9, 1.7, 0.3], [5, 6, 7]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = within_a_minute(lambda: _drawn_ahead(template, taus, seeds))
        finally:
            sys.setswitchinterval(interval)
        for result, tau, seed in zip(results, taus, seeds):
            f, sigma = stepwise_run(template, tau, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension, rows, threads", [(64, 2, 1), (32, 2, 1), (32, 3, 1),
                                                          (8, 2, 0)])
    def test_starts_when_the_later_rows_repay_a_thread(self, monkeypatch, dimension, rows,
                                                       threads):
        # A session of 1000-generation trials: 64,000 to 128,000 normals a
        # trial start its helper, 16,000 do not.
        cfg = _session_cfg(EsTemplate(dimension=dimension, max_generations=1000), rows)
        started = spy_threads(monkeypatch)
        session = run_session(cfg, ScriptedBackend(["tau = 0.9", "tau = 1.7"]))
        assert session.status == "completed"
        assert started == ["estune-normals"] * threads

    @pytest.mark.parametrize("generations, threads", [(4194, 1), (4195, 0)])
    def test_starts_only_while_the_later_rows_fit_the_lockstep_budget(self, monkeypatch,
                                                                       generations, threads):
        # The helper holds two trials' rows whole, so a session starts it
        # only while they fit _LOCKSTEP_BYTES // 8 = 8,388,608 normals: at
        # 500-D x 2 replicates they hold 8,388,000 at 4194 generations and
        # 8,390,000 at 4195.
        assert 2 * 2 * 4194 * 500 <= es_mod._LOCKSTEP_BYTES // 8 < 2 * 2 * 4195 * 500
        cfg = _session_cfg(EsTemplate(dimension=500, max_generations=generations), 2)
        replies = ["tau = 0.9", "tau = 1.7"]
        started = spy_threads(monkeypatch)
        session = run_session(cfg, ScriptedBackend(replies))
        assert started == ["estune-normals"] * threads
        monkeypatch.setattr(es_mod, "_cpus", lambda: 1)
        assert session == run_session(cfg, ScriptedBackend(replies))
        assert started == ["estune-normals"] * threads
        assert session.status == "completed"

    @pytest.mark.parametrize("affinity, threads", [({0}, 0), ({0, 1}, 1)])
    def test_starts_only_on_2_cpus(self, monkeypatch, affinity, threads):
        # On one CPU the helper only takes turns with the rows it would
        # overlap.
        monkeypatch.undo()  # the real _cpus, which reads the affinity
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        started = spy_threads(monkeypatch)
        cfg = _session_cfg(EsTemplate(dimension=64, max_generations=1000), 2)
        session = run_session(cfg, ScriptedBackend(["tau = 0.9", "tau = 1.7"]))
        assert session.status == "completed"
        assert len(started) == threads
        for trial in session.trials:
            for result in trial.results:
                f, sigma = stepwise_run(cfg.es_template, trial.tau, result.seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension, generations, rows", [(3, 20, 2), (64, 1000, 4),
                                                               (5, 1000, 10)])
    def test_lockstep_trials_start_no_thread_and_stepwise_ones_draw_ahead(
            self, monkeypatch, dimension, generations, rows):
        # However few normals repay a thread, a session of lockstep trials
        # starts none, and one of stepwise trials draws ahead like any other
        # few-row trials.
        monkeypatch.setattr(es_mod, "_HELPER_NORMALS", 1)
        cfg = _session_cfg(EsTemplate(dimension=dimension, max_generations=generations), rows)
        started = spy_threads(monkeypatch)
        session = run_session(cfg, ScriptedBackend(["tau = 0.9", "tau = 1.7"]))
        assert session.status == "completed"
        if rows > es_mod._FEW_ROWS:
            assert started == []
            return
        assert not es_mod._runs_screened(dimension, generations)
        assert started == ["estune-normals"]
        for trial in session.trials:
            for result in trial.results:
                f, sigma = stepwise_run(cfg.es_template, trial.tau, result.seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension, generations, replicates",
                             [(64, 1000, 2), (64, 1000, 3), (MAX_DIMENSION, 4194, 3)])
    @pytest.mark.parametrize("call", ["run_batch", "run_trial", "run_trials", "run-es"])
    def test_a_lone_kernel_call_starts_no_thread(self, monkeypatch, capsys, call, dimension,
                                                 generations, replicates):
        # On 2 CPUs, at shapes whose rows draw 128,000 to 12,582,000
        # normals, the kernel alone draws every row on the calling thread.
        cfg = _session_cfg(EsTemplate(dimension=dimension, max_generations=generations),
                           replicates, budget=1)
        started = spy_threads(monkeypatch)
        if call == "run_batch":
            seeds = [derive_seed(cfg.master_seed, 0, r) for r in range(replicates)]
            results = run_batch(cfg.es_template, [0.9] * replicates, seeds)
        elif call == "run_trial":
            results = run_trial(0.9, cfg, 0).results
        elif call == "run_trials":
            results = run_trials([0.9], cfg, [0])[0].results
        else:
            trials = []

            def kept(*args):
                trials.append(run_trial(*args))
                return trials[-1]

            monkeypatch.setattr(cli_mod, "run_trial", kept)
            assert cli_mod.main(["run-es", "--tau", "0.9", "--dim", str(dimension),
                                 "--generations", str(generations),
                                 "--replicates", str(replicates), "--seed", "2024"]) == 0
            assert capsys.readouterr().out == log_line(trials[0], include_std=True)
            results = trials[0].results
        assert started == []
        assert [r.seed for r in results] == [derive_seed(cfg.master_seed, 0, r)
                                            for r in range(replicates)]
        for result in results:
            f, sigma = _cached_oracle(cfg.es_template, 0.9, result.seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("seeds", [[2, _SURVIVES_1E308], [_SURVIVES_1E308, 2]],
                             ids=["first_row", "later_row"])
    def test_a_non_finite_candidate_raises_the_stepwise_message(self, monkeypatch, seeds):
        # Whichever row raises, drawn on the calling thread or handed over.
        template = EsTemplate(sigma0=1e308, dimension=64, max_generations=1000)
        assert _oracle_or_error(template, TAU_MAX, 2) is None
        assert _oracle_or_error(template, TAU_MAX, _SURVIVES_1E308) is not None
        stepwise = EsTemplate(sigma0=1e308, dimension=5, max_generations=20)
        with pytest.raises(NumericalError) as expected:
            run_batch(stepwise, [1.0, 1.0], [2, 16789950873655392269])
        started = spy_threads(monkeypatch)
        before = threading.active_count()
        for run in (run_batch, _drawn_ahead):
            with pytest.raises(NumericalError) as caught:
                run(template, [TAU_MAX] * 2, seeds)
            assert str(caught.value) == str(expected.value)
        assert threading.active_count() == before
        assert started == ["estune-normals"]

    def test_a_raise_in_the_first_row_waits_for_the_helper(self, monkeypatch):
        # The first row raises while the helper is still in the second
        # row's draw, which it leaves only after the raise: closing the
        # helper must join it.
        drawing, raised, alive, made = threading.Event(), threading.Event(), [], []
        generator = es_mod._generator

        class SlowLaterRows:
            def __init__(self, state):
                self._rng, self._later = generator(state), bool(made)
                made.append(self)

            def uniform(self, *args, **kwargs):
                return self._rng.uniform(*args, **kwargs)

            def standard_normal(self, size):
                if self._later:
                    drawing.set()
                    raised.wait(timeout=30)
                    time.sleep(0.2)
                return self._rng.standard_normal(size)

        def first_row(blocks, *rest):
            assert drawing.wait(timeout=30)
            alive.extend(t.is_alive() for t in threading.enumerate()
                         if t.name == "estune-normals")
            raised.set()
            raise RuntimeError("first row")

        monkeypatch.setattr(es_mod, "_generator", SlowLaterRows)
        monkeypatch.setattr(es_mod, "_screened", first_row)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="first row"):
            within_a_minute(lambda: _drawn_ahead(EsTemplate(dimension=64, max_generations=1000),
                                                 [0.9] * 3, [0, 1, 2]))
        assert alive == [True]
        assert threading.active_count() == before

    def test_a_raise_in_the_helper_is_raised_by_the_batch(self, monkeypatch):
        calling, generator = [], es_mod._generator

        class OffThreadFails:
            def __init__(self, state):
                self._rng = generator(state)

            def uniform(self, *args, **kwargs):
                return self._rng.uniform(*args, **kwargs)

            def standard_normal(self, size):
                if threading.current_thread() is not calling[0]:
                    raise MemoryError("drawn off the calling thread")
                return self._rng.standard_normal(size)

        def call():
            calling.append(threading.current_thread())
            return _drawn_ahead(EsTemplate(dimension=64, max_generations=1000), [0.9] * 2, [0, 1])

        monkeypatch.setattr(es_mod, "_generator", OffThreadFails)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="off the calling thread") as caught:
            within_a_minute(call)
        # Raised again where the batch reads the row.
        assert read_where_the_row_is(caught.traceback)
        assert threading.active_count() == before

    def test_rows_drawn_ahead_equal_the_stepwise_oracle(self, monkeypatch):
        # A session's source: one thread draws every row of both batches,
        # both asked for before the first batch runs.
        template = EsTemplate(dimension=64, max_generations=1000)
        batches = [([0.9, 1.7], [3, 2**64 - 1]), ([0.3, 0.9], [0, 5])]
        assert es_mod._draws_ahead(template, 2)
        started = spy_threads(monkeypatch)
        before = threading.active_count()
        ahead = es_mod._DrawAhead(template)
        try:
            drawn = [ahead.request(es_mod._seed_states(seeds)) for _, seeds in batches]
            results = [run_batch(template, taus, seeds, rows)
                       for (taus, seeds), rows in zip(batches, drawn)]
        finally:
            ahead.close()
        assert threading.active_count() == before
        assert started == ["estune-normals"]
        for (taus, seeds), rows in zip(batches, results):
            for result, tau, seed in zip(rows, taus, seeds):
                f, sigma = stepwise_run(template, tau, seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_a_later_batch_read_first_waits_for_its_own_rows(self, monkeypatch):
        # Each batch reads the very rows made for its seeds: the second
        # batch, run before the first, waits for the helper to draw the
        # first batch's rows and then its own.
        template = EsTemplate(dimension=64, max_generations=1000)
        batches = [([0.9, 1.7], [3, 4]), ([0.3, 0.9], [4, 3])]
        started = spy_threads(monkeypatch)
        ahead = es_mod._DrawAhead(template)
        try:
            drawn = [ahead.request(es_mod._seed_states(seeds)) for _, seeds in batches]
            results = within_a_minute(lambda: [
                run_batch(template, *batches[k], drawn[k]) for k in (1, 0)])[::-1]
        finally:
            ahead.close()
        assert started[0] == "estune-normals" and len(started) == 2  # and within_a_minute's
        assert [t for t in threading.enumerate() if t.name == "estune-normals"] == []
        for (taus, seeds), rows in zip(batches, results):
            for result, tau, seed in zip(rows, taus, seeds):
                f, sigma = _cached_oracle(template, tau, seed)
                assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize("dimension, generations, rows, cpus, draws", [
        (64, 1000, 2, 2, True), (64, 1000, 3, 2, True), (192, 1000, 2, 2, True),
        (193, 1000, 2, 2, True), (1000, 1000, 2, 2, True), (1000, 4194, 3, 2, False),
        (64, 1000, 2, 1, False), (64, 1000, 1, 2, True), (64, 1000, 4, 2, False),
        (32, 1000, 2, 2, True), (3, 20, 2, 2, False), (64, 21845, 3, 2, True),
        (64, 21846, 3, 2, False), (64, 32768, 2, 2, True), (64, 32769, 2, 2, False),
        (16, 1000, 2, 2, True), (11, 2909, 1, 2, False), (3, 20000, 2, 2, True),
        (8, 1000, 2, 2, False),
    ])
    def test_draws_ahead_only_where_a_batch_starts_its_helper(self, monkeypatch, dimension,
                                                               generations, rows, cpus, draws):
        # A session draws its trials' rows ahead, at any dimension and on
        # either row path, only where a trial is at most 3 rows that draw at
        # least _HELPER_NORMALS = 32,000 normals (16 * 1000 * 2 do, 11 *
        # 2909 * 1 = 31,999 do not), on 2 CPUs, and while two trials' rows,
        # all the helper may hold, fit the lockstep budget: 2 * 3 * 21845 *
        # 64 <= 8,388,608 < 2 * 3 * 21846 * 64, and likewise 2 * 2 * 32768 *
        # 64.
        monkeypatch.setattr(es_mod, "_cpus", lambda: cpus)
        template = EsTemplate(dimension=dimension, max_generations=generations)
        assert es_mod._draws_ahead(template, rows) is draws


# Most coordinates times generations a screened case runs, so that the
# stepwise oracle stays quick.
_SCREENED_CELLS = 40_000


@st.composite
def _screened_batches(draw):
    """1-3 rows that run screened, from 4-D up, on a template whose sigma0
    reaches from 1e-300 to 1e308 and whose init box gives squares from
    subnormal to past the float range."""
    dimension = draw(st.one_of(st.integers(4, 8), st.integers(9, MAX_DIMENSION)))
    fewest = min(g for d, g in es_mod._SCREENED_FROM if dimension >= d)
    box = draw(st.sampled_from([1e-160, 1e-3, 5.0, 1e150, 1e300]))
    template = EsTemplate(
        sigma0=10.0 ** draw(st.floats(min_value=-300, max_value=308)),
        dimension=dimension,
        max_generations=fewest - 1 + draw(st.integers(1, min(300, _SCREENED_CELLS // dimension))),
        init_low=-box,
        init_high=box,
    )
    rows = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
        st.integers(0, (1 << 64) - 1),
    ), min_size=1, max_size=3))
    return template, rows


def _screened_row(template, tau, seed):
    """``run_batch``'s one row, checked to run on the screened path."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_paths(patch)
        result = run_batch(template, [tau], [seed])[0]
    assert {name for name, _ in calls} == {"_screened"}
    return result


def _scaled_normals(seed, generations, dimension, scale, *later):
    """A row's blocks of normals: ``make_rng(seed)``'s times ``scale``, so
    that ``|z|**2`` reaches from 0 to past 1e20.  With more scales, block k
    takes the k-th, and every later block the last."""
    scales = [scale, *later]
    blocks = es_mod._blocks(make_rng(seed), generations, dimension)
    return [z * scales[min(k, len(scales) - 1)] for k, z in enumerate(blocks)]


def _path_row(path, seed, scale, x, sigma0, tau, generations):
    up, down = math.exp(tau * (1.0 - 0.2)), math.exp(tau * (0.0 - 0.2))
    try:
        row = path(_scaled_normals(seed, generations, len(x), scale), x, sigma0, up, down)
    except NumericalError as exc:
        return str(exc)
    return [v.hex() for v in row]


def _traced_screened(normals, x, sigma0, tau):
    """``_screened``'s row in hex, or its error message, and the
    ``(exact, h, x)`` states it went through, in order.

    A trace reads the row's locals before each of its lines and checks the
    invariant its proof rests on: ``h`` is at least the parent's value, its
    squares summed in coordinate order, and equals it while ``exact``
    holds.
    """
    up, down = math.exp(tau * (1.0 - 0.2)), math.exp(tau * (0.0 - 0.2))
    states = []
    code = es_mod._screened.__wrapped__.__code__  # inside np.errstate's wrapper
    # The parent last summed and its value: a parent array is never changed
    # in place, so it is summed once.
    summed = [None, None]

    def line(frame, event, arg):
        local = frame.f_locals
        if event == "line" and "exact" in local:
            exact, h, parent = local["exact"], local["h"], local["x"]
            if summed[0] is not parent:
                summed[:] = parent, sphere_eval(parent)
            value = summed[1]
            assert value == h if exact else not value > h
            if not states or states[-1][:2] != (exact, h) or states[-1][2] is not parent:
                states.append((exact, h, parent))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        row = es_mod._screened(normals, x, sigma0, up, down)
    except NumericalError as exc:
        return str(exc), states
    finally:
        sys.settrace(previous)
    return [v.hex() for v in row], states


def _interval_cases(states):
    """What a row's ``_traced_screened`` states show after its first proven
    acceptance (``exact`` turning false): a screen it could not decide
    (``exact`` turning true), a tie (a new parent with the same summed
    value) and a subnormal parent value."""
    cases, proven = set(), False
    for (exact0, h0, x0), (exact1, h1, x1) in zip(states, states[1:]):
        if exact0 and not exact1:
            proven = True
        elif proven and exact1:
            if not exact0:
                cases.add("undecided_after_proven")
            elif h1 == h0 and x1 is not x0:
                cases.add("tie_after_proven")
            if 0 < h1 < np.finfo(float).tiny:
                cases.add("subnormal_after_proven")
    return cases


class TestScreened:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(4, 8), st.integers(9, 200)),
        st.integers(1, 300),
        st.integers(0, (1 << 64) - 1),
        st.floats(-250, 20),
        st.floats(-300, 308),
        st.floats(-300, 300),
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
    )
    # Squares of normals near 1e-161 are subnormal and |z|**2 is off by
    # tens of percent: a screen without its range of |z|**2 skips accepted
    # candidates here.
    @example(13, 300, 2, -161.5, 154.0, -7.5, 0.9)
    def test_equals_stepwise_on_normals_of_any_size(self, dimension, generations, seed,
                                                    scale_exp, sigma_exp, box_exp, tau):
        # Normals scaled from 1e-250 to 1e20 put |z|**2 on both sides of the
        # range the screen works in, and make products underflow.
        x = make_rng(seed ^ 1).uniform(-(10.0**box_exp), 10.0**box_exp, size=dimension)
        args = (seed, 10.0**scale_exp)
        rest = (10.0**sigma_exp, tau, generations)
        screened = _path_row(es_mod._screened, *args, x, *rest)
        assert screened == _path_row(es_mod._stepwise, *args, x, *rest)

    @settings(max_examples=100, deadline=None)
    @given(_screened_batches())
    def test_rows_match_stepwise_oracle_bit_for_bit(self, batch):
        with pytest.MonkeyPatch.context() as patch:
            calls = _spy_paths(patch)
            _assert_rows_match_oracle(*batch)
        assert {name for name, _ in calls} == {"_screened"}

    @pytest.mark.parametrize("dimension", [13, 200])
    def test_a_tie_is_accepted(self, dimension):
        # At sigma 1e-300 the first candidate equals its parent: a tie,
        # accepted, so sigma grows by the up factor.
        template = EsTemplate(sigma0=1e-300, dimension=dimension, max_generations=1)
        result = _screened_row(template, 1.0, 3)
        rng = make_rng(3)
        start = rng.uniform(template.init_low, template.init_high, size=dimension)
        assert result.best_f == sphere_eval(start)
        assert result.final_sigma == update_sigma(1e-300, 1.0, True)
        f, sigma = stepwise_run(template, 1.0, 3)
        assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_sigma0_1e308_raises_the_shared_message(self):
        template = EsTemplate(sigma0=1e308, dimension=13, max_generations=200)
        seed = 16789950873655392269
        assert _oracle_or_error(template, 1.0, seed) is None
        with pytest.raises(NumericalError) as caught:
            _screened_row(template, 1.0, seed)
        assert str(caught.value) == es_mod._NON_FINITE

    def test_subnormal_parent(self):
        # Coordinates below 1e-160 square to subnormals, where a rounding
        # error is absolute, not relative.
        template = EsTemplate(sigma0=1e-160, dimension=13, max_generations=300,
                              init_low=-1e-160, init_high=1e-160)
        f0 = sphere_eval(make_rng(5).uniform(-1e-160, 1e-160, size=13))
        assert 0 < f0 < np.finfo(float).tiny
        result = _screened_row(template, 0.9, 5)
        f, sigma = stepwise_run(template, 0.9, 5)
        assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_parent_whose_squares_overflow(self):
        # f is inf, so nothing is skipped, and every finite candidate ties.
        template = EsTemplate(dimension=13, max_generations=50, init_low=-1e300, init_high=1e300)
        result = _screened_row(template, 0.9, 5)
        with np.errstate(over="ignore"):
            f, sigma = stepwise_run(template, 0.9, 5)
        assert result.best_f == f == math.inf
        assert result.final_sigma.hex() == sigma.hex()

    def test_makes_about_the_accepted_candidates_only(self, monkeypatch):
        # At 64-D about one offspring in five is accepted.  The screen makes
        # about those candidates and skips the rest, and it proves the
        # acceptances too: it sums squares only for the start point, the end
        # of the row and the few screens it cannot decide.
        template = EsTemplate(dimension=64, max_generations=1000)
        start = make_rng(11).uniform(template.init_low, template.init_high, size=64)
        history = [sphere_eval(start)]
        stepwise_run(template, 0.9, 11, history)
        accepted = sum(b < a for a, b in zip(history, history[1:]))
        made, folds = [], []

        class Counted(np.ndarray):
            # A candidate is a row of normals times sigma, a float.
            def __mul__(self, other):
                if isinstance(other, float):
                    made.append(1)
                return super().__mul__(other)

        real = es_mod._screened
        monkeypatch.setattr(es_mod, "_screened", lambda blocks, *rest: real(
            [z.view(Counted) for z in blocks], *rest))
        fold = es_mod._fold_squares
        monkeypatch.setattr(es_mod, "_fold_squares", lambda c: folds.append(1) or fold(c))
        result = _screened_row(template, 0.9, 11)
        f, sigma = stepwise_run(template, 0.9, 11)
        assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())
        assert 100 < accepted < 300
        assert accepted <= len(made) <= accepted + 6
        assert 2 <= len(folds) <= 6

    @pytest.mark.parametrize("dimension, box, sigma0, tau, generations, seed, scales, case", [
        (13, 5.0, 1.0, 30.0, 300, 0, [1.0], "undecided_after_proven"),
        # Sigma starts in ties and grows out of them; at tau 30 a few
        # rejections shrink it back into ties.
        (13, 5.0, 1e-300, 30.0, 300, 1, [1.0], "tie_after_proven"),
        # The parent's value falls from normal to subnormal.
        (13, 1e-150, 1.0, 5.0, 2000, 1, [1.0], "subnormal_after_proven"),
        # The second block's |z|**2 is below, or above, _SCREEN_NORMS; with
        # one scale these rows decide every screen.
        (64, 5.0, 1.0, 0.9, 300, 0, [1.0, 1e-110], "undecided_after_proven"),
        (64, 5.0, 1.0, 0.9, 300, 0, [1.0, 1e11], "undecided_after_proven"),
    ], ids=["undecided", "tie", "subnormal", "small_normals", "large_normals"])
    def test_proven_acceptances_keep_every_bit(self, dimension, box, sigma0, tau, generations,
                                               seed, scales, case):
        x = make_rng(seed ^ 1).uniform(-box, box, size=dimension)
        normals = _scaled_normals(seed, generations, dimension, *scales)
        row, states = _traced_screened(normals, x, sigma0, tau)
        assert case in _interval_cases(states)
        up, down = math.exp(tau * (1.0 - 0.2)), math.exp(tau * (0.0 - 0.2))
        stepwise = es_mod._stepwise(normals, x, sigma0, up, down)
        assert row == [v.hex() for v in stepwise]

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(4, 8), st.integers(9, 64)),
        st.integers(1, 300),
        st.integers(0, (1 << 64) - 1),
        st.floats(-120, 12),
        st.floats(-300, 308),
        st.floats(-160, 150),
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
    )
    def test_bound_stays_above_the_parent(self, dimension, generations, seed, scale_exp,
                                          sigma_exp, box_exp, tau):
        x = make_rng(seed ^ 1).uniform(-(10.0**box_exp), 10.0**box_exp, size=dimension)
        scale, sigma0 = 10.0**scale_exp, 10.0**sigma_exp
        row, _ = _traced_screened(_scaled_normals(seed, generations, dimension, scale), x, sigma0,
                                  tau)
        assert row == _path_row(es_mod._stepwise, seed, scale, x, sigma0, tau, generations)
