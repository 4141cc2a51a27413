"""Unit and property tests for the (1+1)-ES core."""

import functools
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    sphere_columns,
    sphere_eval,
    update_sigma,
)
from estune.loop import run_trial
from estune.report import GridSpec, grid_values, run_grid

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


# Most values a sphere_columns case holds, so the Python fold stays quick.
_SPHERE_CELLS = 20_000


@st.composite
def _column_arrays(draw):
    """A ``(dimension, N)`` array in one of several layouts, with values whose
    squares reach from subnormal to past the float range."""
    dimension = draw(st.integers(1, MAX_DIMENSION))
    columns = draw(st.integers(1, min(300, _SPHERE_CELLS // dimension)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-160, 1.0, 1e3, 1e150, 1e154]))
    layout = draw(st.sampled_from(["C", "F", "transposed", "sliced", "reversed"]))
    if layout == "transposed":
        return rng.standard_normal((columns, dimension)).T * scale
    if layout == "sliced":
        return (rng.standard_normal((2 * dimension, 3 * columns)) * scale)[::2, 1::3]
    x = rng.standard_normal((dimension, columns)) * scale
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "reversed":
        return x[::-1, ::-1]
    return x


def _fold_hex(column):
    total = 0.0
    for v in column.tolist():
        total += v * v
    return total.hex()


class TestSphereColumns:
    @settings(max_examples=150, deadline=None)
    @given(_column_arrays())
    # numpy sums pairwise along the fast axis, which differs from the fold in
    # these two: a single column of 8 or more coordinates, and the
    # speculative path's F-ordered transpose.
    @example(np.random.default_rng(1).standard_normal((9, 1)))
    @example(np.random.default_rng(0).standard_normal((2, 64)).T)
    def test_columns_match_a_left_to_right_fold(self, x):
        with np.errstate(over="ignore"):
            got = sphere_columns(x)
            expected = [_fold_hex(x[:, j]) for j in range(x.shape[1])]
        assert [v.hex() for v in got.tolist()] == expected


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


SPHERE_5D = ObjectiveSpec("sphere", 5)


class TestRunEs:
    def test_bit_identical_repeat(self):
        a = run_es(_paper_template(), SPHERE_5D, 0.95, 42)
        b = run_es(_paper_template(), SPHERE_5D, 0.95, 42)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_es(_paper_template(50), SPHERE_5D, 0.95, 1)
        b = run_es(_paper_template(50), SPHERE_5D, 0.95, 2)
        assert a.best_f != b.best_f

    def test_objective_values_non_increasing(self):
        history = []
        template = _paper_template(400)
        stepwise_run(template, 0.95, 5, history)
        assert len(history) == 400
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert history[-1] == run_es(template, SPHERE_5D, 0.95, 5).best_f

    def test_score_recomputable_from_best_f(self):
        result = run_es(_paper_template(200), SPHERE_5D, 0.95, 9)
        assert result.score == score_of(result.best_f)

    def test_final_sigma_positive(self):
        for seed in range(5):
            assert run_es(_paper_template(100), SPHERE_5D, 0.95, seed).final_sigma > 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_es(_paper_template(), ObjectiveSpec("sphere", 4), 0.95, 0)

    def _first_generation_outcome(self, seed, tau=0.95):
        template = EsTemplate(sigma0=1.0, dimension=3, max_generations=1)
        result = run_es(template, ObjectiveSpec("sphere", 3), tau, seed)
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
        result = run_es(_paper_template(), SPHERE_5D, 0.95, 7)
        assert 20.0 < result.score < 150.0

    def test_generations_run_recorded(self):
        result = run_es(_paper_template(17), SPHERE_5D, 0.95, 3)
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
            run_batch(EsTemplate(**base), ObjectiveSpec("sphere", 5), [0.95, tau], [1, seed])

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError, match="sphere"):
            ObjectiveSpec("rastrigin_misspelled", 5)

    def test_template_stamps_configs(self):
        # The template supplies all but tau and seed: a run is its stepwise
        # loop at that tau and seed.
        template = EsTemplate(sigma0=2.0, dimension=4, max_generations=50)
        result = run_es(template, ObjectiveSpec("sphere", 4), 1.1, 77)
        assert result.seed == 77
        assert result.generations_run == 50
        assert (result.best_f, result.final_sigma) == stepwise_run(template, 1.1, 77)

    def test_largest_dimension_accepted(self):
        assert EsTemplate(dimension=MAX_DIMENSION).dimension == MAX_DIMENSION

    def test_tau_max_itself_accepted(self):
        run_es(_paper_template(10), SPHERE_5D, TAU_MAX, 0)

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


# Dimensions on both sides of the stepwise path's limit.
_DIMENSIONS = st.one_of(
    st.integers(1, es_mod._STEPWISE_DIMENSION),
    st.integers(es_mod._STEPWISE_DIMENSION + 1, 64),
)


@st.composite
def _batches(draw):
    """One template and 1-8 (tau, seed) rows; sigma0 reaches down to 1e-300,
    where an unmoved candidate ties its parent."""
    template = EsTemplate(
        sigma0=draw(st.floats(min_value=1e-300, max_value=1e3)),
        dimension=draw(_DIMENSIONS),
        max_generations=draw(st.integers(1, 200)),
    )
    rows = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
        st.integers(0, (1 << 64) - 1),
    ), min_size=1, max_size=8))
    return template, rows


@st.composite
def _lockstep_batches(draw):
    """Like ``_batches``, but 4-8 rows: more than the stepwise and speculative
    paths take."""
    template = EsTemplate(
        sigma0=draw(st.floats(min_value=1e-300, max_value=1e3)),
        dimension=draw(_DIMENSIONS),
        max_generations=draw(st.integers(1, 200)),
    )
    rows = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=TAU_MAX, exclude_min=True),
        st.integers(0, (1 << 64) - 1),
    ), min_size=4, max_size=8))
    return template, rows


def _hex_rows_or_error(template, taus, seeds):
    try:
        results = run_batch(template, ObjectiveSpec("sphere", template.dimension), taus, seeds)
    except NumericalError:
        return "NumericalError"
    return [(r.best_f.hex(), r.final_sigma.hex()) for r in results]


def _rows_or_message(template, taus, seeds):
    try:
        results = run_batch(template, ObjectiveSpec("sphere", template.dimension), taus, seeds)
    except NumericalError as exc:
        return str(exc)
    return [(r.best_f.hex(), r.final_sigma.hex()) for r in results]


def _spy_paths(monkeypatch):
    """The names of the row paths ``run_batch`` takes from here on."""
    taken = set()
    for name in ("_stepwise", "_speculate", "_lockstep"):
        def spy(*args, _name=name, _real=getattr(es_mod, name)):
            taken.add(_name)
            return _real(*args)

        monkeypatch.setattr(es_mod, name, spy)
    return taken


def _oracle_or_error(template, tau, seed):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return stepwise_run(template, tau, seed)
    except ValueError:
        return None


class TestRunBatch:
    @settings(max_examples=200, deadline=None)
    @given(_batches())
    def test_rows_match_stepwise_oracle_bit_for_bit(self, batch):
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        expected = [_oracle_or_error(template, tau, seed) for tau, seed in rows]
        objective = ObjectiveSpec("sphere", template.dimension)
        if None in expected:
            with pytest.raises(ValueError):
                run_batch(template, objective, taus, seeds)
            return
        results = run_batch(template, objective, taus, seeds)
        got = [(r.best_f.hex(), r.final_sigma.hex()) for r in results]
        assert got == [(f.hex(), sigma.hex()) for f, sigma in expected]

    @settings(max_examples=100, deadline=None)
    @given(_lockstep_batches())
    def test_lockstep_rows_equal_speculative_chunks(self, batch):
        # 4+ rows run in lockstep, chunks of at most 3 stepwise or by
        # speculation, as their dimension decides.
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        chunks = [
            _hex_rows_or_error(template, taus[i : i + 3], seeds[i : i + 3])
            for i in range(0, len(rows), 3)
        ]
        speculative = (
            "NumericalError" if "NumericalError" in chunks else [r for c in chunks for r in c]
        )
        assert _hex_rows_or_error(template, taus, seeds) == speculative

    def test_one_row_at_the_paper_setting_matches_stepwise(self):
        # run-es traffic: one row, 5-D, 1000 generations.
        template = _paper_template()
        for seed in (0, 7, 123456789):
            result = run_es(template, SPHERE_5D, 0.95, seed)
            f, sigma = stepwise_run(template, 0.95, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_paper_grid_rows_match_stepwise(self):
        # The paper grid's 100 rows in lockstep; 300 generations cross two
        # boundaries of the normals' blocks.
        assert 2 * es_mod.BLOCK_GENERATIONS < 300 < 3 * es_mod.BLOCK_GENERATIONS
        template = _paper_template(300)
        taus = [tau for tau in grid_values(GridSpec()) for _ in range(10)]
        seeds = list(range(100))
        results = run_batch(template, SPHERE_5D, taus, seeds)
        for result, tau, seed in zip(results, taus, seeds):
            f, sigma = stepwise_run(template, tau, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    @pytest.mark.parametrize(
        "rows, dimension, path",
        [
            (1, 1, "_stepwise"),
            (3, es_mod._STEPWISE_DIMENSION, "_stepwise"),
            (1, es_mod._STEPWISE_DIMENSION + 1, "_speculate"),
            (3, 64, "_speculate"),
            (4, 3, "_lockstep"),
            (4, 64, "_lockstep"),
        ],
    )
    def test_path_is_chosen_by_rows_and_dimension(self, monkeypatch, rows, dimension, path):
        # A wrapped registry entry, as the benchmark's tracer installs, must
        # not change the path: it is chosen by the objective's name.
        sphere = es_mod.get_objective("sphere")
        monkeypatch.setitem(es_mod._OBJECTIVES, "sphere", lambda x: sphere(x))
        taken = _spy_paths(monkeypatch)
        template = EsTemplate(dimension=dimension, max_generations=20)
        results = run_batch(template, ObjectiveSpec("sphere", dimension),
                            [0.9] * rows, list(range(rows)))
        assert taken == {path}
        for result, seed in zip(results, range(rows)):
            f, sigma = stepwise_run(template, 0.9, seed)
            assert (result.best_f.hex(), result.final_sigma.hex()) == (f.hex(), sigma.hex())

    def test_non_finite_message_is_the_same_on_both_paths(self, monkeypatch):
        # Three paths: 2 rows at 5-D run stepwise, 2 rows past the stepwise
        # limit by speculation, 4 rows in lockstep.
        seed = 16789950873655392269
        cases = [
            (5, [2, seed], "_stepwise"),
            (es_mod._STEPWISE_DIMENSION + 1, [2, seed], "_speculate"),
            (5, [2, seed, 3, 4], "_lockstep"),
        ]
        messages = []
        for dimension, seeds, path in cases:
            template = EsTemplate(sigma0=1e308, dimension=dimension, max_generations=200)
            with monkeypatch.context() as patch:
                taken = _spy_paths(patch)
                with pytest.raises(NumericalError) as caught:
                    run_batch(template, ObjectiveSpec("sphere", dimension),
                              [1.0] * len(seeds), seeds)
            assert taken == {path}
            messages.append(str(caught.value))
        assert len(set(messages)) == 1

    def test_raises_on_a_non_finite_candidate(self):
        template = EsTemplate(sigma0=1e308, dimension=5, max_generations=200)
        seed = 16789950873655392269
        assert _oracle_or_error(template, 1.0, seed) is None
        assert _oracle_or_error(template, 1.0, 2) is not None
        with pytest.raises(NumericalError):
            run_batch(template, SPHERE_5D, [1.0, 1.0], [2, seed])
        assert issubclass(NumericalError, ValueError)

    def test_raises_only_when_sigma_is_0_before_a_generation(self, monkeypatch):
        # An objective under which every offspring is worse drives sigma to
        # 0; the stepwise loop raises in the first generation that starts
        # there, not when sigma reaches 0 in the last one.
        def every_offspring_worse():
            calls = []

            def fn(x):
                calls.append(None)
                return np.full(x.shape[1], 0.0 if len(calls) == 1 else 1.0)

            return fn

        sigma, reach_zero = 1.0, 0
        while sigma > 0:
            sigma, reach_zero = update_sigma(sigma, TAU_MAX, False), reach_zero + 1
        template = _paper_template(reach_zero)
        monkeypatch.setitem(es_mod._OBJECTIVES, "worse", every_offspring_worse())
        objective = ObjectiveSpec("worse", 5)
        assert run_batch(template, objective, [TAU_MAX], [0])[0].final_sigma == 0.0
        monkeypatch.setitem(es_mod._OBJECTIVES, "worse", every_offspring_worse())
        with pytest.raises(NumericalError):
            run_batch(_paper_template(reach_zero + 1), objective, [TAU_MAX], [0])

    def test_zero_sigma_message_is_the_same_on_both_paths(self, monkeypatch):
        # Every offspring is worse than the start point, so sigma reaches 0:
        # by speculation in 1 row, in lockstep in 4.  Only the sphere runs
        # stepwise, and on the sphere a tiny sigma leaves the candidate
        # equal to its parent, a tie that is accepted; so the stepwise row
        # is started at sigma 0, which stays 0.
        messages = []
        for rows, path in ((1, "_speculate"), (4, "_lockstep")):
            first = iter([0.0])
            monkeypatch.setitem(es_mod._OBJECTIVES, "worse",
                                lambda x: np.full(x.shape[1], next(first, 1.0)))
            with monkeypatch.context() as patch:
                taken = _spy_paths(patch)
                with pytest.raises(NumericalError) as caught:
                    run_batch(_paper_template(200), ObjectiveSpec("worse", 5),
                              [TAU_MAX] * rows, list(range(rows)))
            assert taken == {path}
            messages.append(str(caught.value))
        stepwise = es_mod._stepwise
        start = [1.0, -2.0, 3.0, 0.5, 0.0]
        assert stepwise(make_rng(0), start, 0.0, 2.0, 0.5, 200) == (14.25, 0.0, 0.0)
        monkeypatch.setattr(es_mod, "_stepwise",
                            lambda rng, x, sigma, *rest: stepwise(rng, x, 0.0, *rest))
        with pytest.raises(NumericalError) as caught:
            run_batch(_paper_template(200), SPHERE_5D, [TAU_MAX], [0])
        messages.append(str(caught.value))
        assert len(set(messages)) == 1

    @settings(max_examples=60, deadline=None)
    @given(_lockstep_batches(), st.integers(1, 3))
    def test_rows_in_chunks_equal_one_chunk(self, batch, chunk_rows):
        # A budget of chunk_rows rows splits the 4-8 rows into 2-8 chunks.
        template, rows = batch
        taus, seeds = [tau for tau, _ in rows], [seed for _, seed in rows]
        block = min(es_mod.BLOCK_GENERATIONS, template.max_generations)
        row_bytes = 8 * (2 * block * template.dimension + 8)
        whole = _rows_or_message(template, taus, seeds)
        with mock.patch.object(es_mod, "_LOCKSTEP_BYTES", chunk_rows * row_bytes):
            assert _rows_or_message(template, taus, seeds) == whole

    def test_chunks_raise_as_one_batch(self, monkeypatch):
        # Every offspring is worse than its parent, so each row's sigma falls
        # towards 0; at sigma0 1e308 the first candidate of seed 3 overflows.
        # One batch raises for the candidate, though the row of seed 0, in
        # the first chunk, reaches sigma 0 before it: sigma is checked only
        # after every chunk.
        counter = itertools.count()
        monkeypatch.setitem(es_mod._OBJECTIVES, "worse",
                            lambda x: np.full(x.shape[1], float(next(counter))))
        template = EsTemplate(sigma0=1e308, dimension=5, max_generations=200)
        objective = ObjectiveSpec("worse", 5)
        seeds = [0, 1, 2, 3]

        def message(seeds):
            with pytest.raises(NumericalError) as caught:
                run_batch(template, objective, [TAU_MAX] * len(seeds), seeds)
            return str(caught.value)

        whole = message(seeds)
        assert message(seeds[:1]) != whole
        calls = []
        lockstep = es_mod._lockstep
        monkeypatch.setattr(es_mod, "_lockstep", lambda *a: calls.append(1) or lockstep(*a))
        monkeypatch.setattr(es_mod, "_LOCKSTEP_BYTES", 1)
        assert message(seeds) == whole
        assert len(calls) == len(seeds)

    def test_empty_batch(self):
        assert run_batch(_paper_template(), SPHERE_5D, [], []) == []

    def test_one_seed_per_tau_required(self):
        with pytest.raises(ConfigurationError):
            run_batch(_paper_template(10), SPHERE_5D, [0.9, 1.1], [1])

    @pytest.mark.parametrize("master_seed", [7, 42, 101])
    def test_grid_rows_equal_separate_trials(self, paper_cfg, master_seed):
        cfg = replace(paper_cfg, master_seed=master_seed)
        spec = GridSpec(0.3, 2.4, 4)
        trials = run_grid(spec, cfg)
        for i, tau in enumerate(grid_values(spec)):
            assert trials[i] == run_trial(tau, cfg, i)
