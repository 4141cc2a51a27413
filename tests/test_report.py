"""Grid sweeps, CSV emission, and the SVG plot."""

import xml.etree.ElementTree as ET

import pytest

from estune.es import ConfigurationError, EsRunResult, EsTemplate, ObjectiveSpec
from estune.loop import derive_seed
from estune.models import SessionConfig, Trial
from estune.report import MAX_GRID_STEPS, GridSpec, emit_csv, emit_plot, grid_values, run_grid
from estune.store import render_log

from conftest import FIXTURES

SVG_NS = "{http://www.w3.org/2000/svg}"


def _trial(tau, mean, std=0.0, n=2):
    results = [
        EsRunResult(best_f=1.0, score=mean, final_sigma=0.5, generations_run=3, seed=i)
        for i in range(n)
    ]
    return Trial(tau=tau, results=results, mean_score=mean, std_score=std)


def _circles(path, cls):
    root = ET.parse(path).getroot()
    return [c for c in root.iter(f"{SVG_NS}circle") if c.get("class") == cls]


class TestGridValues:
    def test_default_grid_is_the_reference_range(self):
        values = grid_values(GridSpec())
        assert len(values) == 10
        expected = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
        for got, want in zip(values, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert values[0] == 0.6
        assert values[-1] == 1.5

    def test_two_steps_are_the_endpoints(self):
        assert grid_values(GridSpec(0.5, 2.0, 2)) == [0.5, 2.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_min": 1.5, "tau_max": 0.6},
            {"tau_min": 1.0, "tau_max": 1.0},
            {"tau_min": -0.1, "tau_max": 1.0},
            {"steps": 1},
            {"tau_min": 1.0, "tau_max": 101.0},
            {"steps": MAX_GRID_STEPS + 1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GridSpec(**kwargs)

    def test_most_steps_accepted(self):
        assert GridSpec(steps=MAX_GRID_STEPS).steps == MAX_GRID_STEPS


class TestRunGrid:
    def test_one_trial_per_value_with_indexed_seeds(self, fast_cfg):
        spec = GridSpec(0.8, 1.2, 3)
        trials = run_grid(spec, fast_cfg)
        assert [t.tau for t in trials] == grid_values(spec)
        for i, trial in enumerate(trials):
            assert trial.results[0].seed == derive_seed(fast_cfg.master_seed, i, 0)

    def test_paper_grid_matches_the_golden_bytes(self, tmp_path):
        # The config `estune grid --seed 1` builds from its default flags:
        # 100 rows of the 5-D sphere at 1000 generations, one lockstep batch.
        spec = GridSpec()
        cfg = SessionConfig(
            objective=ObjectiveSpec("sphere", 5),
            es_template=EsTemplate(sigma0=1.0, dimension=5, max_generations=1000),
            master_seed=1,
            replicates=10,
            budget=spec.steps,
        )
        trials = run_grid(spec, cfg)
        emit_csv(trials, tmp_path / "grid.csv")
        golden = FIXTURES / "golden_paper_grid"
        assert (tmp_path / "grid.csv").read_bytes() == golden.with_suffix(".csv").read_bytes()
        log = render_log(trials).encode("utf-8")
        assert log == golden.with_suffix(".log").read_bytes()


class TestEmitCsv:
    def test_rows_sorted_ascending(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([_trial(0.95, 66.055, 1.5), _trial(0.7, 0.116, 0.2)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tau,mean_fitness,std_fitness,replicates"
        assert len(lines) == 3
        assert lines[1].startswith("0.7,")
        assert lines[2].startswith("0.95,")

    def test_single_trial_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([_trial(1.0, 5.0)], path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_rows_parse_back_exactly(self, tmp_path):
        trials = [_trial(0.7, 0.1162058339177609, 0.25, n=3), _trial(0.95, 66.05538351053897)]
        path = tmp_path / "rt.csv"
        emit_csv(trials, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        for row, trial in zip(rows, trials):
            tau, mean, std, n = row.split(",")
            assert float(tau) == trial.tau
            assert float(mean) == trial.mean_score
            assert float(std) == trial.std_score
            assert int(n) == len(trial.results)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")


class TestEmitPlot:
    def test_marker_per_point(self, tmp_path):
        trials = [_trial(0.6 + 0.1 * i, 50.0 + i) for i in range(10)]
        path = tmp_path / "grid.svg"
        emit_plot(trials, path)
        assert len(_circles(path, "pt")) == 10

    def test_monotone_values_monotone_y(self, tmp_path):
        trials = [_trial(0.6 + 0.1 * i, 10.0 * i + 1) for i in range(6)]
        path = tmp_path / "mono.svg"
        emit_plot(trials, path)
        markers = sorted(_circles(path, "pt"), key=lambda c: float(c.get("cx")))
        cys = [float(c.get("cy")) for c in markers]
        # SVG y grows downward, so rising fitness means strictly falling cy.
        assert all(a > b for a, b in zip(cys, cys[1:]))

    def test_best_tau_highlight(self, tmp_path):
        trials = [_trial(t, m) for t, m in [(0.7, 40.0), (0.95, 60.0), (1.2, 50.0)]]
        path = tmp_path / "best.svg"
        emit_plot(trials, path, best_tau=0.95)
        best = _circles(path, "best")
        assert len(best) == 1
        marker_at_best = [
            c for c in _circles(path, "pt") if c.get("cx") == best[0].get("cx")
        ]
        assert len(marker_at_best) == 1
        assert marker_at_best[0].get("cy") == best[0].get("cy")

    def test_no_highlight_without_best(self, tmp_path):
        trials = [_trial(0.7, 1.0), _trial(0.9, 2.0)]
        path = tmp_path / "plain.svg"
        emit_plot(trials, path)
        assert _circles(path, "best") == []

    def test_fewer_than_two_trials_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="emit_csv"):
            emit_plot([_trial(1.0, 5.0)], tmp_path / "x.svg")

    def test_axis_labels_present(self, tmp_path):
        trials = [_trial(0.7, 1.0), _trial(0.9, 2.0)]
        path = tmp_path / "labels.svg"
        emit_plot(trials, path)
        text = path.read_text(encoding="utf-8")
        assert ">tau</text>" in text
        assert ">fitness (-log f)</text>" in text

    def test_plot_matches_csv_rows(self, tmp_path):
        trials = [_trial(0.6 + 0.1 * i, 50.0 - i) for i in range(5)]
        emit_csv(trials, tmp_path / "c.csv")
        emit_plot(trials, tmp_path / "p.svg")
        rows = (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == len(_circles(tmp_path / "p.svg", "pt"))

    def test_deterministic_bytes(self, tmp_path):
        trials = [_trial(0.7, 1.0), _trial(0.9, 2.0), _trial(1.1, 1.5)]
        emit_plot(trials, tmp_path / "a.svg", best_tau=0.9)
        emit_plot(trials, tmp_path / "b.svg", best_tau=0.9)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
