"""Smoke + shape tests for the figure harnesses (small configurations)."""

import pytest

from repro.cli import main
from repro.cluster import CORE_I7, XEON_E5
from repro.experiments import (
    fig1d_phase_breakdown,
    fig4_model_accuracy,
    fig6_locality_impact,
    fig7_noise_scatter,
    measure_update_overhead,
    throughput_per_watt,
)
from repro.experiments import testbed_problem as build_testbed_problem
from repro.experiments.figures import figure_result
from repro.workloads import WORDCOUNT


class TestFig1:
    def test_desktop_wins_at_low_rate(self):
        i7 = throughput_per_watt(CORE_I7, WORDCOUNT, 8.0, duration_s=600.0)
        e5 = throughput_per_watt(XEON_E5, WORDCOUNT, 8.0, duration_s=600.0)
        assert i7.throughput_per_watt > e5.throughput_per_watt

    def test_xeon_wins_at_high_rate(self):
        i7 = throughput_per_watt(CORE_I7, WORDCOUNT, 22.0, duration_s=600.0)
        e5 = throughput_per_watt(XEON_E5, WORDCOUNT, 22.0, duration_s=600.0)
        assert e5.throughput_per_watt > i7.throughput_per_watt

    def test_power_split_idle_dominates_xeon_at_light_load(self):
        point = throughput_per_watt(XEON_E5, WORDCOUNT, 8.0, duration_s=600.0)
        assert point.idle_power_watts > point.dynamic_power_watts

    def test_breakdown_orders_applications(self):
        breakdown = fig1d_phase_breakdown(input_gb=2.0)
        map_share = {app: parts["map"] for app, parts in breakdown.items()}
        # Wordcount most map-intensive; terasort least (Fig. 1(d)).
        assert map_share["wordcount"] > map_share["grep"] > map_share["terasort"]
        for parts in breakdown.values():
            assert sum(parts.values()) == pytest.approx(1.0)


class TestFig4:
    def test_estimates_track_measurements(self):
        rows = fig4_model_accuracy(input_gb=1.5)
        assert len(rows) == 6  # 2 machines x 3 applications
        for row in rows:
            assert row.relative_error < 0.25
            assert 0.0 <= row.task_nrmse < 0.25


class TestFig6:
    def test_locality_reduces_completion_time(self):
        points = fig6_locality_impact(fractions=(0.1, 0.8), input_gb=3.0)
        assert points[0].completion_time_s > points[1].completion_time_s
        assert points[1].locality_rate > points[0].locality_rate


class TestFig7:
    def test_noise_produces_scatter(self):
        scatter = fig7_noise_scatter(input_gb=2.0)
        assert scatter.coefficient_of_variation > 0.15
        assert scatter.max_joules > scatter.mean_joules > scatter.min_joules


class TestOverhead:
    def test_problem_shape(self):
        problem = build_testbed_problem()
        assert problem.num_machines == 16
        assert problem.num_tasks == 96
        assert problem.is_feasible([i % 16 for i in range(96)])

    def test_update_overhead_sub_second(self):
        result = measure_update_overhead(repetitions=3)
        assert result.mean_seconds < 1.0


#: The ``repro figure`` builders that take under a second; the slower ones
#: are covered through their experiment functions in ``benchmarks/``.
FAST_FIGURES = ("fig1b", "fig1d", "fig4", "fig6", "fig7", "fig11a")


@pytest.mark.parametrize("name", FAST_FIGURES)
def test_figure_dispatch_renders_its_rows(name, capsys):
    figure = figure_result(name)
    assert figure.name == name
    rows = [row for series in figure.series.values() for row in series]
    assert rows
    for series in figure.series.values():
        assert len({row.count("\t") for row in series}) == 1, series
    rendered = figure.render()
    assert [line for line in rendered.splitlines() if not line.startswith("#")] == rows
    assert main(["figure", name]) == 0
    assert capsys.readouterr().out == rendered + "\n"
