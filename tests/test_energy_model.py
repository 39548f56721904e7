"""Eq. 2 estimator tests: window sampling, closed form, phase chopping."""

import pytest

from repro.cluster import DESKTOP, T420
from repro.energy import (
    TaskEnergyModel,
    UtilizationSample,
    samples_from_phases,
)


class TestTaskEnergyModel:
    def test_idle_share_is_idle_over_mslot(self):
        model = TaskEnergyModel.for_spec(T420)
        assert model.idle_share_watts == pytest.approx(T420.power.idle_watts / 6)

    def test_estimate_sums_sample_windows(self):
        model = TaskEnergyModel(idle_watts=60.0, alpha_watts=120.0, total_slots=6)
        samples = [UtilizationSample(0.1, 3.0), UtilizationSample(0.2, 1.5)]
        expected = (10.0 + 12.0) * 3.0 + (10.0 + 24.0) * 1.5
        assert model.estimate(samples) == pytest.approx(expected)

    def test_closed_form_equals_window_sum_for_constant_util(self):
        model = TaskEnergyModel.for_spec(DESKTOP)
        samples = samples_from_phases([(17.0, 0.11)], delta_t=3.0)
        assert model.estimate(samples) == pytest.approx(
            model.estimate_from_average(0.11, 17.0)
        )

    def test_negative_duration_rejected(self):
        model = TaskEnergyModel.for_spec(DESKTOP)
        with pytest.raises(ValueError):
            model.estimate_from_average(0.1, -1.0)


class TestSamplesFromPhases:
    def test_total_duration_preserved(self):
        samples = samples_from_phases([(7.0, 0.2), (5.0, 0.8)], delta_t=3.0)
        assert sum(s.duration for s in samples) == pytest.approx(12.0)

    def test_window_spanning_boundary_is_time_weighted(self):
        # One 3 s window covers 2 s at 0.0 and 1 s at 0.9.
        samples = samples_from_phases([(2.0, 0.0), (1.0, 0.9)], delta_t=3.0)
        assert len(samples) == 1
        assert samples[0].utilization == pytest.approx(0.3)

    def test_energy_from_samples_matches_exact_integral(self):
        phases = [(4.0, 0.1), (9.0, 0.5), (2.0, 0.05)]
        model = TaskEnergyModel(idle_watts=60.0, alpha_watts=100.0, total_slots=6)
        samples = samples_from_phases(phases, delta_t=3.0)
        exact = sum(
            (model.idle_share_watts + model.alpha_watts * u) * d for d, u in phases
        )
        assert model.estimate(samples) == pytest.approx(exact)

    def test_windows_cover_duration(self):
        samples = samples_from_phases([(10.0, 0.2)], delta_t=3.0)
        assert [s.duration for s in samples] == pytest.approx([3.0, 3.0, 3.0, 1.0])

    def test_noise_factor_applied_per_window(self):
        requested = []

        def factors(n):
            requested.append(n)
            return [2.0, 0.5][:n]

        samples = samples_from_phases([(6.0, 0.4)], delta_t=3.0, noise_factors=factors)
        assert requested == [2]
        assert samples[0].utilization == pytest.approx(0.8)
        assert samples[1].utilization == pytest.approx(0.2)

    def test_negative_factor_clamps_to_zero(self):
        samples = samples_from_phases(
            [(6.0, 0.4)], delta_t=3.0, noise_factors=lambda n: [-1.5, 1.0]
        )
        assert [s.utilization for s in samples] == [0.0, pytest.approx(0.4)]

    def test_zero_duration_phases_skipped(self):
        samples = samples_from_phases([(0.0, 0.9), (3.0, 0.1)], delta_t=3.0)
        assert len(samples) == 1
        assert samples[0].utilization == pytest.approx(0.1)

    def test_invalid_delta_t(self):
        with pytest.raises(ValueError):
            samples_from_phases([(1.0, 0.1)], delta_t=0.0)

