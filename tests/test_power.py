"""Unit tests for the affine power law and exact energy integration."""

import pytest

from repro.cluster import EnergyAccumulator, PowerModel


class TestPowerModel:
    def test_affine_law(self):
        model = PowerModel(idle_watts=50.0, alpha_watts=100.0)
        assert model.power(0.0) == 50.0
        assert model.power(0.5) == 100.0
        assert model.power(1.0) == 150.0
        assert model.full_load_watts == 150.0

    def test_utilization_clamped(self):
        model = PowerModel(idle_watts=10.0, alpha_watts=20.0)
        assert model.power(-0.5) == 10.0
        assert model.power(2.0) == 30.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(idle_watts=-1.0, alpha_watts=5.0)

    def test_energy_components(self):
        model = PowerModel(idle_watts=40.0, alpha_watts=60.0)
        assert model.idle_energy(10.0) == 400.0
        assert model.dynamic_energy(0.5, 10.0) == 300.0


class TestEnergyAccumulator:
    def test_piecewise_constant_integration_is_exact(self):
        acc = EnergyAccumulator(PowerModel(idle_watts=100.0, alpha_watts=50.0))
        acc.advance(10.0, 0.5)   # 10 s idle
        acc.advance(30.0, 0.0)   # 20 s at u=0.5
        acc.finish(40.0)         # 10 s idle again
        assert acc.idle_joules == pytest.approx(100.0 * 40.0)
        assert acc.dynamic_joules == pytest.approx(50.0 * 0.5 * 20.0)
        assert acc.total_joules == pytest.approx(4000.0 + 500.0)

    def test_time_cannot_go_backwards(self):
        acc = EnergyAccumulator(PowerModel(10.0, 10.0))
        acc.advance(5.0, 0.2)
        with pytest.raises(ValueError):
            acc.advance(4.0, 0.3)
