"""Cluster wall-power meter tests."""

import pytest

from repro.cluster import Cluster, DESKTOP
from repro.energy import ClusterMeter, fit_power_model
from repro.simulation import Simulator


def test_meter_samples_on_schedule():
    sim = Simulator()
    cluster = Cluster(sim, [(DESKTOP, 2)])
    meter = ClusterMeter(cluster, sample_interval=5.0)
    stop = {"flag": False}
    meter.attach(sim, stop_when=lambda: stop["flag"])
    sim.call_at(23.0, lambda: stop.__setitem__("flag", True))
    sim.run()
    times = sorted({r.time for r in meter.readings})
    assert times == [5.0, 10.0, 15.0, 20.0, 25.0]
    assert len(meter.series_for(0)) == 5


def test_meter_reading_values_track_power_law():
    sim = Simulator()
    cluster = Cluster(sim, [(DESKTOP, 1)])
    machine = cluster.machine(0)
    meter = ClusterMeter(cluster, sample_interval=2.0)
    stop = {"flag": False}
    meter.attach(sim, stop_when=lambda: stop["flag"])
    sim.call_at(3.0, lambda: machine.add_cpu_load(8.0))
    sim.call_at(9.0, lambda: stop.__setitem__("flag", True))
    sim.run()
    by_time = {r.time: r for r in meter.readings}
    assert by_time[2.0].power_watts == pytest.approx(DESKTOP.power.idle_watts)
    assert by_time[4.0].power_watts == pytest.approx(DESKTOP.power.full_load_watts)


def test_identification_data_recovers_power_model():
    sim = Simulator()
    cluster = Cluster(sim, [(DESKTOP, 1)])
    machine = cluster.machine(0)
    meter = ClusterMeter(cluster, sample_interval=1.0)
    stop = {"flag": False}
    meter.attach(sim, stop_when=lambda: stop["flag"])
    # Vary load over time so the fit sees multiple utilization levels.
    for t, load in ((2.0, 2.0), (5.0, 2.0), (8.0, 4.0)):
        sim.call_at(t, lambda load=load: machine.add_cpu_load(load))
    sim.call_at(12.0, lambda: stop.__setitem__("flag", True))
    sim.run()
    utils, powers = meter.identification_data(0)
    fitted = fit_power_model(utils, powers)
    assert fitted.idle_watts == pytest.approx(DESKTOP.power.idle_watts, rel=0.01)
    assert fitted.alpha_watts == pytest.approx(DESKTOP.power.alpha_watts, rel=0.01)
