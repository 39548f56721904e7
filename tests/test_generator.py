"""Arrival generators: Poisson streams and uniform job streams."""

import numpy as np
import pytest

from repro.simulation import RandomStreams
from repro.workloads import uniform_job_stream
from repro.workloads.traces import poisson_process_times


class TestPoissonArrivals:
    def test_all_within_window(self):
        rng = np.random.default_rng(0)
        times = poisson_process_times(30.0 / 60.0, 600.0, rng)
        assert all(0 <= t < 600.0 for t in times)
        assert times == sorted(times)

    def test_rate_approximately_respected(self):
        rng = np.random.default_rng(1)
        times = poisson_process_times(60.0 / 60.0, 3600.0, rng)
        # 3600 expected arrivals; Poisson std ~60.
        assert 3300 <= len(times) <= 3900

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_process_times(0.0 / 60.0, 10.0, np.random.default_rng(0))


class TestUniformJobStream:
    def test_counts_per_application(self):
        rng = RandomStreams(0).stream("jobs")
        jobs = uniform_job_stream(("wordcount", "grep"), 5, 2.0, 30.0, rng)
        names = [j.profile.name for j in jobs]
        assert names.count("wordcount") == 5
        assert names.count("grep") == 5

    def test_monotone_submissions(self):
        rng = RandomStreams(0).stream("jobs")
        jobs = uniform_job_stream(("terasort",), 8, 1.0, 10.0, rng)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_invalid_count(self):
        rng = RandomStreams(0).stream("jobs")
        with pytest.raises(ValueError):
            uniform_job_stream(("grep",), 0, 1.0, 10.0, rng)
