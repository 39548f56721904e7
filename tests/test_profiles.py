"""WorkloadProfile / JobSpec validation and derived quantities."""

import pytest

from repro.workloads import JobSpec, WorkloadProfile, WORDCOUNT


def make_profile(**overrides):
    base = dict(
        name="test",
        map_cpu_seconds=10.0,
        map_io_seconds=5.0,
        map_output_ratio=0.5,
        reduce_cpu_per_mb=0.05,
        reduce_io_per_mb=0.05,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestWorkloadProfile:
    def test_cpu_fraction(self):
        profile = make_profile()
        assert profile.map_cpu_fraction == pytest.approx(10.0 / 15.0)
        assert profile.is_cpu_bound

    def test_io_bound_detection(self):
        profile = make_profile(map_cpu_seconds=2.0, map_io_seconds=8.0)
        assert not profile.is_cpu_bound

    def test_scaled_multiplies_work(self):
        scaled = make_profile().scaled(2.0)
        assert scaled.map_cpu_seconds == 20.0
        assert scaled.reduce_io_per_mb == pytest.approx(0.1)

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            make_profile().scaled(0.0)

    def test_resource_signature_buckets_similar_jobs_together(self):
        a = make_profile(map_cpu_seconds=10.0)
        b = make_profile(map_cpu_seconds=10.5)
        assert a.resource_signature() == b.resource_signature()

    def test_resource_signature_separates_different_demand(self):
        cpu_bound = make_profile(map_cpu_seconds=14.0, map_io_seconds=2.0)
        io_bound = make_profile(map_cpu_seconds=2.0, map_io_seconds=14.0)
        assert cpu_bound.resource_signature() != io_bound.resource_signature()

    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            make_profile(map_cpu_seconds=0.0, map_io_seconds=0.0)


class TestJobSpec:
    def test_num_maps_from_blocks(self):
        spec = JobSpec(profile=WORDCOUNT, input_mb=640.0, num_reduces=2)
        assert spec.num_maps(64.0) == 10

    def test_num_maps_rounds_up(self):
        spec = JobSpec(profile=WORDCOUNT, input_mb=65.0, num_reduces=1)
        assert spec.num_maps(64.0) == 2

    def test_shuffle_volume(self):
        spec = JobSpec(profile=WORDCOUNT, input_mb=1000.0, num_reduces=4)
        assert spec.shuffle_mb == pytest.approx(1000.0 * WORDCOUNT.map_output_ratio)
        assert spec.shuffle_mb_per_reduce() == pytest.approx(spec.shuffle_mb / 4)

    def test_zero_reduces_allowed(self):
        spec = JobSpec(profile=WORDCOUNT, input_mb=64.0, num_reduces=0)
        assert spec.shuffle_mb_per_reduce() == 0.0

    def test_default_name_is_profile_name(self):
        spec = JobSpec(profile=WORDCOUNT, input_mb=64.0, num_reduces=1)
        assert spec.name == "wordcount"

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(profile=WORDCOUNT, input_mb=0.0, num_reduces=1)
        with pytest.raises(ValueError):
            JobSpec(profile=WORDCOUNT, input_mb=64.0, num_reduces=-1)
        with pytest.raises(ValueError):
            JobSpec(profile=WORDCOUNT, input_mb=64.0, num_reduces=1, size_class="huge")

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, size):
        # NaN passes `input_mb <= 0`; it used to fail later inside num_maps.
        with pytest.raises(ValueError, match="positive finite"):
            JobSpec(profile=WORDCOUNT, input_mb=size, num_reduces=1)

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_non_finite_submit_time_rejected(self, when):
        with pytest.raises(ValueError, match="non-negative finite"):
            JobSpec(profile=WORDCOUNT, input_mb=64.0, num_reduces=1, submit_time=when)

    @pytest.mark.parametrize("gb", [float("nan"), float("inf"), 1e308])
    def test_puma_job_rejects_non_finite_sizes(self, gb):
        from repro.workloads import puma_job

        with pytest.raises(ValueError, match="positive finite"):
            puma_job("grep", gb)
