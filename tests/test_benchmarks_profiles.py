"""PUMA profile calibration properties (Fig. 1(d) structure)."""

import pytest

from repro.workloads import GREP, PUMA, TERASORT, WORDCOUNT, profile_by_name, puma_job


class TestPumaSuite:
    def test_suite_members(self):
        assert set(PUMA) == {"wordcount", "grep", "terasort"}

    def test_lookup_case_insensitive(self):
        assert profile_by_name("WordCount") is WORDCOUNT
        with pytest.raises(KeyError):
            profile_by_name("sort2")

    def test_wordcount_is_cpu_bound_others_io_bound(self):
        # Fig. 1(d): Wordcount map-(CPU-)intensive; Grep/Terasort IO-heavy.
        assert WORDCOUNT.is_cpu_bound
        assert not GREP.is_cpu_bound
        assert not TERASORT.is_cpu_bound

    def test_terasort_shuffles_everything(self):
        assert TERASORT.map_output_ratio == 1.0
        assert WORDCOUNT.map_output_ratio < 0.5

    def test_signatures_distinguish_wordcount_from_io_apps(self):
        assert WORDCOUNT.resource_signature() != GREP.resource_signature()
        assert WORDCOUNT.resource_signature() != TERASORT.resource_signature()


class TestPumaJob:
    def test_default_reduce_count(self):
        job = puma_job("wordcount", input_gb=1.0)
        assert job.num_reduces == max(1, round(1024 / 64 / 8))

    def test_explicit_reduce_count(self):
        job = puma_job("grep", input_gb=1.0, num_reduces=7)
        assert job.num_reduces == 7
