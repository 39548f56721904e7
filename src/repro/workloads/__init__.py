"""Workload substrate: PUMA profiles, the MSD synthetic mix, arrivals."""

from .benchmarks import GREP, PUMA, TERASORT, WORDCOUNT, profile_by_name, puma_job
from .generator import uniform_job_stream
from .msd import CLASS_SPECS, MSDConfig, class_histogram, generate_msd_workload
from .profiles import SIZE_CLASSES, JobSpec, WorkloadProfile
from .traces import (
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PROCESS_KINDS,
    TraceError,
    TraceJob,
    TraceRef,
    TraceSpec,
    load_trace,
    make_process,
    render_trace,
    write_trace,
)

__all__ = [
    "WorkloadProfile",
    "JobSpec",
    "SIZE_CLASSES",
    "WORDCOUNT",
    "GREP",
    "TERASORT",
    "PUMA",
    "profile_by_name",
    "puma_job",
    "MSDConfig",
    "generate_msd_workload",
    "class_histogram",
    "CLASS_SPECS",
    "uniform_job_stream",
    "TraceError",
    "TraceJob",
    "TraceSpec",
    "TraceRef",
    "load_trace",
    "write_trace",
    "DiurnalProcess",
    "BurstyProcess",
    "FlashCrowdProcess",
    "PROCESS_KINDS",
    "make_process",
    "render_trace",
]
