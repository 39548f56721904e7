"""Peak-RSS regression: spooled sweeps are O(1) memory in grid size.

The contract that makes 10k-scenario sweeps feasible: ``run_spooled``
flushes each record to disk and drops it, so peak memory does not grow
with the number of specs.  The rig runs a 10-spec and a 200-spec spooled
sweep in separate subprocesses, with the execution worker patched to
return a deliberately fat record (~0.5 MB pickled), and asserts the peak
RSS delta is a small fraction of what accumulating the records would
cost — 190 extra fat records would add ~95 MB if anything retained them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Subprocess: run an N-spec spooled sweep with fat fake records and print
#: "<peak_rss_bytes> <record_pickle_bytes>".  The worker patch replaces
#: real simulation so the measurement isolates the spooling path.
SCRIPT = """
import dataclasses, pickle, resource, sys
sys.path.insert(0, sys.argv[1])
n_specs = int(sys.argv[2])
spool_path = sys.argv[3]

import repro.runner.sweep as sweep_module
from repro.runner import ResultSpool, ScenarioSpec, SweepRunner
from repro.workloads import puma_job

def spec_for(seed):
    return ScenarioSpec(
        jobs=(puma_job("grep", 0.25),),
        scheduler="fifo",
        seed=seed,
        label=f"fifo@{seed}",
    )

# One real run provides the template; every fake record is a fat clone of
# it (a bulky per-job phase table), re-addressed to its own spec.  The bulk
# is in 20 long (~25 kB) job names rather than thousands of tiny entries:
# the bytes a leak would retain stay above the floor below, while each
# pickle and digest costs milliseconds instead of ~0.1 s.  The table is
# built afresh per record, so a runner that kept records would keep bytes.
template = spec_for(0).run_record()

def fat_worker(spec):
    return dataclasses.replace(
        template,
        spec_hash=spec.spec_hash(),
        phase_breakdown_by_job={
            f"job-{i}-" + "x" * 25_000: {"map": float(i), "reduce": 2.0}
            for i in range(20)
        },
    )

sweep_module._execute_record_worker = fat_worker
record_bytes = len(pickle.dumps(fat_worker(spec_for(0))))

specs = [spec_for(seed) for seed in range(n_specs)]
aggregate = SweepRunner(workers=1).run_spooled(specs, ResultSpool(spool_path))
assert aggregate.records == n_specs, aggregate.records

peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux: KB
print(peak, record_bytes)
"""


def measure(n_specs: int, tmp_path: Path) -> tuple:
    proc = subprocess.run(
        [
            sys.executable, "-c", SCRIPT,
            SRC, str(n_specs), str(tmp_path / f"s{n_specs}.jsonl"),
        ],
        capture_output=True, text=True, timeout=300, check=True,
    )
    peak, record_bytes = proc.stdout.split()
    return int(peak), int(record_bytes)


@pytest.mark.slow
def test_peak_rss_is_flat_in_grid_size(tmp_path):
    small_peak, record_bytes = measure(10, tmp_path)
    large_peak, _ = measure(200, tmp_path)

    # The records are genuinely fat — retaining the extra 190 would cost
    # at least this much; require the actual growth to be well under it.
    assert record_bytes > 200_000, "fat record is not fat enough to detect leaks"
    retained_cost = 190 * record_bytes
    delta = large_peak - small_peak
    assert delta < retained_cost / 3, (
        f"peak RSS grew {delta / 1e6:.1f} MB from 10 to 200 specs; "
        f"retaining every record would cost ~{retained_cost / 1e6:.0f} MB — "
        f"the spooled sweep is accumulating records"
    )

    # And the spooled results really landed on disk, one line per spec.
    assert len((tmp_path / "s200.jsonl").read_text().splitlines()) == 200
