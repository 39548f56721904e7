"""The trace-driven workload frontend: schema, IO, arrivals, open loop.

Four seams under test:

* **Schema** (`TraceJob` / `TraceSpec`): field validation, canonical
  defaults, and the content digest that becomes the spec identity.
* **IO** (`load_trace` / `write_trace`): write → load round trips are
  exact (property-based), every malformed input dies with a
  ``file:line: error:`` diagnostic, and the digest is invariant to file
  format and CSV column order.
* **Arrival processes**: deterministic rendering from named RNG streams,
  shape validation, and the rate structure each process promises.
* **Open loop**: `ScenarioSpec.from_trace` folds the trace digest into
  the spec hash without disturbing synthetic hashes; open-loop execution
  cuts at the horizon and accounts for the backlog deterministically.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.runner.record import build_record, record_digest
from repro.simulation import RandomStreams
from repro.workloads import (
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    TraceError,
    TraceJob,
    TraceRef,
    TraceSpec,
    load_trace,
    make_process,
    render_trace,
    uniform_job_stream,
    write_trace,
)
from repro.workloads.traces.arrivals import cumulative_exponential_times


def _tiny_trace(name="tiny", seed=7):
    process = DiurnalProcess(base_rate_per_s=0.05, amplitude=0.8, period_s=240.0)
    return render_trace(
        process, duration_s=240.0, name=name, seed=seed, task_counts=(1, 2, 4)
    )


# ---------------------------------------------------------------------- schema
class TestTraceJob:
    def test_defaults_materialized(self):
        job = TraceJob(job_id=0, arrival_time=3.5, task_count=8)
        assert job.input_mb == 8 * 64.0
        assert job.num_reduces == 1
        assert job.application == "wordcount"

    def test_application_normalized(self):
        job = TraceJob(job_id=0, arrival_time=0.0, task_count=1, application=" GREP ")
        assert job.application == "grep"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(job_id=-1, arrival_time=0.0, task_count=1),
            dict(job_id=True, arrival_time=0.0, task_count=1),
            dict(job_id=0, arrival_time=-1.0, task_count=1),
            dict(job_id=0, arrival_time=float("nan"), task_count=1),
            dict(job_id=0, arrival_time=0.0, task_count=0),
            dict(job_id=0, arrival_time=0.0, task_count=1, application="hive"),
            dict(job_id=0, arrival_time=0.0, task_count=1, input_mb=-5.0),
            dict(job_id=0, arrival_time=0.0, task_count=2, input_mb=64.0),
            dict(job_id=0, arrival_time=0.0, task_count=1, num_reduces=-1),
        ],
    )
    def test_bad_rows_rejected(self, kwargs):
        with pytest.raises(TraceError):
            TraceJob(**kwargs)

    def test_to_job_spec(self):
        job = TraceJob(job_id=3, arrival_time=12.0, task_count=4, application="grep")
        spec = job.to_job_spec()
        assert spec.submit_time == 12.0
        assert spec.num_maps() == 4
        assert spec.name == "grep-0003"


class TestTraceSpec:
    def test_rejects_duplicate_ids(self):
        a = TraceJob(job_id=0, arrival_time=0.0, task_count=1)
        with pytest.raises(TraceError, match="duplicate"):
            TraceSpec(name="x", jobs=(a, a))

    def test_rejects_unsorted_arrivals(self):
        a = TraceJob(job_id=0, arrival_time=10.0, task_count=1)
        b = TraceJob(job_id=1, arrival_time=5.0, task_count=1)
        with pytest.raises(TraceError, match="not sorted"):
            TraceSpec(name="x", jobs=(a, b))

    def test_rejects_empty(self):
        with pytest.raises(TraceError, match="no jobs"):
            TraceSpec(name="x", jobs=())

    def test_digest_is_content_addressed(self):
        assert _tiny_trace().trace_digest() == _tiny_trace().trace_digest()
        assert _tiny_trace().trace_digest() != _tiny_trace(seed=8).trace_digest()
        # The name is part of the identity (it names the RNG stream).
        assert _tiny_trace().trace_digest() != _tiny_trace(name="other").trace_digest()

    def test_json_round_trip(self):
        trace = _tiny_trace()
        again = TraceSpec.from_json_dict(trace.to_json_dict())
        assert again == trace
        assert again.trace_digest() == trace.trace_digest()

    def test_ref_validates_digest(self):
        with pytest.raises(TraceError):
            TraceRef(name="x", digest="nothex")


# -------------------------------------------------------------------------- IO
@st.composite
def trace_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    jobs = []
    t = 0.0
    for index, gap in enumerate(gaps):
        t += gap
        count = draw(st.integers(min_value=1, max_value=24))
        jobs.append(
            TraceJob(
                job_id=index,
                arrival_time=t,
                task_count=count,
                application=draw(
                    st.sampled_from(["wordcount", "grep", "terasort"])
                ),
                num_reduces=draw(st.integers(min_value=0, max_value=6)),
            )
        )
    return TraceSpec(name="prop", jobs=tuple(jobs))


class TestRoundTrip:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(trace=trace_specs(), suffix=st.sampled_from([".csv", ".jsonl"]))
    def test_write_load_is_identity(self, trace, suffix, tmp_path):
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        loaded = load_trace(path, name=trace.name)
        assert loaded == trace
        assert loaded.trace_digest() == trace.trace_digest()

    def test_csv_and_jsonl_share_a_digest(self, tmp_path):
        trace = _tiny_trace()
        write_trace(trace, tmp_path / "t.csv")
        write_trace(trace, tmp_path / "t.jsonl")
        csv_spec = load_trace(tmp_path / "t.csv", name=trace.name)
        jsonl_spec = load_trace(tmp_path / "t.jsonl", name=trace.name)
        assert csv_spec.trace_digest() == jsonl_spec.trace_digest() == trace.trace_digest()

    def test_digest_invariant_to_csv_column_order(self, tmp_path):
        trace = _tiny_trace()
        canonical = tmp_path / "a.csv"
        write_trace(trace, canonical)
        header = canonical.read_text().splitlines()[0].split(",")
        reordered = tmp_path / "b.csv"
        order = list(reversed(range(len(header))))
        lines = []
        for line in canonical.read_text().splitlines():
            cells = line.split(",")
            lines.append(",".join(cells[i] for i in order))
        reordered.write_text("\n".join(lines) + "\n")
        assert (
            load_trace(reordered, name=trace.name).trace_digest()
            == trace.trace_digest()
        )

    def test_name_defaults_to_file_stem(self, tmp_path):
        write_trace(_tiny_trace(), tmp_path / "renamed.csv")
        assert load_trace(tmp_path / "renamed.csv").name == "renamed"


class TestMalformedFiles:
    """Every rejection carries a ``file:line: error:`` location."""

    def _expect(self, path, line, fragment):
        with pytest.raises(TraceError) as excinfo:
            load_trace(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:{line}: error: "), message
        assert fragment in message

    def test_bad_integer_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count\n0,1.0,four\n")
        self._expect(path, 2, "task_count must be an integer")

    def test_bad_float_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count\nzero,1.0,4\n")
        self._expect(path, 2, "job_id must be an integer")

    def test_unsorted_arrivals(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count\n0,10.0,4\n1,5.0,4\n")
        self._expect(path, 3, "not sorted")

    def test_duplicate_job_id(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count\n0,1.0,4\n0,2.0,4\n")
        self._expect(path, 3, "duplicate job_id 0")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count\n")
        self._expect(path, 1, "no jobs")

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time,task_count,priority\n0,1.0,4,9\n")
        self._expect(path, 1, "unknown column")

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("job_id,arrival_time\n0,1.0\n")
        self._expect(path, 1, "missing required column")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"job_id": 0, "arrival_time": 0.0, "task_count": 1}\n{nope\n')
        self._expect(path, 2, "invalid JSON")

    def test_non_object_json_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n")
        self._expect(path, 1, "expected a JSON object")

    def test_missing_file(self, tmp_path):
        self._expect(tmp_path / "absent.csv", 1, "no such file")

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_undecodable_byte_names_its_line(self, suffix, tmp_path):
        # Far past the first decoder chunk, so the line number cannot come
        # from where the text decoder happened to fail.
        rows = [{"job_id": i, "arrival_time": float(i), "task_count": 1}
                for i in range(2000)]
        if suffix == ".csv":
            lines = ["job_id,arrival_time,task_count"] + [
                f"{r['job_id']},{r['arrival_time']},{r['task_count']}" for r in rows
            ]
        else:
            lines = [json.dumps(r) for r in rows]
        data = ("\n".join(lines) + "\n").encode()
        bad_line = 1500
        offset = sum(len(line) + 1 for line in lines[: bad_line - 1])
        path = tmp_path / f"t{suffix}"
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        self._expect(path, bad_line, "not valid UTF-8")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "t.parquet"
        path.write_text("x")
        self._expect(path, 1, "unsupported trace format")

    def test_inconsistent_input_mb(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "job_id,arrival_time,task_count,input_mb\n0,1.0,4,64.0\n"
        )
        self._expect(path, 2, "implies 1 map tasks")


# ------------------------------------------------------------------- arrivals
class TestArrivalProcesses:
    def test_render_is_deterministic(self):
        assert _tiny_trace() == _tiny_trace()

    def test_diurnal_rate_shape(self):
        p = DiurnalProcess(base_rate_per_s=1.0, amplitude=0.5, period_s=100.0)
        assert p.rate(25.0) == pytest.approx(1.5)  # sin peak at T/4
        assert p.rate(75.0) == pytest.approx(0.5)
        assert p.peak_rate_per_s == pytest.approx(1.5)

    def test_bursty_mean_rate_between_base_and_peak(self):
        p = BurstyProcess(
            base_rate_per_s=0.5, burst_multiplier=8.0, mean_quiet_s=50.0, mean_burst_s=10.0
        )
        times = p.times(4_000.0, RandomStreams(0).stream("bursty-test"))
        mean_rate = len(times) / 4_000.0
        assert 0.5 < mean_rate < 4.0

    def test_flash_crowd_spikes_in_window(self):
        p = FlashCrowdProcess(
            base_rate_per_s=0.2, spike_multiplier=20.0, spike_start_s=100.0, spike_duration_s=50.0
        )
        times = p.times(300.0, RandomStreams(0).stream("fc-test"))
        inside = sum(1 for t in times if 100.0 <= t < 150.0)
        outside = len(times) - inside
        assert inside > outside  # 50 s at 4/s dwarfs 250 s at 0.2/s

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DiurnalProcess(base_rate_per_s=0.0),
            lambda: DiurnalProcess(base_rate_per_s=1.0, amplitude=1.5),
            lambda: BurstyProcess(base_rate_per_s=1.0, burst_multiplier=0.5),
            lambda: FlashCrowdProcess(base_rate_per_s=1.0, spike_multiplier=1.0),
        ],
    )
    def test_bad_shapes_rejected(self, factory):
        with pytest.raises(TraceError):
            factory()

    def test_make_process_registry(self):
        assert isinstance(make_process("diurnal", 0.1), DiurnalProcess)
        assert isinstance(
            make_process("bursty", 0.1, burst_multiplier=4.0), BurstyProcess
        )
        with pytest.raises(TraceError, match="unknown arrival process"):
            make_process("sawtooth", 0.1)

    def test_render_names_independent_streams(self):
        # Different trace names draw from independent streams, not shifted
        # copies of one another.
        a = _tiny_trace(name="a").jobs
        b = _tiny_trace(name="b").jobs
        assert [j.arrival_time for j in a] != [j.arrival_time for j in b]


class TestGeneratorShims:
    """``uniform_job_stream`` delegates here — draws stay bit-identical."""

    def test_uniform_job_stream_uses_cumulative_exponentials(self):
        jobs = uniform_job_stream(
            applications=("wordcount", "grep"),
            jobs_per_app=3,
            input_gb=1.0,
            mean_interarrival_s=30.0,
            rng=RandomStreams(4).stream("u"),
        )
        rng = RandomStreams(4).stream("u")
        names = [n for n in ("wordcount", "grep") for _ in range(3)]
        rng.shuffle(names)  # replay the shuffle draw
        expected = cumulative_exponential_times(6, 30.0, rng)
        assert [job.submit_time for job in jobs] == expected


# ------------------------------------------------------------- spec identity
class TestSpecIdentity:
    def test_synthetic_spec_json_has_no_trace_keys(self):
        spec = ScenarioSpec(jobs=_tiny_trace().to_job_specs(), scheduler="fair")
        data = spec.to_json_dict()
        assert "trace" not in data
        assert "open_loop" not in data
        assert "horizon" not in data

    def test_from_trace_folds_the_digest(self):
        trace = _tiny_trace()
        spec = ScenarioSpec.from_trace(trace, scheduler="fair", seed=0)
        assert spec.trace == trace.ref()
        # Same rows, same hash; different rows, different hash.
        same = ScenarioSpec.from_trace(_tiny_trace(), scheduler="fair", seed=0)
        other = ScenarioSpec.from_trace(_tiny_trace(seed=8), scheduler="fair", seed=0)
        assert spec.spec_hash() == same.spec_hash()
        assert spec.spec_hash() != other.spec_hash()

    def test_trace_changes_hash_vs_equal_jobs(self):
        trace = _tiny_trace()
        tagged = ScenarioSpec.from_trace(trace, scheduler="fair", seed=0)
        bare = ScenarioSpec(jobs=trace.to_job_specs(), scheduler="fair", seed=0)
        assert tagged.spec_hash() != bare.spec_hash()

    def test_open_loop_requires_horizon(self):
        jobs = _tiny_trace().to_job_specs()
        with pytest.raises(ValueError, match="horizon"):
            ScenarioSpec(jobs=jobs, scheduler="fair", open_loop=True)
        with pytest.raises(ValueError, match="open_loop"):
            ScenarioSpec(jobs=jobs, scheduler="fair", horizon=100.0)
        with pytest.raises(ValueError):
            ScenarioSpec(jobs=jobs, scheduler="fair", open_loop=True, horizon=-5.0)

    def test_open_loop_spec_json_round_trip(self):
        spec = ScenarioSpec.from_trace(
            _tiny_trace(), scheduler="fair", open_loop=True, horizon=120.0
        )
        again = ScenarioSpec.from_json_dict(spec.to_json_dict())
        assert again.spec_hash() == spec.spec_hash()
        assert again.open_loop and again.horizon == 120.0
        assert again.trace == spec.trace

    def test_from_trace_rejects_explicit_jobs(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_trace(_tiny_trace(), jobs=(), scheduler="fair")


# ----------------------------------------------------------------- open loop
class TestOpenLoopExecution:
    def _spec(self, horizon=150.0, scheduler="fair"):
        return ScenarioSpec.from_trace(
            _tiny_trace(),
            scheduler=scheduler,
            seed=1,
            open_loop=True,
            horizon=horizon,
        )

    def test_backlog_accounting_is_consistent(self):
        spec = self._spec()
        result = execute_spec(spec)
        backlog = result.backlog
        assert backlog is not None
        assert backlog.horizon == 150.0
        assert backlog.jobs_offered == len(spec.jobs)
        assert backlog.jobs_admitted + backlog.jobs_not_admitted == backlog.jobs_offered
        assert backlog.jobs_completed + backlog.jobs_unfinished == backlog.jobs_admitted
        # Only arrivals strictly inside the horizon were admitted.
        before = sum(1 for job in spec.jobs if job.submit_time < 150.0)
        assert backlog.jobs_admitted <= before
        assert backlog.offered_rate_per_s == pytest.approx(
            backlog.jobs_offered / 150.0
        )

    def test_closed_loop_has_no_backlog(self):
        spec = ScenarioSpec.from_trace(_tiny_trace(), scheduler="fair", seed=1)
        assert execute_spec(spec).backlog is None

    def test_open_loop_digest_is_deterministic(self):
        spec = self._spec()
        a = record_digest(build_record(spec, execute_spec(spec)))
        b = record_digest(build_record(spec, execute_spec(spec)))
        assert a == b

    def test_horizon_changes_the_digest(self):
        short = self._spec(horizon=100.0)
        long = self._spec(horizon=200.0)
        assert record_digest(
            build_record(short, execute_spec(short))
        ) != record_digest(build_record(long, execute_spec(long)))

    def test_open_loop_admits_only_pre_horizon_arrivals(self):
        spec = self._spec()
        result = execute_spec(spec)
        # Everything the tracker ever saw was admitted before the cut.
        assert len(result.jobtracker.jobs) == result.backlog.jobs_admitted

    def test_telemetry_tracks_submissions(self):
        result = execute_spec(self._spec(), telemetry=30.0)
        record = result.telemetry.record()
        submitted = record.series("submitted_jobs")
        completed = record.series("completed_jobs")
        assert submitted[-1] >= completed[-1]
        assert submitted.max() > 0
        # Admissions are cumulative, hence non-decreasing.
        assert all(b >= a for a, b in zip(submitted, submitted[1:]))


# ------------------------------------------------------------------------ CLI
class TestWorkloadCli:
    """``repro workload gen|validate|describe`` and ``run --trace``."""

    def _gen(self, out, *extra):
        from repro.cli import main

        return main(
            [
                "workload",
                "gen",
                "--process",
                "diurnal",
                "--rate",
                "0.05",
                "--duration",
                "240",
                "--seed",
                "7",
                "-O",
                "period_s=240",
                "--out",
                str(out),
                *extra,
            ]
        )

    def test_gen_validate_describe(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "d.csv"
        assert self._gen(out) == 0
        gen_out = capsys.readouterr().out
        assert "trace written to" in gen_out

        assert main(["workload", "validate", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: {out}:")

        assert main(["workload", "describe", str(out)]) == 0
        description = capsys.readouterr().out
        assert "digest" in description and "jobs" in description

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        assert self._gen(a, "--name", "same") == 0
        assert self._gen(b, "--name", "same") == 0
        assert (
            load_trace(a, name="same").trace_digest()
            == load_trace(b, name="same").trace_digest()
        )

    def test_gen_name_defaults_to_out_stem(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "stemmed.jsonl"
        assert self._gen(out) == 0
        capsys.readouterr()
        # validate loads by stem, so the digests printed by gen and
        # validate agree only if gen named the trace after the file.
        assert main(["workload", "validate", str(out)]) == 0
        digest = load_trace(out).trace_digest()
        assert digest[:12] in capsys.readouterr().out

    def test_validate_reports_file_line(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.csv"
        bad.write_text("job_id,arrival_time,task_count\n0,10.0,4\n1,5.0,4\n")
        assert main(["workload", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: error:" in err and "not sorted" in err

    def test_gen_rejects_unknown_option(self, tmp_path, capsys):
        assert self._gen(tmp_path / "x.csv", "-O", "nope=3") == 2
        assert "unexpected keyword argument" in capsys.readouterr().err

    def test_run_trace_closed_loop(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "d.csv"
        assert self._gen(out) == 0
        capsys.readouterr()
        assert (
            main(["run", "--trace", str(out), "--scheduler", "fair", "--seed", "1"])
            == 0
        )
        text = capsys.readouterr().out
        assert "total energy" in text and "trace" in text

    def test_run_trace_open_loop_prints_backlog(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "d.csv"
        assert self._gen(out) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "run",
                    "--trace",
                    str(out),
                    "--horizon",
                    "150",
                    "--scheduler",
                    "fair",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "offered" in text and "backlog" in text

    def test_trace_and_jobs_are_mutually_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "d.csv"
        assert self._gen(out) == 0
        capsys.readouterr()
        assert main(["run", "--trace", str(out), "--jobs", "grep:1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_horizon_requires_trace(self, capsys):
        from repro.cli import main

        assert main(["run", "--horizon", "100"]) == 2
        assert "--horizon" in capsys.readouterr().err
