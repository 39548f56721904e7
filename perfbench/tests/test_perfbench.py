"""Tests of the benchmark itself: metric grammar, units, checks, tracing.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from spans import Spans

BENCH = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_follow_the_grammar():
    for table in (bench.END_TO_END, bench.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
    assert not set(bench.END_TO_END) & set(bench.PER_LAYER)


def test_manifest_matches_the_metrics_the_benchmark_prints():
    data = manifest()
    assert [w["name"] for w in data["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def fake_repeat(**changes):
    repeat = workloads.new_repeat()
    repeat.update(setup_s=0.3, attempted=1, tasks=100, task_cpu_s=0.5, ops=200,
                  op_cpu_s=0.5, peak_rss_mb=80.0, digest="ab" * 32)
    repeat.update(changes)
    return repeat


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_carries_its_unit(trace):
    repeats = [fake_repeat(), fake_repeat()]
    if trace:
        spans = Spans().to_json()
        for repeat in repeats:
            repeat["spans"] = spans
        metrics, units = bench.per_layer("paper-msd", repeats[:1], repeats[1:]), bench.PER_LAYER
    else:
        metrics, units = bench.end_to_end(repeats), bench.END_TO_END
    line = json.loads(json.dumps(bench.result_line(metrics, units, repeats)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(units)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def test_corrupted_digest_shows_up_in_failed_frac(monkeypatch):
    from repro.runner import ScenarioSpec
    from repro.workloads import puma_job

    tiny = ScenarioSpec(jobs=(puma_job("grep", 0.25),), scheduler="e-ant", seed=3)
    monkeypatch.setattr(workloads, "build_des_spec", lambda workload, seed: tiny)
    honest = workloads.run_des("paper-msd", 99, None)
    assert honest["failed"] == 0 and honest["attempted"] == 1
    corrupted = "0" + honest["digest"][1:] if honest["digest"][0] != "0" else "1" + honest["digest"][1:]
    monkeypatch.setitem(workloads.PINNED, ("paper-msd", 99), corrupted)
    repeat = workloads.run_des("paper-msd", 99, None)
    repeat["setup_s"] = 0.1
    assert repeat["failed"] == 1
    line = bench.result_line(bench.end_to_end([repeat]), bench.END_TO_END, [repeat])
    assert line["failed"] / line["attempted"] == 1.0
    assert line["correct"] is False
    assert line["metrics"]["ok_frac"]["value"] == 0.0


def test_span_self_time_excludes_child_spans():
    import time

    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.03)
            return [1, 2]

        def steps(self, n):
            total = 0
            for i in range(n):
                total += yield i
            return total

    spans = Spans()
    spans.wrap(Layer, "outer", "a.outer")
    spans.wrap(Layer, "inner", "a.inner", count_items=True)
    spans.wrap(Layer, "steps", "a.steps", generator=True)
    layer = Layer()
    assert layer.outer() == [1, 2]
    gen = layer.steps(3)
    assert next(gen) == 0
    assert gen.send(5) == 1
    assert gen.send(6) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(7)
    assert stop.value.value == 18
    spans.remove()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    assert spans.calls == {"a.inner": 1, "a.outer": 1, "a.steps": 4}
    assert spans.items["a.inner"] == 2
    assert spans.self_s["a.outer"] == pytest.approx(
        spans.total_s["a.outer"] - spans.total_s["a.inner"]
    )
    assert spans.self_s["a.outer"] < spans.total_s["a.inner"]


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-msd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
