"""Smoke test for the subprocess serve benchmark (the BENCH_serve rig)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serve import run_serve_benchmark

SRC = Path(__file__).resolve().parents[2] / "src"


def test_benchmark_harness_round_trips():
    result = run_serve_benchmark(
        rate=300.0,
        duration=1.0,
        scheduler="fifo",
        seed=3,
        connections=2,
        service_time=0.05,
        time_scale=600.0,
    )
    # The daemon lived in its own process and answered everything.
    assert result["client_errors"] == 0
    assert result["server"]["errors"] == 0
    assert result["heartbeats_sent"] > 0
    assert result["responses_received"] == result["heartbeats_sent"]
    assert result["server"]["heartbeats"] == result["heartbeats_sent"]
    assert result["assignments_received"] > 0
    assert result["rtt_ms"]["p50"] <= result["rtt_ms"]["p99"]
    assert result["server"]["decision_latency_ms"]["count"] > 0
    assert result["config"]["scheduler"] == "fifo"


#: A caller with no ``if __name__ == "__main__"`` guard.  The daemon child
#: is ``python -m repro serve``, so nothing re-runs this module.
UNGUARDED = """
import json
from repro.serve import run_serve_benchmark

result = run_serve_benchmark(
    rate=300.0, duration=1.0, scheduler="e-ant", seed=3, connections=2,
    service_time=0.05, time_scale=600.0, nodes=24,
)
print(json.dumps({
    "client_errors": result["client_errors"],
    "server_errors": result["server"]["errors"],
    "sent": result["heartbeats_sent"],
    "answered": result["responses_received"],
    "served": result["server"]["heartbeats"],
}))
"""


def _run_caller(args, tmp_path, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["client_errors"] == 0 and summary["server_errors"] == 0, summary
    assert summary["sent"] > 0
    assert summary["answered"] == summary["sent"] == summary["served"], summary


def test_benchmark_runs_from_stdin(tmp_path):
    _run_caller(["-"], tmp_path, stdin=UNGUARDED)


def test_benchmark_runs_from_a_script_without_a_main_guard(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED, encoding="utf-8")
    _run_caller([str(script)], tmp_path)


def test_daemon_child_imports_this_repro(tmp_path):
    import repro
    from repro.serve.bench import _daemon_env

    done = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=_daemon_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve() == Path(repro.__file__).resolve()


def test_daemon_env_leaves_an_installed_package_to_the_site_path(monkeypatch):
    from repro.serve import bench

    root = str(Path(bench.__file__).resolve().parents[2])
    monkeypatch.setattr(bench.site, "getsitepackages", lambda: [root])
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert bench._daemon_env()["PYTHONPATH"] == "elsewhere"
