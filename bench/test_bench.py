"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

Run from the repository root.  They use the --smoke inputs (the census at
|X|+|Y| <= 4, a 40-space canonicalisation sample, two CLI files), so they
take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert "fail_frac" in proc.stdout


@pytest.mark.parametrize("workload", ["sweep6", "cli12"])
def test_corrupted_pinned_digest_trips_the_gate(workload, monkeypatch, tmp_path,
                                               capsys):
    pins = workloads.pinned(workload, True, workloads.DEFAULT_SEED)
    assert pins.get("digest"), "the smoke inputs have a pinned digest"
    monkeypatch.setitem(pins, "digest", "0" * 64)

    def in_process(root, work_dir, deadline, args):
        if "--setup-only" in args:
            return {"setup_s": 0.1}
        return worker.run_pass(workload, workloads.DEFAULT_SEED, args[-1] == "1",
                               True, str(tmp_path))

    monkeypatch.setattr(run, "_worker", in_process)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seconds", "0", "--smoke"])
    out = capsys.readouterr().out
    assert code != 0
    assert "FAILED: digest" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep6", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_restores_bindings_and_computes_self_time():
    from fibertop import cli, harness

    before = (harness.build_levels, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.build_levels is not before[0]
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.05)
    finally:
        tracer.restore()
    assert (harness.build_levels, cli.main) == before
    outer, inner = tracer.stat("outer"), tracer.stat("inner")
    assert inner.self_time == pytest.approx(inner.total)
    assert outer.self_time == pytest.approx(outer.total - inner.total)
    assert 0.015 < outer.self_time < inner.total
