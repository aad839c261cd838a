"""The benchmark's contract with the program, checked in Tier-1.

The tracer rebinds layer functions where callers look them up
(``bench/tracing.py``'s ``LAYERS``).  A refactor that drops one of those
names from ``fibertop.harness`` or ``fibertop.cli`` would only show up in a
traced benchmark run; these tests make it fail here instead.  The tracer
source is executed in a fresh namespace, so nothing under ``bench/`` is
imported as a package.  The smoke passes of ``bench/worker.py`` check the
smoke digests and the traced call-count pins; they run in subprocesses
that write their inputs under ``tmp_path`` and no bytecode, so nothing is
written under ``bench/`` either."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
WORKER = ROOT / "bench" / "worker.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_layer_place_resolves(tracing):
    places = [place for group in tracing.LAYERS.values() for place in group]
    assert places
    for place in places:
        owner, attr = tracing._resolve(place)
        assert callable(owner.__dict__.get(attr)), place


def test_every_decider_has_a_place(tracing):
    for name in tracing.DECIDERS:
        assert tracing.LAYERS[f"normality.{name}"], name


@pytest.mark.parametrize("args", [
    ["--workload", "sweep6", "--smoke", "--trace", "1"],
    ["--workload", "cli12", "--smoke"],
    ["--workload", "canon6", "--smoke"],
    ["--workload", "cli12", "--smoke", "--trace", "1"],
])
def test_smoke_pass_meets_its_pins(args, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--work-dir", str(tmp_path / "work")]
        + args, cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
