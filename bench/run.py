"""The fibertop benchmark.

    python3 bench/run.py --workload {sweep6,canon6,cli12} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a fibertop checkout; it imports the package from
./src and needs nothing installed.  Each pass of a workload runs in a fresh
interpreter (bench/worker.py), one process, no threads, as a closed loop.

--trace 0  Times eleven set-up-only interpreters, then runs whole untraced
           passes of the workload for about S seconds (at least one), and
           reports the end-to-end metrics of BENCHMARK.json as medians.
--trace 1  Runs one traced pass of every workload, whichever --workload
           names, so that every traced run measures every layer, and reports
           each per-layer metric from the workload it belongs to
           ("sweep6.normality.build_levels_s").  One untraced pass of the
           named workload gives the tracing overhead, trace.overhead_s:
           its traced minus its untraced wall time.

Every pass gates its outputs (digests, pinned counts, theorem and
hierarchy checks), and passes over the same inputs must agree on their
exact counters and digests.  The human-readable report comes first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every gate
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 11
# every run must end within 180 s; leave room for the last pass to finish
DEADLINE_S = 170


def _worker(root: str, work_dir: str, deadline: float, args: list) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--work-dir", work_dir]
        + args, cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(root: str, work_dir: str, args) -> tuple[list, dict]:
    """(set-up samples, {workload: pass results}) for one run."""
    deadline = time.monotonic() + DEADLINE_S

    def common(workload: str) -> list:
        return (["--workload", workload, "--seed", str(args.seed)]
                + (["--smoke"] if args.smoke else []))

    if args.trace:
        return [], {w: [_worker(root, work_dir, deadline, common(w) + ["--trace", t])
                        for t in (("0", "1") if w == args.workload else ("1",))]
                    for w in workloads.WORKLOADS}
    setups = [_worker(root, work_dir, deadline,
                      common(args.workload) + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_worker(root, work_dir, deadline,
                              common(args.workload) + ["--trace", "0"]))
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        # start another pass only if it is expected to end within --seconds
        if now + per_pass > min(start + args.seconds, deadline):
            return setups, {args.workload: passes}


def _drift(workload: str, passes: list) -> list:
    """Exact results that differ between passes over the same inputs."""
    ref = passes[0]
    return [f"nondeterminism: {workload} pass {i} {key} {p[key]} != {ref[key]}"
            for i, p in enumerate(passes[1:], 1)
            for key in ("counters", "digest") if p[key] != ref[key]]


def _measure(args, setups: list, runs: dict) -> dict:
    if not args.trace:
        passes = runs[args.workload]
        out = {k: statistics.median(p[k] for p in passes)
               for k in ("wall_s", "item_p50_ms", "item_p95_ms", "peak_rss_mb")}
        out["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
        return out
    untraced, traced = runs[args.workload]
    out = {"trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
    for workload, passes in runs.items():
        layers = dict(passes[-1]["layers"])
        layers["trace.wall_s"] = passes[-1]["wall_s"]
        out.update((f"{workload}.{name}", value) for name, value in layers.items())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fibertop benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibertop", "__init__.py")):
        print("error: src/fibertop not found; run from the root of a fibertop "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    scratch = os.path.join(root, ".bench_work")
    work_dir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    try:
        setups, runs = _passes(root, work_dir, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # missing, or another run still uses it
            pass

    passes = [p for ps in runs.values() for p in ps]
    drift = [d for w, ps in runs.items() for d in _drift(w, ps)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(drift)
    measured = _measure(args, setups, runs)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"fibertop benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(passes)} pass(es); "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':48s} {failed / attempted:.6g} ({failed} of {attempted})")
    for workload, ps in runs.items():
        print(f"  {workload} counters {json.dumps(ps[-1]['counters'], sort_keys=True)}")
        if args.trace:
            print(f"  {workload} traced counters "
                  f"{json.dumps(ps[-1]['traced_counters'], sort_keys=True)}")
        print(f"  {workload} output digest {ps[-1]['digest']}")
    for message in [m for p in passes for m in p["failures"]] + drift:
        print(f"  FAILED: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
