"""One pass of one workload, in the interpreter that runs this file.

    python3 bench/worker.py --workload sweep6 --seed 1 --trace 0 --work-dir DIR

run.py starts a fresh interpreter per pass, so the program's module caches
(census._CANONICAL_CACHE, census._LABELED_CACHE, the lru_cache behind
spaces._mask_permutations) start empty, as in every real sweep.  The last
line of standard output is the pass result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource

import tracing
import workloads


def _untraced(name: str):
    return contextlib.nullcontext()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_pass(workload: str, seed: int, trace: bool, smoke: bool,
             work_dir: str) -> dict:
    setup_s = workloads.setup(workload)
    make_inputs, run, check = workloads.WORKLOADS[workload]
    inp = make_inputs(seed, smoke, work_dir)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        wall, latencies, out = run(inp, tracer.span if tracer else _untraced)
    finally:
        if tracer is not None:
            tracer.restore()
    gates, counters, digest = check(inp, out)

    pins = workloads.pinned(workload, smoke, seed)
    if pins.get("digest") and digest != pins["digest"]:
        gates.fail(f"digest {digest} != pinned {pins['digest']}")
    for key, want in pins.get("counters", {}).items():
        if counters.get(key) != want:
            gates.fail(f"{key} {counters.get(key)} != pinned {want}")
    result = {
        "workload": workload, "seed": seed, "traced": trace,
        "setup_s": setup_s, "wall_s": wall,
        "item_p50_ms": percentile(latencies, 0.50) * 1e3,
        "item_p95_ms": percentile(latencies, 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(latencies), "counters": counters, "digest": digest,
    }
    if tracer is not None:
        traced = tracing.exact_counters(tracer)
        for key, want in pins.get("traced", {}).items():
            if traced.get(key) != want:
                gates.fail(f"traced {key} {traced.get(key)} != pinned {want}")
        result["traced_counters"] = traced
        layers = tracing.layer_metrics(tracer, counters)
        result["layers"] = {name: layers[name]
                            for name in workloads.LAYER_METRICS[workload]}
    result["failures"] = gates.messages
    result["failed"] = gates.failed
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and stop")
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for generated input files")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = {"setup_s": workloads.setup(args.workload)}
    else:
        result = run_pass(args.workload, args.seed, bool(args.trace), args.smoke,
                          args.work_dir)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
