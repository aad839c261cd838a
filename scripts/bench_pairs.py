"""Interleaved parent/change pairs of the fibertop benchmark.

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME \\
        [--seeds 101-110] [--claim sweep6:item_p50_ms:0.10] [--work DIR]

Run it from the root of a fibertop git checkout.  It extracts `git archive`
copies of both revisions into --work (a temporary directory by default),
then, for each seed and each workload that BENCHMARK.json lists, runs
`python3 bench/run.py --workload W --seed S --trace 0` once in each copy,
back to back, alternating which side goes first; bench/run.py's default
sets the run length.  After the pairs it makes one traced run per side
(`--trace 1`, which traces every workload) on seed TRACED_SEED.  The result goes to
BENCH_<label>.json: per workload and end-to-end metric, each side's runs,
median and quartiles, the pairs the change won, and whether the change's
median stays within the bound BENCHMARK.json fixes, and the median and
quartiles of the change/parent ratio within each pair; and the traced runs'
layers and per-workload traced counters, with whether the two sides'
counters are equal.  A claim
WORKLOAD:METRIC:GAIN is met when the change wins at least nine tenths of
the pairs, the medians differ by more than the parent's interquartile
range, and the change's median is better by at least GAIN.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
TRACED_SEED = 1
_DIGEST = re.compile(r"^  (\w+) output digest (\w+)$", re.M)
_TRACED = re.compile(r"^  (\w+) traced counters (\{.*\})$", re.M)


def extract(rev: str, dest: str) -> str:
    """A `git archive` copy of rev in dest; returns the tree hash of rev."""
    data = subprocess.run(["git", "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    return subprocess.run(["git", "rev-parse", f"{rev}^{{tree}}"], check=True,
                          capture_output=True, text=True).stdout.strip()


def read_stdout(text: str) -> dict:
    """The output digest and, in a traced run, the traced counters that
    bench/run.py prints for each workload."""
    return {"digests": dict(_DIGEST.findall(text)),
            "traced_counters": {w: json.loads(counts)
                                for w, counts in _TRACED.findall(text)}}


def bench(root: str, args: list) -> dict:
    """One bench/run.py run in root: its exit code, summary and digests."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py {args} printed nothing:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["exit"] = proc.returncode
    out.update(read_stdout(proc.stdout))
    return out


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's pairs: each side's quartiles, the pairs the change won
    and lost, and the quartiles of the change/parent ratio within each
    pair, which host drift shared by the two runs of a pair moves less
    than it moves either side's own spread."""
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    ratios = quartiles([b / a for a, b in zip(parent, change)])
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    return {
        "parent_runs": parent, "change_runs": change, "parent": p, "change": c,
        "change_wins": wins, "change_losses": losses, "pairs": len(parent),
        "median_ratio": round(c["median"] / p["median"], 4),
        "pair_ratio": {k: round(v, 4) for k, v in ratios.items()},
        "parent_iqr": iqr,
        "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > iqr,
        "resolved": iqr <= bound * p["median"],
        "within_bound": sign * (c["median"] - p["median"]) <= bound * p["median"],
        "bound": bound,
    }


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC:GAIN, e.g. sweep6:item_p50_ms:0.10")
    parser.add_argument("--work", default=None,
                        help="keep the copies here (default: a temporary "
                             "directory, removed at the end)")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    spec = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seeds = seed_list(args.seeds)
    work = args.work or tempfile.mkdtemp(prefix="bench_pairs_")
    roots = {side: os.path.join(work, side) for side in SIDES}
    trees = {side: extract(getattr(args, side), roots[side]) for side in SIDES}

    runs = {w: {"first": [], **{side: [] for side in SIDES}} for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs[w]["first"].append(order[0])
            for side in order:
                res = bench(roots[side], ["--workload", w, "--seed", str(seed),
                                          "--trace", "0"])
                runs[w][side].append(res)
                print(f"seed {seed} {w} {side}: exit {res['exit']}, "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    traced = {side: bench(roots[side], ["--workload", workloads[0], "--seed",
                                        str(TRACED_SEED), "--trace", "1"])
              for side in SIDES}

    report = {
        "label": args.label,
        "parent": args.parent, "change": args.change, "trees": trees,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        "command": f"python3 bench/run.py --workload W --seed S --trace 0, "
                   f"in a git archive copy of each side; seeds {args.seeds}",
        "method": "interleaved pairs, alternating which side runs first; each "
                  "run's metric is bench/run.py's median over its passes; "
                  "quartiles by statistics.quantiles(method='inclusive'); "
                  "'pair_ratio' is the quartiles of each pair's change/parent "
                  "ratio; 'resolved' means the parent's IQR is within the bound "
                  "of its median; 'within_bound' means the change's median is no worse "
                  "than the parent's by more than the bound",
        "workloads": {},
        "traced": {
            "command": f"python3 bench/run.py --workload {workloads[0]} --seed "
                       f"{TRACED_SEED} --trace 1 (traces every workload), one "
                       f"run per side after the pairs",
            "runs": {side: {"exit": r["exit"], "failed": r["failed"],
                            "digests": r["digests"],
                            "traced_counters": r["traced_counters"],
                            "layers": {k: v["value"] for k, v in r["metrics"].items()}}
                     for side, r in traced.items()},
            "traced_counters_equal": bool(traced["parent"]["traced_counters"])
            and traced["parent"]["traced_counters"]
            == traced["change"]["traced_counters"],
        },
    }
    for w, by_side in runs.items():
        report["workloads"][w] = {
            "first": by_side["first"],
            "exit": {s: [r["exit"] for r in by_side[s]] for s in SIDES},
            "failed": {s: sum(r["failed"] for r in by_side[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in by_side[s]) for s in SIDES},
            "digests_equal": all(p["digests"] == c["digests"] for p, c in
                                 zip(by_side["parent"], by_side["change"])),
            "metrics": {name: compare([r["metrics"][name]["value"] for r in by_side["parent"]],
                                      [r["metrics"][name]["value"] for r in by_side["change"]],
                                      m["better"], m["bound"])
                        for name, m in spec.items()},
        }
    if args.claim:
        w, metric, gain = args.claim.split(":")
        m = report["workloads"][w]["metrics"][metric]
        gain_seen = (1 - m["median_ratio"] if spec[metric]["better"] == "lower"
                     else m["median_ratio"] - 1)
        report["claim"] = {
            "workload": w, "metric": metric, "min_gain": float(gain),
            "gain": round(gain_seen, 4),
            "met": (10 * m["change_wins"] >= 9 * m["pairs"]
                    and m["gap_exceeds_parent_iqr"] and gain_seen >= float(gain)),
        }
    path = f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if args.work is None:
        shutil.rmtree(work)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
