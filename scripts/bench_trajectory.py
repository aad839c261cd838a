"""Print the trajectory of the committed benchmark pairs.

    python3 scripts/bench_trajectory.py [BENCH_FILE ...]

With no argument it reads every BENCH_*.json at the root of the checkout,
in PR order.  For each file it prints one line with the claim, as
workload, metric, gain and whether it was met, or "no claim", then one
line per workload with each end-to-end metric's parent -> change medians.
The gain is the one scripts/bench_pairs.py recorded; the oldest files
record none, and for them it is read off the two medians.  It reads the
files only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NAME = re.compile(r"BENCH_pr(\d+)(\w*)\.json")


def bench_files(root: Path = ROOT) -> list[Path]:
    """The committed BENCH_*.json files, in PR order (pr36 before pr36b)."""
    files = [p for p in root.glob("BENCH_*.json") if _NAME.fullmatch(p.name)]

    def order(p: Path):
        number, suffix = _NAME.fullmatch(p.name).groups()
        return int(number), suffix
    return sorted(files, key=order)


def medians(data: dict) -> dict:
    """workload -> metric -> (parent median, change median)."""
    return {w: {m: (v["parent"]["median"], v["change"]["median"])
                for m, v in entry["metrics"].items()}
            for w, entry in data["workloads"].items()}


def claim(data: dict) -> dict | None:
    """The claim's workload, metric, gain and met, or None for no claim."""
    c = data.get("claim")
    if not c:
        return None
    gain = c.get("gain")
    if gain is None:
        parent, change = medians(data)[c["workload"]][c["metric"]]
        gain = round(1 - change / parent, 4)
    return {"workload": c["workload"], "metric": c["metric"], "gain": gain,
            "met": c["met"]}


def lines(path: Path) -> list[str]:
    data = json.loads(path.read_text())
    c = claim(data)
    head = (f"{path.name}: no claim" if c is None else
            f"{path.name}: claim {c['workload']} {c['metric']} gain "
            f"{c['gain']:+.2%} {'met' if c['met'] else 'not met'}")
    out = [head]
    for w, metrics in medians(data).items():
        out.append(f"  {w:7} " + "  ".join(
            f"{m} {p:.4g} -> {ch:.4g}" for m, (p, ch) in metrics.items()))
    return out


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or bench_files()
    for path in paths:
        print("\n".join(lines(path)))


if __name__ == "__main__":
    main(sys.argv[1:])
