"""Where the memory of a theorem sweep's records goes.

    python3 scripts/record_memory.py [--total 6]

Runs `run_theorem_sweep(total)` with its default depth and budget in a
fresh interpreter, and prints:

- the interpreter's peak RSS (VmHWM), read as soon as the sweep returns;
- the deep bytes of each record field over all records, each object
  counted once per field, so a part that records share counts once, and
  how many distinct objects the records hold in that field;
- the entries per part kind of harness's shared-part table and the bytes
  that the table and the stored JSON texts of its parts keep alive after
  the sweep.

Deep bytes are sys.getsizeof summed over a part's containers and values;
dict keys are the record's field names, which the code holds anyway, and
are not counted.  A fresh interpreter starts with empty module caches, as
a real sweep does, and reports its own peak only: Linux carries ru_maxrss
over fork and exec.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def deep_bytes(obj, seen: set) -> int:
    """Bytes of obj and what it holds, skipping objects already in seen."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_bytes(v, seen) for v in obj.values())
    elif isinstance(obj, (list, tuple)):
        size += sum(deep_bytes(v, seen) for v in obj)
    return size


def measure(total: int) -> dict:
    """The figures of the sweep over |X|+|Y| <= total, in this process."""
    from fibertop import harness

    report = harness.run_theorem_sweep(total)
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status
                       if line.startswith("VmHWM"))
    records = report["records"]
    fields = {}
    for name in records[0]:
        seen: set = set()
        fields[name] = {
            "bytes": sum(deep_bytes(r[name], seen) for r in records),
            "distinct": len({id(r[name]) for r in records})}
    seen = set()
    whole = sum(deep_bytes(r, seen) for r in records)
    table = harness._SHARED
    seen = set()
    retained = sum(deep_bytes(t, seen) + sum(deep_bytes(k, seen) for k in t)
                   for t in (table, harness._TEXT))
    return {"total": total, "peak_rss_kb": peak_kb, "records": len(records),
            "records_bytes": whole, "fields": fields,
            "shared_entries": dict(Counter(key[0] for key in table)),
            "shared_bytes": retained}


def run_child(total: int) -> dict:
    """measure(total) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "scripts"),
                    env.get("PYTHONPATH")) if p)
    code = f"import json, record_memory; print(json.dumps(record_memory.measure({total})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", type=int, default=6,
                        help="largest |X|+|Y| of the census swept")
    args = parser.parse_args(argv)
    if args.total < 2:
        parser.error("--total must be at least 2")
    m = run_child(args.total)
    mb = 1 << 20
    print(f"sweep over |X|+|Y| <= {m['total']}: {m['records']:,} records")
    print(f"peak RSS (VmHWM) of a fresh interpreter: {m['peak_rss_kb'] / 1024:.1f} MB")
    print(f"records, deep: {m['records_bytes'] / mb:.2f} MB")
    print()
    print("| field | deep MB | distinct objects |")
    print("|---|---|---|")
    for name, f in sorted(m["fields"].items(), key=lambda kv: -kv[1]["bytes"]):
        print(f"| `{name}` | {f['bytes'] / mb:.2f} | {f['distinct']:,} |")
    print()
    entries = m["shared_entries"]
    print(f"shared-part table: {sum(entries.values()):,} entries, "
          f"{m['shared_bytes'] / mb:.2f} MB retained")
    print(", ".join(f"{kind} {count:,}" for kind, count in sorted(entries.items())))


if __name__ == "__main__":
    main()
