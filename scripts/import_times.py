"""Median import time of fibertop's entry points, in fresh interpreters.

    python3 scripts/import_times.py [--runs 21]

For `fibertop`, `fibertop.census` and `fibertop.cli`, --runs fresh
interpreters each time their own import with time.perf_counter, so the
interpreter's start-up does not count.  Two cases, both on a temporary
copy of src with PYTHONDONTWRITEBYTECODE=1:

- compiled each time: the copy has no __pycache__, so every run compiles
  the modules it imports, as the benchmark's workers do;
- cached bytecode: compileall has written the copy's __pycache__ first,
  as a normal install does.

The runs of one round go through the three imports in turn, so host drift
reaches all of them alike.  It prints the medians in milliseconds as the
table of README's "Start-up cost".
"""

from __future__ import annotations

import argparse
import compileall
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("fibertop", "fibertop.census", "fibertop.cli")


def time_import(module: str, env: dict) -> float:
    """Seconds that a fresh interpreter spends on `import module`."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def medians(runs: int, env: dict) -> dict:
    times = {module: [] for module in MODULES}
    for _ in range(runs):
        for module in MODULES:
            times[module].append(time_import(module, env))
    return {module: statistics.median(ts) for module, ts in times.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=21,
                        help="fresh interpreters per import and case")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        compiled = medians(args.runs, env)
        compileall.compile_dir(src, quiet=1)
        cached = medians(args.runs, env)
    print(f"median of {args.runs} fresh interpreters, "
          f"Python {platform.python_version()}")
    print()
    print("| import | compiled each time | cached bytecode |")
    print("|---|---|---|")
    for module in MODULES:
        print(f"| `import {module}` | {compiled[module] * 1e3:.1f} ms "
              f"| {cached[module] * 1e3:.1f} ms |")


if __name__ == "__main__":
    main()
