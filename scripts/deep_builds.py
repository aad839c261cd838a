"""Time `fibertop build separator` at a given depth on the cli12 files.

    python3 scripts/deep_builds.py [--depth 16] [--seed 1]

Writes the benchmark's cli12 instance files for the seed (from
bench/instances.py, imported without writing bytecode under bench/) to a
temporary directory, runs `fibertop check normal` on each, and on every
file where it holds runs `fibertop --json --depth D build separator` with
the file's F, T and y, in this process.  It prints the number of builds,
the seconds the builds took, and a sha256 of their exit codes and stdout:
equal digests on two checkouts mean byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(depth: int, seed: int) -> tuple[int, float, str]:
    """(builds, seconds, digest) of the separator builds for that seed."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import instances
    from fibertop import cli

    def call(args: list) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        return code, out.getvalue()

    results = []
    seconds = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for k, spec in enumerate(instances.cli12_files(seed)):
            path = os.path.join(tmp, f"f{k:02d}.top")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec["text"])
            if call(["check", "normal", path])[0] != 0:
                continue
            t = time.perf_counter()
            results.append(call(["--json", "--depth", str(depth), "build",
                                 "separator", path, "--F", "F", "--T", "T",
                                 "--y", str(spec["y"])]))
            seconds += time.perf_counter() - t
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    return len(results), seconds, digest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    builds, seconds, digest = run(args.depth, args.seed)
    print(f"builds: {builds}\nseconds: {seconds:.3f}\nsha256: {digest}")


if __name__ == "__main__":
    main()
