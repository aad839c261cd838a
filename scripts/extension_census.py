"""Every two-valued extension run of a census, and what it decides.

    python3 scripts/extension_census.py [--total 6]

For every map of `census_instances(total)`, every non-empty open O of the
codomain, every y in O and every pair (F, T) of `harness._closed_pairs` on
f^-1(O) with F | T non-empty, it runs `tietze_extend` on the data 0 on F
and 1 on T (`within=O`, the default tolerance), in this process, and
prints:

- the number of runs and how many of them raise;
- on how many maps every run succeeds exactly when the map is normal;
- how many successful runs have an exact extension by
  `exact_extension_exists`, and how many raising runs have none;
- the distinct successful walks (the entries the runs leave in the
  domains' memos), split into walks that take no step, walks whose values
  repeat doubled so that the later steps are taken in closed form, and
  walks that compute every step; a walk is run again for this, counting
  its `saturation` calls, one per computed step;
- the seconds that the `tietze_extend` calls took;
- a sha256 over every run's result: the integers of its
  `ExtensionResult`, or the type and text of its error.  Equal digests on
  two checkouts mean that every run returned the same result.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def two_valued_runs(f):
    """Yield (O, F, T, y) for every two-valued run on the map f, by O, y
    and the order of ``_closed_pairs``."""
    from fibertop.harness import _closed_pairs
    from fibertop.spaces import bits

    for o_mask in f.codomain.opens:
        if not o_mask:
            continue
        pairs, _ = f.domain.memoised((_closed_pairs, f.preimage(o_mask)))
        for y in bits(o_mask):
            for a, b in pairs:
                if a | b:
                    yield o_mask, a, b, y


def walk_kind(space, key: tuple) -> str:
    """"none", "repeat" or "full": how the walk stored under key in the
    memo of space ran, found by running it again and counting its
    ``saturation`` calls, one per step it computes."""
    from fibertop.spaces import FiniteSpace

    real = FiniteSpace.saturation
    calls = 0

    def counted(self, region, mask):
        nonlocal calls
        calls += 1
        return real(self, region, mask)

    FiniteSpace.saturation = counted
    try:
        steps = key[0](space, *key[1:]).iterations
    finally:
        FiniteSpace.saturation = real
    return "none" if not steps else "repeat" if calls < steps else "full"


def census(total: int) -> dict:
    """The figures of every two-valued run over |X|+|Y| <= total."""
    from fibertop.census import census_instances
    from fibertop.errors import FibertopError
    from fibertop.normality import is_normal
    from fibertop.urysohn_tietze import (
        _extension_walk,
        boundary_function,
        exact_extension_exists,
        tietze_extend,
    )

    maps = [inst.f for inst in census_instances(total)]
    runs = [(f, o_mask, boundary_function(f.domain, a, b), y)
            for f in maps for o_mask, a, b, y in two_valued_runs(f)]
    results = []
    start = time.perf_counter()
    for f, o_mask, phit, y in runs:
        try:
            results.append(tietze_extend(f, phit.carrier, phit, y,
                                         within=o_mask))
        except FibertopError as exc:
            results.append(exc)
    seconds = time.perf_counter() - start

    h = hashlib.sha256()
    failed = set()  # the ids of the maps with a run that raises
    exact = Counter()
    for (f, o_mask, phit, y), res in zip(runs, results):
        ok = not isinstance(res, FibertopError)
        text = (f"{res.scale} {res.totals} {res.mus} {res.separators} "
                f"{res.bound} {res.agreement_set}" if ok
                else f"{type(res).__name__}: {res}")
        h.update(f"{f.table} {o_mask} {phit.carrier} {y} {text}\n".encode())
        if not ok:
            failed.add(id(f))
        exact[ok, exact_extension_exists(f, phit, y).exists] += 1
    normal = [is_normal(f).holds for f in maps]
    domains = {id(f.domain): f.domain for f in maps}.values()
    kinds = Counter(walk_kind(space, key) for space in domains
                    for key in list(space._memo or ())
                    if key[0] is _extension_walk)
    return {"total": total, "maps": len(maps), "normal": sum(normal),
            "agree": sum((id(f) not in failed) == holds
                         for f, holds in zip(maps, normal)),
            "runs": len(runs), "raises": exact[False, True] + exact[False, False],
            "exact": exact, "kinds": kinds, "seconds": seconds,
            "sha256": h.hexdigest()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", type=int, default=6,
                        help="largest |X|+|Y| of the census")
    args = parser.parse_args(argv)
    if args.total < 2:
        parser.error("--total must be at least 2")
    sys.path.insert(0, str(ROOT / "src"))
    c = census(args.total)
    exact, kinds = c["exact"], c["kinds"]
    print(f"two-valued runs over |X|+|Y| <= {c['total']}: {c['maps']:,} maps, "
          f"{c['normal']:,} normal")
    print(f"runs: {c['runs']:,}, raises: {c['raises']:,}")
    print(f"every run succeeds <=> normal: on {c['agree']:,} of "
          f"{c['maps']:,} maps")
    print(f"exact extension: {exact[True, True]:,} of "
          f"{exact[True, True] + exact[True, False]:,} successful runs; "
          f"none: {exact[False, False]:,} of {c['raises']:,} raises")
    print(f"distinct successful walks: {sum(kinds.values()):,}; "
          f"{kinds['repeat']:,} repeat, {kinds['full']:,} compute every "
          f"step, {kinds['none']:,} take no step")
    print(f"seconds in tietze_extend: {c['seconds']:.3f}")
    print(f"sha256: {c['sha256']}")


if __name__ == "__main__":
    main()
