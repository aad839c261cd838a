"""Reference oracles for the census layer: the brute-force canonical form
over every point permutation, and the topology enumeration that filters
all 2^n candidate masks per point.

They are kept only for the differential tests, which require
``FiniteSpace.canonical_form`` to return the same tuple as the minimum
over all n! relabelings, and ``census.minimal_nbhd_assignments`` to return
the same assignments in the same order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from fibertop.spaces import FiniteSpace, bits, mask_of


def canonical_form_reference(space: FiniteSpace) -> tuple[int, ...]:
    """Lexicographically least sorted opens tuple over all relabelings."""
    best = None
    if space.n <= 6:
        for table in _mask_permutations(space.n):
            cand = tuple(sorted(table[o] for o in space.opens))
            if best is None or cand < best:
                best = cand
    else:
        for perm in permutations(range(space.n)):
            cand = tuple(sorted(mask_of(perm[p] for p in bits(o))
                                for o in space.opens))
            if best is None or cand < best:
                best = cand
    return best


@lru_cache(maxsize=8)
def _mask_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """For each point permutation, the induced lookup table on masks."""
    return tuple(tuple(mask_of(perm[p] for p in bits(m)) for m in range(1 << n))
                 for perm in permutations(range(n)))


def minimal_nbhd_assignments_reference(n: int) -> tuple[tuple[int, ...], ...]:
    """All labeled Alexandrov topologies on n points as per-point minimal
    neighborhoods, each point trying every mask in ascending order."""
    full = (1 << n) - 1
    out = []
    assign = [0] * n

    def backtrack(i: int):
        if i == n:
            out.append(tuple(assign))
            return
        bit = 1 << i
        for cand in range(full + 1):
            if not cand & bit:
                continue
            ok = True
            for j in range(i):
                uj = assign[j]
                if cand >> j & 1 and uj & ~cand:
                    ok = False
                    break
                if uj & bit and cand & ~uj:
                    ok = False
                    break
            if ok:
                assign[i] = cand
                backtrack(i + 1)
        assign[i] = 0

    backtrack(0)
    return tuple(out)
