"""Exhaustive enumeration of small spaces and continuous maps.

Topologies are generated through minimal-neighborhood assignments (each
point gets the smallest open set around it, subject to the nesting
constraints of a preorder), deduplicated up to relabeling by the canonical
form of the open-set family.  Continuous maps are generated by
backtracking on the specialization-preservation constraint, which on
finite spaces is equivalent to continuity.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .spaces import MAX_CANONICAL_POINTS, FiberedMap, FiniteSpace

# the largest side a census enumerates: it first builds every labelled
# topology of each side, and 7 points have 9,535,241 of them
MAX_CENSUS_SIDE = 6

_LABELED_CACHE: dict[int, tuple[tuple[int, ...], ...]] = {}
_CANONICAL_CACHE: dict[int, tuple[FiniteSpace, ...]] = {}


def minimal_nbhd_assignments(n: int) -> tuple[tuple[int, ...], ...]:
    """All labeled Alexandrov topologies on n points, as per-point minimal
    neighborhoods (U[i] contains i; j in U[i] forces U[j] inside U[i]).

    Point i tries, in ascending order, the masks containing i inside every
    earlier U[j] that contains i, keeping those that contain the U[j] of
    their earlier points j."""
    cached = _LABELED_CACHE.get(n)
    if cached is not None:
        return cached
    full = (1 << n) - 1
    out = []
    assign = [0] * n

    def backtrack(i: int):
        if i == n:
            out.append(tuple(assign))
            return
        bit = 1 << i
        room = full
        for uj in assign[:i]:
            if uj & bit:
                room &= uj
        room ^= bit
        sub = 0
        while True:
            cand = sub | bit
            below = cand & (bit - 1)
            while below:
                low = below & -below
                if assign[low.bit_length() - 1] & ~cand:
                    break
                below ^= low
            else:
                assign[i] = cand
                backtrack(i + 1)
            if sub == room:
                break
            sub = (sub - room) & room  # next submask of room, ascending
        assign[i] = 0

    backtrack(0)
    del backtrack  # the nested recursion holds itself in a cycle
    result = tuple(out)
    _LABELED_CACHE[n] = result
    return result


def space_from_min_nbhds(nbhds) -> FiniteSpace:
    """The topology generated by a minimal-neighborhood assignment: its
    opens are the unions of the neighborhoods, and nbhds[x] is U_x."""
    return FiniteSpace.from_min_nbhds(nbhds)


def all_spaces(n: int):
    for nbhds in minimal_nbhd_assignments(n):
        yield space_from_min_nbhds(nbhds)


def _check_cap(n: int) -> None:
    """ValueError, before any enumeration, when n-point spaces have no
    canonical form."""
    if n > MAX_CANONICAL_POINTS:
        raise ValueError(f"canonical spaces are capped at "
                         f"{MAX_CANONICAL_POINTS} points, not {n}")


def check_side(n: int) -> None:
    """ValueError, before any enumeration, when a census side is past the
    labelled enumeration's limit."""
    if n > MAX_CENSUS_SIDE:
        raise ValueError(f"the labelled enumeration is capped at "
                         f"{MAX_CENSUS_SIDE} points a side, not {n}")


def canonical_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """Homeomorphism representatives, canonically labeled and sorted."""
    cached = _CANONICAL_CACHE.get(n)
    if cached is not None:
        return cached
    _check_cap(n)
    seen = {}
    for space in all_spaces(n):
        form = space.canonical_form()
        if form not in seen:
            seen[form] = FiniteSpace(n, form)
    result = tuple(seen[form] for form in sorted(seen))
    _CANONICAL_CACHE[n] = result
    return result


def continuous_tables(x_space: FiniteSpace, y_space: FiniteSpace
                      ) -> tuple[tuple[int, ...], ...]:
    """All continuous maps, as tables, via specialization preservation."""
    nx, ny = x_space.n, y_space.n
    ux = x_space._min_nbhd
    uy = y_space._min_nbhd
    out = []
    tab = [0] * nx

    def backtrack(i: int):
        if i == nx:
            out.append(tuple(tab))
            return
        ui = ux[i]
        for v in range(ny):
            uv = uy[v]
            ok = True
            for j in range(i):
                if ui >> j & 1 and not uv >> tab[j] & 1:
                    ok = False
                    break
                if ux[j] >> i & 1 and not uy[tab[j]] >> v & 1:
                    ok = False
                    break
            if ok:
                tab[i] = v
                backtrack(i + 1)
        tab[i] = 0

    backtrack(0)
    del backtrack
    return tuple(out)


class Instance(NamedTuple):
    uid: str
    f: FiberedMap


def census_instances(max_total: int, max_side: int | None = None):
    """Every continuous map between canonical spaces with |X|+|Y| bounded,
    and with at most max_side points on either side when it is given.  The
    bound only drops instances: the others keep their uids and order."""
    side = min(max_total - 1, max_total if max_side is None else max_side)
    _check_cap(side)
    check_side(side)
    for nx in range(1, side + 1):
        for ny in range(1, min(max_total - nx, side) + 1):
            xs = canonical_spaces(nx)
            ys = canonical_spaces(ny)
            for xi, x_space in enumerate(xs):
                for yi, y_space in enumerate(ys):
                    for mi, tab in enumerate(continuous_tables(x_space, y_space)):
                        uid = f"x{nx}.{xi:03d}-y{ny}.{yi:03d}-m{mi:03d}"
                        yield Instance(uid, FiberedMap(x_space, y_space, tab))


def sampled_instances(n_max: int, count: int, seed: int):
    """Seeded random labeled instances with up to n_max points per side."""
    check_side(n_max)
    rng = random.Random(seed)
    out = []
    for k in range(count):
        nx = rng.randint(1, n_max)
        ny = rng.randint(1, n_max)
        xs = minimal_nbhd_assignments(nx)
        ys = minimal_nbhd_assignments(ny)
        x_space = space_from_min_nbhds(xs[rng.randrange(len(xs))])
        y_space = space_from_min_nbhds(ys[rng.randrange(len(ys))])
        tables = continuous_tables(x_space, y_space)
        tab = tables[rng.randrange(len(tables))]
        out.append(Instance(f"s{k:04d}", FiberedMap(x_space, y_space, tab)))
    return out

