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
from collections.abc import Sequence
from struct import Struct
from typing import NamedTuple

from .spaces import MAX_CANONICAL_POINTS, FiberedMap, FiniteSpace

# the largest side a census enumerates.  The labelled 7-point tables
# alone fit (9,535,241 of them, about 5 s and 80 MB), but a census would
# then build a space from each and take its canonical form
MAX_CENSUS_SIDE = 6


class LabelledTables(Sequence):
    """The minimal-neighbourhood tables of one n, packed n bytes each:
    U[i] of table k is byte k*n + i.  Every mask fits in a byte, since a
    table has at most MAX_CANONICAL_POINTS points.  Items are tuples of
    ints, as a tuple of tables would hold them."""

    __slots__ = ("_n", "_row", "_data", "_len")

    def __init__(self, n: int, data: bytearray):
        self._n = n
        self._row = Struct(f"{n}B")
        self._data = data
        self._len = len(data) // n if n else 1  # n = 0 has one empty table

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, ...]:
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("table index out of range")
        return self._row.unpack_from(self._data, k * self._n)

    def __iter__(self):
        if not self._n:  # iter_unpack refuses a row of zero bytes
            return iter(((),))
        return self._row.iter_unpack(self._data)


_LABELED_CACHE: dict[int, LabelledTables] = {}
_CANONICAL_CACHE: dict[int, tuple[FiniteSpace, ...]] = {}


def _candidate_filters(n: int) -> tuple[list[int], list[int], list[int]]:
    """The bitsets over the 2^n masks that filter a point's candidates:
    bit c of has[j] is set iff mask c holds point j, of sup[a] iff c
    contains a, and of sub[a] iff c lies inside a.  sup[a] is the AND of
    has[j] over j in a, and sub[a] the AND of ~has[j] over j not in a, so
    each entry is one AND on an entry with one point fewer."""
    size = 1 << n
    every = (1 << size) - 1
    has = []
    for j in range(n):
        run = ((1 << (1 << j)) - 1) << (1 << j)  # masks 2^j .. 2^(j+1)-1
        for k in range(j + 1, n):  # masks c + 2^k repeat masks c below 2^k
            run |= run << (1 << k)
        has.append(run)
    sup = [every] * size
    sub = [every] * size
    full = size - 1
    for a in range(1, size):
        low = a & -a
        j = low.bit_length() - 1
        sup[a] = sup[a ^ low] & has[j]
        sub[full ^ a] = sub[full ^ a ^ low] & ~has[j]
    return has, sup, sub


def minimal_nbhd_assignments(n: int) -> LabelledTables:
    """All labeled Alexandrov topologies on n points, as per-point minimal
    neighborhoods (U[i] contains i; j in U[i] forces U[j] inside U[i]),
    in ascending order of (U[0], ..., U[n-1]).

    Point i takes, in ascending order, every mask c that
    (a) holds i,
    (b) lies inside room, the AND of the earlier U[j] that hold i, and
    (c) contains U[j] for every earlier j it holds.
    These are the nesting rule on each pair j < i, checked once i is
    placed: i in U[j] asks U[i] inside U[j], which is (b), and j in U[i]
    asks U[j] inside U[i], which is (c).  So the leaves are exactly the
    topologies, once each.

    Each condition is a bitset over all 2^n masks, from the filters of
    _candidate_filters: (a) is has[i] and (b) is sub[room].  For (c), a
    mask passes the term of j iff it lacks j or contains U[j], so it is
    in ~has[j] | sup[U[j]]; ok, the AND of these terms over the points
    placed so far, is passed down the recursion, one AND a point.  The
    set bits of has[i] & sub[room] & ok are then the masks (a)-(c)
    admit, and ascending bits are ascending masks, so the order is that
    of a per-candidate scan of the submasks of room.  Each table is
    extended whole from one reused row.  ValueError, before any
    enumeration, past MAX_CANONICAL_POINTS points, where a mask outgrows
    its byte."""
    if n > MAX_CANONICAL_POINTS:
        raise ValueError(f"labelled topologies are stored one byte a point, "
                         f"so they are capped at {MAX_CANONICAL_POINTS} "
                         f"points, not {n}")
    cached = _LABELED_CACHE.get(n)
    if cached is not None:
        return cached
    out = bytearray()
    if n:
        has, sup, sub = _candidate_filters(n)
        every = sup[0]  # all 2^n masks
        full = (1 << n) - 1
        extend = out.extend
        last = n - 1
        row = bytearray(n)  # the table being built, extended whole

        def backtrack(i: int, ok: int):
            bit = 1 << i
            room = full
            for uj in row[:i]:
                if uj & bit:
                    room &= uj
            valid = has[i] & sub[room] & ok
            if i == last:
                while valid:
                    low = valid & -valid
                    row[i] = low.bit_length() - 1
                    extend(row)
                    valid ^= low
                return
            lacks = every ^ has[i]
            while valid:
                low = valid & -valid
                c = low.bit_length() - 1
                row[i] = c
                backtrack(i + 1, ok & (lacks | sup[c]))
                valid ^= low

        backtrack(0, every)
        del backtrack  # the nested recursion holds itself in a cycle
    result = LabelledTables(n, out)
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
    """ValueError, before any enumeration, when a census side is past
    MAX_CENSUS_SIDE."""
    if n > MAX_CENSUS_SIDE:
        raise ValueError(f"census sides are capped at {MAX_CENSUS_SIDE} points,"
                         f" not {n}: a larger side means canonicalising every"
                         f" labelled space of its size, 9,535,241 at 7 points")


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

