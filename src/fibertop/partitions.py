"""Regular k-partitions, consistent binary partition families, and the
stepwise functions they induce.

A regular k-partition of a carrier subspace is an ordered partition whose
prefix unions are relatively closed and whose blocks two apart have
disjoint closure interaction.  A consistent binary family stacks regular
2^n-partitions of shrinking preimages so that each block splits into two
children one level down; the induced stepwise functions k/(2^n - 1)
converge to a function continuous along the map.  A family keeps each
level as its table of block indices, the numerators k, and
``check_links`` checks a level's regularity on its table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CheckFailed,
    CoherenceViolated,
    Condition2Violated,
    DepthExceeded,
    HypothesisFailed,
    LevelNotRegular,
    NeighborhoodNotNested,
    NotCovering,
    NotOpen,
    PartitionError,
    PrefixNotClosed,
    points_text,
)
from .oscillation import RationalFunction
from .spaces import FiberedMap, FiniteSpace, bits


def check_links(space: FiniteSpace, carrier: int, table) -> None:
    """Raise the first failing regularity condition of a table t that
    covers the carrier W, read off the links (x, z) of x in W and z in
    U_x & W.

    The link lemma: t is regular iff t[x] <= t[z] <= t[x] + 1 on every
    link.  The prefix through p, {t <= p}, is closed in W iff no point x
    above p has a z at or below p in U_x, since cl(S) & W is the set of
    the x in W whose U_x meets S: so the first prefix that is not closed
    is the least t[z] over the links with t[z] < t[x].  Once every prefix
    is closed, the prefix through p meets the closure of the blocks from
    p + 2 on iff some x with t[x] <= p has a z in U_x with t[z] >= p + 2:
    so the first p of condition 2 is the least t[x] over the links with
    t[z] >= t[x] + 2."""
    links = [(table[x], table[z]) for x, z in _links(space, carrier)]
    below = [j for k, j in links if j < k]
    if below:
        raise PrefixNotClosed(min(below))
    apart = [k for k, j in links if j > k + 1]
    if apart:
        raise Condition2Violated(min(apart))


class Level(NamedTuple):
    """One level n of a family: an open neighborhood of y in the codomain,
    and the index of each point's block, the numerator of the level's
    step function over 2^n - 1, on its preimage f^-1(nbhd); None off it,
    as a ``RationalFunction`` is off its carrier."""

    nbhd: int
    table: tuple


class ConsistentBinaryFamily(NamedTuple):
    f: FiberedMap
    y: int
    levels: tuple[Level, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def carrier(self, n: int) -> int:
        return self.f.preimage(self.levels[n].nbhd)


def validate_consistent_family(family: ConsistentBinaryFamily) -> ConsistentBinaryFamily:
    """Check nesting, per-level regularity, and the child coherence
    equation t_n[x] >> 1 == t_(n-1)[x] on each level-n carrier."""
    f, y, levels = family.f, family.y, family.levels
    space = f.domain
    if not levels:
        raise PartitionError("a family needs at least level 0")
    if levels[0] != (f.codomain.full, (0,) * space.n):
        raise PartitionError("level 0 must be the whole codomain with one block")
    for n, (nbhd, table) in enumerate(levels):
        if len(table) != space.n or any(
                k is not None and not 0 <= k < 1 << n for k in table):
            raise PartitionError(f"level {n} must have {1 << n} blocks")
        if not f.codomain.is_open(nbhd):
            raise NotOpen(nbhd)
        if not nbhd >> y & 1:
            raise PartitionError(f"level {n} neighborhood misses y={y}")
        if n and nbhd & ~levels[n - 1].nbhd:
            raise NeighborhoodNotNested(n)
        carrier = f.preimage(nbhd)
        covered = sum(1 << x for x, k in enumerate(table) if k is not None)
        try:
            if covered & ~carrier:
                k = min(table[x] for x in bits(covered & ~carrier))
                block = sum(1 << x for x, j in enumerate(table) if j == k)
                raise NotCovering(f"block {points_text(block)} leaves the "
                                  f"carrier {points_text(carrier)}")
            if covered != carrier:
                raise NotCovering(f"blocks cover {points_text(covered)}, "
                                  f"carrier is {points_text(carrier)}")
            check_links(space, carrier, table)
        except PartitionError as exc:
            raise LevelNotRegular(n, exc) from exc
        if n:
            prev = levels[n - 1].table
            broken = [min(prev[x], table[x] >> 1) for x in bits(carrier)
                      if table[x] >> 1 != prev[x]]
            if broken:
                raise CoherenceViolated(n, min(broken))
    return family


def _links(space: FiniteSpace, carrier: int) -> list[tuple[int, int]]:
    """The pairs (x, z) of a point x of the carrier and a z in
    U_x & carrier, x itself included: every scan of the links compares
    t[x] with t[z], which is trivial at z = x."""
    nbhd = space._min_nbhd
    return [(x, z) for x in bits(carrier) for z in bits(nbhd[x] & carrier)]


def stepwise_violation(space: FiniteSpace, carriers, tables
                       ) -> tuple[str, int] | None:
    """The first stepwise bound broken by the level-n numerator tables
    over d_n = 2^n - 1 (zero at level 0) on the level-n carriers: first
    ("osc", n), a point of carriers[n] more than one step from some z in
    its U_x; then ("c", n), |k'/d_{n+1} - k/d_n| > 1/d_{n+1} on
    carriers[n + 1], cross-multiplied.  With d_0 = 0 the level-0 bound is
    |k'| <= 1, the same test with d_0 read as 1."""
    increment = None
    for n in range(1, len(tables)):
        lo, hi = tables[n - 1], tables[n]
        if any(abs(hi[x] - hi[z]) > 1 for x, z in _links(space, carriers[n])):
            return "osc", n
        d_lo, d_hi = (1 << (n - 1)) - 1 or 1, (1 << n) - 1
        if increment is None and any(abs(hi[x] * d_lo - lo[x] * d_hi) > d_lo
                                     for x in bits(carriers[n])):
            increment = "c", n - 1
    return increment


class ApproximateLimitFunction(NamedTuple):
    """Depth-N truncation of the limit function with a certified error bound.

    phi carries the exact paper value at points that leave the neighborhood
    chain before the last level and the depth-N value on the residual core.
    """

    family: ConsistentBinaryFamily
    phi: RationalFunction
    error_bound: Fraction


def assemble_limit(family: ConsistentBinaryFamily) -> ApproximateLimitFunction:
    """Assemble the truncated limit of the stepwise functions, once
    ``stepwise_violation`` has verified the assembly hypotheses on the
    truncated data: osc(phi_n) <= 1/(2^n - 1) on each level, and
    |phi_{n+1} - phi_n| <= 1/(2^{n+1} - 1) on the deeper carrier."""
    depth = family.depth
    if depth < 1:
        raise DepthExceeded("assembly needs depth >= 1")
    space = family.f.domain
    carriers = [family.carrier(n) for n in range(depth + 1)]
    tables = [level.table for level in family.levels]
    failed = stepwise_violation(space, carriers, tables)
    if failed and failed[0] == "osc":
        raise CheckFailed(f"stepwise oscillation bound at level {failed[1]}")
    if failed:
        raise HypothesisFailed(*failed)
    values = []
    for x in range(space.n):
        n = 0
        while n < depth and carriers[n + 1] >> x & 1:
            n += 1
        values.append(Fraction(tables[n][x], (1 << n) - 1 or 1))
    phi = RationalFunction(space, tuple(values), space.full)
    error = Fraction(1, (1 << depth) - 1)
    return ApproximateLimitFunction(family, phi, error)
