"""Regular k-partitions, consistent binary partition families, and the
stepwise functions they induce.

A regular k-partition of a carrier subspace is an ordered partition whose
prefix unions are relatively closed and whose blocks two apart have
disjoint closure interaction.  A consistent binary family stacks regular
2^n-partitions of shrinking preimages so that each block splits into two
children one level down; the induced stepwise functions k/(2^n - 1)
converge to a function continuous along the map.
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
    NotDisjoint,
    NotOpen,
    PartitionError,
    PrefixNotClosed,
    points_text,
)
from .oscillation import RationalFunction
from .spaces import FiberedMap, FiniteSpace, bits


class RegularKPartition(NamedTuple):
    space: FiniteSpace
    carrier: int
    blocks: tuple[int, ...]


def validate_regular_partition(space: FiniteSpace, carrier: int,
                               blocks) -> RegularKPartition:
    """Check both regularity conditions; empty blocks are allowed."""
    blocks = tuple(int(b) for b in blocks)
    if not blocks:
        raise NotCovering("a partition needs at least one block")
    union = 0
    for b in blocks:
        if b & ~carrier:
            raise NotCovering(f"block {points_text(b)} leaves the carrier "
                              f"{points_text(carrier)}")
        if b & union:
            raise NotDisjoint(f"block {points_text(b)} overlaps an earlier block")
        union |= b
    if union != carrier:
        raise NotCovering(f"blocks cover {points_text(union)}, carrier is "
                          f"{points_text(carrier)}")
    # closure commutes with unions: once the earlier prefixes are closed, a
    # prefix is closed iff it holds the closure of its last block, and the
    # closure of a suffix is the union of its blocks' closures
    k = len(blocks)
    prefix = 0
    prefixes = []
    for p, b in enumerate(blocks):
        prefix |= b
        prefixes.append(prefix)
        if b and space.rel_closure(carrier, b) & ~prefix:
            raise PrefixNotClosed(p)
    if k >= 3:
        suffix_cl = [0] * k
        cl = 0
        for m in range(k - 1, -1, -1):
            if blocks[m]:
                cl |= space.rel_closure(carrier, blocks[m])
            suffix_cl[m] = cl
        for p in range(k - 2):
            if prefixes[p] & suffix_cl[p + 2]:
                raise Condition2Violated(p)
    return RegularKPartition(space, carrier, blocks)


class Level(NamedTuple):
    nbhd: int           # open neighborhood of y, as a mask in the codomain
    blocks: tuple[int, ...]


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
    """Check nesting, per-level regularity, and the child coherence equation."""
    f, y, levels = family.f, family.y, family.levels
    if not levels:
        raise PartitionError("a family needs at least level 0")
    if levels[0].nbhd != f.codomain.full or levels[0].blocks != (f.domain.full,):
        raise PartitionError("level 0 must be the whole codomain with one block")
    for n, level in enumerate(levels):
        if len(level.blocks) != 1 << n:
            raise PartitionError(f"level {n} must have {1 << n} blocks")
        if not f.codomain.is_open(level.nbhd):
            raise NotOpen(level.nbhd)
        if not level.nbhd >> y & 1:
            raise PartitionError(f"level {n} neighborhood misses y={y}")
        if n and level.nbhd & ~levels[n - 1].nbhd:
            raise NeighborhoodNotNested(n)
        carrier = f.preimage(level.nbhd)
        try:
            validate_regular_partition(f.domain, carrier, level.blocks)
        except PartitionError as exc:
            raise LevelNotRegular(n, exc) from exc
        if n:
            prev = levels[n - 1]
            for k in range(1 << (n - 1)):
                want = prev.blocks[k] & carrier
                got = level.blocks[2 * k] | level.blocks[2 * k + 1]
                if want != got:
                    raise CoherenceViolated(n, k)
    return family


def block_numerators(n_points: int, blocks) -> list[int]:
    """Each point's block index, 0 off the blocks: its step numerator.

    ``blocks`` holds (k, mask) pairs, such as ``enumerate`` of a level's
    blocks; the empty ones may be left out."""
    idx = [0] * n_points
    for k, block in blocks:
        for x in bits(block):
            idx[x] = k
    return idx


def _links(space: FiniteSpace, carrier: int) -> list[tuple[int, int]]:
    """The pairs (x, z) of a point x of the carrier and a z != x in U_x."""
    nbhd = space._min_nbhd
    return [(x, z) for x in bits(carrier) for z in bits(nbhd[x]) if z != x]


def _within_one_step(idx, links) -> bool:
    for x, z in links:
        if abs(idx[x] - idx[z]) > 1:
            return False
    return True


def stepwise_violation(space: FiniteSpace, carriers, tables
                       ) -> tuple[str, int] | None:
    """The first stepwise bound broken by the level-n numerator tables
    over d_n = 2^n - 1 (zero at level 0) on the level-n carriers: first
    ("osc", n), a point of carriers[n] more than one step from some z in
    its U_x; then ("c", n), |k'/d_{n+1} - k/d_n| > 1/d_{n+1} on
    carriers[n + 1], cross-multiplied.  With d_0 = 0 the level-0 bound is
    |k'| <= 1, the same test with d_0 read as 1."""
    increment = last = None
    for n in range(1, len(tables)):
        carrier = carriers[n]
        if carrier != last:
            last = carrier
            points = tuple(bits(carrier))
            links = _links(space, carrier)
        lo, hi = tables[n - 1], tables[n]
        if not _within_one_step(hi, links):
            return "osc", n
        if increment is None:
            d_lo, d_hi = (1 << (n - 1)) - 1 or 1, (1 << n) - 1
            for x in points:
                if abs(hi[x] * d_lo - lo[x] * d_hi) > d_lo:
                    increment = "c", n - 1
                    break
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
    tables = [[0] * space.n] + [
        block_numerators(space.n, enumerate(level.blocks))
        for level in family.levels[1:]]
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
