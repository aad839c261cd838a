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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CheckFailed,
    CoherenceViolated,
    Condition2Violated,
    DepthExceeded,
    HypothesisFailed,
    InvalidPartition,
    LevelNotRegular,
    NeighborhoodNotNested,
    NotCovering,
    NotDisjoint,
    NotOpen,
    PartitionError,
    PrefixNotClosed,
    points_text,
)
from .oscillation import RationalFunction, osc_on_set
from .spaces import FiberedMap, FiniteSpace, bits


@dataclass(frozen=True)
class RegularKPartition:
    space: FiniteSpace
    carrier: int
    blocks: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.blocks)


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
    k = len(blocks)
    prefix = 0
    prefixes = []
    for b in blocks:
        prefix |= b
        prefixes.append(prefix)
    for p in range(k):
        if space.rel_closure(carrier, prefixes[p]) != prefixes[p]:
            raise PrefixNotClosed(p)
    if k >= 3:
        suffix = 0
        suffix_cl = [0] * k
        for m in range(k - 1, -1, -1):
            suffix |= blocks[m]
            suffix_cl[m] = space.rel_closure(carrier, suffix)
        for p in range(k - 2):
            if prefixes[p] & suffix_cl[p + 2]:
                raise Condition2Violated(p)
    return RegularKPartition(space, carrier, blocks)


def interiors_cover_check(part: RegularKPartition) -> bool:
    """Do the relative interiors of adjacent block pairs cover the carrier?

    Always true for a valid regular k-partition with k >= 3; exposed as a
    checkable statement so property tests can confirm it exhaustively.
    """
    if part.k < 3:
        raise InvalidPartition("covering statement needs k >= 3")
    space, carrier = part.space, part.carrier
    cover = 0
    for m in range(part.k - 1):
        cover |= space.rel_interior(carrier, part.blocks[m] | part.blocks[m + 1])
    return cover == carrier


class Level(NamedTuple):
    nbhd: int           # open neighborhood of y, as a mask in the codomain
    blocks: tuple[int, ...]


@dataclass(frozen=True)
class ConsistentBinaryFamily:
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


def stepwise_function(family: ConsistentBinaryFamily, n: int) -> RationalFunction:
    """The level-n step function: k/(2^n - 1) on block k, 0 off the preimage.

    Level 0 is structural only; its function is identically zero.  The
    oscillation bound 1/(2^n - 1) over the level carrier is asserted.
    """
    if n > family.depth:
        raise DepthExceeded(f"level {n} exceeds family depth {family.depth}")
    space = family.f.domain
    if n == 0:
        return RationalFunction.constant(space, 0)
    level = family.levels[n]
    denom = (1 << n) - 1
    values = [Fraction(0)] * space.n
    for k, block in enumerate(level.blocks):
        if k == 0:
            continue
        val = Fraction(k, denom)
        for x in bits(block):
            values[x] = val
    phi = RationalFunction(space, tuple(values), space.full)
    carrier = family.carrier(n)
    if osc_on_set(phi, carrier) > Fraction(1, denom):
        raise CheckFailed(f"stepwise oscillation bound at level {n}")
    return phi


@dataclass(frozen=True)
class ApproximateLimitFunction:
    """Depth-N truncation of the limit function with a certified error bound.

    phi carries the exact paper value at points that leave the neighborhood
    chain before the last level and the depth-N value on the residual core.
    When the level data goes stationary (same neighborhood, every block
    splitting with one empty child) and each core point keeps a constant
    child side, the true limit is the geometric extrapolation recorded in
    exact_phi; for builder output the stationary step recurs by determinism,
    which is what licenses the extrapolation.
    """

    family: ConsistentBinaryFamily
    phi: RationalFunction
    error_bound: Fraction
    stabilized: bool
    stabilization_depth: int | None
    exact_phi: RationalFunction | None


def _block_index(level: Level, x: int) -> int | None:
    for k, block in enumerate(level.blocks):
        if block >> x & 1:
            return k
    return None


def assemble_limit(family: ConsistentBinaryFamily) -> ApproximateLimitFunction:
    """Assemble the truncated limit of the stepwise functions.

    Verifies the assembly hypotheses on the truncated data: the oscillation
    chain osc(phi_n) <= 1/(2^n - 1), which ``stepwise_function`` asserts
    on each level, and the increment bound
    |phi_{n+1} - phi_n| <= 1/(2^{n+1} - 1) on the deeper carrier.
    """
    depth = family.depth
    if depth < 1:
        raise DepthExceeded("assembly needs depth >= 1")
    space = family.f.domain
    steps = [stepwise_function(family, n) for n in range(depth + 1)]
    carriers = [family.carrier(n) for n in range(depth + 1)]
    for n in range(depth):
        bound = Fraction(1, (1 << (n + 1)) - 1)
        for x in bits(carriers[n + 1]):
            if abs(steps[n + 1].values[x] - steps[n].values[x]) > bound:
                raise HypothesisFailed("c", n)
    values = []
    for x in range(space.n):
        n = 0
        while n < depth and carriers[n + 1] >> x & 1:
            n += 1
        values.append(steps[n].values[x])
    phi = RationalFunction(space, tuple(values), space.full)
    error = Fraction(1, (1 << depth) - 1)

    def step_stationary(n: int) -> bool:
        if family.levels[n + 1].nbhd != family.levels[n].nbhd:
            return False
        nxt = family.levels[n + 1].blocks
        return all(not (nxt[2 * k] and nxt[2 * k + 1])
                   for k in range(1 << n))

    stab_depth = None
    for s in range(depth - 1, -1, -1):
        if step_stationary(s):
            stab_depth = s
        else:
            break
    stabilized = stab_depth is not None
    exact_phi = None
    if stabilized:
        core = carriers[depth]
        last = family.levels[depth]
        exact_vals = list(values)
        constant_bits = True
        for x in bits(core):
            bit = None
            for n in range(stab_depth, depth):
                k_lo = _block_index(family.levels[n], x)
                k_hi = _block_index(family.levels[n + 1], x)
                b = k_hi - 2 * k_lo
                if bit is None:
                    bit = b
                elif bit != b:
                    constant_bits = False
                    break
            if not constant_bits:
                break
            k_last = _block_index(last, x)
            exact_vals[x] = Fraction(k_last + bit, 1 << depth)
        if constant_bits:
            exact_phi = RationalFunction(space, tuple(exact_vals), space.full)
    return ApproximateLimitFunction(family, phi, error, stabilized,
                                    stab_depth, exact_phi)
