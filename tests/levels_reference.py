"""Reference oracles for the partition families.

- ``build_levels_reference``: the 2^n-block level walk, with every level
  kept as its tuple of block masks, one sandwich per block, and nothing
  memoised.  It is the independent oracle of the walk in
  ``fibertop.normality._level_walk``, which runs only the sandwiches of
  the non-empty blocks.  The
  differential tests require that walk's integer index, memoised or run
  afresh, to expand to these blocks, its two verdicts to match those read
  off these blocks, and a failure to come at the same level and step.
- ``stepwise_function``: one level's step function k/(2^n - 1) as
  ``Fraction`` values, with its oscillation bound checked on its own.
- ``interiors_cover_check``: the covering statement of a regular
  k-partition, k >= 3, which the tests confirm exhaustively.
- ``limit_extrapolation``: the exact limit of a family whose level data
  goes stationary, beyond the truncation ``assemble_limit`` returns.
"""

from __future__ import annotations

from fractions import Fraction

from fibertop.errors import CheckFailed, DepthExceeded, SearchFailed
from fibertop.oscillation import RationalFunction
from fibertop.partitions import (
    ConsistentBinaryFamily,
    RegularKPartition,
    _links,
    _within_one_step,
    assemble_limit,
    block_numerators,
)
from fibertop.spaces import FiberedMap, bits


def build_levels_reference(f: FiberedMap, f_side: int, t_side: int, y: int,
                           depth: int):
    """Returns [(nbhd, blocks), ...] from level 0; raises SearchFailed."""
    space, cod = f.domain, f.codomain
    closure, hull = space.closure, space.hull
    levels = [(cod.full, (space.full,))]
    nbhd = cod.min_nbhd(y)
    carrier = f.preimage(nbhd)
    ft, tt = f_side & carrier, t_side & carrier
    for n in range(depth):
        blocks = levels[n][1]
        k_count = 1 << n
        suffix_cl = 0
        lowers = [0] * k_count
        for k in range(k_count - 1, -1, -1):
            lowers[k] = suffix_cl
            suffix_cl = (suffix_cl | closure(blocks[k] & carrier)) & carrier
        lowers[k_count - 1] |= tt
        prefix = 0
        children = []
        for k in range(k_count):
            avoid = ft if k == 0 else prefix & carrier
            v = hull(lowers[k]) & carrier
            if closure(v) & avoid:
                raise SearchFailed(n + 1, f"sandwich {k}")
            block = blocks[k] & carrier
            children.append(block & ~v)
            children.append(block & v)
            prefix |= blocks[k]
        levels.append((nbhd, tuple(children)))
    return levels


def stepwise_function(family: ConsistentBinaryFamily, n: int) -> RationalFunction:
    """The level-n step function: k/(2^n - 1) on block k, 0 off the blocks.

    Level 0 is structural only; its function is identically zero.  The
    oscillation bound 1/(2^n - 1) over the level carrier is asserted.
    """
    if n > family.depth:
        raise DepthExceeded(f"level {n} exceeds family depth {family.depth}")
    space = family.f.domain
    if n == 0:
        return RationalFunction.constant(space, 0)
    idx = block_numerators(space.n, enumerate(family.levels[n].blocks))
    if not _within_one_step(idx, _links(space, family.carrier(n))):
        raise CheckFailed(f"stepwise oscillation bound at level {n}")
    denom = (1 << n) - 1
    return RationalFunction.total(space, [Fraction(k, denom) for k in idx])


def interiors_cover_check(part: RegularKPartition) -> bool:
    """Do the relative interiors of adjacent block pairs cover the carrier?

    Always true for a valid regular k-partition with k >= 3.
    """
    k = len(part.blocks)
    if k < 3:
        raise ValueError("covering statement needs k >= 3")
    space, carrier = part.space, part.carrier
    cover = 0
    for m in range(k - 1):
        cover |= space.rel_interior(carrier, part.blocks[m] | part.blocks[m + 1])
    return cover == carrier


def limit_extrapolation(family: ConsistentBinaryFamily
                        ) -> tuple[int | None, RationalFunction | None]:
    """(stabilization depth, exact limit) of a family's truncated limit.

    The level data goes stationary from the depth s on when every later
    step keeps the neighborhood and splits each block with one empty
    child; s is the least such depth, None when the last step already
    moves.  When each core point (one still on the deepest carrier) then
    keeps a constant child side, the true limit continues that side
    geometrically, and the exact limit is returned; for builder output the
    stationary step recurs by determinism, which is what licenses the
    extrapolation.  Otherwise the second entry is None.
    """
    depth = family.depth
    space = family.f.domain
    carriers = [family.carrier(n) for n in range(depth + 1)]
    tables = [[0] * space.n] + [
        block_numerators(space.n, enumerate(level.blocks))
        for level in family.levels[1:]]

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
    if stab_depth is None:
        return None, None
    exact_vals = list(assemble_limit(family).phi.values)
    for x in bits(carriers[depth]):
        sides = {tables[n + 1][x] - 2 * tables[n][x]
                 for n in range(stab_depth, depth)}
        if len(sides) > 1:
            return stab_depth, None
        exact_vals[x] = Fraction(tables[depth][x] + sides.pop(), 1 << depth)
    return stab_depth, RationalFunction(space, tuple(exact_vals), space.full)
