"""Reference oracles for the partition families.

- ``build_levels_reference``: the 2^n-block level walk, with every level
  kept as its tuple of block masks, one sandwich per block, and nothing
  memoised.  It is the independent oracle of the walk in
  ``fibertop.normality._level_walk``, which runs only the sandwiches of
  the non-empty blocks.  The
  differential tests require that walk's integer index, memoised or run
  afresh, to expand to these blocks, its two verdicts to match those read
  off these blocks, and a failure to come at the same level and step.
- ``collapsed_walk``: the closed form of the walk (the collapse lemma of
  ``_level_walk``).  For depth >= 2 it succeeds iff K = hull(T & W) & W
  is closed in W and misses F, and then its index is 2^depth - 1 on
  K = sat(W, T) and 0 elsewhere; at depth 1 it succeeds iff cl(K) misses
  F, with index 1 on K.
- ``level_blocks``: a level's table expanded to its 2^n block masks, the
  shape of ``build_levels_reference``; ``partition_table`` is its inverse
  on any carrier, and ``decode_family`` reads printed family text back
  into ``Level`` tables.
- ``stepwise_function``: one level's step function k/(2^n - 1) as
  ``Fraction`` values, with its oscillation bound checked on its own.
- ``interiors_cover_check``: the covering statement of a regular
  k-partition given as block masks, k >= 3, which the tests confirm
  exhaustively.
- ``limit_extrapolation``: the exact limit of a family whose level data
  goes stationary, beyond the truncation ``assemble_limit`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from fibertop.errors import (CheckFailed, DepthExceeded, NotCovering,
                             PartitionError, SearchFailed, points_text)
from fibertop.oscillation import RationalFunction
from fibertop.partitions import (
    ConsistentBinaryFamily,
    Level,
    _links,
    assemble_limit,
)
from fibertop.spaces import FiberedMap, FiniteSpace, bits


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


def collapsed_walk(space: FiniteSpace, w: int, f_side: int, t_side: int,
                   depth: int) -> tuple[int, ...] | None:
    """The index of ``_level_walk(space, w, F & w, T & w, depth)`` by the
    collapse lemma, depth >= 1, or None where the walk fails.  For
    depth >= 2 the verdict reads K from the hull, and the index reads it
    from the components of W, which the lemma proves equal on success."""
    k = space.hull(t_side & w) & w
    if depth == 1:
        if space.closure(k) & f_side & w:
            return None
        core, top = k, 1
    else:
        if space.closure(k) & w != k or k & f_side:
            return None
        core, top = space.saturation(w, t_side), (1 << depth) - 1
    return tuple(top if core >> x & 1 else 0 for x in range(space.n))


def level_blocks(table, n: int) -> tuple[int, ...]:
    """The 2^n block masks of a level-n table (None off the carrier)."""
    blocks = [0] * (1 << n)
    for x, k in enumerate(table):
        if k is not None:
            blocks[k] |= 1 << x
    return tuple(blocks)


def partition_table(n_points: int, carrier: int, blocks) -> tuple:
    """The table of blocks that partition the carrier: each point's block
    index, None off the carrier.  NotCovering names the first block that
    leaves the carrier, PartitionError the first that meets an earlier
    block, then NotCovering a carrier the blocks do not cover."""
    table = [None] * n_points
    union = 0
    for k, b in enumerate(blocks):
        if b & ~carrier:
            raise NotCovering(f"block {points_text(b)} leaves the carrier "
                              f"{points_text(carrier)}")
        if b & union:
            raise PartitionError(
                f"block {points_text(b)} overlaps an earlier block")
        union |= b
        for x in bits(b):
            table[x] = k
    if union != carrier:
        raise NotCovering(f"blocks cover {points_text(union)}, carrier is "
                          f"{points_text(carrier)}")
    return tuple(table)


def decode_family(text: str, n_points: int) -> tuple[Level, ...]:
    """The levels of family text as ``serialize_family`` prints it, one
    (O:, blocks:) pair of lines per level: each point's block index, None
    in no block."""
    def mask(points: str) -> int:
        points = points.strip()
        return 0 if points == "-" else sum(1 << int(p) for p in points.split())

    lines = text.splitlines()
    levels = []
    for nbhd, row in zip(lines[::2], lines[1::2]):
        assert nbhd.startswith("O: ") and row.startswith("blocks: "), text
        blocks = [mask(part) for part in row[len("blocks: "):].split("|")]
        table = partition_table(n_points, reduce(or_, blocks), blocks)
        levels.append(Level(mask(nbhd[len("O: "):]), table))
    assert len(lines) == 2 * len(levels), text
    return tuple(levels)


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
    idx = [k or 0 for k in family.levels[n].table]
    if any(abs(idx[x] - idx[z]) > 1
           for x, z in _links(space, family.carrier(n))):
        raise CheckFailed(f"stepwise oscillation bound at level {n}")
    denom = (1 << n) - 1
    return RationalFunction.total(space, [Fraction(k, denom) for k in idx])


def interiors_cover_check(space: FiniteSpace, carrier: int, blocks) -> bool:
    """Do the relative interiors of adjacent block pairs cover the carrier?

    Always true for a valid regular k-partition with k >= 3.
    """
    k = len(blocks)
    if k < 3:
        raise ValueError("covering statement needs k >= 3")
    cover = 0
    for m in range(k - 1):
        cover |= space.rel_interior(carrier, blocks[m] | blocks[m + 1])
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
    tables = [level.table for level in family.levels]

    def step_stationary(n: int) -> bool:
        if family.levels[n + 1].nbhd != family.levels[n].nbhd:
            return False
        nxt = level_blocks(tables[n + 1], n + 1)
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
