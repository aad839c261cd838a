"""Reference oracle for ``build_levels``: the full-block level walk, with
every level kept as its tuple of block masks and nothing memoised.

It is kept only for the differential tests, which require the memoised
integer index of ``fibertop.normality.build_levels`` to expand to these
blocks on every call, and to fail at the same level and step.
"""

from __future__ import annotations

from fibertop.errors import SearchFailed
from fibertop.spaces import FiberedMap


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
