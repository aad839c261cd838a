"""The classical space-level classes that ``harness.classify`` compares
with the fiberwise deciders on constant maps: normality of a space, and
Vedenisov's perfect normality (normal, with every open set F_sigma).

Everything here is phrased directly on one finite space, with no reference
to the fiberwise code paths, so agreement between the two routes is a real
consistency check rather than a tautology.
"""

from __future__ import annotations

from .spaces import FiniteSpace, bits


def space_normal(space: FiniteSpace) -> bool:
    """Disjoint closed sets admit disjoint open supersets."""
    closed = tuple(sorted(space.full ^ o for o in space.opens))
    for i, a in enumerate(closed):
        ha = space.hull(a)
        for b in closed[i + 1:]:
            if a & b:
                continue
            if ha & space.hull(b):
                return False
    return True


def every_open_f_sigma(space: FiniteSpace) -> bool:
    for o in space.opens:
        for x in bits(o):
            if space.closure_point(x) & ~o:
                return False
    return True


def vedenisov_perfectly_normal(space: FiniteSpace) -> bool:
    """The classical perfect-normality condition: normal and every open set
    a countable union of closed sets."""
    return space_normal(space) and every_open_f_sigma(space)
