"""Space-level oracles used to cross-check the fiberwise machinery on
constant maps: classical normality, separator and extension existence, and
the open-sets-are-F-sigma form of perfect normality.

Everything here is phrased directly on one finite space, with no reference
to the fiberwise code paths, so agreement between the two routes is a real
consistency check rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction

from .oscillation import RationalFunction
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


def urysohn_function(space: FiniteSpace, f_side: int, t_side: int
                     ) -> RationalFunction | None:
    """A continuous [0,1] function, 0 on F and 1 on T, when one exists.

    A continuous function on a finite space is constant on each
    minimal-neighborhood component, so existence is a component check.
    """
    out = space.saturation(space.full, t_side)
    if out & f_side:
        return None
    return RationalFunction.indicator(space, out)


def tietze_function(space: FiniteSpace, phit: RationalFunction
                    ) -> RationalFunction | None:
    """Exact continuous extension of a continuous function on a closed set."""
    values = [Fraction(0)] * space.n
    for comp in space.nbhd_classes(space.full):
        val = None
        for x in bits(comp & phit.carrier):
            if val is None:
                val = phit.values[x]
            elif phit.values[x] != val:
                return None
        if val is not None:
            for x in bits(comp):
                values[x] = val
    return RationalFunction(space, tuple(values), space.full)


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
