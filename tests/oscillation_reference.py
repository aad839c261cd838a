"""Reference oracle for the oscillation of a rational function.

``fibertop.oscillation.osc_at_point`` reads only the minimal open
neighbourhood of x.  The oracle here takes the definition literally, the
infimum over every open around x of the supremum of |phi(x) - phi(z)|, so
the tests can hold the shortcut to it.
"""

from __future__ import annotations

from fractions import Fraction

from fibertop.oscillation import RationalFunction
from fibertop.spaces import bits


def osc_at_point_exhaustive(phi: RationalFunction, x: int) -> Fraction:
    """Definitional oscillation: inf over all neighborhoods of the sup."""
    vx = phi.value(x)
    best = None
    for o in phi.space.opens:
        if not (o >> x & 1):
            continue
        sup = Fraction(0)
        for z in bits(o & phi.carrier):
            d = abs(vx - phi.values[z])
            if d > sup:
                sup = d
        if best is None or sup < best:
            best = sup
    if best is None:
        raise ValueError(f"no neighborhood contains {x}")
    return best
