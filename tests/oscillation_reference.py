"""Reference oracles for the oscillation of a rational function.

``fibertop.oscillation.osc_at_point`` reads only the minimal open
neighbourhood of x.  The oracle here takes the definition literally, the
infimum over every open around x of the supremum of |phi(x) - phi(z)|, so
the tests can hold the shortcut to it.

The module also keeps the oscillation lemmas that only the tests use: the
triangle bound for a linear combination, the disjointness of separated
sublevel sets, and affine post-composition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from fibertop.errors import CheckFailed, FibertopError
from fibertop.oscillation import RationalFunction, osc_on_set
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


def affine(phi: RationalFunction, slope, shift) -> RationalFunction:
    """slope * phi + shift, on phi's carrier."""
    a, b = Fraction(slope), Fraction(shift)
    vals = tuple(a * v + b if v is not None else None for v in phi.values)
    return RationalFunction(phi.space, vals, phi.carrier)


class LinearBoundReport(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool


def osc_linear_bound_check(alpha, phi: RationalFunction, beta,
                           psi: RationalFunction, mask: int) -> LinearBoundReport:
    """osc of alpha*phi + beta*psi against the triangle-type bound."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if phi.space is not psi.space and phi.space != psi.space:
        raise ValueError("functions live on different spaces")
    carrier = phi.carrier & psi.carrier
    combo = RationalFunction.on_carrier(
        phi.space, carrier, lambda x: alpha * phi.values[x] + beta * psi.values[x])
    lhs = osc_on_set(combo, mask & carrier)
    rhs = abs(alpha) * osc_on_set(phi.restrict(carrier), mask & carrier) \
        + abs(beta) * osc_on_set(psi.restrict(carrier), mask & carrier)
    return LinearBoundReport(lhs, rhs, lhs <= rhs)


class PreconditionGap(FibertopError):
    """b - a does not exceed the oscillation, so the sublevel lemma is void."""

    def __init__(self, gap, osc):
        self.gap = gap
        self.osc = osc
        super().__init__(f"b - a = {gap} is not greater than oscillation {osc}")


class SublevelReport(NamedTuple):
    low: int
    high: int
    low_misses_cl_high: bool
    cl_low_misses_high: bool


def sublevel_disjointness(phi: RationalFunction, a, b) -> SublevelReport:
    """Disjointness of {phi <= a} from the closure of {phi >= b} and dually.

    Requires b - a to exceed the oscillation over the whole carrier; the two
    disjointness facts then always hold and are asserted.
    """
    a, b = Fraction(a), Fraction(b)
    osc = osc_on_set(phi, phi.carrier)
    if not b - a > osc:
        raise PreconditionGap(b - a, osc)
    space, carrier = phi.space, phi.carrier
    low = phi.preimage(lambda v: v <= a)
    high = phi.preimage(lambda v: v >= b)
    r1 = not low & space.rel_closure(carrier, high)
    r2 = not space.rel_closure(carrier, low) & high
    if not (r1 and r2):
        raise CheckFailed("sublevel disjointness")
    return SublevelReport(low, high, r1, r2)
