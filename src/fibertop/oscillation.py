"""Norms, oscillation, and continuity of rational functions along a map.

Functions are exact-rational tables over a space (or over a carrier subset,
in which case all neighborhoods are taken relative to the carrier
subspace).  On a finite space the infimum in the definition of oscillation
is attained at the minimal open neighborhood, which makes every epsilon
quantifier exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .errors import CheckFailed, MemberNotFContinuous
from .spaces import FiberedMap, FiniteSpace, bits

ZERO = Fraction(0)
ONE = Fraction(1)


class _RationalTable(NamedTuple):
    space: FiniteSpace
    values: tuple
    carrier: int


class RationalFunction(_RationalTable):
    """Point -> exact rational table, total on its carrier.

    ``__new__`` checks the table.  The NamedTuple ``_make``, which
    ``_replace`` calls, would skip that check, so ``_make`` goes through
    ``__new__`` here and every way of building one is checked.  The
    instance keeps a ``__dict__`` only for the cached ``integer_form``.
    """

    def __new__(cls, space: FiniteSpace, values: tuple, carrier: int):
        if carrier & ~space.full:
            raise ValueError("carrier outside the space")
        if len(values) != space.n:
            raise ValueError("values table must cover all points")
        for x in range(space.n):
            on = bool(carrier >> x & 1)
            if on and not isinstance(values[x], Fraction):
                raise ValueError(f"missing rational value at point {x}")
            if not on and values[x] is not None:
                raise ValueError(f"value outside carrier at point {x}")
        return super().__new__(cls, space, values, carrier)

    @classmethod
    def _make(cls, iterable) -> "RationalFunction":
        return cls(*iterable)

    @staticmethod
    def total(space: FiniteSpace, values) -> "RationalFunction":
        vals = tuple(Fraction(v) for v in values)
        return RationalFunction(space, vals, space.full)

    @staticmethod
    def constant(space: FiniteSpace, value) -> "RationalFunction":
        return RationalFunction.total(space, [value] * space.n)

    @staticmethod
    def indicator(space: FiniteSpace, mask: int) -> "RationalFunction":
        return RationalFunction.total(
            space, [1 if mask >> x & 1 else 0 for x in range(space.n)])

    @staticmethod
    def on_carrier(space: FiniteSpace, carrier: int,
                   assign: Callable[[int], object]) -> "RationalFunction":
        """``assign(x)`` at each x of the carrier, None off it.  A value
        that is already a ``Fraction`` is kept as it is, so callers can
        share constant values; any other is converted."""
        vals = [None] * space.n
        for x in bits(carrier & space.full):
            v = assign(x)
            vals[x] = v if isinstance(v, Fraction) else Fraction(v)
        return RationalFunction(space, tuple(vals), carrier)

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(scale, numerators): the value at x of the carrier is
        numerators[x] / scale, with scale the lcm of the values'
        denominators, and numerators[x] is 0 off the carrier.  Computed
        once per object, so that a memo keyed on it hashes no
        ``Fraction``."""
        values = self.values
        scale = lcm(*(v.denominator for v in values if v is not None))
        return scale, tuple(0 if v is None else v.numerator * scale // v.denominator
                            for v in values)

    def value(self, x: int) -> Fraction:
        v = self.values[x]
        if v is None:
            raise ValueError(f"point {x} outside carrier")
        return v

    def restrict(self, carrier: int) -> "RationalFunction":
        carrier &= self.carrier
        vals = tuple(self.values[x] if carrier >> x & 1 else None
                     for x in range(self.space.n))
        return RationalFunction(self.space, vals, carrier)

    def preimage(self, predicate: Callable[[Fraction], bool]) -> int:
        out = 0
        for x in bits(self.carrier):
            if predicate(self.values[x]):
                out |= 1 << x
        return out

    def agrees_with(self, other: "RationalFunction", mask: int) -> bool:
        mask &= self.carrier & other.carrier
        return all(self.values[x] == other.values[x] for x in bits(mask))


def norm(phi: RationalFunction) -> Fraction:
    """Max of absolute values; zero on an empty carrier."""
    best = ZERO
    for x in bits(phi.carrier):
        a = abs(phi.values[x])
        if a > best:
            best = a
    return best


def osc_at_point(phi: RationalFunction, x: int) -> Fraction:
    """Oscillation at x, neighborhoods relative to the carrier subspace."""
    nbhd = phi.space.min_nbhd(x) & phi.carrier
    vx = phi.value(x)
    best = ZERO
    for z in bits(nbhd):
        d = abs(vx - phi.values[z])
        if d > best:
            best = d
    return best


def osc_on_set(phi: RationalFunction, mask: int) -> Fraction:
    """Sup of pointwise oscillations over the set; zero on the empty set."""
    if mask & ~phi.carrier:
        raise ValueError("oscillation set must lie inside the carrier")
    best = ZERO
    for x in bits(mask):
        o = osc_at_point(phi, x)
        if o > best:
            best = o
    return best


class FContinuityResult(NamedTuple):
    holds: bool
    nbhd: int
    osc: Fraction


def is_f_continuous_at(f: FiberedMap, phi: RationalFunction, y: int) -> FContinuityResult:
    """Zero oscillation over the preimage of the minimal neighborhood of y.

    On finite spaces this is exactly the for-every-epsilon definition: the
    minimal neighborhood is contained in every other candidate, and the
    oscillation is monotone in the set.
    """
    nbhd = f.codomain.min_nbhd(y)
    region = f._nbhd_pre[y] & phi.carrier
    o = osc_on_set(phi, region)
    return FContinuityResult(o == 0, nbhd, o)


class EquicontinuityCertificate(NamedTuple):
    y: int
    nbhd: int
    bound: Fraction
    member_oscs: tuple


def is_f_equicontinuous_at(f: FiberedMap, family: Sequence[RationalFunction],
                           y: int) -> tuple[bool, EquicontinuityCertificate]:
    """One shared neighborhood with zero oscillation for every member."""
    nbhd = f.codomain.min_nbhd(y)
    pre = f._nbhd_pre[y]
    oscs = []
    for phi in family:
        region = pre & phi.carrier
        oscs.append(osc_on_set(phi, region))
    bound = max(oscs, default=ZERO)
    cert = EquicontinuityCertificate(y, nbhd, bound, tuple(oscs))
    return bound == 0, cert


class WeightedSumResult(NamedTuple):
    phi: RationalFunction
    nbhd: int


def weighted_sum(f: FiberedMap, family: Sequence[RationalFunction], weights,
                 y: int) -> WeightedSumResult:
    """Pointwise weighted sum of functions f-continuous at y.

    The result is asserted to be f-continuous at y again (finite families of
    zero-oscillation functions are closed under linear combination).
    """
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(family):
        raise ValueError("one weight per family member")
    for i, phi in enumerate(family):
        if not is_f_continuous_at(f, phi, y).holds:
            raise MemberNotFContinuous(i, y)
    space = f.domain
    carrier = space.full
    for phi in family:
        carrier &= phi.carrier
    total = [ZERO if carrier >> x & 1 else None for x in range(space.n)]
    for w, phi in zip(weights, family):
        for x in bits(carrier):
            total[x] += w * phi.values[x]
    out = RationalFunction(space, tuple(total), carrier)
    res = is_f_continuous_at(f, out, y)
    if not res.holds:
        raise CheckFailed("weighted sum lost f-continuity")
    return WeightedSumResult(out, res.nbhd)
