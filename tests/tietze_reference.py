"""Reference oracle for ``tietze_extend``: the same iteration in plain
``Fraction`` arithmetic, one indicator ``RationalFunction`` per step.

It is kept only for the differential tests, which require the integer
iteration in ``fibertop.urysohn_tietze`` to reproduce every public field
of its ``ExtensionResult`` and every exception it raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from fibertop.errors import (
    CheckFailed,
    MaxIterReached,
    NotOpen,
    PreconditionNotFContinuous,
    SearchFailed,
)
from fibertop.oscillation import RationalFunction, is_f_continuous_at, norm
from fibertop.spaces import FiberedMap, bits
from fibertop.urysohn_tietze import _sup_difference
from oscillation_reference import affine


class ReferenceExtension(NamedTuple):
    """The public fields of ``ExtensionResult``, as ``Fraction`` values."""

    phi: RationalFunction
    agreement_set: int
    norm_ok: bool
    residuals: tuple[Fraction, ...]
    iterations: int
    residual_bound: Fraction
    psis: tuple[RationalFunction, ...]


def exact_separator_reference(f: FiberedMap, p_side: int, q_side: int,
                              y: int) -> RationalFunction | None:
    """The {0, 1} function that is 1 exactly on the minimal-neighborhood
    components of P = f^{-1}(U_y) meeting Q, or None when a component
    meets both traces."""
    comps = f.domain.nbhd_classes(f.preimage(f.codomain.min_nbhd(y)))
    if any(c & p_side and c & q_side for c in comps):
        return None
    return RationalFunction.indicator(f.domain,
                                      sum(c for c in comps if c & q_side))


def tietze_extend_reference(f: FiberedMap, f_carrier: int,
                            phit: RationalFunction, y: int,
                            max_iter: int | None = None,
                            tolerance: Fraction = Fraction(1, 1024),
                            within: int | None = None) -> ReferenceExtension:
    space, cod = f.domain, f.codomain
    if within is None:
        within = cod.full
    if not cod.is_open(within) or not within >> y & 1:
        raise NotOpen(within)
    if phit.carrier != f_carrier:
        raise ValueError("phit must be given exactly on the carrier")
    if not space.rel_is_closed(f.preimage(within), f_carrier):
        raise ValueError("the carrier must be relatively closed over the context open")
    res = is_f_continuous_at(f, phit, y)
    if not res.holds:
        raise PreconditionNotFContinuous(
            f"osc {res.osc} over the carrier trace of the minimal neighborhood")
    zero = RationalFunction.constant(space, 0)
    mu0 = norm(phit)
    nbhd = cod.min_nbhd(y)
    pre = f.preimage(nbhd)
    carrier = f_carrier & pre
    if carrier == 0 or mu0 == 0:
        agree = _agreement(phit, zero, carrier)
        return ReferenceExtension(zero, agree, True, (mu0,), 0,
                                  _sup_difference(phit, zero, carrier), ())

    third = Fraction(1, 3)
    cur = phit.restrict(carrier) if carrier != f_carrier else phit
    residuals = [mu0]
    psis = []
    mu = mu0
    total = [Fraction(0)] * space.n
    n = 0
    while True:
        mu = norm(cur) if n else mu0
        if n:
            residuals.append(mu)
        if mu == 0:
            break
        geometric = mu0 * Fraction(2, 3) ** n
        if geometric <= tolerance:
            break
        if max_iter is not None and n >= max_iter:
            raise MaxIterReached(mu)
        thresh = mu * third
        p_side = space.rel_closure(pre, cur.preimage(lambda v: v <= -thresh))
        q_side = space.rel_closure(pre, cur.preimage(lambda v: v >= thresh))
        if p_side & q_side:
            raise CheckFailed("level closures overlap despite the osc bound")
        xi = exact_separator_reference(f, p_side, q_side, y)
        if xi is None:
            raise SearchFailed(n, "exact separator")
        psi = affine(xi, 2 * thresh, -thresh)
        if norm(psi) > thresh:
            raise CheckFailed("psi norm above mu/3")
        psis.append(psi)
        for x in range(space.n):
            total[x] += psi.values[x]
        nxt_vals = tuple(cur.values[x] - psi.values[x] if carrier >> x & 1 else None
                         for x in range(space.n))
        nxt = RationalFunction(space, nxt_vals, carrier)
        if norm(nxt) > Fraction(2, 3) * mu:
            raise CheckFailed("residual contraction failed")
        cur = nxt
        n += 1
    phi = RationalFunction(space, tuple(total), space.full)
    norm_ok = norm(phi) <= mu0
    if not norm_ok:
        raise CheckFailed("norm of the extension above the boundary norm")
    agree = _agreement(phit, phi, carrier)
    if mu == 0 and (carrier & ~agree):
        raise CheckFailed("zero residual without exact agreement")
    sup = _sup_difference(phit, phi, carrier)
    if sup > mu:
        raise CheckFailed("reported residual below the actual difference")
    return ReferenceExtension(phi, agree, norm_ok, tuple(residuals), n, mu,
                              tuple(psis))


def _agreement(a: RationalFunction, b: RationalFunction, mask: int) -> int:
    out = 0
    for x in bits(mask & a.carrier & b.carrier):
        if a.values[x] == b.values[x]:
            out |= 1 << x
    return out

