"""Reference oracles for ``fibertop.urysohn_tietze``.

- ``tietze_extend_reference``: the same iteration as ``tietze_extend`` in
  plain ``Fraction`` arithmetic, one indicator ``RationalFunction`` per
  step.  The differential tests require the integer iteration to
  reproduce every public field of its ``ExtensionResult`` and every
  exception it raises.
- ``separation_from_extension``: the extension direction of the paper's
  proof, "extension implies separation", run on the exact extension of
  the two-valued boundary data; the tests check its certificates with
  ``SeparationCertificate.valid_for``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from fibertop.errors import (
    CheckFailed,
    NotOpen,
    PreconditionNotFContinuous,
    SearchFailed,
    points_text,
)
from fibertop.normality import SeparationCertificate
from fibertop.oscillation import (
    RationalFunction,
    is_f_continuous_at,
    norm,
    osc_on_set,
)
from fibertop.spaces import FiberedMap, bits
from fibertop.urysohn_tietze import (
    _sup_difference,
    boundary_function,
    exact_extension_exists,
    verify_condition_D,
)
from oscillation_reference import affine

QUARTER = Fraction(1, 4)


class ReferenceExtension(NamedTuple):
    """The public fields of ``ExtensionResult``, as ``Fraction`` values."""

    phi: RationalFunction
    agreement_set: int
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
        return ReferenceExtension(zero, agree, (mu0,), 0,
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
    if norm(phi) > mu0:
        raise CheckFailed("norm of the extension above the boundary norm")
    agree = _agreement(phit, phi, carrier)
    if mu == 0 and (carrier & ~agree):
        raise CheckFailed("zero residual without exact agreement")
    sup = _sup_difference(phit, phi, carrier)
    if sup > mu:
        raise CheckFailed("reported residual below the actual difference")
    return ReferenceExtension(phi, agree, tuple(residuals), n, mu,
                              tuple(psis))


def _agreement(a: RationalFunction, b: RationalFunction, mask: int) -> int:
    out = 0
    for x in bits(mask & a.carrier & b.carrier):
        if a.values[x] == b.values[x]:
            out |= 1 << x
    return out



def clamp(phi: RationalFunction, lo, hi) -> RationalFunction:
    """phi with each value cut to [lo, hi], on the same carrier."""
    lo, hi = Fraction(lo), Fraction(hi)
    vals = tuple(min(hi, max(lo, v)) if v is not None else None
                 for v in phi.values)
    return RationalFunction(phi.space, vals, phi.carrier)


def separation_from_extension(f: FiberedMap, f_side: int, t_side: int,
                              y: int) -> SeparationCertificate:
    """Run the extension direction of the proof to get a separation witness.

    The two-valued boundary function on F union T extends exactly; the
    quarter-level interiors of the extension then separate the traces over
    the minimal neighborhood.  Raises ValueError when no exact extension
    exists.
    """
    space = f.domain
    phit = boundary_function(space, f_side, t_side)
    ext = exact_extension_exists(f, phit, y)
    if not ext.exists:
        raise ValueError(f"no exact extension; component "
                         f"{points_text(ext.conflict)} meets both sides")
    phi = clamp(ext.phi, 0, 1)
    rep = verify_condition_D(f, phit.carrier, phit, phi, y)
    if not rep.all_ok:
        raise CheckFailed("exact extension failed the (D) contract")
    nbhd = f.codomain.min_nbhd(y)
    pre = f.preimage(nbhd)
    if osc_on_set(phi, pre) >= QUARTER:
        raise CheckFailed("oscillation bound for the separation step")
    low = space.rel_interior(pre, phi.preimage(lambda v: v <= QUARTER) & pre)
    high = space.rel_interior(pre, phi.preimage(lambda v: v >= 3 * QUARTER) & pre)
    cert = SeparationCertificate(y, nbhd, high, low, t_side & pre, f_side & pre)
    if not cert.valid_for(f, t_side, f_side):
        raise CheckFailed("separation certificate invalid")
    return cert
