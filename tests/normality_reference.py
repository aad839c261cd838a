"""Reference oracles for the normality deciders.

The literal quantifier scans over pairs of (relatively) closed sets decide
nothing pointwise and share nothing with ``fibertop.normality`` beyond the
space primitives and the report and witness containers.  They take an
optional carrier mask, which decides the submapping on it, and the literal
hereditary deciders try every carrier in mask order.

The pointwise carrier loops (``pointwise_hereditarily_normal``,
``pointwise_hereditarily_perfectly_normal`` and
``pointwise_sigma_normal_on_f_sigma_submaps``) try every carrier in mask
order, each decided by the pointwise test on the preimages cut down to it
(``normality._separation_ok``, and ``components_indiscrete`` here), the
last one only on the carriers that pass ``normality._f_sigma_failure``.
They are as exact as the literal scans and fast enough for census 6 and
the 12-point cap, where the scans are not.

They are kept only for the differential tests, which require every public
decider to give the same verdict and the same counterexample as these
oracles, and ``perfect_witnesses`` to yield the same witnesses in the same
order.  The perfect and the F_sigma carrier scans have no decider to
match: they check the two inheritance theorems that ``harness.classify``
relies on, whose verdicts are those of ``is_perfectly_normal`` and
``is_sigma_normal``.
"""

from __future__ import annotations

from fibertop.normality import (
    PerfectWitness,
    Report,
    _f_sigma_failure,
    _separation_ok,
)
from fibertop.oscillation import RationalFunction
from fibertop.spaces import FiberedMap, bits
from subspace_reference import Submapping, is_f_sigma_submapping


def separated_at(f: FiberedMap, a: int, b: int) -> int | None:
    """The first y whose minimal preimage has meeting hulls of the A and B
    traces, or None when A and B are f-separated."""
    for y in range(f.codomain.n):
        pre = f.preimage(f.codomain.min_nbhd(y))
        if f.domain.rel_hull(pre, a & pre) & f.domain.rel_hull(pre, b & pre):
            return y
    return None


def is_prenormal(f: FiberedMap) -> Report:
    closed = f.domain.rel_closed_sets(f.domain.full)
    for i, a in enumerate(closed):
        for b in closed[i + 1:]:
            if a & b:
                continue
            y = separated_at(f, a, b)
            if y is not None:
                return Report(False, (a, b, y))
    return Report(True, None)


def is_normal(f: FiberedMap, carrier: int | None = None) -> Report:
    space = f.domain
    if carrier is None:
        carrier = space.full
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        pre = f.preimage(nbhd) & carrier
        rel_closed = space.rel_closed_sets(pre)
        hulls = [space.rel_hull(pre, a) for a in rel_closed]
        for i, a in enumerate(rel_closed):
            for j in range(i + 1, len(rel_closed)):
                b = rel_closed[j]
                if not a & b and hulls[i] & hulls[j]:
                    return Report(False, (nbhd, a, b, y))
    return Report(True, None)


def sigma_separated(space, pre: int, t: int, fm: int) -> bool:
    """Every canonical piece cl{x} of T has a relatively open neighborhood
    whose relative closure misses F."""
    for x in bits(t & pre):
        v = space.rel_hull(pre, space.rel_closure(pre, 1 << x))
        if space.rel_closure(pre, v) & fm:
            return False
    return True


def is_sigma_prenormal(f: FiberedMap) -> Report:
    space = f.domain
    closed = space.rel_closed_sets(space.full)
    for t in closed:
        for fm in closed:
            if t & fm:
                continue
            for y in range(f.codomain.n):
                pre = f.preimage(f.codomain.min_nbhd(y))
                if not sigma_separated(space, pre, t, fm):
                    return Report(False, (t, fm, y))
    return Report(True, None)


def is_sigma_normal(f: FiberedMap, carrier: int | None = None) -> Report:
    space = f.domain
    if carrier is None:
        carrier = space.full
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        pre = f.preimage(nbhd) & carrier
        rel_closed = space.rel_closed_sets(pre)
        for t in rel_closed:
            for fm in rel_closed:
                if t & fm:
                    continue
                if not sigma_separated(space, pre, t, fm):
                    return Report(False, (nbhd, t, fm, y))
    return Report(True, None)


def perfect_scan(f: FiberedMap, carrier: int | None = None
                 ) -> tuple[Report, tuple[PerfectWitness, ...]]:
    """The verdict and the witnesses gathered before it, over every open
    and every y in order."""
    space, cod = f.domain, f.codomain
    if carrier is None:
        carrier = space.full
    classes = [space.nbhd_classes(f.preimage(cod.min_nbhd(y)) & carrier)
               for y in range(cod.n)]
    witnesses = []
    for open_mask in space.opens:
        for y, comps in enumerate(classes):
            members = []
            for comp in comps:
                if comp & open_mask:
                    if comp & ~open_mask:
                        return (Report(False, (open_mask, y, comp)),
                                tuple(witnesses))
                    members.append(comp)
            family = tuple(
                RationalFunction.on_carrier(space, carrier,
                                            lambda x, c=comp: c >> x & 1)
                for comp in members
            ) or (RationalFunction.on_carrier(space, carrier, lambda x: 0),)
            witnesses.append(PerfectWitness(open_mask, y, cod.min_nbhd(y), family))
    return Report(True, None), tuple(witnesses)


def is_perfectly_normal(f: FiberedMap, carrier: int | None = None) -> Report:
    return perfect_scan(f, carrier)[0]


def _open_submaps_f_sigma(f: FiberedMap):
    for u in f.domain.opens:
        rep = is_f_sigma_submapping(Submapping(f, u))
        if not rep.holds:
            return (u, rep.failure_y)
    return None


def is_co_perfectly_normal(f: FiberedMap) -> Report:
    base = is_normal(f)
    if not base.holds:
        return base
    bad = _open_submaps_f_sigma(f)
    return Report(bad is None, bad)


def is_co_sigma_perfectly_normal(f: FiberedMap) -> Report:
    base = is_sigma_normal(f)
    if not base.holds:
        return base
    bad = _open_submaps_f_sigma(f)
    return Report(bad is None, bad)


def _first_failing_carrier(f: FiberedMap, decide) -> Report:
    for carrier in range(f.domain.full + 1):
        if not decide(carrier):
            return Report(False, (carrier,))
    return Report(True, None)


def is_hereditarily_normal(f: FiberedMap) -> Report:
    return _first_failing_carrier(f, lambda c: is_normal(f, c).holds)


def is_hereditarily_perfectly_normal(f: FiberedMap) -> Report:
    return _first_failing_carrier(f, lambda c: is_perfectly_normal(f, c).holds)


def is_sigma_normal_on_f_sigma_submaps(f: FiberedMap) -> Report:
    return _first_failing_carrier(
        f, lambda c: (not is_f_sigma_submapping(Submapping(f, c)).holds
                      or is_sigma_normal(f, c).holds))


def components_indiscrete(space, region: int) -> bool:
    """Does every minimal-neighborhood component K of region lie inside U_x
    for each of its points x?  Equivalently, U_x and cl{x} have the same
    trace on region for every x in it (then that trace is x's component)."""
    nbhd, cl = space._min_nbhd, space._cl_point
    for x in bits(region):
        if (nbhd[x] ^ cl[x]) & region:
            return False
    return True


def pointwise_hereditarily_normal(f: FiberedMap) -> Report:
    return _first_failing_carrier(
        f, lambda c: all(_separation_ok(f.domain, pre & c, False, True)
                         for pre in f._nbhd_pre))


def pointwise_hereditarily_perfectly_normal(f: FiberedMap) -> Report:
    return _first_failing_carrier(
        f, lambda c: all(components_indiscrete(f.domain, pre & c)
                         for pre in f._nbhd_pre))


def pointwise_sigma_normal_on_f_sigma_submaps(f: FiberedMap) -> Report:
    return _first_failing_carrier(
        f, lambda c: (_f_sigma_failure(f, c) is not None
                      or all(_separation_ok(f.domain, pre & c, True, True)
                             for pre in f._nbhd_pre)))
