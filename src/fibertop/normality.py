"""Deciders for the normality classes of a map and the partition builders.

Everything is decided exactly.  Two finite-space facts do the heavy
lifting and are property-tested against brute force elsewhere:

* the smallest subspace-open set containing S is the union of the minimal
  neighborhoods of its points (the hull), so a sandwich
  ``S inside V inside cl V inside W`` exists iff the hull of S works;
* a neighborhood witness that works for some open around y keeps working
  after shrinking, so the minimal neighborhood decides every
  "there is a neighborhood of y" quantifier.

A function has zero oscillation over an open region iff it is constant on
each minimal-neighborhood component of the region, which turns every
"there is an f-continuous function such that ..." question into a union-
of-components check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFound, NotOpen, SearchFailed
from .oscillation import RationalFunction, is_f_equicontinuous_at
from .partitions import (
    ConsistentBinaryFamily,
    Level,
    validate_consistent_family,
)
from .spaces import FiberedMap, FiniteSpace, Submapping, bits, is_f_sigma_submapping

# --------------------------------------------------------------- f-separation


@dataclass(frozen=True)
class SeparationCertificate:
    y: int
    nbhd: int          # open neighborhood of y in the codomain
    u: int             # subspace-open around the A trace
    v: int             # subspace-open around the B trace
    a_trace: int
    b_trace: int

    def valid_for(self, f: FiberedMap, a: int, b: int) -> bool:
        space = f.domain
        pre = f.preimage(self.nbhd)
        if not f.codomain.is_open(self.nbhd) or not self.nbhd >> self.y & 1:
            return False
        if self.a_trace != a & pre or self.b_trace != b & pre:
            return False
        if self.u & self.v:
            return False
        if self.a_trace & ~self.u or self.b_trace & ~self.v:
            return False
        return (space.rel_is_open(pre, self.u)
                and space.rel_is_open(pre, self.v))


@dataclass(frozen=True)
class SeparationReport:
    holds: bool
    certificates: tuple[SeparationCertificate, ...]
    failure_y: int | None


def are_f_separated(f: FiberedMap, a: int, b: int) -> SeparationReport:
    """Can every codomain point localize A and B into disjoint opens?

    The minimal neighborhood of y is checked first; by monotonicity of the
    witnesses under shrinking it is also the only one that needs checking,
    and the two hulls are the canonical disjoint opens when any exist.
    """
    certs = []
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        pre = f.preimage(nbhd)
        at, bt = a & pre, b & pre
        u = f.domain.rel_hull(pre, at)
        v = f.domain.rel_hull(pre, bt)
        if u & v:
            return SeparationReport(False, tuple(certs), y)
        certs.append(SeparationCertificate(y, nbhd, u, v, at, bt))
    return SeparationReport(True, tuple(certs), None)


@dataclass(frozen=True)
class PrenormalReport:
    holds: bool
    counterexample: tuple[int, int, int] | None  # (A, B, failing y)


def is_prenormal(f: FiberedMap) -> PrenormalReport:
    """Every pair of disjoint closed subsets of the domain is f-separated."""
    closed = f.domain.rel_closed_sets(f.domain.full)
    for i, a in enumerate(closed):
        for b in closed[i + 1:]:
            if a & b:
                continue
            rep = are_f_separated(f, a, b)
            if not rep.holds:
                return PrenormalReport(False, (a, b, rep.failure_y))
    return PrenormalReport(True, None)


@dataclass(frozen=True)
class NormalReport:
    holds: bool
    counterexample: tuple[int, int, int, int] | None  # (O, A, B, y)


def is_normal(f: FiberedMap, carrier: int | None = None) -> NormalReport:
    """Prenormality of every restriction over an open of the codomain.

    Collapsed form: traces of relatively closed sets over any open O are
    relatively closed over the minimal neighborhood of each y in O, so it
    suffices to separate disjoint relatively-closed pairs over f^{-1} of
    each minimal neighborhood.  The counterexample is reported in the
    literal (O, pair, y) shape with O the minimal neighborhood.

    With a carrier mask the submapping on it is decided instead: every
    preimage is cut down to the carrier, and closures and hulls relative to
    the cut-down preimage are those of the carrier subspace.
    """
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
                    return NormalReport(False, (nbhd, a, b, y))
    return NormalReport(True, None)


# ------------------------------------------------------------ sigma variants


@dataclass(frozen=True)
class SigmaSeparationCertificate:
    y: int
    nbhd: int
    pieces: tuple[int, ...]       # the T_l traces
    v_list: tuple[int, ...]       # subspace-opens, one per piece


@dataclass(frozen=True)
class SigmaReport:
    holds: bool
    counterexample: tuple | None


def _sigma_separated_at(space: FiniteSpace, pre: int, t: int, fm: int):
    """Neighborhoods V_l of the canonical pieces of T with closures off F."""
    pieces = []
    v_list = []
    for x in bits(t & pre):
        piece = space.rel_closure(pre, 1 << x)
        v = space.rel_hull(pre, piece)
        if space.rel_closure(pre, v) & fm:
            return None
        pieces.append(piece)
        v_list.append(v)
    return tuple(pieces), tuple(v_list)


def sigma_separation_certificates(f: FiberedMap, t_mask: int, f_mask: int
                                  ) -> tuple[SigmaSeparationCertificate, ...] | None:
    """Per-point witnesses that the F_sigma set T separates from F, or None.

    Uses the canonical decomposition of T into singleton closures; the
    union of the V closures misses F inside each minimal preimage.
    """
    certs = []
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        pre = f.preimage(nbhd)
        hit = _sigma_separated_at(f.domain, pre, t_mask, f_mask)
        if hit is None:
            return None
        pieces, v_list = hit
        certs.append(SigmaSeparationCertificate(y, nbhd, pieces, v_list))
    return tuple(certs)


def is_sigma_prenormal(f: FiberedMap) -> SigmaReport:
    """Separation of every F_sigma set from every disjoint closed set.

    F_sigma subsets of a finite space are exactly the closed ones; the
    quantifier runs over closed T with the canonical decomposition into
    singleton closures (any coarser decomposition is refined by it).
    """
    space = f.domain
    closed = space.rel_closed_sets(space.full)
    for t in closed:
        for fm in closed:
            if t & fm:
                continue
            for y in range(f.codomain.n):
                nbhd = f.codomain.min_nbhd(y)
                pre = f.preimage(nbhd)
                if _sigma_separated_at(space, pre, t, fm) is None:
                    return SigmaReport(False, (t, fm, y))
    return SigmaReport(True, None)


def is_sigma_normal(f: FiberedMap, carrier: int | None = None) -> SigmaReport:
    """Sigma-prenormality of every restriction, collapsed like is_normal
    (and relative to a carrier mask in the same way)."""
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
                if _sigma_separated_at(space, pre, t, fm) is None:
                    return SigmaReport(False, (nbhd, t, fm, y))
    return SigmaReport(True, None)


def small_urysohn_search(f: FiberedMap, open_mask: int, t_list, u: int,
                         y: int) -> tuple[int, tuple[int, ...]]:
    """Sandwich neighborhoods T_l inside V_l inside cl V_l inside U.

    Works over the preimage of the minimal neighborhood of y inside O;
    raises NotFound when no neighborhood choice can work, which refutes
    sigma-normality through this instance.
    """
    space = f.domain
    if not f.codomain.is_open(open_mask) or not open_mask >> y & 1:
        raise NotOpen(open_mask)
    base = f.preimage(open_mask)
    if not space.rel_is_open(base, u):
        raise NotOpen(u)
    union = 0
    for t in t_list:
        if not space.rel_is_closed(base, t):
            raise ValueError(f"piece {t:#x} is not relatively closed")
        union |= t
    if union & ~u:
        raise ValueError("the pieces must lie inside their neighborhood U")
    nbhd = f.codomain.min_nbhd(y)
    pre = f.preimage(nbhd)
    v_list = []
    for t in t_list:
        v = space.rel_hull(pre, t & pre)
        if space.rel_closure(pre, v) & ~(u & pre):
            raise NotFound(f"piece {t:#x} admits no closed sandwich")
        v_list.append(v)
    return nbhd, tuple(v_list)


# ------------------------------------------------------- partition builders


def build_binary_partitions(f: FiberedMap, f_side: int, t_side: int, y: int,
                            depth: int, within: int | None = None,
                            component: int | None = None
                            ) -> ConsistentBinaryFamily:
    """The inductive family construction for disjoint closed F and T at y.

    F and T must be relatively closed in the preimage of ``within`` (the
    whole codomain when omitted), with y a point of ``within``.  All
    neighborhood choices collapse to the minimal neighborhood of y, so the
    chain is flat from level 1 on.  Each level refines the previous blocks
    through one canonical sandwich per block; failure of any sandwich
    raises SearchFailed, impossible on a normal map.
    """
    space, cod = f.domain, f.codomain
    if within is None:
        within = cod.full
    if not cod.is_open(within) or not within >> y & 1:
        raise NotOpen(within)
    base = f.preimage(within)
    if f_side & t_side:
        raise ValueError("F and T must be disjoint")
    if not space.rel_is_closed(base, f_side) or not space.rel_is_closed(base, t_side):
        raise ValueError("F and T must be relatively closed over the context open")
    levels = [Level(nbhd, tuple(blocks))
              for nbhd, blocks in build_levels(f, f_side, t_side, y, depth,
                                               component)]
    family = validate_consistent_family(
        ConsistentBinaryFamily(f, y, tuple(levels)))
    check_lemma_conditions(family, f_side, t_side)
    return family


def build_levels(f: FiberedMap, f_side: int, t_side: int, y: int, depth: int,
                 component: int | None = None):
    """Raw level construction shared by the builder and the census sweep.

    Returns [(nbhd, blocks), ...]; raises SearchFailed.  No validation of
    the inputs beyond what the sandwiches themselves detect.
    """
    space, cod = f.domain, f.codomain
    cl_point = space._cl_point
    min_nbhd = space._min_nbhd
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
            m = blocks[k] & carrier
            while m:
                low = m & -m
                suffix_cl |= cl_point[low.bit_length() - 1]
                m ^= low
            suffix_cl &= carrier
        lowers[k_count - 1] |= tt
        prefix = 0
        children = []
        for k in range(k_count):
            lower = lowers[k]
            avoid = ft if k == 0 else prefix & carrier
            v = 0
            m = lower
            while m:
                low = m & -m
                v |= min_nbhd[low.bit_length() - 1]
                m ^= low
            v &= carrier
            cl_v = 0
            m = v
            while m:
                low = m & -m
                cl_v |= cl_point[low.bit_length() - 1]
                m ^= low
            if cl_v & avoid:
                raise SearchFailed(n + 1, f"sandwich {k}", component)
            block = blocks[k] & carrier
            children.append(block & ~v)
            children.append(block & v)
            prefix |= blocks[k]
        levels.append((nbhd, tuple(children)))
    return levels


def check_lemma_conditions(family: ConsistentBinaryFamily, f_side: int,
                           t_side: int) -> None:
    """Conditions (a) and (b) on every positive level; SearchFailed-grade bug
    if violated on builder output."""
    space = family.f.domain
    for n in range(1, family.depth + 1):
        carrier = family.carrier(n)
        blocks = family.levels[n].blocks
        if f_side & carrier & ~blocks[0]:
            raise SearchFailed(n, "condition (a), F side")
        if t_side & carrier & ~blocks[-1]:
            raise SearchFailed(n, "condition (a), T side")
        rest = 0
        for b in blocks[1:]:
            rest |= b
        if f_side & space.rel_closure(carrier, rest):
            raise SearchFailed(n, "condition (b), F side")
        head = 0
        for b in blocks[:-1]:
            head |= b
        if space.rel_closure(carrier, head) & t_side:
            raise SearchFailed(n, "condition (b), T side")


def build_binary_partitions_sigma(f: FiberedMap, f_side: int, t_list, y: int,
                                  depth: int, within: int | None = None
                                  ) -> tuple[ConsistentBinaryFamily, ...]:
    """One family per F_sigma piece, sharing the neighborhood chain.

    With the flat minimal chain the shared-neighborhood intersection is
    trivial, so each component runs the plain construction against its own
    piece; the common chain is asserted afterwards.
    """
    families = []
    for l, t_piece in enumerate(t_list):
        try:
            families.append(
                build_binary_partitions(f, f_side, t_piece, y, depth,
                                        within=within, component=l))
        except SearchFailed as exc:
            raise SearchFailed(exc.level, exc.step, l) from exc
    for fam in families[1:]:
        for n in range(depth + 1):
            if fam.levels[n].nbhd != families[0].levels[n].nbhd:
                raise SearchFailed(n, "shared chain broken")
    return tuple(families)


# --------------------------------------------------- perfect normality family


@dataclass(frozen=True)
class PerfectWitness:
    open_mask: int
    y: int
    nbhd: int
    family: tuple[RationalFunction, ...]


@dataclass(frozen=True)
class PerfectNormalityReport:
    holds: bool
    witnesses: tuple[PerfectWitness, ...]
    counterexample: tuple[int, int, int] | None  # (O, y, offending component)


def verify_perfect_witness(f: FiberedMap, w: PerfectWitness) -> bool:
    """Independent re-check of conditions (1), (2) and equicontinuity, over
    the common carrier of the family (the domain of the submapping the
    witness was produced for)."""
    pre = f.preimage(w.nbhd)
    for phi in w.family:
        pre &= phi.carrier
    if not f.codomain.is_open(w.nbhd) or not w.nbhd >> w.y & 1:
        return False
    ones = 0
    for phi in w.family:
        ones |= phi.preimage(lambda v: v == 1) & pre
        if (pre & ~w.open_mask) & ~phi.preimage(lambda v: v == 0):
            return False
    if ones != w.open_mask & pre:
        return False
    ok, _ = is_f_equicontinuous_at(f, w.family, w.y)
    return ok


def is_perfectly_normal(f: FiberedMap, with_witnesses: bool = True,
                        carrier: int | None = None) -> PerfectNormalityReport:
    """Every open set is locally the union of the 1-sets of an equicontinuous
    family vanishing off it.

    Finite collapse: such a family exists at y iff the open set meets the
    minimal-neighborhood components of f^{-1}(min_nbhd(y)) only in whole
    components; the witnesses are the component indicators, re-verified by
    the independent predicate before being reported.  With a carrier mask
    the submapping on it is decided: the components are those of the
    preimage cut down to the carrier, and the indicators live on the carrier.
    """
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
                        return PerfectNormalityReport(False, tuple(witnesses),
                                                      (open_mask, y, comp))
                    members.append(comp)
            if with_witnesses:
                family = tuple(
                    RationalFunction.on_carrier(space, carrier,
                                                lambda x, c=comp: c >> x & 1)
                    for comp in members
                ) or (RationalFunction.constant(space, 0, carrier),)
                w = PerfectWitness(open_mask, y, cod.min_nbhd(y), family)
                if not verify_perfect_witness(f, w):
                    raise AssertionError("perfect witness failed re-verification")
                witnesses.append(w)
    return PerfectNormalityReport(True, tuple(witnesses), None)


# ------------------------------------------------ functionally open / closed


@dataclass(frozen=True)
class FunctionalWitness:
    y: int
    nbhd: int
    phi: RationalFunction


@dataclass(frozen=True)
class FunctionalReport:
    holds: bool
    witnesses: tuple[FunctionalWitness, ...]
    counterexample: tuple[int, int] | None  # (y, offending component)


def is_f_functionally_open(f: FiberedMap, u: int) -> FunctionalReport:
    """Is U locally cut out as phi^{-1}((0,1]) by f-continuous functions?"""
    space = f.domain
    witnesses = []
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        region = f.preimage(nbhd)
        for comp in space.nbhd_classes(region):
            if comp & u and comp & ~u:
                return FunctionalReport(False, tuple(witnesses), (y, comp))
        phi = RationalFunction.indicator(space, u & region)
        witnesses.append(FunctionalWitness(y, nbhd, phi))
    return FunctionalReport(True, tuple(witnesses), None)


def is_f_functionally_closed(f: FiberedMap, closed_mask: int) -> FunctionalReport:
    """Dual of the open case via the complement, with the same witnesses."""
    space = f.domain
    rep = is_f_functionally_open(f, space.full ^ closed_mask)
    if not rep.holds:
        return rep
    for w in rep.witnesses:
        region = f.preimage(w.nbhd)
        zero = w.phi.preimage(lambda v: v == 0) & region
        if zero != closed_mask & region:
            raise AssertionError("functional duality broke")
    return rep


# ------------------------------------------------------- co-perfect variants


@dataclass(frozen=True)
class CoPerfectReport:
    holds: bool
    normality_ok: bool
    counterexample: tuple | None  # normality ce or (open carrier, y)


def _open_submaps_f_sigma(f: FiberedMap):
    for u in f.domain.opens:
        rep = is_f_sigma_submapping(Submapping(f, u))
        if not rep.holds:
            return (u, rep.failure_y)
    return None


def is_co_perfectly_normal(f: FiberedMap) -> CoPerfectReport:
    base = is_normal(f)
    if not base.holds:
        return CoPerfectReport(False, False, base.counterexample)
    bad = _open_submaps_f_sigma(f)
    return CoPerfectReport(bad is None, True, bad)


def is_co_sigma_perfectly_normal(f: FiberedMap) -> CoPerfectReport:
    base = is_sigma_normal(f)
    if not base.holds:
        return CoPerfectReport(False, False, base.counterexample)
    bad = _open_submaps_f_sigma(f)
    return CoPerfectReport(bad is None, True, bad)


# ---------------------------------------------------------------- hereditary


@dataclass(frozen=True)
class HereditaryReport:
    holds: bool
    offending_carrier: int | None


def _first_failing_carrier(f: FiberedMap, decide) -> HereditaryReport:
    for carrier in range(f.domain.full + 1):
        if not decide(carrier):
            return HereditaryReport(False, carrier)
    return HereditaryReport(True, None)


def is_hereditarily_normal(f: FiberedMap) -> HereditaryReport:
    """Normality of the submapping on every carrier."""
    return _first_failing_carrier(f, lambda c: is_normal(f, c).holds)


def is_hereditarily_perfectly_normal(f: FiberedMap) -> HereditaryReport:
    """Perfect normality of the submapping on every carrier."""
    return _first_failing_carrier(
        f, lambda c: is_perfectly_normal(f, False, c).holds)


def is_sigma_normal_on_f_sigma_submaps(f: FiberedMap) -> HereditaryReport:
    """Sigma-normality of the submapping on every carrier that makes it an
    F_sigma submapping."""
    return _first_failing_carrier(
        f, lambda c: (not is_f_sigma_submapping(Submapping(f, c)).holds
                      or is_sigma_normal(f, c).holds))
