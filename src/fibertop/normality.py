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

Closures and hulls are unions over points, so every quantifier over pairs
of (relatively) closed sets reduces to one over pairs of points of the
preimage P of a minimal neighborhood (see ``_separation_ok``).  The
deciders answer on those point tables and run the literal scan over closed
sets only once a failure is known, so each counterexample is the first one
in the literal order.  The hereditary deciders try no carrier: the least
failing carrier is the least failing pair or triple of points of some P,
or the least failing point closure (see ``_least_failing_pair``,
``_least_failing_triple`` and ``_least_failing_closure``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotFound, NotOpen, SearchFailed, points_text
from .oscillation import RationalFunction, is_f_equicontinuous_at
from .partitions import (
    ConsistentBinaryFamily,
    Level,
    _links,
    block_numerators,
    stepwise_violation,
    validate_consistent_family,
)
from .spaces import FiberedMap, FiniteSpace, bits

# ------------------------------------------------------------ pointwise forms


def _separation_ok(space: FiniteSpace, pre: int, sigma: bool,
                   relative: bool) -> bool:
    """Pointwise (sigma-)(pre)normality over the preimage P of a minimal
    neighborhood.

    The smallest closed sets through x and z are cl{x} and cl{z} (cut to P
    when closures are relative), so a failing closed pair exists iff a
    failing pair of points does.  For x in P, the z whose closure meets
    cl{x} (inside P when relative) form ``allowed``; the literal test fails
    iff some z in P outside ``allowed`` is reached from x: through a
    meeting minimal neighborhood, z in cl(U_x & P) (plain), or through the
    closed sandwich of cl{x} & P, z in cl(hull(cl{x} & P) & P) (sigma).

    On each P the sigma and plain tests give the same verdict, which is
    the finite-space theorem that the sigma classes equal the plain ones.
    Each decider still checks its own quantifier, so the harness's
    normal-versus-sigma-normal comparison compares two different tests.
    """
    closure, hull = space.closure, space.hull
    nbhd, cl = space._min_nbhd, space._cl_point
    for x in bits(pre):
        near = hull(cl[x] & pre) & pre
        reach = closure(near if sigma else nbhd[x] & pre)
        allowed = near if relative else hull(cl[x])
        if reach & pre & ~allowed:
            return False
    return True


def _least_failing_pair(space: FiniteSpace, pre: int) -> int:
    """The least mask {x, z} inside the preimage P of a minimal
    neighborhood with z in U_x ^ cl{x}, or 0 when there is none.

    A region Q passes the perfect test (every minimal-neighborhood
    component K of Q lies inside U_x for each x in K) iff U_x and cl{x}
    have the same trace on Q for every x in Q.  If they do, "z in U_x" is
    an equivalence on Q (z in U_x & Q = cl{x} & Q puts x in U_z), and its
    classes U_x & Q are the components, each inside U_x.  Conversely, if
    the component K of x lies inside U_z for every z in K, then U_x & Q
    and cl{x} & Q (z in cl{x} iff x in U_z) are both K.  So Q fails iff it
    holds some x, z with z in U_x ^ cl{x}; z is not x, which lies in both.
    The relation is symmetric, since z in U_x ^ cl{x} iff x in
    cl{z} ^ U_z, so the least such pair is the least {x, z} over x in P
    with z the least point of P & (U_x ^ cl{x})."""
    nbhd, cl = space._min_nbhd, space._cl_point
    return min((1 << x | odd & -odd for x in bits(pre)
                if (odd := pre & (nbhd[x] ^ cl[x]))), default=0)


def _first_failing_y(f: FiberedMap, sigma: bool, relative: bool) -> int | None:
    """The first codomain point y with ``not _separation_ok(domain,
    f^{-1}(U_y), sigma, relative)``, or None.  The verdict depends only on
    the domain and its key, so it is memoised per domain space."""
    memoised = f.domain.memoised
    for y, pre in enumerate(f._nbhd_pre):
        if not memoised(_separation_ok, pre, sigma, relative):
            return y
    return None

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
    for y, pre in enumerate(f._nbhd_pre):
        nbhd = f.codomain.min_nbhd(y)
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
    """Every pair of disjoint closed subsets of the domain is f-separated.

    Decided pointwise; on failure the literal pair scan finds the first
    failing pair and its first failing y.
    """
    # plain, global closures
    if _first_failing_y(f, False, False) is None:
        return PrenormalReport(True, None)
    closed = f.domain.rel_closed_sets(f.domain.full)
    for i, a in enumerate(closed):
        for b in closed[i + 1:]:
            if a & b:
                continue
            rep = are_f_separated(f, a, b)
            if not rep.holds:
                return PrenormalReport(False, (a, b, rep.failure_y))
    raise AssertionError("pointwise and literal prenormality disagree")


@dataclass(frozen=True)
class NormalReport:
    holds: bool
    counterexample: tuple[int, int, int, int] | None  # (O, A, B, y)


def is_normal(f: FiberedMap) -> NormalReport:
    """Prenormality of every restriction over an open of the codomain.

    Collapsed form: traces of relatively closed sets over any open O are
    relatively closed over the minimal neighborhood of each y in O, so it
    suffices to separate disjoint relatively-closed pairs over f^{-1} of
    each minimal neighborhood.  The counterexample is reported in the
    literal (O, pair, y) shape with O the minimal neighborhood.

    Decided pointwise; the literal pair scan runs only at the first failing
    y, where it finds the first failing pair.
    """
    space = f.domain
    # plain, relative closures
    y = _first_failing_y(f, False, True)
    if y is None:
        return NormalReport(True, None)
    nbhd = f.codomain.min_nbhd(y)
    pre = f._nbhd_pre[y]
    rel_closed = space.rel_closed_sets(pre)
    hulls = [space.rel_hull(pre, a) for a in rel_closed]
    for i, a in enumerate(rel_closed):
        for j in range(i + 1, len(rel_closed)):
            b = rel_closed[j]
            if not a & b and hulls[i] & hulls[j]:
                return NormalReport(False, (nbhd, a, b, y))
    raise AssertionError("pointwise and literal normality disagree")


# ------------------------------------------------------------ sigma variants


@dataclass(frozen=True)
class SigmaReport:
    holds: bool
    counterexample: tuple | None


def _sigma_separated_at(space: FiniteSpace, pre: int, t: int, fm: int) -> bool:
    """Do the canonical pieces of T in P (its singleton closures) have
    neighborhoods V_l with closures off F?  The hull of a piece is its least
    neighborhood, so it is the only one tried."""
    for x in bits(t & pre):
        v = space.rel_hull(pre, space.rel_closure(pre, 1 << x))
        if space.rel_closure(pre, v) & fm:
            return False
    return True


def is_sigma_prenormal(f: FiberedMap) -> SigmaReport:
    """Separation of every F_sigma set from every disjoint closed set.

    F_sigma subsets of a finite space are exactly the closed ones; the
    quantifier runs over closed T with the canonical decomposition into
    singleton closures (any coarser decomposition is refined by it).
    Decided pointwise; on failure the literal scan finds the first pair.
    """
    space = f.domain
    # sigma, global closures
    if _first_failing_y(f, True, False) is None:
        return SigmaReport(True, None)
    closed = space.rel_closed_sets(space.full)
    for t in closed:
        for fm in closed:
            if t & fm:
                continue
            for y, pre in enumerate(f._nbhd_pre):
                if not _sigma_separated_at(space, pre, t, fm):
                    return SigmaReport(False, (t, fm, y))
    raise AssertionError("pointwise and literal sigma-prenormality disagree")


def is_sigma_normal(f: FiberedMap) -> SigmaReport:
    """Sigma-prenormality of every restriction, collapsed like is_normal,
    and decided like it: pointwise, with the literal scan only at the
    first failing y."""
    space = f.domain
    # sigma, relative closures
    y = _first_failing_y(f, True, True)
    if y is None:
        return SigmaReport(True, None)
    nbhd = f.codomain.min_nbhd(y)
    pre = f._nbhd_pre[y]
    rel_closed = space.rel_closed_sets(pre)
    for t in rel_closed:
        for fm in rel_closed:
            if t & fm:
                continue
            if not _sigma_separated_at(space, pre, t, fm):
                return SigmaReport(False, (nbhd, t, fm, y))
    raise AssertionError("pointwise and literal sigma-normality disagree")


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
            raise ValueError(f"piece {points_text(t)} is not relatively closed")
        union |= t
    if union & ~u:
        raise ValueError("the pieces must lie inside their neighborhood U")
    nbhd = f.codomain.min_nbhd(y)
    pre = f._nbhd_pre[y]
    v_list = []
    for t in t_list:
        v = space.rel_hull(pre, t & pre)
        if space.rel_closure(pre, v) & ~(u & pre):
            raise NotFound(f"piece {points_text(t)} admits no closed sandwich")
        v_list.append(v)
    return nbhd, tuple(v_list)


# ------------------------------------------------------- partition builders


class LevelIndex(NamedTuple):
    """A flat-chain family as integers, with its two verdicts.

    Level 0 is the whole domain over the whole codomain; every level n >= 1
    lives over ``nbhd`` on ``carrier`` = f^{-1}(nbhd), and the level-n block
    of a carrier point x is ``index[x] >> (depth - n)``, the numerator of
    its step value over 2^n - 1.  ``stepwise_ok`` and ``condition_c_ok``
    are the family's stepwise bounds and condition (C) for the F and T it
    was built for (see ``stepwise_violation`` and ``_condition_c_ok``).
    """

    nbhd: int
    carrier: int
    depth: int
    index: tuple[int, ...]   # deepest-level block per point, 0 off the carrier
    stepwise_ok: bool
    condition_c_ok: bool

    def level(self, n: int) -> list[int]:
        """The level-n block of every point, n >= 1."""
        shift = self.depth - n
        return [k >> shift for k in self.index]

    def blocks(self, n: int) -> tuple[int, ...]:
        """The 2^n blocks of level n >= 1 as masks."""
        out = [0] * (1 << n)
        level = self.level(n)
        for x in bits(self.carrier):
            out[level[x]] |= 1 << x
        return tuple(out)


def build_binary_partitions(f: FiberedMap, f_side: int, t_side: int, y: int,
                            depth: int, within: int | None = None
                            ) -> ConsistentBinaryFamily:
    """The inductive family construction for disjoint closed F and T at y.

    F and T must be relatively closed in the preimage of ``within`` (the
    whole codomain when omitted), with y a point of ``within``.  All
    neighborhood choices collapse to the minimal neighborhood of y, so the
    chain is flat from level 1 on.  Each level refines the previous blocks
    through one canonical sandwich per block; failure of any sandwich
    raises SearchFailed, impossible on a normal map.
    """
    f.check_point(y)
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
    built = build_levels(f, f_side, t_side, y, depth)
    levels = [Level(cod.full, (space.full,))]
    levels.extend(Level(built.nbhd, built.blocks(n))
                  for n in range(1, depth + 1))
    family = validate_consistent_family(
        ConsistentBinaryFamily(f, y, tuple(levels)))
    check_lemma_conditions(family, f_side, t_side)
    return family


def build_levels(f: FiberedMap, f_side: int, t_side: int, y: int,
                 depth: int) -> LevelIndex:
    """Raw level construction shared by the builder and the census sweep.

    Raises SearchFailed.  No validation of the inputs beyond what the
    sandwiches themselves detect.  The family and its verdicts depend only
    on the domain and on (carrier, F and T inside it, depth), so they are
    memoised per domain space on that key, failures included; the
    neighborhood and the carrier come from each call, and every failing
    call raises a fresh SearchFailed.
    """
    nbhd = f.codomain.min_nbhd(y)
    carrier = f._nbhd_pre[y]
    facts, failed = f.domain.memoised(_level_walk, carrier, f_side & carrier,
                                      t_side & carrier, depth)
    if failed is not None:
        raise SearchFailed(*failed)
    return LevelIndex(nbhd, carrier, depth, *facts)


def _level_walk(space: FiniteSpace, carrier: int, ft: int, tt: int,
                depth: int):
    """One canonical sandwich per block per level: ((index, stepwise bounds,
    condition C), None), or (None, (level, step)) at the first sandwich
    that fails."""
    closure, hull = space.closure, space.hull
    blocks = (space.full,)
    for n in range(depth):
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
                return None, (n + 1, f"sandwich {k}")
            block = blocks[k] & carrier
            children.append(block & ~v)
            children.append(block & v)
            prefix |= blocks[k]
        blocks = tuple(children)
    index = block_numerators(space.n, blocks)
    tables = [[k >> (depth - n) for k in index] for n in range(depth + 1)]
    carriers = [space.full] + [carrier] * depth
    return (tuple(index), stepwise_violation(space, carriers, tables) is None,
            _condition_c_ok(space, carrier, ft, tt, index, depth)), None


def _condition_c_ok(space: FiniteSpace, carrier: int, ft: int, tt: int,
                    idx, depth: int) -> bool:
    """Condition (C) for the truncated limit of a flat-chain family on the
    open carrier W, whose deepest (level ``depth``) block of x is idx[x],
    for F and T traces ft and tt: the limit equals the deepest step
    function on W and vanishes elsewhere, so the checks reduce to integer
    comparisons on idx."""
    top = (1 << depth) - 1
    worst = max((abs(idx[x] - idx[z]) for x, z in _links(space, carrier)),
                default=0)
    if not 2 * worst < top:
        return False
    zero = one = upper = 0
    for x in bits(carrier):
        k = idx[x]
        if k == 0:
            zero |= 1 << x
        if k == top:
            one |= 1 << x
        if 2 * k >= top:
            upper |= 1 << x
    if ft & ~zero or tt & ~one:
        return False
    if ft & space.rel_closure(carrier, upper):
        return False
    if tt & ~space.rel_interior(carrier, upper):
        return False
    return True


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
    f.check_point(y)
    families = []
    for l, t_piece in enumerate(t_list):
        try:
            families.append(build_binary_partitions(f, f_side, t_piece, y,
                                                    depth, within=within))
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


def _components(f: FiberedMap) -> list[tuple[int, ...]]:
    return [f.domain.nbhd_classes(pre) for pre in f._nbhd_pre]


def is_perfectly_normal(f: FiberedMap) -> PerfectNormalityReport:
    """Every open set is locally the union of the 1-sets of an equicontinuous
    family vanishing off it.

    Finite collapse: such a family exists at y iff the open set meets the
    minimal-neighborhood components of f^{-1}(min_nbhd(y)) only in whole
    components; every open does so iff each component lies inside U_x for
    all of its points x, which ``_least_failing_pair`` decides pointwise.
    On failure the literal scan over (open, y) reports the first straddled
    component; ``perfect_witnesses`` gives the witnesses.
    """
    if _least_failing_carrier(f, _least_failing_pair).holds:
        return PerfectNormalityReport(True, None)
    classes = _components(f)
    for open_mask in f.domain.opens:
        for y, comps in enumerate(classes):
            for comp in comps:
                if comp & open_mask and comp & ~open_mask:
                    return PerfectNormalityReport(False, (open_mask, y, comp))
    raise AssertionError("pointwise and literal perfect normality disagree")


def perfect_witnesses(f: FiberedMap):
    """The component-indicator families, one per (open, y) in the order of
    ``space.opens`` and then of the codomain, each re-verified by the
    independent predicate before it is yielded; stops at the first (open,
    y) whose open straddles a component, where no family exists."""
    space, cod = f.domain, f.codomain
    classes = _components(f)
    for open_mask in space.opens:
        for y, comps in enumerate(classes):
            members = []
            for comp in comps:
                if comp & open_mask:
                    if comp & ~open_mask:
                        return
                    members.append(comp)
            family = tuple(RationalFunction.indicator(space, comp)
                           for comp in members
                           ) or (RationalFunction.constant(space, 0),)
            w = PerfectWitness(open_mask, y, cod.min_nbhd(y), family)
            if not verify_perfect_witness(f, w):
                raise AssertionError("perfect witness failed re-verification")
            yield w


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
    for y, region in enumerate(f._nbhd_pre):
        nbhd = f.codomain.min_nbhd(y)
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


def _f_sigma_failure(f: FiberedMap, carrier: int) -> int | None:
    """The first y at which the submapping on carrier is not locally
    F_sigma, or None: the first y where the closure of some point of
    carrier & P, relative to P = f^{-1}(U_y), leaves the carrier.

    This is the library's one locally-F_sigma test, for the co-perfect
    deciders; on a continuous map it passes exactly on the closed carriers
    (Lemma 1 of ``is_sigma_normal_on_f_sigma_submaps``), which is why that
    decider never calls it.
    ``test_f_sigma_failure_matches_submapping_report`` (in
    tests/test_pointwise_deciders.py) holds it to the witness-giving
    ``is_f_sigma_submapping`` of tests/subspace_reference.py and to
    Lemma 1."""
    closure = f.domain.closure
    for y, pre in enumerate(f._nbhd_pre):
        if closure(carrier & pre) & pre & ~carrier:
            return y
    return None


def _open_submaps_f_sigma(f: FiberedMap):
    """The least open u whose submapping is not F_sigma, with its first
    failing y, or None; only the minimal neighbourhoods are scanned.

    An open u fails at y iff some x in u & P has cl{x} & P outside u,
    P = f^{-1}(U_y).  Then U_x, inside u, fails at the same y, and its
    mask is at most u's, so the least failing open is some U_x
    (``test_deciders_match_literal_scans_on_census6`` checks this against
    the scan over every open)."""
    for u in sorted(set(f.domain._min_nbhd)):
        y = _f_sigma_failure(f, u)
        if y is not None:
            return (u, y)
    return None


def is_co_perfectly_normal(f: FiberedMap) -> CoPerfectReport:
    """Normality plus: every open submapping is F_sigma.

    On every finite map this is perfect normality.  Let P = f^{-1}(U_y).
    Every open submapping is F_sigma at y iff cl{x} & P lies inside U_x
    for each x in P (``_open_submaps_f_sigma``).  Then, for z in U_x & P,
    x is in cl{z} & P, which lies inside U_z, so z is in cl{x}: U_x and
    cl{x} have the same trace on P, which is the perfect test of
    ``_least_failing_pair``.  The converse is immediate.  Those traces are
    then the classes of an equivalence on P, each open and closed in P.
    So every set closed in P is a union of classes and so is its hull in
    P: disjoint closed sets have disjoint hulls, and P passes the normal
    test.  The normality conjunct therefore adds nothing, and the same
    holds for ``is_co_sigma_perfectly_normal``, sigma-normality being
    normality (``_separation_ok``).  tests/test_acceptance.py compares
    the classes on census 6.
    """
    base = is_normal(f)
    if not base.holds:
        return CoPerfectReport(False, False, base.counterexample)
    bad = _open_submaps_f_sigma(f)
    return CoPerfectReport(bad is None, True, bad)


def is_co_sigma_perfectly_normal(f: FiberedMap) -> CoPerfectReport:
    """Sigma-normality plus: every open submapping is F_sigma; perfect
    normality again (see ``is_co_perfectly_normal``)."""
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


def _least_failing_triple(space: FiniteSpace, pre: int) -> int:
    """The least mask {x, z, w} inside the preimage P of a minimal
    neighborhood with z not in U_x, x not in U_z and w in U_x & U_z, or 0
    when there is none (see ``is_hereditarily_normal``).  The conditions
    are symmetric in x and z, so each pair is taken once, with the least
    w."""
    nbhd, cl = space._min_nbhd, space._cl_point
    # z > x with neither in the other's closure, and the least w
    return min((1 << x | 1 << z | ws & -ws for x in bits(pre)
                for z in bits(pre & ~(nbhd[x] | cl[x] | (2 << x) - 1))
                if (ws := pre & nbhd[x] & nbhd[z])), default=0)


def _least_failing_carrier(f: FiberedMap, walk) -> HereditaryReport:
    """The least carrier whose submapping fails at some y, where ``walk``
    gives the least carrier whose submapping fails at P = f^{-1}(U_y) (0
    for none); memoised per domain space on P."""
    memoised = f.domain.memoised
    least = min((m for pre in f._nbhd_pre if (m := memoised(walk, pre))),
                default=None)
    return HereditaryReport(least is None, least)


def _least_failing_closure(space: FiniteSpace, pre: int) -> int:
    """The least point closure cl{v}, v in the preimage P of a minimal
    neighborhood, whose trace cl{v} & P fails ``_separation_ok``'s relative
    sigma test, or 0 when there is none, which is when P itself passes (see
    ``is_sigma_normal_on_f_sigma_submaps``).  P's own verdict is the entry
    ``is_sigma_normal`` stores."""
    if space.memoised(_separation_ok, pre, True, True):
        return 0
    cl = space._cl_point
    return min(cl[v] for v in bits(pre)
               if not _separation_ok(space, cl[v] & pre, True, True))


def is_hereditarily_normal(f: FiberedMap) -> HereditaryReport:
    """Normality of the submapping on every carrier.

    By ``_separation_ok``'s relative plain test, the submapping on a
    carrier C fails at y iff some x, z, w in P & C, P = f^{-1}(U_y), have
    w in U_x & U_z (so z is in cl(U_x & P & C)) and cl{x} & cl{z} & P & C
    empty (so no point of cl{x} & P & C has z in its minimal
    neighborhood).  Then w is neither x nor z: w = x puts z in cl{x}, and
    w = z puts x in cl{z}.  The carrier {x, z, w}, inside C, fails at the
    same y, since its trace of cl{x} & cl{z} lies in the empty one.  A
    triple with w in U_x & U_z fails on its own mask iff z is not in U_x
    and x is not in U_z: those say that x is not in cl{z} and z is not in
    cl{x}, and w is not in cl{x} either, since x in U_w, inside U_z, would
    put x in U_z.  A subset's mask is never larger, so the offending carrier is
    the least triple of ``_least_failing_triple`` over every P.  No
    closure under enlarging the carrier is needed (and none holds: a
    larger carrier can meet cl{x} & cl{z})."""
    return _least_failing_carrier(f, _least_failing_triple)


def is_hereditarily_perfectly_normal(f: FiberedMap) -> HereditaryReport:
    """Perfect normality of the submapping on every carrier.

    By ``_least_failing_pair``, the submapping on C fails at y iff some
    x, z in P & C have z in U_x ^ cl{x}; then the pair {x, z}, inside C,
    fails at the same y.  So failure is closed under enlarging the carrier,
    the offending carrier is the least pair of ``_least_failing_pair`` over
    every P, and with C the whole domain, hereditarily perfectly normal is
    perfectly normal for every finite map."""
    return _least_failing_carrier(f, _least_failing_pair)


def is_sigma_normal_on_f_sigma_submaps(f: FiberedMap) -> HereditaryReport:
    """Sigma-normality of the submapping on every carrier that makes it an
    F_sigma submapping.

    Lemma 1: the F_sigma carriers are the closed sets.  A closed C has
    cl(C & P) & P inside C for every P = f^{-1}(U_y), which is
    ``_f_sigma_failure``'s test.  Conversely, let C pass that test, s be in
    C and t in cl{s}.  By continuity f(t) is in cl{f(s)}, so s and t both
    lie in P = f^{-1}(U_f(t)), and t, in cl(C & P) & P, is in C.  So C
    holds cl{s} for each of its points s.

    Lemma 2: the least failing closed carrier is a point closure.  Let C be
    closed and Q = C & P; then cl{q} & Q = cl{q} & P for every q in Q.  By
    ``_separation_ok``'s relative sigma test, Q fails iff some x, v, z in Q
    and u in cl{x} & cl{v} & Q have z in cl{v} and cl{x} & cl{z} & Q
    empty.  Then (u, v, z) fails on cl{v} & P: that set lies inside Q, as
    cl{v} lies inside C, and cl{u} lies inside cl{x}.  A failure on
    cl{v} & P is also one on P, since cl{u} lies inside cl{v}.  The closed
    carrier cl{v} is inside C, so its mask is at most C's, and the offending
    carrier is the least one of ``_least_failing_closure`` over every P.
    With C the whole domain, P fails iff some cl{v} & P does, so ``holds``
    equals ``is_sigma_normal(f).holds``: the paper's theorem that
    sigma-normality passes to every F_sigma submapping, for finite maps."""
    return _least_failing_carrier(f, _least_failing_closure)
