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
sets (one ``_separation`` for the four separation classes) only once a
failure is known, so each counterexample is the first one in the literal
order.  Every class decider returns one ``Report``.  ``is_hereditarily_normal`` tries no carrier: the
least failing carrier is the least failing triple of points of some P (see
``_least_failing_triple``).  Perfect normality is hereditary and
sigma-normality passes to every F_sigma submapping on every finite map, so
neither has a decider here; ``harness.classify`` gives the proofs.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CheckFailed, FibertopError, NotOpen, SearchFailed
from .oscillation import RationalFunction, is_f_equicontinuous_at
from .partitions import (
    ConsistentBinaryFamily,
    Level,
    _links,
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
        if not memoised((_separation_ok, pre, sigma, relative)):
            return y
    return None

# --------------------------------------------------------------- f-separation


class SeparationCertificate(NamedTuple):
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


class SeparationReport(NamedTuple):
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


class Report(NamedTuple):
    """A decider's verdict and, when it fails, its counterexample, whose
    shape the decider's docstring states."""

    holds: bool
    counterexample: tuple | None


def _separation(f: FiberedMap, sigma: bool, relative: bool) -> Report:
    """The separation decider for the two flags: pointwise, and once a
    failing y is known, the literal scan for the first failing pair.

    Relative closures scan the pairs closed in P = f^{-1}(U_y) at that y
    only and report (U_y, A, B, y); global closures scan the closed pairs
    of the domain at every y and report (A, B, y).  Plain pairs are taken
    once, with A before B, and fail when their hulls in P meet; sigma
    pairs are taken in both orders, and fail when a piece of A has no
    neighborhood with closure off B (``_sigma_separated_at``).
    """
    y = _first_failing_y(f, sigma, relative)
    if y is None:
        return Report(True, None)
    space, pres = f.domain, f._nbhd_pre
    ys = [y] if relative else range(len(pres))
    closed = space.rel_closed_sets(pres[y] if relative else space.full)
    if not sigma:
        hulls = {y: [space.rel_hull(pres[y], a) for a in closed] for y in ys}
    for i, a in enumerate(closed):
        for j in range(0 if sigma else i + 1, len(closed)):
            b = closed[j]
            if a & b:
                continue
            for y in ys:
                if (not _sigma_separated_at(space, pres[y], a, b) if sigma
                        else hulls[y][i] & hulls[y][j]):
                    ce = (a, b, y)
                    return Report(False, (f.codomain.min_nbhd(y), *ce)
                                  if relative else ce)
    raise AssertionError("pointwise and literal separation disagree")


def is_prenormal(f: FiberedMap) -> Report:
    """Every pair of disjoint closed subsets of the domain is f-separated.

    Decided pointwise; on failure the literal pair scan finds the first
    failing pair and its first failing y.  Counterexample: (A, B, y), the
    disjoint closed A and B and the first y where they are not separated.
    """
    return _separation(f, sigma=False, relative=False)


def is_normal(f: FiberedMap) -> Report:
    """Prenormality of every restriction over an open of the codomain.

    Collapsed form: traces of relatively closed sets over any open O are
    relatively closed over the minimal neighborhood of each y in O, so it
    suffices to separate disjoint relatively-closed pairs over f^{-1} of
    each minimal neighborhood.  The counterexample is reported in the
    literal shape (O, A, B, y), with O the minimal neighborhood of y and A
    and B disjoint and closed in f^{-1}(O).

    Decided pointwise; the literal pair scan runs only at the first failing
    y, where it finds the first failing pair.
    """
    return _separation(f, sigma=False, relative=True)


# ------------------------------------------------------------ sigma variants


def _sigma_separated_at(space: FiniteSpace, pre: int, t: int, fm: int) -> bool:
    """Do the canonical pieces of T in P (its singleton closures) have
    neighborhoods V_l with closures off F?  The hull of a piece is its least
    neighborhood, so it is the only one tried."""
    for x in bits(t & pre):
        v = space.rel_hull(pre, space.rel_closure(pre, 1 << x))
        if space.rel_closure(pre, v) & fm:
            return False
    return True


def is_sigma_prenormal(f: FiberedMap) -> Report:
    """Separation of every F_sigma set from every disjoint closed set.

    F_sigma subsets of a finite space are exactly the closed ones; the
    quantifier runs over closed T with the canonical decomposition into
    singleton closures (any coarser decomposition is refined by it).
    Decided pointwise; on failure the literal scan finds the first pair.
    Counterexample: (T, F, y), the disjoint closed T and F and the first y
    where a piece of T has no neighborhood with closure off F.
    """
    return _separation(f, sigma=True, relative=False)


def is_sigma_normal(f: FiberedMap) -> Report:
    """Sigma-prenormality of every restriction, collapsed like is_normal,
    and decided like it: pointwise, with the literal scan only at the
    first failing y.  Counterexample: (O, T, F, y), with O the minimal
    neighborhood of y and T and F disjoint and closed in f^{-1}(O)."""
    return _separation(f, sigma=True, relative=True)


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

    def level(self, n: int) -> tuple:
        """The level-n table, n >= 1: the block of every carrier point,
        None off the carrier."""
        shift, carrier = self.depth - n, self.carrier
        return tuple(k >> shift if carrier >> x & 1 else None
                     for x, k in enumerate(self.index))


def build_binary_partitions(f: FiberedMap, f_side: int, t_side: int, y: int,
                            depth: int, within: int | None = None
                            ) -> ConsistentBinaryFamily:
    """The inductive family construction for disjoint closed F and T at y.

    F and T must be relatively closed in the preimage of ``within`` (the
    whole codomain when omitted), with y a point of ``within``.  All
    neighborhood choices collapse to the minimal neighborhood of y, so the
    chain is flat from level 1 on.  Each level refines the previous blocks
    through one canonical sandwich per block; failure of any sandwich
    raises SearchFailed, impossible on a normal map.  The family is then
    re-checked, and a failure of that check is the program's own:
    CheckFailed.
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
    levels = [Level(cod.full, (0,) * space.n)] + [
        Level(built.nbhd, built.level(n)) for n in range(1, depth + 1)]
    family = ConsistentBinaryFamily(f, y, tuple(levels))
    try:
        validate_consistent_family(family)
    except FibertopError as exc:
        raise CheckFailed(f"built family: {exc}") from exc
    check_lemma_conditions(family, f_side, t_side)
    return family


def build_levels(f: FiberedMap, f_side: int, t_side: int, y: int,
                 depth: int) -> LevelIndex:
    """Raw level construction shared by the builder and the census sweep.

    Raises SearchFailed.  No validation of the inputs beyond what the
    sandwiches themselves detect.  The family and its verdicts depend only
    on the domain and on (carrier, F and T inside it, depth), so they are
    memoised per domain space under ``(_level_walk, carrier, F & carrier,
    T & carrier, depth)``, failures included; the neighborhood and the
    carrier come from each call, and every failing call raises a fresh
    SearchFailed.
    """
    carrier = f._nbhd_pre[y]
    facts, failed = f.domain.memoised((_level_walk, carrier, f_side & carrier,
                                       t_side & carrier, depth))
    if failed is not None:
        raise SearchFailed(*failed)
    return LevelIndex(f.codomain._min_nbhd[y], carrier, depth, *facts)


def _level_walk(space: FiniteSpace, carrier: int, ft: int, tt: int,
                depth: int):
    """The canonical sandwiches of every level, run over its non-empty
    blocks only: ((index, stepwise bounds, condition C), None), or
    (None, (level, step)) at the first sandwich that fails.

    Level n has 2^n blocks B_k, which partition the carrier W.  Sandwich
    k takes lowers_k, the closure in W of the blocks after k (with T's
    trace added for k = 2^n - 1), and V_k = hull(lowers_k) & W.  It fails
    when cl(V_k) meets avoid_k: F's trace for k = 0, the blocks before k
    otherwise.  Else it splits B_k into its children 2k, off V_k, and
    2k + 1, on it.  The walk keeps only the non-empty blocks, as sorted
    (k, mask) pairs, and runs only their sandwiches: at most |W| a level
    for a non-empty W, instead of 2^n.  An empty block has empty
    children, and once every sandwich of the levels before n has passed,
    the sandwich of an empty block of level n passes too, so the index
    and a failure's (level, step) are those of the 2^n-block walk:

    - Each U_x & W lies in the blocks next to x's own.  Level 1 has two
      blocks.  Into level n + 1, take x in B_k and z in U_x.  If z is in
      B_(k+1), then x in cl{z} lies in lowers_k, so in V_k, and z is not
      in V_(k+1), or cl(V_(k+1)) would meet B_k: so x goes to 2k + 1 and
      z to 2k + 2.  If z is in B_(k-1), then z is in V_(k-1), which holds
      hull(B_k), and x is not in V_k, or z in U_x would be in V_k and
      cl(V_k) would meet B_(k-1): so x goes to 2k and z to 2k - 1.
    - F's trace stays in block 0, as V_0 misses it, and T's in the last
      block, as lowers holds it there.
    - So take an empty block j.  If j = 0, F's trace is empty.  If j is
      the last, T's trace is empty and so is lowers_j.  Otherwise, by the
      first point, a closure or a hull in W of blocks after j reaches at
      most one block lower, so not below j + 1, as B_j is empty.  Applied
      three times, lowers_j, V_j and cl(V_j) & W lie after j, and
      cl(V_j) misses the blocks before j.

    The stepwise bounds of the family are ``stepwise_violation(...) is
    None`` on the tables index >> (depth - n), and that reduces to the
    oscillation of the deepest level.  Into level n >= 2 a point of
    level-(n-1) block k sits in block 2k + c, c in {0, 1}, and with
    d = 2^(n-1) - 1 the increment |(2k + c)d - k(2d + 1)| = |cd - k| is at
    most d, since 0 <= k <= d; into level 1 it is the block, 0 or 1.  And
    |a - b| <= 1 gives |(a >> s) - (b >> s)| <= 1, so the oscillation
    bound of the deepest level gives every level's.  By the first point
    above it always holds; the walk still checks it.

    The chain lemma: at every level n >= 1 a non-empty block B_k with
    k >= 1 lies inside its own V_k, so its left child B_2k is empty and
    every index is 0 or 2^j - 1.  Take r = 2p + 1 at level n.  The blocks
    after r are the children of the blocks after p, so as a point set they
    are the blocks after p one level up, and r is the last block iff p is.
    So lowers_r = lowers_p and V_r = V_p, which holds B_r, the right child
    of B_p.  An even r = 2p >= 2 is the left child of B_p with p >= 1,
    empty by the lemma one level up.

    So the left child's test may read ``block & v`` too: the index and a
    failure stay the same.  For k >= 1 that only adds the empty block 2k,
    whose sandwich passes and which has no children, and so it does for
    k = 0 when B_0 lies in V_0.  It drops B_0 when B_0 misses V_0.  At
    level 0 that needs an empty T trace, and every index is 0 either way.
    At a level n >= 1, V_0 holds lowers_0, so the rest R of W, and misses
    B_0, so R = V_0 = cl(V_0) & W is open and closed in W.  Then B_0 stays
    whole at index 0, its sandwich passes at every later level, as R misses
    F's trace, and no lowers_k, V_k or cl(V_k) & W of a later block meets
    B_0.  The changed walk counts B_0 after k instead of before it, which
    adds B_0 to lowers_k, V_k and cl(V_k) & W and takes it out of avoid_k:
    every sandwich passes or fails, and splits B_k, as before.

    The collapse lemma: let K = hull(T & W) & W.  For depth >= 2 the walk
    succeeds iff K is closed in W and misses F; then K is
    ``saturation(W, T)``, and the index is 2^depth - 1 on K and 0 on
    W \\ K.  Level 0's sandwich has lowers = T's trace and V = K, and fails
    iff cl(K) meets F's trace; level 1 is B_0 = W \\ K, B_1 = K.  At level
    1 the last sandwich (k = 1) again has lowers = T's trace and V = K,
    and fails iff cl(K) meets B_0, that is, iff K is not closed in W.  If
    K is closed in W, sandwich 0 has lowers = cl(K) & W = K and V = K, so
    it fails iff K meets F, which is level 0's condition, and it moves no
    point of B_0.  So level 2 is B_0 = W \\ K, B_3 = K, and every later
    level repeats that step with the last block in place of 3.  K is then
    open and closed in W, so a union of components, and holds T's trace;
    and the hull in W of a point lies in its component, so K is the
    union of the components that meet T.  When K is not closed in W,
    level 2 fails at sandwich 1, or first at sandwich 0.  Depth 1 is the
    exception: it stops after level 0's sandwich, so it succeeds iff
    cl(K) misses F, with index 1 on K, closed or not.
    """
    closure, hull = space.closure, space.hull
    blocks = [(0, carrier)]   # level 0's one block, traced on W
    for n in range(depth):
        last = (1 << n) - 1
        prefix = 0   # the union of the blocks before k
        children = []
        for k, block in blocks:
            # the blocks after k are the rest of W
            lowers = closure(carrier & ~prefix & ~block) & carrier
            if k == last:
                lowers |= tt
            v = hull(lowers) & carrier
            if closure(v) & (ft if k == 0 else prefix):
                return None, (n + 1, f"sandwich {k}")
            if block & ~v:
                children.append((2 * k, block & ~v))
            if block & v:
                children.append((2 * k + 1, block & v))
            prefix |= block
        blocks = children
    index = [0] * space.n
    for k, block in blocks:
        for x in bits(block):
            index[x] = k
    worst = max((abs(index[x] - index[z]) for x, z in _links(space, carrier)),
                default=0)
    return (tuple(index), worst <= 1,
            _condition_c_ok(space, carrier, ft, tt, index, depth, worst)), None


def _condition_c_ok(space: FiniteSpace, carrier: int, ft: int, tt: int,
                    idx, depth: int, worst: int) -> bool:
    """Condition (C) for the truncated limit of a flat-chain family on the
    open carrier W, whose deepest (level ``depth``) block of x is idx[x],
    for F and T traces ft and tt: the limit equals the deepest step
    function on W and vanishes elsewhere, so the checks reduce to integer
    comparisons on idx.  ``worst`` is the largest |idx[x] - idx[z]| over x
    in W and z in U_x, so the oscillation is worst / (2^depth - 1)."""
    top = (1 << depth) - 1
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
    """Conditions (a) and (b) on every positive level: F in block 0, T in
    the last block, and neither in the closure of the other blocks.  Run
    on builder output only, so a violation raises CheckFailed."""
    space = family.f.domain
    for n in range(1, family.depth + 1):
        carrier = family.carrier(n)
        table, top = family.levels[n].table, (1 << n) - 1
        first = sum(1 << x for x in bits(carrier) if table[x] == 0)
        last = sum(1 << x for x in bits(carrier) if table[x] == top)
        rest, head = carrier & ~first, carrier & ~last
        for which, hit in (("(a), F side", f_side & rest),
                           ("(a), T side", t_side & head),
                           ("(b), F side", f_side & space.rel_closure(carrier, rest)),
                           ("(b), T side", t_side & space.rel_closure(carrier, head))):
            if hit:
                raise CheckFailed(f"condition {which}, at level {n}")


# --------------------------------------------------- perfect normality family


class PerfectWitness(NamedTuple):
    open_mask: int
    y: int
    nbhd: int
    family: tuple[RationalFunction, ...]


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


def _least_opens(space: FiniteSpace) -> list[int]:
    """The distinct minimal neighborhoods U_x, in ascending mask order:
    where the counterexample scans look for the least failing open."""
    return sorted(set(space._min_nbhd))


def is_perfectly_normal(f: FiberedMap) -> Report:
    """Every open set is locally the union of the 1-sets of an equicontinuous
    family vanishing off it.

    Finite collapse: such a family exists at y iff the open set meets the
    minimal-neighborhood components of f^{-1}(min_nbhd(y)) only in whole
    components; every open does so iff each component lies inside U_x for
    all of its points x, which ``_least_failing_pair`` decides pointwise.
    ``perfect_witnesses`` gives the witnesses.

    Counterexample: the first (O, y, K), an open O straddling a component K
    of f^{-1}(U_y), of the literal scan over the opens in order, then y,
    then the components.  Only the minimal neighborhoods need scanning: if
    an open o straddles a component K of f^-1(U_y), K links some k1 in
    K & o to some k2 in K - o.  k2 is not in U_k1, which lies inside o, so
    k1 is in U_k2, and U_k1 straddles K too, with a mask at most o's.  So
    the least failing open is a minimal neighborhood, and the scan over
    those alone stops at the same (open, y, component).
    """
    if _least_failing_carrier(f, _least_failing_pair).holds:
        return Report(True, None)
    classes = _components(f)
    for open_mask in _least_opens(f.domain):
        for y, comps in enumerate(classes):
            for comp in comps:
                if comp & open_mask and comp & ~open_mask:
                    return Report(False, (open_mask, y, comp))
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


# ------------------------------------------------------- functionally open


def is_f_functionally_open(f: FiberedMap, u: int) -> Report:
    """Is U locally cut out as phi^{-1}((0,1]) by f-continuous functions?

    Counterexample: (y, K), the first y with a minimal-neighborhood
    component K of f^{-1}(U_y) that meets U and leaves it."""
    space = f.domain
    for y, region in enumerate(f._nbhd_pre):
        for comp in space.nbhd_classes(region):
            if comp & u and comp & ~u:
                return Report(False, (y, comp))
    return Report(True, None)


# ------------------------------------------------------- co-perfect variants


def _f_sigma_failure(f: FiberedMap, carrier: int) -> int | None:
    """The first y at which the submapping on carrier is not locally
    F_sigma, or None: the first y where the closure of some point of
    carrier & P, relative to P = f^{-1}(U_y), leaves the carrier.

    This is the library's one locally-F_sigma test, for the co-perfect
    deciders; on a continuous map it passes exactly on the closed carriers
    (Lemma 1 in ``harness.classify``), which is why the census needs no
    decider of sigma-normality on F_sigma submappings.
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
    for u in _least_opens(f.domain):
        y = _f_sigma_failure(f, u)
        if y is not None:
            return (u, y)
    return None


def _co_perfect(f: FiberedMap, base: Report) -> Report:
    """The report ``base`` of a normality class of f when it fails; else
    whether every open submapping is F_sigma, with the least failing open
    u and its first failing y as the counterexample (u, y)."""
    if not base.holds:
        return base
    bad = _open_submaps_f_sigma(f)
    return Report(bad is None, bad)


def is_co_perfectly_normal(f: FiberedMap) -> Report:
    """Normality plus: every open submapping is F_sigma.

    Counterexample: ``is_normal``'s (O, A, B, y) when normality fails,
    else (u, y), the least open u whose submapping is not F_sigma and the
    first y where it fails.

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
    return _co_perfect(f, is_normal(f))


def is_co_sigma_perfectly_normal(f: FiberedMap) -> Report:
    """Sigma-normality plus: every open submapping is F_sigma; perfect
    normality again (see ``is_co_perfectly_normal``).  Counterexample:
    ``is_sigma_normal``'s (O, T, F, y), else (u, y) as there."""
    return _co_perfect(f, is_sigma_normal(f))


# ---------------------------------------------------------------- hereditary


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


def _least_failing_carrier(f: FiberedMap, walk) -> Report:
    """The least carrier whose submapping fails at some y, reported as
    the counterexample (carrier,).  ``walk`` gives the least carrier whose
    submapping fails at P = f^{-1}(U_y), or 0 for none; it is memoised per
    domain space on P."""
    memoised = f.domain.memoised
    least = min((m for pre in f._nbhd_pre if (m := memoised((walk, pre)))),
                default=None)
    return Report(True, None) if least is None else Report(False, (least,))


def is_hereditarily_normal(f: FiberedMap) -> Report:
    """Normality of the submapping on every carrier.  Counterexample:
    (C,), the least carrier C whose submapping is not normal.

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
