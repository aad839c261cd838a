"""Separating functions, the extension iteration, and the condition checkers
for the four-way normality characterization.

The separator route composes the binary-partition builder with the limit
assembly and checks the four separation inclusions at the level-2
neighborhood.  The extension route iterates separator subtraction with the
exact (2/3)^n residual chain.  Exact extension existence is decided
independently: a function with zero oscillation over the preimage of the
minimal neighborhood is precisely one that is constant on each
minimal-neighborhood component, so the boundary-value problem collapses to
a per-component consistency check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CheckFailed,
    NotOpen,
    PreconditionNotFContinuous,
    SearchFailed,
)
from .normality import build_binary_partitions
from .oscillation import (
    ONE,
    ZERO,
    RationalFunction,
    is_f_continuous_at,
    norm,
    osc_on_set,
)
from .partitions import ApproximateLimitFunction, assemble_limit
from .spaces import FiberedMap, FiniteSpace, bits, bits_tuple

HALF = Fraction(1, 2)
# verify_condition_D sweeps epsilon over 1/2^k for k = 1..EPS_LEVELS
EPS_LEVELS = 12


# ------------------------------------------------------------- condition (C)


class ConditionCReport(NamedTuple):
    osc_ok: bool
    f_in_zero: bool
    t_in_one: bool
    f_off_upper_closure: bool
    t_in_upper_interior: bool
    osc_value: Fraction

    @property
    def all_ok(self) -> bool:
        return (self.osc_ok and self.f_in_zero and self.t_in_one
                and self.f_off_upper_closure and self.t_in_upper_interior)


def verify_condition_C(f: FiberedMap, f_side: int, t_side: int, y: int,
                       phi: RationalFunction, nbhd: int) -> ConditionCReport:
    """Evaluate the four separation inclusions and the osc < 1/2 bound.

    Usable on any candidate function, independent of how it was produced.
    """
    if not f.codomain.is_open(nbhd) or not nbhd >> y & 1:
        raise NotOpen(nbhd)
    space = f.domain
    pre = f.preimage(nbhd)
    osc_value = osc_on_set(phi, pre & phi.carrier)
    zeros = phi.preimage(lambda v: v == 0)
    ones = phi.preimage(lambda v: v == 1)
    upper = phi.preimage(lambda v: HALF <= v <= 1) & pre
    return ConditionCReport(
        osc_ok=osc_value < HALF,
        f_in_zero=not f_side & pre & ~zeros,
        t_in_one=not t_side & pre & ~ones,
        f_off_upper_closure=not f_side & space.rel_closure(pre, upper),
        t_in_upper_interior=not t_side & pre & ~space.rel_interior(pre, upper),
        osc_value=osc_value,
    )


class SeparatorResult(NamedTuple):
    limit: ApproximateLimitFunction
    nbhd: int
    checks: ConditionCReport

    @property
    def phi(self) -> RationalFunction:
        return self.limit.phi


def build_separator(f: FiberedMap, f_side: int, t_side: int, y: int,
                    depth: int, within: int | None = None) -> SeparatorResult:
    """Partition family -> stepwise limit -> verified separating function.

    The reported neighborhood is the level-2 one (the flat minimal chain
    makes it the minimal neighborhood of y), where the truncated limit has
    oscillation at most 1/(2^depth - 1) < 1/2.
    """
    f.check_point(y)
    if depth < 2:
        raise ValueError("a separator needs depth >= 2")
    family = build_binary_partitions(f, f_side, t_side, y, depth, within=within)
    limit = assemble_limit(family)
    nbhd = family.levels[2].nbhd
    checks = verify_condition_C(f, f_side, t_side, y, limit.phi, nbhd)
    if not checks.all_ok:
        failed = [name for name, ok in zip(checks._fields, checks) if ok is False]
        raise CheckFailed(f"separator conditions {failed}")
    return SeparatorResult(limit, nbhd, checks)


# --------------------------------------------------- exact extension kernel


class ExactExtension(NamedTuple):
    exists: bool
    phi: RationalFunction | None
    conflict: int | None  # component with inconsistent boundary values


def exact_extension_exists(f: FiberedMap, phit: RationalFunction,
                           y: int) -> ExactExtension:
    """Decide whether some f-continuous-at-y function extends phit exactly
    over the preimage of the minimal neighborhood of y, with norm control.

    phit is given on a carrier; the extension must agree with it on
    carrier /\\ f^{-1}(min_nbhd(y)).  Such a function exists iff phit is
    constant on each minimal-neighborhood component it meets there, and
    then the component-constant spread (zero elsewhere) realizes it without
    increasing the norm.
    """
    f.check_point(y)
    space = f.domain
    region = f._nbhd_pre[y]
    values = [Fraction(0)] * space.n
    for comp in space.nbhd_classes(region):
        pinned = comp & phit.carrier
        val = None
        for x in bits(pinned):
            if val is None:
                val = phit.values[x]
            elif phit.values[x] != val:
                return ExactExtension(False, None, comp)
        if val is not None:
            for x in bits(comp):
                values[x] = val
    phi = RationalFunction(space, tuple(values), space.full)
    return ExactExtension(True, phi, None)


# ------------------------------------------------------------ the extension


class ExtensionResult(NamedTuple):
    """The integers of one extension walk; the ``Fraction`` views are built
    only when read.

    After n = ``iterations`` steps every value is a numerator over
    scale * 3^n: ``totals`` holds phi's, one per point, and ``bound`` the
    residual bound's, which is mu_n, or 0 when the zero function is
    returned without a step because the carrier trace is empty or the
    data is zero.  Residual mu_k is ``mus[k]`` over scale * 3^k, and
    step k subtracted psi_k, which is mu_k/3 on ``separators[k]`` and
    -mu_k/3 off it.  ``space`` is the domain the values live on; every
    other field is an int or a tuple of ints, so the memo of a space holds
    no ``Fraction``.  A walk that breaks the norm contract, |phi| <= |phit|,
    raises, so no field records it.
    """

    space: FiniteSpace
    scale: int
    totals: tuple[int, ...]
    mus: tuple[int, ...]
    separators: tuple[int, ...]
    bound: int
    agreement_set: int

    @property
    def iterations(self) -> int:
        return len(self.separators)

    @property
    def phi(self) -> RationalFunction:
        den = self.scale * 3 ** self.iterations
        return RationalFunction(self.space,
                                tuple(Fraction(t, den) for t in self.totals),
                                self.space.full)

    @property
    def residuals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.scale * 3 ** k)
                     for k, m in enumerate(self.mus))

    @property
    def residual_bound(self) -> Fraction:
        return Fraction(self.bound, self.scale * 3 ** self.iterations)

    @property
    def psis(self) -> tuple[RationalFunction, ...]:
        space, out = self.space, []
        for k, (m, sep) in enumerate(zip(self.mus, self.separators)):
            plus = Fraction(m, self.scale * 3 ** (k + 1))
            out.append(RationalFunction(
                space, tuple(plus if sep >> x & 1 else -plus
                             for x in range(space.n)), space.full))
        return tuple(out)


def tietze_extend(f: FiberedMap, f_carrier: int, phit: RationalFunction,
                  y: int, tolerance: Fraction = Fraction(1, 1024),
                  within: int | None = None) -> ExtensionResult:
    """Extend a function given on a closed carrier by separator subtraction.

    The carrier must be relatively closed over ``within`` (the whole
    codomain when omitted), and the tolerance must be positive.  Each step
    separates the +/- mu/3 level closures with an exactly
    f-continuous-at-y two-valued function, subtracts the rescaled copy, and
    certifies mu_{n+1} <= (2/3) mu_n.  The loop stops at an exact residual
    of zero or once the geometric bound drops below the tolerance.  Once a
    step doubles every value of the walk, every later step repeats it
    doubled, and the walk takes those steps in closed form with the same
    results and checks (see ``_extension_walk``); so each walk of the
    census sweep, which extends the constant 1 on T, computes at most one
    step.

    Every call checks y, the tolerance, ``within`` and the carrier.  Past
    those checks the run depends only on the domain, on
    P = f^{-1}(min_nbhd(y)), on phit and on the tolerance, so successful
    results are memoised per domain space under the integer key
    ``(_extension_walk, P, carrier, *phit.integer_form, tol_num,
    tol_den)``: phit's values as numerators over one scale, and the
    tolerance as its numerator and denominator.  phit caches its integer
    form, so a hit hashes no ``Fraction``.  The remaining check, that phit
    is f-continuous at y, depends only on the key too, so the walk makes
    it first, on its integers.  Errors are not stored: each failing call
    runs and raises afresh.  The result keeps the walk's integers, and
    its ``phi``, ``residuals``, ``residual_bound`` and ``psis`` are built
    from them on each read.
    """
    f.check_point(y)
    if not isinstance(tolerance, Fraction):
        tolerance = Fraction(tolerance)
    # a Fraction's denominator is positive, so its sign is the numerator's
    if tolerance.numerator <= 0:
        # the geometric bound never reaches it: only an exact zero
        # residual would stop the loop
        raise ValueError(f"the tolerance must be positive, not {tolerance}")
    space, cod = f.domain, f.codomain
    if within is None:
        within = cod.full
    if not cod.is_open(within) or not within >> y & 1:
        raise NotOpen(within)
    if phit.carrier != f_carrier:
        raise ValueError("phit must be given exactly on the carrier")
    if not space.rel_is_closed(f.preimage(within), f_carrier):
        raise ValueError("the carrier must be relatively closed over the context open")
    return space.memoised((_extension_walk, f._nbhd_pre[y], f_carrier,
                           *phit.integer_form, tolerance.numerator,
                           tolerance.denominator))


def _extension_walk(space: FiniteSpace, pre: int, given_mask: int, scale: int,
                    data: tuple, tol_num: int, tol_den: int) -> ExtensionResult:
    """The separator-subtraction iteration over P = ``pre`` for boundary
    values data[x] / scale, given on the points of ``given_mask`` (data is
    0 off it), and the positive tolerance tol_num / tol_den; raises on the
    first failed check.  It runs, and returns, integers only.

    It first checks that phit is f-continuous at y, which depends only on
    P and the values: every x of the carrier trace must have the value of
    each z in U_x & carrier.  P is open, so U_x lies in P, and the
    largest |phit(x) - phit(z)| is the oscillation that
    ``is_f_continuous_at`` reports.

    The repeat lemma.  Let a step start from the values c(x) on the
    carrier trace and the residual mu, and end with c'(x) = 3c(x) - psi(x)
    = 2c(x) at every point (all over the step's denominator).  Then every
    c(x) = psi(x) = +/- mu, so mu' = max |c'| = 2 mu, and the next step
    compares 3c' = 2 * 3c with the thresholds +/- mu' = 2 * (+/- mu): it
    selects the same low and high sets, hence the same closures and the
    same separator, its psi is 2 psi, and it ends with 3c' - 2 psi =
    2c' at every point.  So it is the step scaled by 2 and satisfies the
    hypothesis again; by induction the k-th step after it has the same
    separator, psi_k = 2^k psi and residual 2^(k+1) mu.

    The closed form.  Each step multiplies the total by 3 and adds its
    psi, so r such steps take the total t to 3^r t + sum_{k=1..r}
    3^(r-k) 2^k psi = 3^r t + 2 (3^r - 2^r) psi, because sum_{k=1..r}
    3^(r-k) 2^(k-1) = (3^r - 2^r) / (3 - 2).  Once a step doubles its
    values, the walk takes the later steps in this form: each still
    appends its separator and residual and runs the four guards of a step
    on its own values (which pass, being the computed step's scaled by
    2^k), and r is the count the geometric test allows, as before.  So
    the result, every error and the iteration count are those of the
    step-by-step walk; only the closures, the separator search and the
    per-point updates of the repeated steps are not redone.  A walk whose
    values never double iterates every step."""
    carrier = given_mask & pre
    # Every value is kept as an integer numerator over one denominator,
    # scale * 3^n after n steps: multiplying by 3 each step keeps mu/3
    # integral.
    points = bits_tuple(carrier)
    osc = max((abs(data[x] - data[z]) for x in points
               for z in bits(space._min_nbhd[x] & given_mask)), default=0)
    if osc:
        raise PreconditionNotFContinuous(
            f"osc {Fraction(osc, scale)} over the carrier trace of the"
            " minimal neighborhood")
    m0 = max(map(abs, data), default=0)
    if carrier == 0 or m0 == 0:
        # the zero function agrees with phit on the whole carrier trace
        return ExtensionResult(space, scale, (0,) * space.n, (m0,), (), 0,
                               carrier)

    # the geometric bound mu0 (2/3)^n, cross-multiplied with the tolerance
    geo_lhs, geo_rhs = m0 * tol_den, scale * tol_num
    cur = [data[x] for x in points]
    total = [0] * space.n
    mu = m0
    residuals = [m0]
    separators = []
    n = 0
    doubled = False
    repeats = 0
    while mu and geo_lhs > geo_rhs:
        if doubled:
            # the last computed step scaled by 2^repeats (the repeat lemma)
            repeats += 1
            psi_norm *= 2
            nxt = 2 * mu
        else:
            start = cur
            # over scale * 3^(n+1) the thresholds +/- mu/3 are +/- mu
            cur = [3 * c for c in cur]
            low = high = 0
            for x, c in zip(points, cur):
                if c <= -mu:
                    low |= 1 << x
                elif c >= mu:
                    high |= 1 << x
            p_side = space.rel_closure(pre, low)
            q_side = space.rel_closure(pre, high)
            # the exact {0, 1} separator: 1 on the components meeting q_side
            out = space.saturation(pre, q_side)
            psi = [mu if out >> x & 1 else -mu for x in range(space.n)]
            psi_norm = max(map(abs, psi))
            total = [3 * t + p for t, p in zip(total, psi)]
            cur = [c - psi[x] for x, c in zip(points, cur)]
            nxt = max(map(abs, cur))
            # the lemma's hypothesis: every value doubled.  That implies
            # nxt == 2 mu, which is tested first as the cheaper comparison
            doubled = nxt == 2 * mu and cur == [2 * c for c in start]
        _step_guards(n, p_side, q_side, out, psi_norm, mu, nxt)
        separators.append(out)
        mu = nxt
        residuals.append(mu)
        geo_lhs *= 2
        geo_rhs *= 3
        n += 1
    if repeats:
        total = [3 ** repeats * t + 2 * (3 ** repeats - 2 ** repeats) * p
                 for t, p in zip(total, psi)]
    lift = 3 ** n
    if max(map(abs, total)) > m0 * lift:
        raise CheckFailed("norm of the extension above the boundary norm")
    agree = 0
    sup = 0
    for x in points:
        d = abs(data[x] * lift - total[x])
        if d == 0:
            agree |= 1 << x
        elif d > sup:
            sup = d
    if mu == 0 and (carrier & ~agree):
        raise CheckFailed("zero residual without exact agreement")
    if sup > mu:
        raise CheckFailed("reported residual below the actual difference")
    return ExtensionResult(space, scale, tuple(total), tuple(residuals),
                           tuple(separators), mu, agree)


def _step_guards(n: int, p_side: int, q_side: int, out: int, psi_norm: int,
                 mu: int, nxt: int) -> None:
    """Raise on the first failed check of extension step n, over the
    step's denominator: the level closures are disjoint, the separator
    ``out`` misses p_side, |psi| <= mu, and the residual contracts,
    nxt <= 2 mu, that is mu_{n+1} <= (2/3) mu_n."""
    if p_side & q_side:
        raise CheckFailed("level closures overlap despite the osc bound")
    if out & p_side:
        raise SearchFailed(n, "exact separator")
    if psi_norm > mu:
        raise CheckFailed("psi norm above mu/3")
    if nxt > 2 * mu:
        raise CheckFailed("residual contraction failed")


def _sup_difference(a: RationalFunction, b: RationalFunction, mask: int) -> Fraction:
    best = Fraction(0)
    for x in bits(mask & a.carrier & b.carrier):
        d = abs(a.values[x] - b.values[x])
        if d > best:
            best = d
    return best


# ------------------------------------------------------------- condition (D)


class ConditionDReport(NamedTuple):
    agreement_ok: bool
    agreement_nbhd: int | None
    norm_ok: bool
    eps_ok: bool
    eps_failures: tuple[int, ...]
    f_continuous: bool

    @property
    def all_ok(self) -> bool:
        return self.agreement_ok and self.norm_ok and self.eps_ok and self.f_continuous


def verify_condition_D(f: FiberedMap, f_carrier: int, phit: RationalFunction,
                       phi: RationalFunction, y: int) -> ConditionDReport:
    """Check the extension contract independently of how phi was produced.

    (a) needs an open G around y with exact agreement on the carrier trace;
    agreement over a bigger G implies it over the minimal neighborhood, so
    the minimal one decides.  The epsilon sweep runs over 1/2^k and is
    equivalent to the same minimal-neighborhood check.
    """
    nbhd = f.codomain.min_nbhd(y)
    trace = f_carrier & f.preimage(nbhd)
    agreement = phit.agrees_with(phi, trace)
    sup = _sup_difference(phit, phi, trace)
    failures = tuple(k for k in range(1, EPS_LEVELS + 1)
                     if not sup < Fraction(1, 1 << k))
    return ConditionDReport(
        agreement_ok=agreement,
        agreement_nbhd=nbhd if agreement else None,
        norm_ok=norm(phi) <= norm(phit),
        eps_ok=not failures,
        eps_failures=failures,
        f_continuous=is_f_continuous_at(f, phi, y).holds,
    )


def boundary_function(space: FiniteSpace, f_side: int, t_side: int) -> RationalFunction:
    """The two-valued boundary data of the extension route: 0 on F and 1 on
    T, given on F union T.  Every value is one of the shared constants
    ``ZERO`` and ``ONE``, so no run builds a ``Fraction``."""
    return RationalFunction.on_carrier(space, f_side | t_side,
                                       lambda x: ONE if t_side >> x & 1 else ZERO)


# ------------------------------------------------------ sigma separator route


class SigmaSeparatorResult(NamedTuple):
    nbhd: int
    limits: tuple[ApproximateLimitFunction, ...]
    osc_values: tuple[Fraction, ...]


def sigma_separator_family(f: FiberedMap, f_side: int, t_list, y: int,
                           depth: int, within: int | None = None
                           ) -> SigmaSeparatorResult:
    """Per-piece separators sharing one neighborhood, equicontinuous there:
    the library's one sigma construction.  Each piece's family is
    ``limits[l].family``.

    The neighborhood is the minimal one of y for every piece by
    construction: every level n >= 1 of a ``LevelIndex`` lies over it, and
    ``build_separator`` reports level 2's.  ``build_separator`` has checked
    condition (C) on each piece: osc < 1/2 on that neighborhood, which is
    ``osc_values``, the value pinning on F and T_l, F off the closure of
    the upper set {phi >= 1/2}, which holds the strict one, and T_l in the
    interior of {phi >= 1/2}.  That last set is the strict upper set
    {phi > 1/2} that the sigma condition asks T_l to lie inside, because
    phi never takes the value 1/2: at each point it is k/(2^n - 1) for the
    deepest level n whose carrier holds the point (an integer at n = 0),
    so its denominator is odd.  On f^-1(U_y), which every level's carrier
    holds, n is the depth.  So no check is left.  A failing piece's
    ``SearchFailed`` is re-raised with the index l of the piece.
    """
    f.check_point(y)
    if depth < 2:
        raise ValueError("the sigma family needs depth >= 2")
    nbhd = f.codomain.min_nbhd(y)
    results = []
    for l, t_piece in enumerate(t_list):
        try:
            results.append(build_separator(f, f_side, t_piece, y, depth,
                                           within=within))
        except SearchFailed as exc:
            raise SearchFailed(exc.level, exc.step, l) from exc
    return SigmaSeparatorResult(nbhd, tuple(r.limit for r in results),
                                tuple(r.checks.osc_value for r in results))
