import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from oscillation_reference import affine
from tietze_reference import (
    exact_separator_reference,
    separation_from_extension,
    tietze_extend_reference,
)

from fibertop import harness
from fibertop.census import canonical_spaces, census_instances
from fibertop.errors import (
    FibertopError,
    PreconditionNotFContinuous,
    SearchFailed,
)
from fibertop.normality import (
    build_binary_partitions,
    is_normal,
    is_sigma_normal,
)
from fibertop.oscillation import (
    RationalFunction,
    is_f_continuous_at,
    is_f_equicontinuous_at,
    norm,
)
from fibertop.spaces import (
    FiberedMap,
    FiniteSpace,
    chain,
    constant_map,
    discrete,
    identity_map,
    sierpinski,
)
from fibertop.urysohn_tietze import (
    ExtensionResult,
    _extension_walk,
    boundary_function,
    build_separator,
    exact_extension_exists,
    sigma_separator_family,
    tietze_extend,
    verify_condition_C,
    verify_condition_D,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from extension_census import two_valued_runs  # noqa: E402


def two_valued(space, f_side, t_side):
    vals = tuple(Fraction(1) if t_side >> x & 1 else
                 (Fraction(0) if f_side >> x & 1 else None)
                 for x in range(space.n))
    return RationalFunction(space, vals, f_side | t_side)


class TestCodomainPoint:
    """Every entry point that takes y rejects a y outside the codomain
    first, whatever else is wrong with its arguments."""

    @staticmethod
    def _calls(f):
        phit = RationalFunction.on_carrier(f.domain, 0b100, lambda x: Fraction(3, 4))
        return {
            "partitions": lambda y: build_binary_partitions(f, 0b100, 0, y, 0),
            # a valid depth and an overlapping piece: y is checked first
            "sigma_pieces": lambda y: sigma_separator_family(
                f, 0b100, [0b100], y, 2),
            "separator": lambda y: build_separator(f, 0b100, 0, y, 1),
            "sigma_separators": lambda y: sigma_separator_family(f, 0b100, [], y, 1),
            "tietze": lambda y: tietze_extend(f, 0b100, phit, y, within=0),
            "exact": lambda y: exact_extension_exists(f, phit, y),
        }

    @pytest.mark.parametrize("y", [2, -1])
    @pytest.mark.parametrize("name", ["partitions", "sigma_pieces",
                                      "separator", "sigma_separators",
                                      "tietze", "exact"])
    def test_y_outside_codomain(self, name, y):
        f = FiberedMap(chain(3), sierpinski(), [0, 0, 1])
        with pytest.raises(ValueError) as err:
            self._calls(f)[name](y)
        assert str(err.value) == f"y = {y} is not a codomain point (points 0..1)"


class TestSeparator:
    def test_d2(self, D2):
        f = constant_map(D2)
        sep = build_separator(f, 0b01, 0b10, 0, 3)
        assert sep.phi.values == (Fraction(0), Fraction(1))
        assert sep.checks.all_ok

    def test_empty_f_side(self, D2):
        f = constant_map(D2)
        sep = build_separator(f, 0, 0b10, 0, 3)
        assert sep.phi.values[1] == 1

    def test_census_sweep(self):
        # every disjoint closed pair over every normal instance separates
        for inst in census_instances(5):
            f = inst.f
            if not is_normal(f).holds:
                continue
            closed = sorted(f.domain.full ^ o for o in f.domain.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    sep = build_separator(f, a, b, y, 3)
                    assert sep.checks.all_ok


class TestConditionC:
    def test_constant_half_fails_t_side(self, D2):
        f = constant_map(D2)
        phi = RationalFunction.constant(D2, Fraction(1, 2))
        rep = verify_condition_C(f, 0b01, 0b10, 0, phi, f.codomain.full)
        assert not rep.t_in_one and not rep.all_ok

    def test_oscillation_failure(self, S):
        f = identity_map(S)
        phi = RationalFunction.indicator(S, 0b10)
        rep = verify_condition_C(f, 0, 0b10, 1, phi, S.min_nbhd(1))
        assert not rep.osc_ok and rep.osc_value == 1

    def test_builder_output_passes(self, D3):
        f = constant_map(D3)
        sep = build_separator(f, 0b001, 0b100, 0, 4)
        rep = verify_condition_C(f, 0b001, 0b100, 0, sep.phi, sep.nbhd)
        assert rep.all_ok


class TestExactExtension:
    def test_conflict_detected(self, V_poset):
        f = constant_map(V_poset)
        phit = two_valued(V_poset, 0b001, 0b010)
        ext = exact_extension_exists(f, phit, 0)
        assert not ext.exists and ext.conflict is not None

    def test_spread_and_norm(self, S):
        f = identity_map(S)
        phit = RationalFunction(S, (None, Fraction(-3, 4)), 0b10)
        ext = exact_extension_exists(f, phit, 1)
        assert ext.exists
        assert norm(ext.phi) <= norm(phit)
        assert is_f_continuous_at(f, ext.phi, 1).holds
        assert ext.phi.values[1] == Fraction(-3, 4)

    def test_separator_never_conflicts_on_normal(self):
        for inst in census_instances(5):
            f = inst.f
            if not is_normal(f).holds:
                continue
            closed = sorted(f.domain.full ^ o for o in f.domain.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    region = f.preimage(f.codomain.min_nbhd(y))
                    mask = f.domain.saturation(region, b)
                    assert not mask & a
                    ref = exact_separator_reference(f, a, b, y)
                    assert ref.values == RationalFunction.indicator(
                        f.domain, mask).values


class TestTietze:
    def test_zero_boundary_short_circuits(self, D2):
        f = constant_map(D2)
        phit = RationalFunction.on_carrier(D2, 0b01, lambda x: 0)
        res = tietze_extend(f, 0b01, phit, 0)
        assert res.iterations == 0 and set(res.phi.values) == {Fraction(0)}
        assert res.residuals == (Fraction(0),)

    def test_full_carrier_identity_sanity(self, D3):
        f = constant_map(D3)
        phit = RationalFunction.total(D3, [Fraction(1, 2), Fraction(-1, 3), 0])
        res = tietze_extend(f, D3.full, phit, 0)
        assert norm(res.phi) <= norm(phit)
        assert res.residuals[-1] <= Fraction(2, 3) ** res.iterations * norm(phit)

    def test_single_point_geometric_residuals(self, D2):
        f = constant_map(D2)
        phit = RationalFunction(D2, (Fraction(1), None), 0b01)
        res = tietze_extend(f, 0b01, phit, 0)
        for k, r in enumerate(res.residuals):
            assert r == Fraction(2, 3) ** k

    def test_agreement_exact_when_residual_zero(self):
        # F misses the preimage of the minimal neighborhood of y: the zero
        # branch reports an exact (vacuous) agreement
        S = sierpinski()
        f = identity_map(S)
        phit = RationalFunction(S, (None, Fraction(7)), 0b10)
        res = tietze_extend(f, 0b10, phit, 0)
        assert res.iterations == 0 and res.residual_bound == 0

    def test_discontinuous_boundary_rejected(self, S):
        f = identity_map(S)
        phit = RationalFunction.total(S, [0, 1]).restrict(S.full)
        with pytest.raises(PreconditionNotFContinuous):
            tietze_extend(f, S.full, phit, 1)

    @pytest.mark.parametrize("tol", [0, Fraction(-1, 4)])
    def test_nonpositive_tolerance_rejected(self, D2, tol):
        # the residuals (2/3)^k never reach 0, so a walk with this
        # tolerance would never stop
        f = constant_map(D2)
        phit = RationalFunction(D2, (Fraction(1), None), 0b01)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            tietze_extend(f, 0b01, phit, 0, tolerance=tol)
        assert not _extensions(D2)

    def test_residual_law_on_random_boundaries(self):
        rng = random.Random(7)
        for inst in census_instances(5):
            f = inst.f
            if not is_normal(f).holds:
                continue
            space = f.domain
            closed = [c for c in
                      sorted(space.full ^ o for o in space.opens) if c]
            if not closed:
                continue
            carrier = closed[rng.randrange(len(closed))]
            phit = RationalFunction.on_carrier(
                space, carrier,
                lambda x: Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            y = rng.randrange(f.codomain.n)
            if not is_f_continuous_at(f, phit, y).holds:
                continue
            res = tietze_extend(f, carrier, phit, y)
            for i in range(len(res.residuals) - 1):
                assert 3 * res.residuals[i + 1] <= 2 * res.residuals[i]
            assert norm(res.phi) <= norm(phit)
            for i, psi in enumerate(res.psis):
                assert 3 * norm(psi) <= res.residuals[i]


# the public fields of an extension result, which the reference's result
# has too
PUBLIC_FIELDS = ("phi", "agreement_set", "residuals", "iterations",
                 "residual_bound", "psis")


def _public(res) -> tuple:
    return tuple(getattr(res, name) for name in PUBLIC_FIELDS)


def _outcome(extend, *args, **kwargs):
    """The public fields of one extension run's result, or the type and
    message of the error it raised."""
    try:
        res = extend(*args, **kwargs)
    except FibertopError as exc:
        return type(exc), str(exc)
    return ExtensionResult, _public(res)


class TestTietzeAgainstReference:
    """The integer iteration reproduces the Fraction reference exactly."""

    def test_census4_seeded_boundaries(self):
        rng = random.Random(2406)
        denominators = (1, 2, 3, 4, 5, 7, 9, 12)

        def rational(_x=None):
            if rng.random() < 0.3:
                # a third of a likely maximum: values on the +/- mu/3 levels
                return Fraction(rng.choice((-3, -1, 1, 3)), 4)
            return Fraction(rng.randint(-12, 12), rng.choice(denominators))

        seen = Counter()
        for inst in census_instances(4):
            f = inst.f
            space = f.domain
            classes = space.nbhd_classes(space.full)
            for carrier in sorted(space.full ^ o for o in space.opens):
                if not carrier:
                    continue
                # constant on every component: f-continuous at every y
                level = {c: rational() for c in classes}
                tame = RationalFunction.on_carrier(
                    space, carrier,
                    lambda x: next(v for c, v in level.items() if c >> x & 1))
                wild = RationalFunction.on_carrier(space, carrier, rational)
                for phit in (tame, wild):
                    y = rng.randrange(f.codomain.n)
                    new = _outcome(tietze_extend, f, carrier, phit, y)
                    old = _outcome(tietze_extend_reference, f, carrier, phit,
                                   y)
                    assert new == old
                    seen[new[0]] += 1
                    if new[0] is ExtensionResult:
                        assert norm(new[1][0]) <= norm(phit)
        assert seen[ExtensionResult] > 100
        assert seen[PreconditionNotFContinuous] > 10
        assert seen[SearchFailed] > 0

    def test_search_failed_on_tangled_boundary(self, V_poset):
        # the closed points 0 and 1 share the open point 2: one component
        # meets both the -mu/3 and the +mu/3 level closures
        f = constant_map(V_poset)
        phit = RationalFunction(V_poset, (Fraction(1), Fraction(-1, 2), None),
                                0b011)
        new = _outcome(tietze_extend, f, 0b011, phit, 0)
        assert new[0] is SearchFailed
        assert new == _outcome(tietze_extend_reference, f, 0b011, phit, 0)

    def test_tolerances_and_early_exact_residuals(self, D3):
        f = constant_map(D3)
        phit = RationalFunction(D3, (Fraction(-5, 6), None, Fraction(3, 4)),
                                0b101)
        # 20/81 = (5/6)(2/3)^3 is hit exactly by the geometric bound
        for tol in (Fraction(1), Fraction(20, 81), Fraction(1, 3),
                    Fraction(1, 10**6), 0.01):
            new = tietze_extend(f, 0b101, phit, 0, tolerance=tol)
            assert _public(new) == _public(tietze_extend_reference(
                f, 0b101, phit, 0, tolerance=tol))
            assert norm(new.phi) <= norm(phit)


def _distinct_two_valued_walks(total):
    """(f, O, phit, y) of the first run of each distinct walk among the
    two-valued runs of ``scripts/extension_census.py`` over census(total):
    runs on one domain with equal P = f^-1(U_y), F and T walk alike."""
    seen = set()
    for inst in census_instances(total):
        f = inst.f
        for o_mask, a, b, y in two_valued_runs(f):
            key = (id(f.domain), f._nbhd_pre[y], a, b)
            if key not in seen:
                seen.add(key)
                yield f, o_mask, boundary_function(f.domain, a, b), y


@pytest.fixture
def saturations(monkeypatch):
    """A one-item list counting the FiniteSpace.saturation calls made while
    the test runs: the walk makes one per step it computes, so a walk that
    takes its repeated steps in closed form makes fewer than it has steps."""
    count = [0]
    real = FiniteSpace.saturation

    def counted(self, region, mask):
        count[0] += 1
        return real(self, region, mask)

    monkeypatch.setattr(FiniteSpace, "saturation", counted)
    return count


class TestRepeatShortcut:
    """Once a step doubles every value of the walk, every later step is
    that step doubled, and the walk finishes in closed form; its results
    and errors are the step-by-step reference's."""

    def _fresh(self, saturations, f, phit, y, within=None):
        """(outcome, computed steps) of one walk run with an empty memo."""
        f.domain._memo = None
        saturations[0] = 0
        out = _outcome(tietze_extend, f, phit.carrier, phit, y, within=within)
        assert out == _outcome(tietze_extend_reference, f, phit.carrier, phit,
                               y, within=within)
        return out, saturations[0]

    def test_census5_two_valued_walks(self, saturations):
        kinds = Counter()
        late = 0
        for f, o_mask, phit, y in _distinct_two_valued_walks(5):
            out, computed = self._fresh(saturations, f, phit, y, o_mask)
            if out[0] is not ExtensionResult:
                kinds["raise"] += 1
                continue
            steps = out[1][PUBLIC_FIELDS.index("iterations")]
            if not steps:
                kinds["none"] += 1
            elif computed < steps:
                kinds["repeat"] += 1
                # the first step did not double: the repeat starts later
                late += computed > 1
            else:
                kinds["full"] += 1
        assert kinds == {"repeat": 341, "full": 87, "none": 94, "raise": 18}
        assert late > 0

    def test_repeat_after_a_first_step_that_does_not_double(self, D2,
                                                              saturations):
        # P = f^-1(U_0) = {0} holds F = {0} only, so mu_0 = 1 comes from
        # T = {1} outside P: step 0 takes the value 0 at point 0 to 1, and
        # from step 1 on every step doubles it
        f = identity_map(D2)
        phit = boundary_function(D2, 0b01, 0b10)
        out, computed = self._fresh(saturations, f, phit, 0)
        assert out[0] is ExtensionResult
        res = dict(zip(PUBLIC_FIELDS, out[1]))
        # (2/3)^18 is the first power at most 1/1024
        assert (computed, res["iterations"]) == (2, 18)
        assert res["residuals"][:3] == (1, Fraction(1, 3), Fraction(2, 9))
        assert res["psis"][1].values == (Fraction(1, 9), Fraction(-1, 9))


@pytest.fixture(scope="module")
def census5_extensions():
    """Every tietze_extend call of the census-5 sweep, as (f, args, kwargs,
    result, stored): stored tells whether the call added a memo entry.
    The memos of the census spaces are emptied first."""
    for n in range(1, 5):
        for space in canonical_spaces(n):
            space._memo = None
    calls = []

    def recording(f, *args, **kwargs):
        before = _extensions(f.domain)
        res = tietze_extend(f, *args, **kwargs)
        calls.append((f, args, kwargs, res, _extensions(f.domain) > before))
        return res

    runs = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "tietze_extend", recording)
        for inst in census_instances(5):
            runs += len(harness.theorem_record(inst)["extension_runs"])
    # every run of the sweep returned a result
    assert len(calls) == runs
    return calls


def _extensions(space) -> int:
    """The number of tietze_extend runs stored in the memo of space."""
    return sum(1 for key in space._memo or () if key[0] is _extension_walk)


def _one_point_boundary(space, value=Fraction(1)):
    """Boundary data ``value`` on point 0 alone; over a discrete space its
    extension needs one step per factor 2/3 of the residual."""
    return RationalFunction(space, (value,) + (None,) * (space.n - 1), 0b1)


class TestExtendMemo:
    """tietze_extend memoises successful runs per domain space; every
    check still runs on every call and errors are never stored."""

    def test_sweep_calls_match_fresh_runs(self, census5_extensions):
        # most of the sweep's runs are memo hits
        stored = Counter(s for *_, s in census5_extensions)
        assert stored[True] > 100 and stored[False] > stored[True]
        for f, args, kwargs, out, _ in census5_extensions:
            f.domain._memo = None
            assert tietze_extend(f, *args, **kwargs) == out
            assert (_outcome(tietze_extend_reference, f, *args, **kwargs)
                    == (ExtensionResult, _public(out)))
            _, phit, _ = args
            assert norm(out.phi) <= norm(phit)

    def test_equal_spaces_keep_separate_memos(self):
        one, two = discrete(2), discrete(2)
        assert one == two and one is not two
        first = tietze_extend(constant_map(one), 0b1, _one_point_boundary(one), 0)
        second = tietze_extend(constant_map(two), 0b1, _one_point_boundary(two), 0)
        assert first == second and first is not second
        assert _extensions(one) == _extensions(two) == 1
        assert one._memo is not two._memo

    def test_same_domain_and_preimage_share_the_result(self):
        space = discrete(2)
        phit = _one_point_boundary(space)
        first = tietze_extend(constant_map(space), 0b1, phit, 0)
        # another codomain, and a point y whose minimal neighborhood pulls
        # back to the same P
        other = FiberedMap(space, sierpinski(), (1, 1))
        assert tietze_extend(other, 0b1, phit, 1) is first
        assert _extensions(space) == 1

    @pytest.mark.parametrize("part", ["P", "carrier", "values", "tolerance"])
    def test_each_key_part_gets_a_fresh_answer(self, part):
        space = sierpinski() if part == "P" else discrete(2)
        f = identity_map(space) if part == "P" else constant_map(space)
        one = dict(f_carrier=0b1, phit=_one_point_boundary(space), y=0)
        if part == "P":
            # point 1 is closed, its minimal neighborhood is {0 1}
            one.update(f_carrier=0b10, phit=RationalFunction(
                space, (None, Fraction(1)), 0b10))
            two = dict(one, y=1)
        elif part == "carrier":
            two = dict(one, f_carrier=0b11,
                       phit=RationalFunction.total(space, (1, 1)))
        elif part == "values":
            two = dict(one, phit=_one_point_boundary(space, Fraction(1, 3)))
        else:
            two = dict(one, tolerance=Fraction(1, 10))
        first = tietze_extend(f, **one)
        second = tietze_extend(f, **two)
        assert _public(first) == _public(tietze_extend_reference(f, **one))
        assert _public(second) == _public(tietze_extend_reference(f, **two))
        assert _extensions(space) == 2
        assert _public(first) != _public(second)

    def test_errors_are_not_stored(self, V_poset):
        tangled = RationalFunction(V_poset, (Fraction(1), Fraction(-1, 2), None),
                                   0b011)
        space = sierpinski()
        # U_1 = {0, 1} holds both values: phit is not f-continuous at 1
        jump = RationalFunction.total(space, [0, 1])
        cases = [(constant_map(V_poset), 0b011, tangled, 0),
                 (identity_map(space), 0b11, jump, 1)]
        for f, carrier, phit, y in cases:
            first = _outcome(tietze_extend, f, carrier, phit, y)
            assert first[0] in (SearchFailed, PreconditionNotFContinuous)
            assert _outcome(tietze_extend, f, carrier, phit, y) == first
            assert first == _outcome(tietze_extend_reference, f, carrier, phit,
                                     y)
            assert not _extensions(f.domain)

    def test_checks_run_on_a_memo_hit(self, S):
        # {0} is closed over the open {0} but not over the whole codomain,
        # and both runs have the same P = {0}
        f = identity_map(S)
        phit = RationalFunction(S, (Fraction(1), None), 0b01)
        assert tietze_extend(f, 0b01, phit, 0, within=0b01).iterations > 0
        with pytest.raises(ValueError, match="relatively closed"):
            tietze_extend(f, 0b01, phit, 0)
        with pytest.raises(ValueError, match="exactly on the carrier"):
            tietze_extend(f, 0b11, phit, 0, within=0b01)
        assert _extensions(S) == 1

    def test_f_continuity_checked_in_the_walk(self, S):
        # U_1 = {0, 1} holds point 0, so the two values give osc 5/6 at 1
        f = identity_map(S)
        phit = RationalFunction(S, (Fraction(1, 3), Fraction(-1, 2)), 0b11)
        osc = is_f_continuous_at(f, phit, 1).osc
        assert osc == Fraction(5, 6)
        for _ in range(2):
            with pytest.raises(PreconditionNotFContinuous) as info:
                tietze_extend(f, 0b11, phit, 1)
            assert str(info.value) == (
                f"osc {osc} over the carrier trace of the minimal neighborhood")
            assert not _extensions(S)

    def test_carrier_check_precedes_f_continuity(self):
        # {0, 1} is not closed in the 3-point chain, and phit jumps on it
        space = chain(3)
        f = identity_map(space)
        phit = RationalFunction(space, (Fraction(0), Fraction(1), None), 0b011)
        assert not is_f_continuous_at(f, phit, 2).holds
        with pytest.raises(ValueError, match="relatively closed"):
            tietze_extend(f, 0b011, phit, 2)
        assert not _extensions(space)


class TestConditionD:
    def test_exact_extension_passes(self, S):
        f = identity_map(S)
        phit = two_valued(S, 0b10, 0)
        ext = exact_extension_exists(f, phit, 1)
        assert ext.exists
        rep = verify_condition_D(f, 0b10, phit, ext.phi, 1)
        assert rep.all_ok and rep.agreement_nbhd == S.min_nbhd(1)

    def test_shifted_function_fails_agreement(self, D2):
        f = constant_map(D2)
        phit = two_valued(D2, 0b01, 0b10)
        ext = exact_extension_exists(f, phit, 0)
        shifted = affine(ext.phi, 1, 1)
        rep = verify_condition_D(f, 0b11, phit, shifted, 0)
        assert not rep.agreement_ok

    def test_norm_violation_detected(self, D2):
        f = constant_map(D2)
        phit = two_valued(D2, 0b01, 0b10)
        big = RationalFunction.total(D2, [0, 5])
        rep = verify_condition_D(f, 0b11, phit, big, 0)
        assert not rep.norm_ok


class TestSeparationFromExtension:
    def test_d2_singletons(self, D2):
        f = constant_map(D2)
        cert = separation_from_extension(f, 0b01, 0b10, 0)
        assert cert.valid_for(f, 0b10, 0b01)
        assert cert.u == 0b10 and cert.v == 0b01

    def test_empty_f_side(self, D2):
        f = constant_map(D2)
        cert = separation_from_extension(f, 0, 0b10, 0)
        assert cert.valid_for(f, 0b10, 0)

    def test_not_found_on_tangled_pair(self, V_poset):
        f = constant_map(V_poset)
        with pytest.raises(ValueError, match="no exact extension"):
            separation_from_extension(f, 0b001, 0b010, 0)

    def test_census_validity(self):
        for inst in census_instances(4):
            f = inst.f
            if not is_normal(f).holds:
                continue
            closed = sorted(f.domain.full ^ o for o in f.domain.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    cert = separation_from_extension(f, a, b, y)
                    assert cert.valid_for(f, b, a)


class TestSigmaSeparatorFamily:
    def test_d3_pieces(self, D3):
        f = constant_map(D3)
        res = sigma_separator_family(f, 0b001, [0b010, 0b100], 0, 3)
        phis = [lim.phi for lim in res.limits]
        assert phis[0].values[1] == 1 and phis[1].values[2] == 1
        for phi in phis:
            assert phi.values[0] == 0
        ok, cert = is_f_equicontinuous_at(f, phis, 0)
        assert ok or cert.bound < Fraction(1, 2)

    def test_single_piece_matches_separator(self, D2):
        f = constant_map(D2)
        res = sigma_separator_family(f, 0b01, [0b10], 0, 3)
        sep = build_separator(f, 0b01, 0b10, 0, 3)
        assert res.limits[0].phi.values == sep.phi.values

    def test_propagates_failure(self, V_poset):
        f = constant_map(V_poset)
        with pytest.raises(SearchFailed):
            sigma_separator_family(f, 0b001, [0b010], 0, 3)

    @pytest.mark.parametrize("depth", [2, 3, 6])
    def test_separators_never_take_one_half_on_the_preimage(self, depth):
        """On f^-1(U_y) every separator value is k/(2^depth - 1), so the
        strict and the closed upper sets agree there and condition (C)'s
        interior check is the sigma one (see sigma_separator_family)."""
        built = 0
        for inst in census_instances(5):
            f = inst.f
            closed = sorted(f.domain.full ^ o for o in f.domain.opens)
            for fm, t in combinations(closed, 2):
                if fm & t or not t:
                    continue
                for y in range(f.codomain.n):
                    try:
                        sep = build_separator(f, fm, t, y, depth)
                    except FibertopError:
                        continue
                    built += 1
                    pre = f._nbhd_pre[y]
                    values = [sep.phi.values[x] for x in range(f.domain.n)
                              if pre >> x & 1]
                    assert Fraction(1, 2) not in values
                    assert all(((1 << depth) - 1) % v.denominator == 0
                               for v in values)
        assert built > 3000

    def test_sigma_normal_census_success(self):
        for inst in census_instances(4):
            f = inst.f
            if not is_sigma_normal(f).holds:
                continue
            space = f.domain
            closed = sorted(space.full ^ o for o in space.opens)
            for t in closed:
                for fm in closed:
                    if t & fm or not t:
                        continue
                    pieces = [space.closure(1 << x) for x in range(space.n)
                              if t >> x & 1]
                    for y in range(f.codomain.n):
                        res = sigma_separator_family(f, fm, pieces, y, 3)
                        assert len(res.limits) == len(pieces)
