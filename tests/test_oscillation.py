import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertop.census import canonical_spaces
from fibertop.errors import MemberNotFContinuous
from fibertop.oscillation import (
    ONE,
    RationalFunction,
    is_f_continuous_at,
    is_f_equicontinuous_at,
    norm,
    osc_at_point,
    osc_on_set,
    weighted_sum,
)
from fibertop.spaces import FiberedMap, constant_map, identity_map, point

from conftest import random_function, spaces_with_function
from oscillation_reference import (
    PreconditionGap,
    affine,
    osc_at_point_exhaustive,
    osc_linear_bound_check,
    sublevel_disjointness,
)


def indicator1(space):
    return RationalFunction.indicator(space, 0b10)


# the ways to build a RationalFunction from a (space, values, carrier) table
BUILDS = {
    "constructor": lambda s, values, carrier: RationalFunction(s, values, carrier),
    "_make": lambda s, values, carrier: RationalFunction._make((s, values, carrier)),
    "_replace": lambda s, values, carrier: RationalFunction.constant(s, 0)._replace(
        space=s, values=values, carrier=carrier),
}


class TestTableChecks:
    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("values, carrier, message", [
        ((ONE, ONE), 0b100, "carrier outside the space"),
        ((ONE,), 0b01, "values table must cover all points"),
        ((ONE, None), 0b11, "missing rational value at point 1"),
        ((ONE, 1), 0b11, "missing rational value at point 1"),
        ((ONE, ONE), 0b01, "value outside carrier at point 1"),
    ])
    def test_every_build_rejects_a_bad_table(self, S, build, values, carrier,
                                             message):
        with pytest.raises(ValueError, match=message):
            BUILDS[build](S, values, carrier)

    @pytest.mark.parametrize("build", BUILDS)
    def test_every_build_keeps_a_good_table(self, S, build):
        phi = BUILDS[build](S, (ONE, None), 0b01)
        assert type(phi) is RationalFunction
        assert phi == RationalFunction.on_carrier(S, 0b01, lambda x: 1)


class TestNorm:
    def test_zero(self, S):
        assert norm(RationalFunction.constant(S, 0)) == 0

    def test_mixed_signs(self, S):
        phi = RationalFunction.total(S, [Fraction(-1, 2), Fraction(1, 3)])
        assert norm(phi) == Fraction(1, 2)

    def test_indicator(self, S):
        assert norm(indicator1(S)) == 1

    def test_empty_carrier(self, S):
        assert norm(RationalFunction.on_carrier(S, 0, lambda x: 7)) == 0


class TestOscillation:
    def test_sierpinski_indicator(self, S):
        phi = indicator1(S)
        assert osc_at_point(phi, 0) == 0
        assert osc_at_point(phi, 1) == 1

    def test_constant(self, C3):
        phi = RationalFunction.constant(C3, Fraction(5, 7))
        for x in range(3):
            assert osc_at_point(phi, x) == 0

    def test_on_set(self, S, D3):
        phi = indicator1(S)
        assert osc_on_set(phi, 0b11) == 1
        assert osc_on_set(phi, 0) == 0
        rng = random.Random(3)
        psi = random_function(D3, rng)
        assert osc_on_set(psi, D3.full) == 0

    def test_exhaustive_oracle_matches_minimal(self):
        rng = random.Random(11)
        for n in range(1, 5):
            for space in canonical_spaces(n):
                for _ in range(20):
                    phi = random_function(space, rng)
                    for x in range(space.n):
                        assert osc_at_point(phi, x) == osc_at_point_exhaustive(phi, x)

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_function())
    def test_osc_at_most_twice_norm(self, sf):
        space, phi = sf
        bound = 2 * norm(phi)
        for x in range(space.n):
            assert osc_at_point(phi, x) <= bound

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_function())
    def test_zero_osc_iff_continuous_at_point(self, sf):
        space, phi = sf
        gaps = [abs(a - b) for a in phi.values for b in phi.values if a != b]
        eps_list = [Fraction(1)] + [g / 2 for g in gaps]
        for x in range(space.n):
            # preimage criterion: every value-interval around phi(x) pulls
            # back to a neighborhood of x; the finite value set makes the
            # epsilon sweep over half-gaps exhaustive
            vx = phi.values[x]
            continuous = True
            for eps in eps_list:
                good = phi.preimage(lambda v: abs(v - vx) < eps)
                if not any(o >> x & 1 and not o & ~good for o in space.opens):
                    continuous = False
                    break
            assert (osc_at_point(phi, x) == 0) == continuous


class TestLinearBound:
    def test_cancellation(self, S):
        phi = indicator1(S)
        psi = affine(phi, -1, 0)
        rep = osc_linear_bound_check(1, phi, 1, psi, S.full)
        assert rep.lhs == 0 and rep.rhs == 2 and rep.ok

    def test_scaling(self, S):
        phi = indicator1(S)
        rep = osc_linear_bound_check(2, phi, 0, phi, S.full)
        assert rep.lhs == rep.rhs == 2 and rep.ok

    def test_zero_coefficients(self, S):
        phi = indicator1(S)
        rep = osc_linear_bound_check(0, phi, 0, phi, S.full)
        assert rep.lhs == rep.rhs == 0

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_function(),
           st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_always_holds(self, sf, alpha, beta):
        space, phi = sf
        psi = affine(phi, Fraction(1, 2), 1)
        assert osc_linear_bound_check(alpha, phi, beta, psi, space.full).ok

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_function(),
           st.fractions(min_value=-3, max_value=3, max_denominator=4),
           st.fractions(min_value=-2, max_value=2, max_denominator=4))
    def test_affine_scales_oscillation_exactly(self, sf, slope, shift):
        # affine post-composition multiplies the oscillation by |slope|,
        # which is why rescaled separators stay continuous along the map
        space, phi = sf
        scaled = affine(phi, slope, shift)
        assert osc_on_set(scaled, space.full) == \
            abs(slope) * osc_on_set(phi, space.full)


class TestSublevelDisjointness:
    def test_discrete(self, D2):
        phi = RationalFunction.total(D2, [0, 1])
        rep = sublevel_disjointness(phi, 0, 1)
        assert rep.low == 0b01 and rep.high == 0b10
        assert rep.low_misses_cl_high and rep.cl_low_misses_high

    def test_gap_too_small(self, S):
        phi = indicator1(S)
        with pytest.raises(PreconditionGap):
            sublevel_disjointness(phi, 0, 1)

    def test_constant_vacuous(self, C3):
        phi = RationalFunction.constant(C3, 4)
        rep = sublevel_disjointness(phi, 3, 5)
        assert rep.low == 0 and rep.high == 0

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_function(),
           st.fractions(min_value=-4, max_value=4, max_denominator=6),
           st.fractions(min_value=0, max_value=2, max_denominator=6))
    def test_random_pass(self, sf, a, width):
        space, phi = sf
        b = a + width + osc_on_set(phi, space.full)
        if b - a > osc_on_set(phi, space.full):
            sublevel_disjointness(phi, a, b)  # must not raise CheckFailed


class TestFContinuity:
    def test_identity_sierpinski(self, S):
        f = identity_map(S)
        phi = indicator1(S)
        assert is_f_continuous_at(f, phi, 0).holds
        assert not is_f_continuous_at(f, phi, 1).holds

    def test_empty_preimage(self, D2):
        f = FiberedMap(point(), D2, [0])
        phi = RationalFunction.total(point(), [Fraction(9)])
        assert is_f_continuous_at(f, phi, 1).holds

    def test_matches_for_all_epsilon_definition(self):
        # the epsilon-quantified form, decided by exhaustive neighborhood
        # search, equals the minimal-neighborhood collapse
        rng = random.Random(5)
        for n in range(1, 4):
            for space in canonical_spaces(n):
                f = identity_map(space)
                for _ in range(10):
                    phi = random_function(space, rng)
                    for y in range(space.n):
                        best = None
                        for o in space.opens:
                            if o >> y & 1:
                                val = osc_on_set(phi, f.preimage(o))
                                best = val if best is None else min(best, val)
                        assert (best == 0) == is_f_continuous_at(f, phi, y).holds


class TestEquicontinuity:
    def test_single_member_matches_f_continuity(self, S):
        f = identity_map(S)
        ok, cert = is_f_equicontinuous_at(f, [indicator1(S)], 1)
        assert not ok and cert.bound == 1

    def test_constants(self, S):
        f = identity_map(S)
        fam = [RationalFunction.constant(S, k) for k in range(3)]
        ok, cert = is_f_equicontinuous_at(f, fam, 1)
        assert ok and cert.bound == 0

    def test_empty_family(self, S):
        ok, cert = is_f_equicontinuous_at(identity_map(S), [], 0)
        assert ok and cert.member_oscs == ()


class TestWeightedSum:
    def test_constants(self, S):
        f = identity_map(S)
        fam = [RationalFunction.constant(S, 1)] * 2
        res = weighted_sum(f, fam, [Fraction(1, 2), Fraction(1, 4)], 1)
        assert set(res.phi.values) == {Fraction(3, 4)}

    def test_identity_weight(self, S):
        f = identity_map(S)
        phi = indicator1(S)
        res = weighted_sum(f, [phi], [1], 0)
        assert res.phi.values == phi.values

    def test_indicator_zero_side(self, S):
        f = identity_map(S)
        phi = RationalFunction.indicator(S, 0b01)
        res = weighted_sum(f, [phi], [1], 0)
        assert res.phi.values[0] == 1

    def test_rejects_discontinuous_member(self, S):
        f = identity_map(S)
        with pytest.raises(MemberNotFContinuous) as err:
            weighted_sum(f, [indicator1(S)], [1], 1)
        assert err.value.index == 0 and err.value.y == 1

    @settings(max_examples=40, deadline=None)
    @given(spaces_with_function(max_points=4),
           st.fractions(min_value=-2, max_value=2, max_denominator=4))
    def test_linear_space_closure(self, sf, weight):
        # functions f-continuous at y are closed under linear combination
        space, phi = sf
        f = constant_map(space)
        if not is_f_continuous_at(f, phi, 0).holds:
            return
        res = weighted_sum(f, [phi, affine(phi, 2, 1)], [weight, 1], 0)
        assert is_f_continuous_at(f, res.phi, 0).holds
