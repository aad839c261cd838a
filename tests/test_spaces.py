import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertop.census import canonical_spaces, census_instances
from fibertop.errors import (
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    NotOpen,
    TopologyError,
    points_text,
)
from fibertop.spaces import (
    FiberedMap,
    FiniteSpace,
    Submapping,
    bits,
    bits_tuple,
    chain,
    constant_map,
    discrete,
    identity_map,
    indiscrete,
    is_f_sigma_submapping,
    is_f_sigma_subset,
    mask_of,
    point,
    restrict_map,
    sierpinski,
    validate_topology,
)
from fibertop.textfmt import parse_instance

from conftest import spaces


class TestValidateTopology:
    def test_sierpinski(self):
        space = validate_topology(2, [0b00, 0b01, 0b11])
        assert space.opens == (0, 1, 3)

    def test_union_violation_reports_witness(self):
        with pytest.raises(NotClosedUnderUnion) as err:
            validate_topology(2, [0b00, 0b01, 0b10])
        a, b = err.value.witness
        assert a | b == 0b11

    def test_discrete_powerset(self):
        space = validate_topology(3, range(8))
        assert len(space.opens) == 8

    def test_missing_full(self):
        with pytest.raises(MissingEmptyOrFull):
            validate_topology(2, [0b00, 0b01])

    def test_intersection_violation(self):
        # {0,1} and {1,2} without {1}
        with pytest.raises(NotClosedUnderIntersection):
            validate_topology(3, [0b000, 0b011, 0b110, 0b111])

    def test_input_order_irrelevant(self):
        a = validate_topology(2, [0b11, 0b00, 0b01])
        b = validate_topology(2, [0b00, 0b01, 0b11])
        assert a == b

    @pytest.mark.parametrize("opens, named", [
        ([0, -1, 7], "-1"), ([0, -2, 7], "-2"), ([0, 0b1010, 7], "{1 3}")])
    def test_out_of_range_open_is_named_as_given(self, opens, named):
        # a negative mask is no set of points: the message must not read
        # its low bits as one
        with pytest.raises(ValueError) as err:
            FiniteSpace(3, opens)
        assert str(err.value) == f"open {named} uses points outside 0..2"


    def test_every_family_on_three_points(self):
        # accepted exactly when it is a topology, checked by brute force
        subsets = range(8)
        for code in range(1 << 8):
            family = [m for m in subsets if code >> m & 1]
            fam = set(family)
            topology = ({0, 7} <= fam
                        and all(a | b in fam and a & b in fam
                                for a in fam for b in fam))
            try:
                space = validate_topology(3, family)
            except (MissingEmptyOrFull, NotClosedUnderIntersection,
                    NotClosedUnderUnion):
                assert not topology
            else:
                assert topology and space.opens == tuple(sorted(fam))
                for x in range(3):
                    around = [o for o in fam if o >> x & 1]
                    nbhd = 7
                    for o in around:
                        nbhd &= o
                    assert space.min_nbhd(x) == nbhd


def _validate_intersection_first(n: int, opens) -> list[int]:
    """The validator as it was before the one-pass minimal neighborhoods:
    each U_x is the intersection of the opens around x, and every check
    reads those intersections.  Returns them, or raises as it did."""
    full = (1 << n) - 1
    family = sorted(set(int(o) for o in opens))
    for o in family:
        if o & ~full:
            raise ValueError(f"open {points_text(o)} uses points outside "
                             f"0..{n - 1}")
    cand = [full] * n
    for o in family:
        for x in bits(o):
            cand[x] &= o
    fam_set = set(family)
    if 0 not in fam_set:
        raise MissingEmptyOrFull("family must contain the empty set")
    covered = 0
    for o in family:
        covered |= o
    if covered != full:
        raise MissingEmptyOrFull(
            f"no open covers point {(full & ~covered).bit_length() - 1}")
    for x in range(n):
        if cand[x] not in fam_set:
            acc = None
            for o in family:
                if o >> x & 1:
                    nxt = o if acc is None else acc & o
                    if acc is not None and nxt not in fam_set:
                        raise NotClosedUnderIntersection(acc, o)
                    acc = nxt
            raise AssertionError("intersection witness not found")
    seen, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for x in range(n):
            u = cur | cand[x]
            if u not in seen:
                if u not in fam_set:
                    raise NotClosedUnderUnion(cur, cand[x])
                seen.add(u)
                frontier.append(u)
    assert len(seen) == len(fam_set)
    return cand


def _outcome(validate, n, family):
    try:
        return validate(n, family)
    except (ValueError, TopologyError) as exc:
        return type(exc), str(exc)


class TestAgainstIntersectionFirst:
    """The one-pass least opens and the nesting check: the same spaces,
    minimal neighborhoods, and first error (type and message) as the
    intersection-first check."""

    @staticmethod
    def _new(n, family):
        return list(validate_topology(n, family)._min_nbhd)

    def test_every_family_on_three_points(self):
        errors = 0
        for code in range(1 << 8):
            family = [m for m in range(8) if code >> m & 1]
            want = _outcome(_validate_intersection_first, 3, family)
            assert _outcome(self._new, 3, family) == want, family
            errors += isinstance(want, tuple)
        assert errors == 256 - 29  # OEIS A000798: 29 topologies on 3 points

    def test_seeded_families_on_four_points(self):
        rng = random.Random(4096)
        for _ in range(3000):
            family = rng.sample(range(16), rng.randint(2, 16))
            family += [0, 15][:rng.randint(0, 2)]
            assert (_outcome(self._new, 4, family)
                    == _outcome(_validate_intersection_first, 4, family)), family

    def test_census_spaces_with_one_open_added_or_removed(self):
        for n in range(1, 6):
            for space in canonical_spaces(n):
                fam = set(space.opens)
                for family in ([fam - {o} for o in fam]
                               + [fam | {m} for m in range(1 << n) if m not in fam]):
                    assert (_outcome(self._new, n, family)
                            == _outcome(_validate_intersection_first, n, family))

    @pytest.mark.parametrize("family", [[0, 1, 8, 9], [0, -1, 7], [0, 3, 4, 7, 16]])
    def test_points_outside_the_space(self, family):
        assert (_outcome(self._new, 3, family)
                == _outcome(_validate_intersection_first, 3, family))

    def test_census_spaces_subspaces_and_relabelings(self):
        rng = random.Random(185)
        for n in range(1, 6):
            for space in canonical_spaces(n):
                views = [space.subspace(c).space for c in range(1, 1 << n)]
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    views.append(space.relabel(perm))
                for view in [space] + views:
                    meets = [view.full] * view.n
                    for o in view.opens:
                        for x in bits(o):
                            meets[x] &= o
                    assert list(view._min_nbhd) == meets


class TestMemoised:
    def test_once_per_walk_key_and_space(self):
        calls = []

        def first(space, *key):
            calls.append(("first", key))
            return ("first", key)

        def second(space, *key):
            calls.append(("second", key))
            return ("second", key)

        one, two = discrete(2), discrete(2)
        assert one == two
        assert one.memoised(first, 1, 2) == ("first", (1, 2))
        # another walk on the same key is not handed the first's answer
        assert one.memoised(second, 1, 2) == ("second", (1, 2))
        assert one.memoised(first, 1, 3) == ("first", (1, 3))
        hit = one.memoised(first, 1, 2)
        assert hit == ("first", (1, 2)) and hit is one.memoised(first, 1, 2)
        assert two.memoised(first, 1, 2) == ("first", (1, 2))
        assert calls == [("first", (1, 2)), ("second", (1, 2)),
                         ("first", (1, 3)), ("first", (1, 2))]

    def test_a_walk_that_raises_stores_nothing(self):
        space, attempts = discrete(2), []

        def failing(space, k):
            attempts.append(k)
            raise ValueError(f"walk {k} failed")

        for _ in range(2):
            with pytest.raises(ValueError, match="walk 5 failed"):
                space.memoised(failing, 5)
        assert attempts == [5, 5] and not space._memo


class TestClosureInterior:
    def test_sierpinski_closure(self, S):
        assert S.closure(0b01) == 0b11
        assert S.closure(0b10) == 0b10

    def test_discrete_closure(self, D3):
        assert D3.closure(0b101) == 0b101

    def test_sierpinski_interior(self, S):
        assert S.interior(0b10) == 0
        assert S.interior(0b11) == 0b11
        assert S.interior(0b01) == 0b01

    def test_minimal_neighborhoods(self, S, D3):
        assert S.min_nbhd(0) == 0b01
        assert S.min_nbhd(1) == 0b11
        assert D3.min_nbhd(2) == 0b100

    @settings(max_examples=60, deadline=None)
    @given(spaces(max_points=6), st.integers(0, 63), st.integers(0, 63))
    def test_kuratowski_laws(self, space, a, b):
        a &= space.full
        b &= space.full
        cl = space.closure
        assert cl(cl(a)) == cl(a)
        if a & ~b == 0:
            assert cl(a) & ~cl(b) == 0
        assert cl(a | b) == cl(a) | cl(b)
        assert cl(0) == 0
        # interior duality
        assert space.interior(a) == space.full & ~cl(space.full & ~a)

    @settings(max_examples=60, deadline=None)
    @given(spaces(max_points=6))
    def test_min_nbhd_is_least_open(self, space):
        for x in range(space.n):
            m = space.min_nbhd(x)
            assert space.is_open(m) and m >> x & 1
            for o in space.opens:
                if o >> x & 1:
                    assert m & ~o == 0


def _per_bit(table, mask: int) -> int:
    out = 0
    for x in bits(mask):
        out |= table(x)
    return out


class TestLookupTables:
    """closure and hull read lookup tables; they must equal the unions of
    singleton closures and minimal neighborhoods."""

    def _check(self, space, masks):
        for m in masks:
            assert space.closure(m) == _per_bit(space.closure_point, m)
            assert space.hull(m) == _per_bit(space.min_nbhd, m)

    def test_every_canonical_space_up_to_5_points(self):
        for n in range(1, 6):
            for space in canonical_spaces(n):
                self._check(space, range(1 << n))

    @pytest.mark.parametrize("make", [chain, discrete])
    def test_twelve_points(self, make):
        space = make(12)
        self._check(space, range(1 << 12))

    @pytest.mark.parametrize("make", [chain, indiscrete])
    def test_masks_spanning_several_tables(self, make):
        space = make(30)  # few opens, so the space itself stays small
        rng = random.Random(5)
        self._check(space, [rng.getrandbits(30) for _ in range(500)]
                    + [space.full, 1 << 29, 1 << 12 | 1 << 11])


class TestSaturation:
    def test_union_of_meeting_classes_on_census4(self):
        for n in range(1, 5):
            for space in canonical_spaces(n):
                for region in range(space.full + 1):
                    classes = space.nbhd_classes(region)
                    for mask in range(space.full + 1):
                        literal = 0
                        for comp in classes:
                            if comp & mask:
                                literal |= comp
                        assert space.saturation(region, mask) == literal, \
                            (space.opens, region, mask)


class TestSubspace:
    def test_single_point(self, S):
        sub = S.subspace(0b10)
        assert sub.space.n == 1 and sub.space.opens == (0, 1)

    def test_chain_trace_is_sierpinski(self, C3):
        sub = C3.subspace(0b110)
        # traces of the chain opens on {1,2} are {}, {1}, {1,2}
        assert sub.space.opens == (0, 1, 3)
        assert sub.points == (1, 2)

    @settings(max_examples=40, deadline=None)
    @given(spaces(max_points=5), st.integers(0, 31), st.integers(0, 31))
    def test_subspace_of_subspace(self, space, a, b):
        a &= space.full
        b &= space.full
        first = space.subspace(a)
        second = first.space.subspace(first.from_parent(a & b))
        direct = space.subspace(a & b)
        # compare up to re-indexing through the back-maps
        via = tuple(first.points[p] for p in second.points)
        assert via == direct.points
        relabel = {i: direct.points.index(first.points[p])
                   for i, p in enumerate(second.points)}
        remapped = tuple(sorted(
            mask_of(relabel[i] for i in bits_tuple(o)) for o in second.space.opens))
        assert remapped == direct.space.opens


class TestFiberedMap:
    def test_continuity_rejected(self, S):
        # 0 -> 1, 1 -> 0 pulls the open {0} back to the non-open {1}
        with pytest.raises(NotContinuous):
            FiberedMap(S, S, [1, 0])

    def test_preimage(self, S, D3):
        f = FiberedMap(D3, S, [0, 0, 1])
        assert f.preimage(0b01) == 0b011
        assert f.fiber(1) == 0b100

    @settings(max_examples=50, deadline=None)
    @given(spaces(max_points=4), spaces(max_points=4),
           st.integers(0, 3 ** 6))
    def test_continuity_equals_specialization_preservation(self, dom, cod, pick):
        tables = []
        def enumerate_tables(prefix):
            if len(tables) > 200:
                return
            if len(prefix) == dom.n:
                tables.append(tuple(prefix))
                return
            for v in range(cod.n):
                enumerate_tables(prefix + [v])
        enumerate_tables([])
        table = tables[pick % len(tables)]
        definitional = all(dom.is_open(
            mask_of(x for x in range(dom.n) if o >> table[x] & 1))
            for o in cod.opens)
        specialization = all(
            not (dom.closure_point(xp) >> x & 1) or
            (cod.closure_point(table[xp]) >> table[x] & 1)
            for x in range(dom.n) for xp in range(dom.n))
        assert definitional == specialization
        if definitional:
            FiberedMap(dom, cod, table)
        else:
            with pytest.raises(NotContinuous):
                FiberedMap(dom, cod, table)


def _nbhd_table_exact(f: FiberedMap) -> bool:
    cod = f.codomain
    return f._nbhd_pre == tuple(f.preimage(cod.min_nbhd(y))
                                for y in range(cod.n))


class TestNbhdPreimages:
    """``_nbhd_pre[y]`` is f^{-1}(U_y), however the map was built."""

    def test_census_5_maps_and_their_restrictions(self):
        for inst in census_instances(5):
            f = inst.f
            untrusted = FiberedMap(f.domain, f.codomain, f.table)
            assert _nbhd_table_exact(f) and _nbhd_table_exact(untrusted)
            for o in f.codomain.opens:
                assert _nbhd_table_exact(restrict_map(f, o)[0])
            for carrier in range(f.domain.full + 1):
                assert _nbhd_table_exact(Submapping(f, carrier).induced()[0])

    def test_demo_file_maps(self):
        demo = Path(__file__).resolve().parents[1] / "scripts" / "demo.top"
        maps = parse_instance(demo.read_text()).maps
        assert maps
        for f in maps.values():
            assert _nbhd_table_exact(f)
            # the fibre alone misses the points mapped into U_y - {y}
            assert any(f._nbhd_pre[y] != f.fiber(y)
                       for y in range(f.codomain.n))


class TestRestrictMap:
    def test_identity_on_point(self, S):
        g, dom, cod = restrict_map(identity_map(S), 0b01)
        assert dom.space.n == 1 and cod.space.n == 1 and g.table == (0,)

    def test_empty_domain(self, S, D3):
        f = constant_map(D3, S, at=1)
        g, dom, _ = restrict_map(f, 0b01)
        assert dom.space.n == 0 and g.table == ()

    def test_chain_to_sierpinski(self, C3, S):
        f = FiberedMap(C3, S, [0, 0, 1])
        g, dom, cod = restrict_map(f, 0b01)
        assert dom.points == (0, 1) and cod.points == (0,)
        assert g.table == (0, 0)

    def test_requires_open(self, S):
        with pytest.raises(NotOpen, match=r"^set \{1\} is not open$"):
            restrict_map(identity_map(S), 0b10)


class TestFSigma:
    def test_closed_set(self, S):
        ok, decomp, _ = is_f_sigma_subset(S, S.full, 0b10)
        assert ok and decomp == (0b10,)

    def test_open_point_fails(self, S):
        ok, _, witness = is_f_sigma_subset(S, S.full, 0b01)
        assert not ok and witness == 0

    def test_empty(self, S):
        ok, decomp, _ = is_f_sigma_subset(S, S.full, 0)
        assert ok and decomp == ()

    @settings(max_examples=50, deadline=None)
    @given(spaces(max_points=5), st.integers(0, 31))
    def test_criterion_matches_union_of_closures(self, space, t):
        t &= space.full
        ok, decomp, _ = is_f_sigma_subset(space, space.full, t)
        union = 0
        for piece in decomp:
            union |= piece
        if ok:
            assert union == t
        else:
            assert any(space.closure_point(x) & ~t for x in bits_tuple(t))


class TestFSigmaSubmapping:
    def test_open_carrier_of_sierpinski_id_fails(self, S):
        rep = is_f_sigma_submapping(Submapping(identity_map(S), 0b01))
        assert not rep.holds and rep.failure_y == 1

    def test_closed_carrier_holds(self, S):
        rep = is_f_sigma_submapping(Submapping(identity_map(S), 0b10))
        assert rep.holds

    def test_discrete_identity_all_carriers(self, D2):
        f = identity_map(D2)
        for carrier in range(4):
            assert is_f_sigma_submapping(Submapping(f, carrier)).holds


def test_factories_are_valid():
    for space in [sierpinski(), discrete(3), chain(4), point()]:
        validate_topology(space.n, space.opens)
