import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertop.census import (
    canonical_spaces,
    census_instances,
    minimal_nbhd_assignments,
    space_from_min_nbhds,
)
from fibertop.errors import (
    InstanceValidationError,
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
    _unions,
    bits,
    bits_tuple,
    chain,
    constant_map,
    discrete,
    identity_map,
    indiscrete,
    mask_of,
    point,
    sierpinski,
)
from fibertop.textfmt import parse_instance

from conftest import _random_poset, make_space, seeded_maps, shuffled, spaces
from subspace_reference import (
    Submapping,
    is_f_sigma_submapping,
    is_f_sigma_subset,
    restrict_map,
    subspace,
)


class TestValidateTopology:
    def test_sierpinski(self):
        space = FiniteSpace(2, [0b00, 0b01, 0b11])
        assert space.opens == (0, 1, 3)

    def test_union_violation_reports_witness(self):
        with pytest.raises(NotClosedUnderUnion) as err:
            FiniteSpace(2, [0b00, 0b01, 0b10])
        a, b = err.value.witness
        assert a | b == 0b11

    def test_discrete_powerset(self):
        space = FiniteSpace(3, range(8))
        assert len(space.opens) == 8

    def test_missing_full(self):
        with pytest.raises(MissingEmptyOrFull):
            FiniteSpace(2, [0b00, 0b01])

    def test_intersection_violation(self):
        # {0,1} and {1,2} without {1}
        with pytest.raises(NotClosedUnderIntersection):
            FiniteSpace(3, [0b000, 0b011, 0b110, 0b111])

    def test_input_order_irrelevant(self):
        a = FiniteSpace(2, [0b11, 0b00, 0b01])
        b = FiniteSpace(2, [0b00, 0b01, 0b11])
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
                space = FiniteSpace(3, family)
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
        return list(FiniteSpace(n, family)._min_nbhd)

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
                views = [subspace(space, c).space for c in range(1, 1 << n)]
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


def _accepted(n, family):
    space = FiniteSpace(n, family)
    return space.opens, list(space._min_nbhd)


def _accepted_intersection_first(n, family):
    return (tuple(sorted(set(family))),
            _validate_intersection_first(n, family))


class TestAcceptanceThroughMinimalNeighborhoods:
    """A family is accepted when each U_x holds x, the U_x nest, and their
    unions are the family; only a rejected family runs the checks that name
    its error.  Differential against the intersection-first check on seeded
    labelled topologies and their one-step mutations."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_seeded_topologies_and_mutations(self, n):
        rng = random.Random(2700 + n)
        full = (1 << n) - 1
        outcomes = set()
        for _ in range(100):
            space = make_space(n, [rng.randrange(1 << n) for _ in range(n)])
            fam = set(space.opens)
            x = rng.randrange(n)
            families = [fam, {o & ~(1 << x) for o in fam}]  # x left uncovered
            families += [fam - {o} for o in rng.sample(sorted(fam), min(4, len(fam)))]
            others = [m for m in range(full + 1) if m not in fam]
            families += [fam | {m} for m in rng.sample(others, min(4, len(others)))]
            for family in families:
                want = _outcome(_accepted_intersection_first, n, family)
                assert _outcome(_accepted, n, family) == want, family
                outcomes.add(want[0] if isinstance(want[0], type) else "ok")
        assert outcomes == {"ok", MissingEmptyOrFull, NotClosedUnderUnion,
                            NotClosedUnderIntersection}

    def test_singletons_without_their_unions(self):
        """The U_x of the empty set, the 40 singletons and the full set
        nest, but their 2^40 unions are not the family: the union walk
        stops at the first one outside it."""
        n = 40
        text = ("space S\npoints 40\nopens\n-\n"
                + "".join(f"{x}\n" for x in range(n))
                + " ".join(map(str, range(n))) + "\n")
        with pytest.raises(NotClosedUnderUnion,
                           match=r"^union of opens \{39\} and \{0\} is not open$"):
            FiniteSpace(n, [0, *(1 << x for x in range(n)), (1 << n) - 1])
        with pytest.raises(InstanceValidationError) as err:
            parse_instance(text)
        assert str(err.value) == ("space S (line 1): union of opens {39} "
                                  "and {0} is not open")

    def test_spaces_from_their_tables(self):
        for n in range(1, 5):
            for nbhds in minimal_nbhd_assignments(n):
                space = space_from_min_nbhds(nbhds)
                rebuilt = FiniteSpace(n, space.opens)
                assert space._min_nbhd == rebuilt._min_nbhd == nbhds
                assert space._cl_point == rebuilt._cl_point
                assert space._opens_set == rebuilt._opens_set


def _assert_same_space(built, want):
    """built, a space from its table, is want, a space from its opens, in
    every field and reading."""
    assert built.n == want.n and built.full == want.full
    assert built._min_nbhd == want._min_nbhd
    assert built._cl_point == want._cl_point
    if built.n <= 8:
        # before the opens are read: a search reads them, a known key not
        assert built.canonical_form() == want.canonical_form()
    assert built.opens == want.opens
    assert built._opens_set == want._opens_set
    assert built == want and hash(built) == hash(want)


def _relabel_by_opens(space, perm):
    """The oracle for relabel: every open renamed point by point."""
    return FiniteSpace(space.n, [mask_of(perm[p] for p in bits(o))
                                 for o in space.opens])


class TestFromMinNbhds:
    """FiniteSpace.from_min_nbhds checks a table and keeps it; the opens
    are the unions of its U_x, built on first read."""

    def test_every_labelled_table_up_to_five_points(self):
        tables = [t for n in range(1, 6) for t in minimal_nbhd_assignments(n)]
        assert len(tables) == 7331
        for table in tables:
            _assert_same_space(FiniteSpace.from_min_nbhds(table),
                               FiniteSpace(len(table), _unions(table)))

    def test_seeded_tables_at_twelve_points(self):
        rng = random.Random(3101)
        tables = [_random_poset(12, rng, lambda i, j: True) for _ in range(40)]
        for f in seeded_maps(40, 12, 3102):
            tables += [f.domain._min_nbhd, f.codomain._min_nbhd]
        for table in tables:
            built = FiniteSpace.from_min_nbhds(table)
            want = FiniteSpace(len(table), _unions(table))
            if built.n > 8:
                for space in (built, want):
                    with pytest.raises(ValueError, match="capped at 8 points"):
                        space.canonical_form()
            _assert_same_space(built, want)

    def test_a_known_key_builds_no_opens(self):
        for table in minimal_nbhd_assignments(4):
            form = FiniteSpace.from_min_nbhds(table).canonical_form()
            space = FiniteSpace.from_min_nbhds(table)
            assert space.canonical_form() == form
            assert space._opens is None and space._open_set is None
            assert space.is_open(space.full)
            assert space._opens == tuple(sorted(_unions(table)))

    @pytest.mark.parametrize("table, message", [
        ([0b10, 0b10], r"\{1\} of point 0 does not hold 0"),
        ([0b011, 0b110, 0b100],
         r"\{0 1\} of point 0 holds 1 but not its minimal neighborhood "
         r"\{1 2\}"),
        ([0b01, 0b110], r"\{1 2\} of point 1 uses points outside 0\.\.1"),
        # U_1 is out of range, and reached from U_0 before it is checked
        ([0b11, 0b1010], r"\{1 3\} of point 1 uses points outside 0\.\.1"),
        ([0b01, -1], r"-1 of point 1 uses points outside 0\.\.1"),
        ([0b11, -2], r"-2 of point 1 uses points outside 0\.\.1"),
        ([-2, 0b10], r"-2 of point 0 uses points outside 0\.\.1")])
    def test_bad_tables_name_the_point(self, table, message):
        with pytest.raises(ValueError, match=f"^minimal neighborhood {message}$"):
            FiniteSpace.from_min_nbhds(table)
        with pytest.raises(ValueError, match=message):
            space_from_min_nbhds(table)

    def test_relabel_moves_the_table(self):
        for n in range(1, 5):
            for space in canonical_spaces(n):
                for perm in permutations(range(n)):
                    _assert_same_space(space.relabel(perm),
                                       _relabel_by_opens(space, perm))


def _continuity_open_by_open(dom, cod, table):
    """The continuity check as it was before the minimal-neighborhood one:
    the preimage of every open of the codomain, in order, must be open."""
    for o in cod.opens:
        pre = mask_of(x for x in range(dom.n) if o >> table[x] & 1)
        if not dom.is_open(pre):
            raise NotContinuous(o, pre)


def _continuity_outcome(check, dom, cod, table):
    try:
        check(dom, cod, table)
    except NotContinuous as exc:
        return str(exc)
    return None


def _seeded_maps_between(nx: int, ny: int, count: int, rng) -> list[FiberedMap]:
    """Seeded continuous maps from nx to ny labelled points: the table is
    drawn first, then domain links that f carries into the codomain's."""
    out = []
    for _ in range(count):
        ys = make_space(ny, [rng.randrange(1 << ny) for _ in range(ny)])
        table = [rng.randrange(ny) for _ in range(nx)]
        nbhds = []
        for i in range(nx):
            u = 1 << i
            for j in range(nx):
                if rng.random() < 0.3 and ys.min_nbhd(table[i]) >> table[j] & 1:
                    u |= 1 << j
            nbhds.append(u)
        xs = make_space(nx, nbhds)
        out.append(FiberedMap(xs, ys, table))
    return out


class TestContinuityThroughMinimalNeighborhoods:
    """f is accepted when each f^-1(U_y) is open; a rejected map names the
    first open of the codomain whose preimage is not open, as the
    open-by-open check did."""

    def test_every_table_between_spaces_of_three_points(self):
        labelled = [space_from_min_nbhds(nbhds) for n in range(1, 4)
                    for nbhds in minimal_nbhd_assignments(n)]
        verdicts = set()
        for dom in labelled:
            for cod in labelled:
                for code in range(cod.n ** dom.n):
                    table = [code // cod.n ** x % cod.n for x in range(dom.n)]
                    want = _continuity_outcome(_continuity_open_by_open,
                                               dom, cod, table)
                    assert _continuity_outcome(FiberedMap, dom, cod,
                                               table) == want
                    verdicts.add(want is None)
        assert verdicts == {True, False}

    def test_seeded_seven_to_five_maps_with_one_image_changed(self):
        rng = random.Random(75)
        rejected = 0
        for f in _seeded_maps_between(7, 5, 200, rng):
            table = list(f.table)
            x = rng.randrange(7)
            table[x] = rng.choice([v for v in range(5) if v != table[x]])
            want = _continuity_outcome(_continuity_open_by_open,
                                       f.domain, f.codomain, table)
            assert _continuity_outcome(FiberedMap, f.domain, f.codomain,
                                       table) == want
            rejected += want is not None
        assert 0 < rejected < 200

    def test_seeded_tables_up_to_twelve_points(self):
        # arbitrary tables between the renamed spaces of seeded maps of
        # every size up to the cap: 175 of the 400 are discontinuous
        rng = random.Random(12)
        rejected = 0
        for total in range(3, 13):
            for g in seeded_maps(40, total, seed=100 + total):
                f = shuffled(g, rng)
                dom, cod = f.domain, f.codomain
                table = [rng.randrange(cod.n) for _ in range(dom.n)]
                want = _continuity_outcome(_continuity_open_by_open,
                                           dom, cod, table)
                assert _continuity_outcome(FiberedMap, dom, cod,
                                           table) == want
                rejected += want is not None
        assert 100 < rejected < 400


class TestMemoised:
    """``memoised((walk, *args))``: the caller builds the whole key, so a
    hit is one dict probe."""

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
        assert one.memoised((first, 1, 2)) == ("first", (1, 2))
        # another walk on the same key is not handed the first's answer
        assert one.memoised((second, 1, 2)) == ("second", (1, 2))
        assert one.memoised((first, 1, 3)) == ("first", (1, 3))
        hit = one.memoised((first, 1, 2))
        assert hit == ("first", (1, 2)) and hit is one.memoised((first, 1, 2))
        assert two.memoised((first, 1, 2)) == ("first", (1, 2))
        assert calls == [("first", (1, 2)), ("second", (1, 2)),
                         ("first", (1, 3)), ("first", (1, 2))]

    def test_a_hit_runs_no_walk(self):
        space, calls = discrete(3), []

        def walk(space, a, b):
            calls.append((a, b))
            return a + b

        key = (walk, 1, 2)
        assert [space.memoised(key) for _ in range(5)] == [3] * 5
        # an equal key built afresh is a hit too
        assert space.memoised((walk, 1, 2)) == 3
        assert calls == [(1, 2)] and space._memo == {key: 3}

    def test_a_reset_memo_refills(self):
        space, calls = discrete(2), []

        def walk(space, k):
            calls.append(k)
            return k * 10

        assert space._memo is None
        assert space.memoised((walk, 4)) == 40
        space._memo = None
        assert space.memoised((walk, 4)) == 40
        assert space.memoised((walk, 4)) == 40
        assert calls == [4, 4] and space._memo == {(walk, 4): 40}

    def test_an_unhashable_key_raises_and_stores_nothing(self):
        space = discrete(2)

        def walk(space, items):
            return len(items)

        # first on a memo that is still None, then on a filled one
        with pytest.raises(TypeError, match="unhashable"):
            space.memoised((walk, [1, 2]))
        assert not space._memo
        assert space.memoised((walk, (1, 2))) == 2
        with pytest.raises(TypeError, match="unhashable"):
            space.memoised((walk, [1, 2]))
        assert space._memo == {(walk, (1, 2)): 2}

    def test_a_walk_that_raises_stores_nothing(self):
        space, attempts = discrete(2), []

        def failing(space, k):
            attempts.append(k)
            raise ValueError(f"walk {k} failed")

        # the first miss finds the memo None, the second finds it empty
        for _ in range(2):
            with pytest.raises(ValueError, match="walk 5 failed") as info:
                space.memoised((failing, 5))
            # the missed lookup does not chain onto the walk's error
            assert info.value.__context__ is None
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


class TestPointUnions:
    """closure and hull of a mask are the unions of the singleton closures
    and of the minimal neighborhoods of its points."""

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
    def test_masks_past_twelve_points(self, make):
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
        sub = subspace(S, 0b10)
        assert sub.space.n == 1 and sub.space.opens == (0, 1)

    def test_chain_trace_is_sierpinski(self, C3):
        sub = subspace(C3, 0b110)
        # traces of the chain opens on {1,2} are {}, {1}, {1,2}
        assert sub.space.opens == (0, 1, 3)
        assert sub.points == (1, 2)

    @settings(max_examples=40, deadline=None)
    @given(spaces(max_points=5), st.integers(0, 31), st.integers(0, 31))
    def test_subspace_of_subspace(self, space, a, b):
        a &= space.full
        b &= space.full
        first = subspace(space, a)
        second = subspace(first.space, first.from_parent(a & b))
        direct = subspace(space, a & b)
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

    def test_image_on_census4(self):
        instances = list(census_instances(4))
        assert len(instances) == 75
        for inst in instances:
            f = inst.f
            for a in range(f.domain.full + 1):
                image = f.image(a)
                assert image == mask_of(f.table[x] for x in bits(a))
                assert not a & ~f.preimage(image)
            for b in f.codomain.opens:
                assert not f.image(f.preimage(b)) & ~b

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
    for space, opens in [(sierpinski(), [0, 1, 3]), (discrete(3), range(8)),
                         (indiscrete(3), [0, 7]), (chain(4), [0, 1, 3, 7, 15]),
                         (point(), [0, 1])]:
        _assert_same_space(space, FiniteSpace(space.n, opens))


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [1, 2, 3], [0, 1, 2, 3]])
def test_relabel_rejects_what_is_not_a_permutation(perm):
    # [0, 0, 1] used to give {∅, {0}, {0 1}} on 3 points with U_2 = 0, and
    # [0, 1] an IndexError
    with pytest.raises(ValueError, match=r"perm \[.*\] is not a permutation "
                                         r"of 0\.\.2"):
        chain(3).relabel(perm)
