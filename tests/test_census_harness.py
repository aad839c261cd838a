from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from fibertop.census import (
    Instance,
    canonical_spaces,
    census_instances,
    continuous_tables,
    minimal_nbhd_assignments,
    sampled_instances,
    space_from_min_nbhds,
)
from fibertop.classical import (
    space_normal,
    tietze_function,
    urysohn_function,
    vedenisov_perfectly_normal,
)
from fibertop.errors import SearchFailed
from fibertop import harness
from fibertop.harness import (
    LevelTables,
    _condition_c_ok,
    _level_tables,
    _stepwise_bounds_ok,
    classify,
    constant_map_degeneration,
    digest,
    functional_co_sigma,
    hierarchy_violations,
    report_json,
    summarize,
    theorem_record,
)
from fibertop.normality import (
    build_levels,
    build_binary_partitions,
    build_binary_partitions_sigma,
    is_co_sigma_perfectly_normal,
    is_hereditarily_normal,
    is_hereditarily_perfectly_normal,
    is_normal,
    is_perfectly_normal,
    is_sigma_normal,
    is_sigma_normal_on_f_sigma_submaps,
    verify_perfect_witness,
)
from fibertop.oscillation import RationalFunction, norm
from fibertop.partitions import assemble_limit
from fibertop.spaces import (
    FiniteSpace,
    FiberedMap,
    Submapping,
    bits,
    constant_map,
    discrete,
    identity_map,
    is_f_sigma_submapping,
    sierpinski,
)
from fibertop.urysohn_tietze import verify_condition_C
from levels_reference import build_levels_reference


KNOWN_LABELED = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
KNOWN_CANONICAL = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}


class TestEnumeration:
    def test_labeled_counts(self):
        for n, count in KNOWN_LABELED.items():
            assert len(minimal_nbhd_assignments(n)) == count

    def test_canonical_counts(self):
        for n, count in KNOWN_CANONICAL.items():
            assert len(canonical_spaces(n)) == count

    def test_canonical_reps_pairwise_distinct(self):
        forms = [s.canonical_form() for s in canonical_spaces(4)]
        assert len(set(forms)) == len(forms)

    def test_generated_spaces_validate(self):
        from fibertop.spaces import validate_topology
        for nbhds in minimal_nbhd_assignments(3):
            space = space_from_min_nbhds(nbhds)
            validate_topology(space.n, space.opens)

    def test_enumerated_maps_are_continuous(self):
        for x_space in canonical_spaces(3):
            for y_space in canonical_spaces(2):
                tables = continuous_tables(x_space, y_space)
                # re-validate through the definitional constructor
                for tab in tables:
                    FiberedMap(x_space, y_space, tab)
                # and confirm exhaustiveness against brute force
                brute = []
                for code in range(y_space.n ** x_space.n):
                    tab, c = [], code
                    for _ in range(x_space.n):
                        tab.append(c % y_space.n)
                        c //= y_space.n
                    try:
                        FiberedMap(x_space, y_space, tab)
                    except Exception:
                        continue
                    brute.append(tuple(tab))
                assert sorted(tables) == sorted(brute)

    def test_census_deterministic(self):
        a = [inst.uid for inst in census_instances(4)]
        b = [inst.uid for inst in census_instances(4)]
        assert a == b

    def test_sampled_instances_seeded(self):
        xs = sampled_instances(3, 10, seed=7)
        ys = sampled_instances(3, 10, seed=7)
        assert [i.f.table for i in xs] == [i.f.table for i in ys]


class TestClassical:
    def test_sierpinski_normal_not_perfect(self, S):
        assert space_normal(S)
        assert not vedenisov_perfectly_normal(S)

    def test_discrete_perfect(self, D3):
        assert vedenisov_perfectly_normal(D3)

    def test_v_poset_not_normal(self, V_poset):
        assert not space_normal(V_poset)

    def test_urysohn_matches_components(self, D2, V_poset):
        assert urysohn_function(D2, 0b01, 0b10) is not None
        assert urysohn_function(V_poset, 0b001, 0b010) is None

    def test_tietze_extension_agrees(self, D3):
        phit = RationalFunction(D3, (Fraction(2), None, Fraction(-1)), 0b101)
        ext = tietze_function(D3, phit)
        assert ext is not None
        assert ext.values[0] == 2 and ext.values[2] == -1
        assert norm(ext) <= norm(phit)


@pytest.fixture(scope="module")
def census5_builds():
    """Every build_levels call of the census-5 sweep, as (f, args, fresh,
    outcome), with the memos of the census spaces emptied first so that
    the first call on each key walks and the later ones hit."""
    for n in range(1, 5):
        for space in canonical_spaces(n):
            space._levels_memo = None
    calls = []

    def recording(f, *args):
        fresh = _memo_key(f, *args) not in (f.domain._levels_memo or {})
        try:
            levels = build_levels(f, *args)
        except SearchFailed as exc:
            calls.append((f, args, fresh, _failure(exc)))
            raise
        calls.append((f, args, fresh, _expand(f, levels)))
        return levels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "build_levels", recording)
        for inst in census_instances(5):
            theorem_record(inst, depth=6, extender_budget=0)
    return calls


def _memo_key(f: FiberedMap, f_side, t_side, y, depth):
    carrier = f.preimage(f.codomain.min_nbhd(y))
    return (carrier, f_side & carrier, t_side & carrier, depth)


def _expand(f: FiberedMap, levels) -> list:
    """A LevelIndex in the oracle's shape: [(nbhd, blocks), ...] from 0."""
    return [(f.codomain.full, (f.domain.full,))] + [
        (levels.nbhd, levels.blocks(n)) for n in range(1, levels.depth + 1)]


def _failure(exc: SearchFailed) -> tuple:
    return ("failed", exc.level, exc.step, exc.l)


def _reference(f: FiberedMap, *args):
    try:
        return build_levels_reference(f, *args)
    except SearchFailed as exc:
        return _failure(exc)


def _memoised(f: FiberedMap, *args):
    try:
        return _expand(f, build_levels(f, *args))
    except SearchFailed as exc:
        return _failure(exc)


class TestFastPathsAgainstPublic:
    def test_condition_c_and_bounds(self):
        for inst in census_instances(4):
            f = inst.f
            space = f.domain
            closed = sorted(space.full ^ o for o in space.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    try:
                        levels = build_levels(f, a, b, y, 4)
                    except SearchFailed:
                        with pytest.raises(SearchFailed):
                            build_binary_partitions(f, a, b, y, 4)
                        continue
                    fam = build_binary_partitions(f, a, b, y, 4)
                    assert ([(l.nbhd, l.blocks) for l in fam.levels]
                            == _expand(f, levels)
                            == build_levels_reference(f, a, b, y, 4))
                    lim = assemble_limit(fam)
                    rep = verify_condition_C(f, a, b, y, lim.phi,
                                             fam.levels[2].nbhd)
                    tables = _level_tables(space, levels)
                    assert rep.all_ok == _condition_c_ok(f, tables, a, b)
                    assert _stepwise_bounds_ok(tables)

    def test_integer_bounds_match_fractions(self, census5_builds):
        built = [(f, args) for f, args, _, out in census5_builds
                 if out[0] != "failed"]
        assert len(built) > 1000
        verdicts = set()
        for f, args in built:
            levels = build_levels(f, *args)
            ok = _stepwise_bounds_ok(_level_tables(f.domain, levels))
            assert ok == _stepwise_bounds_fraction(f, _expand(f, levels))
            verdicts.add(ok)
        assert verdicts == {True}

    def test_bounds_fail_on_mutated_tables(self):
        verdicts = Counter()
        for inst in census_instances(4):
            f = inst.f
            closed = sorted(f.domain.full ^ o for o in f.domain.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                try:
                    levels = build_levels(f, a, b, 0, 4)
                except SearchFailed:
                    continue
                tables = _level_tables(f.domain, levels)
                assert _stepwise_bounds_ok(tables)
                if not tables.points:
                    continue
                # shifting a whole level keeps every oscillation and breaks
                # the increment into it
                for n in range(2, len(tables.block_of)):
                    shifted = list(tables.block_of)
                    shifted[n] = [k + 3 for k in shifted[n]]
                    bad = tables._replace(block_of=tuple(shifted))
                    assert not _stepwise_bounds_ok(bad)
                    assert not _stepwise_bounds_fraction_on(bad)
                # moving one point by one or two blocks lands on both sides
                # of each bound; the verdict must match the rationals, also
                # with the levels below n cut off (no increment out of n)
                for n in range(1, len(tables.block_of)):
                    for x in tables.points:
                        for delta in (-2, -1, 1, 2):
                            moved = list(tables.block_of)
                            moved[n] = list(moved[n])
                            moved[n][x] += delta
                            for cut in (len(moved), n + 1):
                                bad = tables._replace(
                                    block_of=tuple(moved[:cut]))
                                ok = _stepwise_bounds_ok(bad)
                                assert ok == _stepwise_bounds_fraction_on(bad)
                                verdicts[ok] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100


class TestLevelMemo:
    def test_sweep_calls_match_reference(self, census5_builds):
        copies = {}
        fresh = Counter()
        for f, args, was_fresh, out in census5_builds:
            fresh[was_fresh] += 1
            expected = _reference(f, *args)
            assert out == expected
            # the same call again is served by the memo
            assert _memo_key(f, *args) in f.domain._levels_memo
            assert _memoised(f, *args) == expected
            # an equal space object has a memo of its own
            dom = copies.get(id(f.domain))
            if dom is None:
                dom = copies[id(f.domain)] = FiniteSpace(f.domain.n,
                                                         f.domain.opens)
            assert dom == f.domain and dom is not f.domain
            g = FiberedMap(dom, f.codomain, f.table)
            assert _memoised(g, *args) == expected
        keys = {(id(f.domain), _memo_key(f, *args))
                for f, args, _, _ in census5_builds}
        assert fresh[True] == len(keys) and fresh[False] > fresh[True]
        assert any(out[0] == "failed" for _, _, _, out in census5_builds)

    def test_nbhd_comes_from_each_call(self):
        # one domain object and carrier, two codomain neighborhoods of y
        space = discrete(2)
        over_point = constant_map(space)
        over_open_point = FiberedMap(space, sierpinski(), (1, 1))
        assert over_point.codomain.min_nbhd(0) == 0b1
        assert over_open_point.codomain.min_nbhd(1) == 0b11
        for f, y in ((over_point, 0), (over_open_point, 1),
                     (over_point, 0)):
            levels = build_levels(f, 0b01, 0b10, y, 3)
            assert levels.nbhd == f.codomain.min_nbhd(y)
            assert levels.carrier == space.full
            fam = build_binary_partitions(f, 0b01, 0b10, y, 3)
            assert [l.nbhd for l in fam.levels[1:]] == [levels.nbhd] * 3
        assert len(space._levels_memo) == 1

    def test_memoised_failure_carries_callers_component(self):
        # two closed points whose hulls meet in the open point 2
        space = FiniteSpace(3, [0b000, 0b100, 0b101, 0b110, 0b111])
        f = constant_map(space)
        with pytest.raises(SearchFailed) as first:
            build_levels(f, 0b001, 0b010, 0, 3)
        assert (first.value.level, first.value.l) == (1, None)
        with pytest.raises(SearchFailed) as direct:
            build_binary_partitions(f, 0b001, 0b010, 0, 3, component=1)
        assert direct.value.l == 1
        with pytest.raises(SearchFailed) as sigma:
            build_binary_partitions_sigma(f, 0b001, [0, 0b010], 0, 3)
        assert (sigma.value.level, sigma.value.step, sigma.value.l) == (
            1, "sandwich 0", 1)
        assert sigma.value.__cause__.l == 1
        assert len(space._levels_memo) == 2


class TestFamilyChecksMemo:
    def test_memo_matches_fresh_checks(self, census5_builds):
        verdicts = Counter()
        for f, (a, b, y, depth), _, out in census5_builds:
            if out[0] == "failed":
                continue
            levels = build_levels(f, a, b, y, depth)
            tables = _level_tables(f.domain, levels)
            expected = (_stepwise_bounds_ok(tables),
                        _condition_c_ok(f, tables, a, b))
            key = _memo_key(f, a, b, y, depth)
            assert f.domain._checks_memo[key] == expected
            assert harness._family_checks(f, levels, a, b) == expected
            verdicts[expected] += 1
        # every family the sweep builds passes both checks
        assert set(verdicts) == {(True, True)} and verdicts[True, True] > 1000

    def test_memo_keys_on_each_component(self):
        # one family checked against other sides, or read at another depth,
        # gets other verdicts; a key without F, T or the depth would hand
        # back the first of each pair
        f = constant_map(discrete(2))
        levels = build_levels(f, 0b01, 0b10, 0, 3)
        shallow = levels._replace(depth=1)
        pairs = [((levels, 0b01, 0b00), (levels, 0b11, 0b00)),
                 ((levels, 0b00, 0b00), (levels, 0b00, 0b01)),
                 ((levels, 0b01, 0b10), (shallow, 0b01, 0b10))]
        for pair in pairs:
            verdicts = []
            for lv, a, b in pair:
                tables = _level_tables(f.domain, lv)
                expected = (_stepwise_bounds_ok(tables),
                            _condition_c_ok(f, tables, a, b))
                assert harness._family_checks(f, lv, a, b) == expected
                verdicts.append(expected)
            assert verdicts[0] != verdicts[1]
        assert len(f.domain._checks_memo) == 2 * len(pairs)

    def test_memo_lives_on_each_space_object(self):
        records = 0
        for inst in census_instances(4):
            f = inst.f
            record = theorem_record(inst, extender_budget=0)
            if not record["stepwise"]["families"]:
                continue
            assert f.domain._checks_memo
            dom = FiniteSpace(f.domain.n, f.domain.opens)
            assert dom == f.domain and dom._checks_memo is None
            g = FiberedMap(dom, f.codomain, f.table)
            assert theorem_record(Instance(inst.uid, g), extender_budget=0) == record
            assert dom._checks_memo and dom._checks_memo is not f.domain._checks_memo
            records += 1
        assert records > 50


def _stepwise_bounds_fraction(f: FiberedMap, levels) -> bool:
    """The two stepwise bounds with exact rationals, read off the blocks."""
    w = f.preimage(levels[1][0])
    block_of = [None]
    for _, blocks in levels[1:]:
        idx = [0] * f.domain.n
        for k, block in enumerate(blocks):
            for x in bits(block & w):
                idx[x] = k
        block_of.append(idx)
    links = [(x, z) for x in bits(w) for z in bits(f.domain.min_nbhd(x))]
    return _stepwise_bounds_fraction_on(
        LevelTables(w, tuple(bits(w)), tuple(links), tuple(block_of)))


def _stepwise_bounds_fraction_on(tables) -> bool:
    block_of = tables.block_of
    for idx in block_of[1:]:
        for x, z in tables.links:
            if abs(idx[x] - idx[z]) > 1:
                return False
    for n in range(1, len(block_of) - 1):
        d_lo = Fraction(1, (1 << n) - 1)
        d_hi = Fraction(1, (1 << (n + 1)) - 1)
        lo, hi = block_of[n], block_of[n + 1]
        for x in tables.points:
            if abs(hi[x] * d_hi - lo[x] * d_lo) > d_hi:
                return False
    return True


def _is_f_sigma_literally(f: FiberedMap, carrier: int) -> bool:
    """Over each minimal preimage, the carrier trace is a union of closed
    sets of the re-indexed preimage subspace."""
    for y in range(f.codomain.n):
        view = f.domain.subspace(f.preimage(f.codomain.min_nbhd(y)))
        trace = view.from_parent(carrier)
        covered = 0
        for o in view.space.opens:
            closed = view.space.full ^ o
            if not closed & ~trace:
                covered |= closed
        if covered != trace:
            return False
    return True


def _bfs_classes(space, region: int) -> tuple[int, ...]:
    """Components of the graph on region linking x and z whenever every
    open around x contains z, found by breadth-first search."""
    points = [x for x in range(space.n) if region >> x & 1]

    def linked(x, z):
        return all(o >> z & 1 for o in space.opens if o >> x & 1)

    seen, comps = set(), []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        queue, comp = [start], 0
        while queue:
            x = queue.pop(0)
            comp |= 1 << x
            for z in points:
                if z not in seen and (linked(x, z) or linked(z, x)):
                    seen.add(z)
                    queue.append(z)
        comps.append(comp)
    return tuple(sorted(comps))


class TestCarrierRelativeDeciders:
    def test_carrier_deciders_match_induced_maps(self):
        for inst in census_instances(4):
            f = inst.f
            for carrier in range(f.domain.full + 1):
                induced, _ = Submapping(f, carrier).induced()
                assert is_normal(f, carrier).holds == is_normal(induced).holds
                assert is_sigma_normal(f, carrier).holds == \
                    is_sigma_normal(induced).holds
                assert is_perfectly_normal(f, False, carrier).holds == \
                    is_perfectly_normal(induced, with_witnesses=False).holds
                assert is_f_sigma_submapping(Submapping(f, carrier)).holds == \
                    _is_f_sigma_literally(f, carrier)

    def test_carrier_witnesses_verify(self):
        for inst in census_instances(3):
            f = inst.f
            for carrier in range(f.domain.full + 1):
                rep = is_perfectly_normal(f, carrier=carrier)
                induced, _ = Submapping(f, carrier).induced()
                assert rep.holds == is_perfectly_normal(induced).holds
                for w in rep.witnesses:
                    assert all(phi.carrier == carrier for phi in w.family)
                    assert verify_perfect_witness(f, w)

    def test_hereditary_deciders_match_induced_loops(self):
        # maps from 4-point spaces onto a point are the smallest ones with a
        # non-F_sigma submapping that is not sigma-normal
        onto_point = [inst for inst in census_instances(5)
                      if inst.f.domain.n == 4]
        for inst in [*census_instances(4), *onto_point]:
            f = inst.f
            carriers = range(f.domain.full + 1)
            induced = [Submapping(f, c).induced()[0] for c in carriers]

            def first_bad(ok):
                return next((c for c in carriers if not ok(c, induced[c])), None)

            expected = {
                is_hereditarily_normal:
                    first_bad(lambda c, g: is_normal(g).holds),
                is_hereditarily_perfectly_normal:
                    first_bad(lambda c, g: is_perfectly_normal(
                        g, with_witnesses=False).holds),
                is_sigma_normal_on_f_sigma_submaps:
                    first_bad(lambda c, g: (
                        not is_f_sigma_submapping(Submapping(f, c)).holds
                        or is_sigma_normal(g).holds)),
            }
            for decider, bad in expected.items():
                rep = decider(f)
                assert (rep.holds, rep.offending_carrier) == (bad is None, bad), \
                    (decider.__name__, inst.uid)

    def test_nbhd_classes_match_bfs_on_every_region(self):
        for space in canonical_spaces(4):
            for region in range(space.full + 1):
                assert space.nbhd_classes(region) == _bfs_classes(space, region)


class TestHarnessRecords:
    def test_no_mismatches_small_census(self):
        for inst in census_instances(4):
            rec = theorem_record(inst, depth=5, extender_budget=3)
            assert rec["mismatches"] == [], rec["id"]
            assert rec["hierarchy_violations"] == [], rec["id"]
            assert rec["anomalies"] == [], rec["id"]

    def test_functional_matches_co_sigma(self):
        for inst in census_instances(4):
            assert functional_co_sigma(inst.f) == \
                is_co_sigma_perfectly_normal(inst.f).holds, inst.uid

    def test_classify_consistent(self, S):
        cls = classify(identity_map(S))
        assert cls["normal"] and not cls["perfectly_normal"]
        assert not cls["co_perfectly_normal"]
        assert cls["hereditarily_normal"]
        assert hierarchy_violations(cls, False) == []

    def test_summarize_and_digest_stable(self):
        recs = [theorem_record(inst, depth=4, extender_budget=1)
                for inst in census_instances(3)]
        rep1 = summarize(recs, {"max_total": 3})
        recs2 = [theorem_record(inst, depth=4, extender_budget=1)
                 for inst in census_instances(3)]
        rep2 = summarize(recs2, {"max_total": 3})
        assert report_json(rep1) == report_json(rep2)
        assert digest(rep1) == digest(rep2)

    def test_miner_reports_none(self):
        recs = [theorem_record(inst, depth=4, extender_budget=0)
                for inst in census_instances(4)]
        rep = summarize(recs, {})
        assert rep["normal_not_sigma_normal"] == []

    def test_sampled_sweep_clean(self):
        for inst in sampled_instances(4, 40, seed=11):
            cls = classify(inst.f)
            assert hierarchy_violations(cls, inst.f.codomain.n == 1) == []


class TestConstantMapDegeneration:
    def test_small_run_clean(self):
        rep = constant_map_degeneration(n_max=3, depth=3)
        assert rep["pairs_checked"] > 0
        assert rep["separator_disagreements"] == []
        assert rep["tietze_disagreements"] == []
        assert rep["contract_failures"] == []
