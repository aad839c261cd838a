import contextlib
import copy
import gc
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from fibertop import census, cli
from fibertop.census import (
    Instance,
    all_spaces,
    canonical_spaces,
    census_instances,
    continuous_tables,
    minimal_nbhd_assignments,
    sampled_instances,
    space_from_min_nbhds,
)
from fibertop.classical import space_normal, vedenisov_perfectly_normal
from fibertop.errors import SearchFailed
from fibertop import harness
from fibertop.harness import (
    _json_pieces,
    classify,
    digest,
    functional_co_sigma,
    hierarchy_violations,
    run_theorem_sweep,
    summarize,
    theorem_record,
)
from fibertop import normality
from fibertop.normality import (
    LevelIndex,
    _condition_c_ok,
    build_levels,
    build_binary_partitions,
    is_co_sigma_perfectly_normal,
    is_hereditarily_normal,
    is_normal,
    is_perfectly_normal,
    is_sigma_normal,
    verify_perfect_witness,
)
from fibertop.oscillation import RationalFunction, norm
from fibertop.partitions import assemble_limit, stepwise_violation
from fibertop.spaces import (
    FiniteSpace,
    FiberedMap,
    bits,
    chain,
    constant_map,
    discrete,
    identity_map,
    sierpinski,
)
from fibertop.urysohn_tietze import sigma_separator_family, verify_condition_C
import normality_reference as ref
from conftest import PRINT_VMHWM, run_fresh, seeded_maps
from harness_reference import (
    constant_map_degeneration,
    extension_run_reference,
    theorem_record_reference,
    tietze_function,
    urysohn_function,
)
from levels_reference import (build_levels_reference, collapsed_walk,
                              level_blocks, partition_table)
from subspace_reference import Submapping, is_f_sigma_submapping, subspace


KNOWN_LABELED = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
KNOWN_CANONICAL = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}

# what sampled_instances draws: uid, U table and opens of each side, and
# the map's table, recorded when each labelled table was its own tuple
SAMPLED_PINS = {
    (4, 6, 7): [
        ("s0000", (3, 2, 4), (1, 2), (0, 2, 3, 4, 6, 7), (0, 1, 2, 3), (0, 0, 0)),
        ("s0001", (1,), (3, 3, 7), (0, 1), (0, 3, 7), (0,)),
        ("s0002", (1,), (1,), (0, 1), (0, 1), (0,)),
        ("s0003", (3, 3), (1,), (0, 3), (0, 1), (0, 0)),
        ("s0004", (3, 3), (1,), (0, 3), (0, 1), (0, 0)),
        ("s0005", (1,), (3, 3), (0, 1), (0, 3), (0,)),
    ],
    (6, 5, 0): [
        ("s0000", (1, 2, 7, 8), (3, 2, 4, 11),
         (0, 1, 2, 3, 7, 8, 9, 10, 11, 15), (0, 2, 3, 4, 6, 7, 11, 15),
         (1, 1, 1, 0)),
        ("s0001", (3, 3, 4, 11), (9, 10, 15, 8), (0, 3, 4, 7, 11, 15),
         (0, 8, 9, 10, 11, 15), (3, 3, 0, 2)),
        ("s0002", (11, 10, 14, 10, 16), (1, 3),
         (0, 10, 11, 14, 15, 16, 26, 27, 30, 31), (0, 1, 3), (1, 0, 0, 0, 0)),
        ("s0003", (3, 2), (1,), (0, 2, 3), (0, 1), (0, 0)),
        ("s0004", (1,), (49, 10, 30, 10, 16, 49), (0, 1),
         (0, 10, 16, 26, 30, 49, 59, 63), (2,)),
    ],
}


class TestEnumeration:
    def test_labeled_counts(self):
        for n, count in KNOWN_LABELED.items():
            assert len(minimal_nbhd_assignments(n)) == count

    def test_backtracking_leaves_no_garbage(self):
        # the nested recursive searches must not leave a reference cycle
        # for the collector: with it disabled, nothing is left to collect
        census._LABELED_CACHE.pop(3, None)
        gc.collect()
        gc.disable()
        try:
            minimal_nbhd_assignments(3)
            assert gc.collect() == 0
            continuous_tables(chain(2), chain(2))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_canonical_counts(self):
        for n, count in KNOWN_CANONICAL.items():
            assert len(canonical_spaces(n)) == count

    def test_canonical_reps_pairwise_distinct(self):
        forms = [s.canonical_form() for s in canonical_spaces(4)]
        assert len(set(forms)) == len(forms)

    def test_generated_spaces_validate(self):
        for nbhds in minimal_nbhd_assignments(3):
            space = space_from_min_nbhds(nbhds)
            FiniteSpace(space.n, space.opens)

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

    def test_past_the_form_cap_nothing_is_enumerated(self, monkeypatch):
        # the cap is checked before any labelled topology is enumerated,
        # and the census checks its largest side before its first instance
        # a side bound within the cap keeps a larger total legal
        assert next(census_instances(10, 1)).uid == "x1.000-y1.000-m000"
        calls = []
        monkeypatch.setattr(census, "minimal_nbhd_assignments",
                            lambda n: calls.append(n) or ())
        with pytest.raises(ValueError, match=r"^canonical spaces are capped "
                                             r"at 8 points, not 9$"):
            canonical_spaces(9)
        for args in [(10,), (10, 9), (12, 9)]:
            with pytest.raises(ValueError, match="capped at 8 points"):
                next(census_instances(*args))
        assert calls == []

    def test_past_the_labelled_limit_nothing_is_enumerated(self, monkeypatch):
        # sides of 7 and 8 points are within the cap of forms, but the
        # census would first canonicalise every labelled topology of the side
        calls = []
        monkeypatch.setattr(census, "minimal_nbhd_assignments",
                            lambda n: calls.append(n) or ())

        def capped(side: int) -> str:
            return (f"census sides are capped at 6 points, not {side}: a larger"
                    " side means canonicalising every labelled space of its"
                    " size, 9,535,241 at 7 points")

        for args, side in [((8,), 7), ((9, 8), 8), ((12, 7), 7)]:
            with pytest.raises(ValueError) as err:
                next(census_instances(*args))
            assert str(err.value) == capped(side)
        with pytest.raises(ValueError) as err:
            sampled_instances(7, 3, seed=0)
        assert str(err.value) == capped(7)
        assert calls == []

    def test_census_deterministic(self):
        a = [inst.uid for inst in census_instances(4)]
        b = [inst.uid for inst in census_instances(4)]
        assert a == b

    def test_sampled_instances_seeded(self):
        xs = sampled_instances(3, 10, seed=7)
        ys = sampled_instances(3, 10, seed=7)
        assert [i.f.table for i in xs] == [i.f.table for i in ys]

    @pytest.mark.parametrize("args, pin", SAMPLED_PINS.items())
    def test_sampled_instances_pinned(self, args, pin):
        drawn = [(i.uid, i.f.domain._min_nbhd, i.f.codomain._min_nbhd,
                  i.f.domain.opens, i.f.codomain.opens, i.f.table)
                 for i in sampled_instances(*args)]
        assert drawn == pin

    @pytest.mark.parametrize("n", range(6))
    def test_labelled_tables_contract(self, n):
        tables = minimal_nbhd_assignments(n)
        count = len(tables)
        assert count == KNOWN_LABELED.get(n, 1)
        for k in (0, count - 1, count // 2):
            assert tables[k - count] == tables[k]
        for k in (count, -count - 1):
            with pytest.raises(IndexError):
                tables[k]
        items = list(tables)
        assert len(items) == count
        for table in items:
            assert type(table) is tuple and len(table) == n
            assert all(type(u) is int for u in table)
        indexed = [space_from_min_nbhds(tables[k]) for k in range(count)]
        assert [(s, s._min_nbhd) for s in all_spaces(n)] == \
            [(s, s._min_nbhd) for s in indexed]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_candidate_filters_by_brute_force(self, n):
        # bit c of has[j], sup[a] and sub[a]: c holds j, c contains a and
        # c lies inside a, checked on every mask up to the 8-point cap
        has, sup, sub = census._candidate_filters(n)
        size = 1 << n
        assert len(has) == n and len(sup) == len(sub) == size
        for j in range(n):
            assert has[j] == sum(1 << c for c in range(size) if c >> j & 1)
        for a in range(size):
            assert sup[a] == sum(1 << c for c in range(size) if c & a == a)
            assert sub[a] == sum(1 << c for c in range(size) if c & ~a == 0)

    @pytest.mark.tier2
    def test_labeled_count_at_seven_points(self):
        # A000798 at 7 points, enumerated in a fresh interpreter so that
        # its peak RSS is the tables' own: about 6 s and 80 MB.  The hash
        # pins the order as well, which the reference comparison checks
        # only up to 6 points
        code = ("import hashlib\n"
                "from fibertop.census import minimal_nbhd_assignments\n"
                "t = minimal_nbhd_assignments(7)\n"
                "print(len(t), t[0], t[-1])\n"
                "print(hashlib.sha256(t._data).hexdigest())\n" + PRINT_VMHWM)
        tables, sha, peak_kb = run_fresh(code)
        assert tables == ("9535241 (1, 2, 4, 8, 16, 32, 64) "
                          "(127, 127, 127, 127, 127, 127, 127)")
        assert sha == ("7a5b2890a4e69b203cfc984597460ec2"
                       "54888f8443c0b1d470c6c81d9ed7179b")
        assert int(peak_kb) <= 100 * 1024

    def test_past_the_byte_cap_no_table_is_built(self, monkeypatch):
        # a 9-point mask outgrows its byte: n = 9 fails before it
        # enumerates, where it used to run without end
        built = []

        class Spy(bytearray):
            def extend(self, table):
                built.append(tuple(table))
                super().extend(table)

        monkeypatch.setattr(census, "bytearray", Spy, raising=False)
        monkeypatch.setattr(census, "_LABELED_CACHE", {})
        assert len(minimal_nbhd_assignments(2)) == len(built) == 4
        assert all(len(table) == 2 for table in built)
        built.clear()
        with pytest.raises(ValueError, match=r"^labelled topologies are stored "
                                             r"one byte a point, so they are "
                                             r"capped at 8 points, not 9$"):
            minimal_nbhd_assignments(9)
        assert built == [] and list(census._LABELED_CACHE) == [2]


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
            space._memo = None
    calls = []

    def recording(f, *args):
        fresh = _memo_key(f, *args) not in (f.domain._memo or {})
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
    return (normality._level_walk, carrier, f_side & carrier,
            t_side & carrier, depth)


def _level_lists(levels) -> list:
    """The level-n block of every point, for n = 1..depth."""
    return [levels.level(n) for n in range(1, levels.depth + 1)]


def _fresh_checks(f: FiberedMap, levels, f_side: int, t_side: int,
                  depth: int | None = None) -> tuple[bool, bool]:
    """(stepwise bounds, condition C) run afresh on a built family for F
    and T, reading its index at ``depth`` (the family's own by default)."""
    space, w = f.domain, levels.carrier
    if depth is None:
        depth = levels.depth
    lists = [[k >> (depth - n) for k in levels.index]
             for n in range(1, depth + 1)]
    return (_bounds_ok(space, w, lists),
            _condition_c_ok(space, w, f_side & w, t_side & w, levels.index,
                            depth, _spread(space, w, levels.index)))


def _spread(space: FiniteSpace, w: int, idx) -> int:
    """The largest |idx[x] - idx[z]| over x in w and z in U_x."""
    return max((abs(idx[x] - idx[z]) for x in bits(w)
                for z in bits(space.min_nbhd(x))), default=0)


def _bounds_ok(space: FiniteSpace, w: int, lists) -> bool:
    """The stepwise check on the level-n blocks lists[n - 1] of a family
    whose every level n >= 1 lives on the carrier w."""
    return stepwise_violation(space, [space.full] + [w] * len(lists),
                              [[0] * space.n] + lists) is None


def _expand(f: FiberedMap, levels) -> list:
    """A LevelIndex in the oracle's shape: [(nbhd, blocks), ...] from 0."""
    return [(f.codomain.full, (f.domain.full,))] + [
        (levels.nbhd, level_blocks(levels.level(n), n))
        for n in range(1, levels.depth + 1)]


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
        verdicts = Counter()
        for inst in census_instances(4):
            f = inst.f
            space = f.domain
            closed = sorted(space.full ^ o for o in space.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    # depth 1 leaves some families without condition (C)
                    for depth in (1, 4):
                        try:
                            levels = build_levels(f, a, b, y, depth)
                        except SearchFailed:
                            with pytest.raises(SearchFailed):
                                build_binary_partitions(f, a, b, y, depth)
                            continue
                        fam = build_binary_partitions(f, a, b, y, depth)
                        assert ([(l.nbhd, level_blocks(l.table, n))
                                 for n, l in enumerate(fam.levels)]
                                == _expand(f, levels)
                                == build_levels_reference(f, a, b, y, depth))
                        lim = assemble_limit(fam)
                        rep = verify_condition_C(f, a, b, y, lim.phi,
                                                 levels.nbhd)
                        assert rep.all_ok == levels.condition_c_ok
                        assert levels.stepwise_ok
                        assert ((levels.stepwise_ok, levels.condition_c_ok)
                                == _fresh_checks(f, levels, a, b))
                        verdicts[depth, rep.all_ok] += 1
        assert verdicts[1, False] and verdicts[1, True] and verdicts[4, True]
        assert not verdicts[4, False]

    def test_integer_bounds_match_fractions(self, census5_builds):
        built = [(f, args) for f, args, _, out in census5_builds
                 if out[0] != "failed"]
        assert len(built) > 1000
        verdicts = set()
        for f, args in built:
            levels = build_levels(f, *args)
            ok = levels.stepwise_ok
            assert ok == _bounds_ok(f.domain, levels.carrier,
                                    _level_lists(levels))
            assert ok == _stepwise_bounds_fraction(f, _expand(f, levels))
            verdicts.add(ok)
        assert verdicts == {True}

    def test_bounds_fail_on_mutated_tables(self):
        verdicts = Counter()
        for inst in census_instances(4):
            f = inst.f
            space = f.domain
            closed = sorted(space.full ^ o for o in space.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                try:
                    levels = build_levels(f, a, b, 0, 4)
                except SearchFailed:
                    continue
                w, lists = levels.carrier, _level_lists(levels)
                assert levels.stepwise_ok
                assert _bounds_ok(space, w, lists)
                if not w:
                    continue
                # shifting a whole level keeps every oscillation and breaks
                # the increment into it
                for i in range(1, len(lists)):
                    shifted = list(lists)
                    shifted[i] = [k if k is None else k + 3
                                  for k in shifted[i]]
                    assert not _bounds_ok(space, w, shifted)
                    assert not _stepwise_bounds_fraction_on(space, w, shifted)
                # moving one point by one or two blocks lands on both sides
                # of each bound; the verdict must match the rationals, also
                # with the levels below i cut off (no increment out of i)
                for i in range(len(lists)):
                    for x in bits(w):
                        for delta in (-2, -1, 1, 2):
                            moved = list(lists)
                            moved[i] = list(moved[i])
                            moved[i][x] += delta
                            for cut in (len(moved), i + 1):
                                bad = moved[:cut]
                                ok = _bounds_ok(space, w, bad)
                                assert ok == _stepwise_bounds_fraction_on(
                                    space, w, bad)
                                verdicts[ok] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100


def _walk(f: FiberedMap, a: int, b: int, y: int, depth: int):
    """The level walk run afresh, outside the memo: the expanded levels
    and both verdicts, or the failure, in the shape of ``_oracle``."""
    w = f._nbhd_pre[y]
    facts, failed = normality._level_walk(f.domain, w, a & w, b & w, depth)
    if failed is not None:
        return ("failed", *failed, None)
    levels = LevelIndex(f.codomain._min_nbhd[y], w, depth, *facts)
    return _expand(f, levels), levels.stepwise_ok, levels.condition_c_ok


def _collapse_outcomes(maps, depths) -> Counter:
    """The walk against ``collapsed_walk`` on every distinct (domain,
    f^-1(U_y), F, T) of the maps with F and T disjoint and relatively
    closed, in both orders, at each depth: a Counter of (depth, built,
    built at depth 2) for depth 1 and (depth, built, None) above it."""
    outcomes = Counter()
    seen = set()
    for f in maps:
        space = f.domain
        for w in f._nbhd_pre:
            if (space, w) in seen:
                continue
            seen.add((space, w))
            for a, b in _disjoint_pairs(space, w):
                for depth in depths:
                    facts, _ = normality._level_walk(space, w, a, b, depth)
                    got = facts and facts[0]
                    assert got == collapsed_walk(space, w, a, b, depth), (
                        space, w, a, b, depth)
                    later = (collapsed_walk(space, w, a, b, 2) is not None
                             if depth == 1 else None)
                    outcomes[depth, got is not None, later] += 1
    return outcomes


def _oracle(f: FiberedMap, a: int, b: int, y: int, depth: int):
    """The 2^n-block walk, with both verdicts read off its blocks: the
    stepwise bounds in rationals and condition (C) on its deepest level."""
    levels = _reference(f, a, b, y, depth)
    if levels[0] == "failed":
        return levels
    w = f._nbhd_pre[y]
    index = partition_table(f.domain.n, w, levels[-1][1])
    return (levels, _stepwise_bounds_fraction(f, levels),
            _condition_c_ok(f.domain, w, a & w, b & w, index, depth,
                            _spread(f.domain, w, index)))


def _disjoint_pairs(space: FiniteSpace, w: int):
    """Every disjoint pair of sets relatively closed in w."""
    closed = space.rel_closed_sets(w)
    return [(a, b) for a in closed for b in closed if not a & b]


class TestLevelWalk:
    """The walk over non-empty blocks against the 2^n-block oracle."""

    def test_every_carrier_of_spaces_to_4_points(self):
        outcomes = Counter()
        for n in range(1, 5):
            for space in canonical_spaces(n):
                for w in space.opens:
                    # the open point 0 of the Sierpinski space pulls back to w
                    f = FiberedMap(space, sierpinski(),
                                   [0 if w >> x & 1 else 1
                                    for x in range(n)])
                    for a, b in _disjoint_pairs(space, w):
                        for depth in (1, 2, 3, 5, 8):
                            out = _walk(f, a, b, 0, depth)
                            assert out == _oracle(f, a, b, 0, depth)
                            outcomes[out[0] == "failed" or out[1:]] += 1
        assert set(outcomes) == {True, (True, True), (True, False)}

    def test_seeded_twelve_point_maps(self):
        outcomes = Counter()
        for f in seeded_maps(10, 12, seed=7):
            for y in range(f.codomain.n):
                w = f._nbhd_pre[y]
                outcomes["empty carrier"] += not w
                for a, b in _disjoint_pairs(f.domain, w):
                    out = _walk(f, a, b, y, 6)
                    assert out == _oracle(f, a, b, y, 6)
                    outcomes[out[0] == "failed" or out[1:]] += 1
        # depth 6 gives every family that is built condition (C)
        assert outcomes["empty carrier"] and outcomes[True]
        assert outcomes[True, True] and not outcomes[True, False]

    def test_chain_lemma(self):
        # a non-empty block k >= 1 of level n >= 1 has an empty left child
        # in the 2^n-block oracle, and every index the walk builds is 0 or
        # 2^j - 1 (the chain lemma of ``_level_walk``)
        chain_indices = {0} | {(1 << j) - 1 for j in range(1, 7)}
        maps = [inst.f for inst in census_instances(5)]
        maps += seeded_maps(10, 12, seed=7)
        seen = set()
        counts = Counter()
        for f in maps:
            space = f.domain
            for y in range(f.codomain.n):
                w = f._nbhd_pre[y]
                for a, b in _disjoint_pairs(space, w):
                    if (space, w, a, b) in seen:
                        continue
                    seen.add((space, w, a, b))
                    for depth in (1, 2, 3, 6):
                        facts, _ = normality._level_walk(space, w, a, b, depth)
                        if facts is not None:
                            assert set(facts[0]) <= chain_indices
                            counts[max(facts[0]) > 1] += 1
                    levels = _reference(f, a, b, y, 3)
                    if levels[0] == "failed":
                        continue
                    for (_, blocks), (_, children) in zip(levels[1:],
                                                          levels[2:]):
                        for k in range(1, len(blocks)):
                            counts["parent"] += bool(blocks[k])
                            assert not children[2 * k]
        # the walks reach indices past 1, and non-empty blocks k >= 1
        assert counts[True] and counts[False] and counts["parent"]

    def test_collapse_lemma(self):
        # census 5 and seeded 12-point maps, every ordered disjoint pair
        maps = [inst.f for inst in census_instances(5)]
        maps += seeded_maps(10, 12, seed=7)
        outcomes = _collapse_outcomes(maps, (1, 2, 3, 6))
        # both verdicts at every depth, and the depth-1 exception: triples
        # that build at depth 1 and fail from depth 2 on
        assert {(d, ok) for d, ok, _ in outcomes} == {
            (d, ok) for d in (1, 2, 3, 6) for ok in (True, False)}
        assert outcomes[1, True, False]

    @pytest.mark.tier2
    def test_collapse_lemma_on_census6(self):
        outcomes = _collapse_outcomes(
            [inst.f for inst in census_instances(6)], (1, 2, 3, 6))
        assert outcomes[1, True, False] and outcomes[6, False, None]

    def test_depth_16(self, V_poset):
        # U_0 pulls back to nothing, U_1 to the open point 2, and U_2 to
        # the whole V, whose two closed points no sandwich separates
        f = FiberedMap(V_poset, chain(3), (2, 2, 1))
        outcomes = Counter()
        for y in range(3):
            for a, b in _disjoint_pairs(V_poset, f._nbhd_pre[y]):
                out = _walk(f, a, b, y, 16)
                assert out == _oracle(f, a, b, y, 16)
                outcomes[y, out[0] == "failed"] += 1
        assert outcomes[0, False] and outcomes[1, False]
        assert outcomes[2, False] and outcomes[2, True]

    def test_sandwiches_per_level_are_bounded(self, monkeypatch):
        # one sandwich, so one hull call, per non-empty block: at most |W|
        # a level on a 12-point carrier W, where the 2^n-block walk made
        # 2^16 - 1 of them
        space = FiniteSpace(12, [o | p << 6 for o in chain(6).opens
                                 for p in discrete(6).opens])
        calls = Counter()
        hull = FiniteSpace.hull

        def counted(self, mask):
            calls["hull"] += 1
            return hull(self, mask)

        monkeypatch.setattr(FiniteSpace, "hull", counted)
        facts, failed = normality._level_walk(
            space, space.full, 0b000001_100000, 0b100010_000000, 16)
        assert failed is None and facts[1] and facts[2]
        assert 0 < calls["hull"] <= 16 * space.n


class TestLevelMemo:
    def test_sweep_calls_match_reference(self, census5_builds):
        copies = {}
        fresh = Counter()
        for f, args, was_fresh, out in census5_builds:
            fresh[was_fresh] += 1
            expected = _reference(f, *args)
            assert out == expected
            # the same call again is served by the memo
            assert _memo_key(f, *args) in f.domain._memo
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
        assert len(space._memo) == 1

    def test_memoised_failure_carries_callers_component(self):
        # two closed points whose hulls meet in the open point 2
        space = FiniteSpace(3, [0b000, 0b100, 0b101, 0b110, 0b111])
        f = constant_map(space)
        with pytest.raises(SearchFailed) as first:
            build_levels(f, 0b001, 0b010, 0, 3)
        assert (first.value.level, first.value.l) == (1, None)
        with pytest.raises(SearchFailed) as sigma:
            sigma_separator_family(f, 0b001, [0, 0b010], 0, 3)
        assert (sigma.value.level, sigma.value.step, sigma.value.l) == (
            1, "sandwich 0", 1)
        # the plain builder's failure names no piece; the sigma family
        # re-raises it with the index of the piece
        assert (sigma.value.__cause__.level, sigma.value.__cause__.l) == (
            1, None)
        # a failure is stored as its (level, step), without the component
        failing = (normality._level_walk, 0b111, 0b001, 0b010, 3)
        assert space._memo[failing] == (None, (1, "sandwich 0"))
        assert len(space._memo) == 2


class TestFamilyChecksMemo:
    """A family's verdicts are computed by the level walk and memoised
    with its index, on the same key."""

    def test_memo_matches_fresh_checks(self, census5_builds):
        verdicts = Counter()
        for f, (a, b, y, depth), _, out in census5_builds:
            if out[0] == "failed":
                continue
            levels = build_levels(f, a, b, y, depth)
            expected = _fresh_checks(f, levels, a, b)
            assert (levels.stepwise_ok, levels.condition_c_ok) == expected
            key = _memo_key(f, a, b, y, depth)
            assert f.domain._memo[key] == ((levels.index, *expected), None)
            verdicts[expected] += 1
        # every family the sweep builds passes both checks
        assert set(verdicts) == {(True, True)} and verdicts[True, True] > 1000

    def test_memo_keys_on_each_component(self):
        # one family checked against other sides, or read at another depth,
        # gets other verdicts, so the checks read F, T and the depth
        f = constant_map(discrete(2))
        levels = build_levels(f, 0b01, 0b10, 0, 3)
        pairs = [((0b01, 0b00, 3), (0b11, 0b00, 3)),
                 ((0b00, 0b00, 3), (0b00, 0b01, 3)),
                 ((0b01, 0b10, 3), (0b01, 0b10, 1))]
        for pair in pairs:
            verdicts = [_fresh_checks(f, levels, a, b, depth)
                        for a, b, depth in pair]
            assert verdicts[0] != verdicts[1]
        # and every part of the level key gets its own walk and verdicts:
        # the carrier (through y), F, T and the depth
        space = FiniteSpace(3, [0b000, 0b001, 0b011, 0b101, 0b111])
        g = FiberedMap(space, sierpinski(), (0, 0, 1))
        calls = [(g, 0b000, 0b010, 0, 1), (g, 0b000, 0b010, 1, 1),
                 (g, 0b100, 0b010, 1, 1), (g, 0b000, 0b000, 1, 1),
                 (g, 0b000, 0b010, 1, 0), (f, 0b01, 0b10, 0, 1),
                 (f, 0b01, 0b10, 0, 0)]
        outcomes = []
        for h, *args in calls:
            out = _memoised(h, *args)
            assert out == _reference(h, *args)
            if out[0] != "failed":
                levels = build_levels(h, *args)
                out = (levels.stepwise_ok, levels.condition_c_ok)
                assert out == _fresh_checks(h, levels, *args[:2])
            outcomes.append(out)
        assert outcomes == [(True, True), (True, False),
                            ("failed", 1, "sandwich 0", None), (True, True),
                            (True, False), (True, True), (True, False)]
        assert len(space._memo) == 5

    def test_memo_lives_on_each_space_object(self):
        records = 0
        for inst in census_instances(4):
            f = inst.f
            record = theorem_record(inst, extender_budget=0)
            if not record["stepwise"]["families"]:
                continue
            assert f.domain._memo
            dom = FiniteSpace(f.domain.n, f.domain.opens)
            assert dom == f.domain and dom._memo is None
            g = FiberedMap(dom, f.codomain, f.table)
            assert theorem_record(Instance(inst.uid, g), extender_budget=0) == record
            assert dom._memo and dom._memo is not f.domain._memo
            records += 1
        assert records > 50


def _stepwise_bounds_fraction(f: FiberedMap, levels) -> bool:
    """The two stepwise bounds with exact rationals, read off the blocks."""
    w = f.preimage(levels[1][0])
    lists = []
    for _, blocks in levels[1:]:
        idx = [0] * f.domain.n
        for k, block in enumerate(blocks):
            for x in bits(block & w):
                idx[x] = k
        lists.append(idx)
    return _stepwise_bounds_fraction_on(f.domain, w, lists)


def _stepwise_bounds_fraction_on(space: FiniteSpace, w: int, lists) -> bool:
    """The same on the level-n blocks lists[n - 1] of the points of w;
    the increment out of level 0, where phi_0 = 0, is |phi_1| <= 1."""
    if lists and any(abs(lists[0][x]) > 1 for x in bits(w)):
        return False
    for idx in lists:
        for x in bits(w):
            for z in bits(space.min_nbhd(x)):
                if abs(idx[x] - idx[z]) > 1:
                    return False
    for n in range(1, len(lists)):
        d_lo = Fraction(1, (1 << n) - 1)
        d_hi = Fraction(1, (1 << (n + 1)) - 1)
        lo, hi = lists[n - 1], lists[n]
        for x in bits(w):
            if abs(hi[x] * d_hi - lo[x] * d_lo) > d_hi:
                return False
    return True


def _is_f_sigma_literally(f: FiberedMap, carrier: int) -> bool:
    """Over each minimal preimage, the carrier trace is a union of closed
    sets of the re-indexed preimage subspace."""
    for y in range(f.codomain.n):
        view = subspace(f.domain, f.preimage(f.codomain.min_nbhd(y)))
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
                assert ref.is_normal(f, carrier).holds == \
                    is_normal(induced).holds
                assert ref.is_sigma_normal(f, carrier).holds == \
                    is_sigma_normal(induced).holds
                assert ref.is_perfectly_normal(f, carrier).holds == \
                    is_perfectly_normal(induced).holds
                assert is_f_sigma_submapping(Submapping(f, carrier)).holds == \
                    _is_f_sigma_literally(f, carrier)

    def test_carrier_witnesses_verify(self):
        for inst in census_instances(3):
            f = inst.f
            for carrier in range(f.domain.full + 1):
                rep, witnesses = ref.perfect_scan(f, carrier)
                induced, _ = Submapping(f, carrier).induced()
                assert rep.holds == is_perfectly_normal(induced).holds
                for w in witnesses:
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

            bad = first_bad(lambda c, g: is_normal(g).holds)
            rep = is_hereditarily_normal(f)
            assert rep == ((True, None) if bad is None else (False, (bad,))), \
                inst.uid
            # the two inheritance theorems that classify relies on
            bad = first_bad(lambda c, g: is_perfectly_normal(g).holds)
            assert (bad is None) == is_perfectly_normal(f).holds, inst.uid
            assert normality._least_failing_carrier(
                f, normality._least_failing_pair).counterexample == (
                None if bad is None else (bad,))
            bad = first_bad(lambda c, g: (
                not is_f_sigma_submapping(Submapping(f, c)).holds
                or is_sigma_normal(g).holds))
            assert (bad is None) == is_sigma_normal(f).holds, inst.uid

    def test_nbhd_classes_match_bfs_on_every_region(self):
        for space in canonical_spaces(4):
            for region in range(space.full + 1):
                assert space.nbhd_classes(region) == _bfs_classes(space, region)


class TestPairScanMemo:
    """theorem_record reads its pair scans and functional_co_sigma its
    verdicts from per-space memos keyed on (f^{-1}(O), f^{-1}(U_y)); the
    records equal those of the unmemoised loop in harness_reference, whether
    each memo starts empty or holds the entries of every map on its space."""

    @staticmethod
    def _check(instances) -> list:
        cold = []
        for inst in instances:
            inst.f.domain._memo = None
            cold.append(theorem_record(inst))
        warm = [theorem_record(inst) for inst in instances]
        reference = [theorem_record_reference(inst) for inst in instances]
        assert cold == reference
        assert warm == reference
        return reference

    def test_census5(self):
        records = self._check(list(census_instances(5)))
        assert len(records) == 551
        # the scans' verdicts and early exits are reached both ways
        assert sum(not r["thm3"]["D"] for r in records) == 24
        assert sum(not r["thm4"]["B"] for r in records) == 24
        assert sum(not r["classes"]["functional_co_sigma"] for r in records) == 183

    @pytest.mark.parametrize("seed", [3, 16])
    def test_sampled_labelled_maps(self, seed):
        records = self._check(sampled_instances(5, 80, seed=seed))
        assert any(not r["thm3"]["A"] for r in records)
        assert any(r["thm3"]["A"] for r in records)


class TestExtensionRunMemo:
    """theorem_record's extension runs read their boundary data and the
    contract checks of each distinct result from the domain's memo; the
    records are the same bytes whether the memos start empty or warm, and
    each run equals the reference's, which checks the result's rationals
    afresh on every call."""

    def test_census5(self):
        instances = list(census_instances(5))
        spaces = {id(inst.f.domain): inst.f.domain for inst in instances}
        for space in spaces.values():
            space._memo = None
        cold = [theorem_record(inst) for inst in instances]
        warm = [theorem_record(inst) for inst in instances]
        for c, w in zip(cold, warm):
            assert "".join(_json_pieces(c)) == "".join(_json_pieces(w)), c["id"]
            assert _dumps(c["extension_runs"]) == _dumps(w["extension_runs"])
            assert c["anomalies"] == w["anomalies"] == []
            assert c["digest"] == w["digest"] == digest(
                {k: v for k, v in c.items() if k != "digest"})
        runs = []
        for inst, rec in zip(instances, warm):
            for run in rec["extension_runs"]:
                anomalies = []
                assert run == extension_run_reference(
                    inst.f, run["F"], run["T"], run["y"], run["O"],
                    Fraction(1, 1024), rec["thm3"]["A"], anomalies), rec["id"]
                assert anomalies == []
                runs.append(run)
        entries = Counter(key[0].__name__ for space in spaces.values()
                          for key in space._memo)
        # every run succeeds, and six in seven repeat an earlier result:
        # the checks are made once per distinct result, and the boundary
        # data is built once per (F, T) of a space
        assert (len(runs), all(run["ok"] for run in runs)) == (1098, True)
        assert (entries["_extension_walk"], entries["_run_checks"],
                entries["boundary_function"]) == (158, 158, 102)

    def test_census_runs_extend_one_valued_data(self):
        # _closed_pairs sorts F = 0 first, and a pair with F non-empty comes
        # after the pairs (0, T) of at least two non-empty closed T, so the
        # budget of 2 always extends the constant 1 on T.  The sweep never
        # sees two-valued data; ROADMAP item 6's certificate fuzzing is
        # where that gets exercised.
        runs = [run for inst in census_instances(5)
                for run in theorem_record(inst)["extension_runs"]]
        assert len(runs) == 1098
        assert {run["F"] for run in runs} == {0}


def _labelled(f: FiberedMap) -> tuple:
    """The labelled map, whatever the order its opens are listed in."""
    return (frozenset(f.domain.opens), frozenset(f.codomain.opens), f.table)


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

    def test_classify_is_invariant_under_relabelling(self):
        # g(px[x]) = py[f(x)] on the relabelled spaces is homeomorphic to f;
        # its spaces are fresh objects, so no memo entry of f's is read
        rng = random.Random(26)
        relabelled = 0
        for inst in census_instances(5):
            f = inst.f
            px = rng.sample(range(f.domain.n), f.domain.n)
            py = rng.sample(range(f.codomain.n), f.codomain.n)
            table = [0] * f.domain.n
            for x, y in enumerate(f.table):
                table[px[x]] = py[y]
            g = FiberedMap(f.domain.relabel(px), f.codomain.relabel(py), table)
            assert classify(g) == classify(f), inst.uid
            relabelled += _labelled(g) != _labelled(f)
        # 451 of the 551 maps change as labelled maps; the rest were
        # relabelled by automorphisms or live on one-point spaces
        assert relabelled > 400

    def test_summarize_and_digest_stable(self):
        recs = [theorem_record(inst, depth=4, extender_budget=1)
                for inst in census_instances(3)]
        rep1 = summarize(recs, {"max_total": 3})
        recs2 = [theorem_record(inst, depth=4, extender_budget=1)
                 for inst in census_instances(3)]
        rep2 = summarize(recs2, {"max_total": 3})
        assert "".join(_json_pieces(rep1)) == "".join(_json_pieces(rep2))
        assert digest(rep1) == digest(rep2)

    def test_miner_reports_none(self):
        recs = [theorem_record(inst, depth=4, extender_budget=0)
                for inst in census_instances(4)]
        rep = summarize(recs, {})
        assert rep["normal_not_sigma_normal"] == []

    def test_norm_contract_read_from_the_integers(self, D3, monkeypatch):
        # a result with |phi| above |phit| at point 2, off the boundary's
        # trace, breaks the norm contract and no other
        f = constant_map(D3)
        real = harness.tietze_extend

        def inflated(*args, **kwargs):
            res = real(*args, **kwargs)
            big = res.mus[0] * 3 ** res.iterations + 1
            return res._replace(totals=res.totals[:2] + (big,))

        monkeypatch.setattr(harness, "tietze_extend", inflated)
        anomalies = []
        run = harness._extension_run(f, 0b001, 0b010, 0, f.codomain.full,
                                     Fraction(1, 1024), True, anomalies)
        assert run["ok"] and run["norm_contract"] is False
        assert run["geometric_chain_exact"] and run["residual_covers_sup"]
        assert anomalies == ["extension contract violated at O=1 y=0"]

    def test_an_altered_result_is_checked_afresh(self, D3, monkeypatch):
        # the checks are memoised on the result's integers: a result that
        # differs from the walk's is checked, each run of it records its
        # own anomaly, and the walk's own result keeps its verdicts
        f = constant_map(D3)
        real = harness.tietze_extend
        altered = []

        def maybe_inflated(*args, **kwargs):
            res = real(*args, **kwargs)
            if not altered:
                return res
            big = res.mus[0] * 3 ** res.iterations + 1
            return res._replace(totals=res.totals[:2] + (big,))

        monkeypatch.setattr(harness, "tietze_extend", maybe_inflated)
        verdicts = []
        for inflate in (False, True, True, False):
            altered[:] = [True] if inflate else []
            anomalies = []
            run = harness._extension_run(f, 0b001, 0b010, 0, f.codomain.full,
                                         Fraction(1, 1024), True, anomalies)
            verdicts.append((run["norm_contract"], len(anomalies)))
        assert verdicts == [(True, 0), (False, 1), (False, 1), (True, 0)]

    def test_a_failed_run_is_recorded_on_every_call(self, V_poset):
        # no exact separator splits the two closed points of the V poset:
        # each call raises afresh, appends its anomaly, stores no checks
        # and reads as the reference's run
        f = constant_map(V_poset)
        for _ in range(2):
            runs, anomalies = [], []
            for extension_run in (harness._extension_run, extension_run_reference):
                runs.append(extension_run(f, 0b001, 0b010, 0, f.codomain.full,
                                          Fraction(1, 1024), True, anomalies))
            assert runs == [{"O": 1, "F": 1, "T": 2, "y": 0, "ok": False,
                             "error": "SearchFailed"}] * 2
            assert anomalies == ["extension failed on normal map: no witness"
                                 " at level 1, step exact separator"] * 2
        assert not any(key[0] is harness._run_checks for key in V_poset._memo)

    def test_residual_text_is_the_fractions(self, monkeypatch):
        # each run's "residual" is written from the result's integers and
        # must read as str(residual_bound), whole numbers included
        results = []
        real = harness.tietze_extend

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "tietze_extend", recording)
        texts = []
        for inst in census_instances(4):
            texts += [run["residual"]
                      for run in theorem_record(inst)["extension_runs"]
                      if run["ok"]]
        assert texts == [str(res.residual_bound) for res in results]
        assert "0" in texts and any("/" in t for t in texts)

    def test_records_do_not_depend_on_the_depth_from_two(self):
        # from level 2 on a built family's walk repeats one step (the
        # finite Urysohn collapse of ROADMAP item 16), so every total-5
        # record is the same at depths 2, 3 and 6; at depth 1 no level-2
        # check runs, so some walks that level 2 rejects build, and 24
        # records differ
        records = {d: run_theorem_sweep(5, depth=d)["records"]
                   for d in (1, 2, 3, 6)}
        assert records[2] == records[3] == records[6]
        moved = [a["id"] for a, b in zip(records[1], records[2]) if a != b]
        assert len(moved) == 24 and moved[0] == "x3.003-y1.000-m000"

    def test_sampled_sweep_clean(self):
        for inst in sampled_instances(4, 40, seed=11):
            cls = classify(inst.f)
            assert hierarchy_violations(cls, inst.f.codomain.n == 1) == []


class TestSharedRecordParts:
    """theorem_record stores one object per distinct record part, shared by
    every record that has it: each record still reads as the reference's,
    byte for byte, and no reader of the records changes a shared part."""

    SHARED = ("x_opens", "y_opens", "map", "classes", "thm3", "thm4",
              "stepwise", "extension_runs", "hierarchy_violations",
              "anomalies", "mismatches")

    @pytest.fixture(scope="class")
    def census5(self):
        instances = list(census_instances(5))
        return instances, [theorem_record(inst) for inst in instances]

    def test_equal_parts_are_one_object(self, census5):
        _, records = census5
        parts = {name: [r[name] for r in records] for name in self.SHARED}
        parts["runs"] = [run for r in records for run in r["extension_runs"]]
        objects = {name: {id(p): _dumps(p) for p in ps}
                   for name, ps in parts.items()}
        for name, texts in objects.items():
            assert len(texts) == len(set(texts.values())), name
        distinct = {name: len(texts) for name, texts in objects.items()}
        assert (len(records), len(parts["runs"])) == (551, 1098)
        assert distinct["thm3"] == distinct["thm4"] == 2
        assert distinct["classes"] == 7 and distinct["runs"] == 82
        # the three lists are one empty list on every clean record
        empties = {id(r[name]) for r in records
                   for name in ("hierarchy_violations", "anomalies", "mismatches")}
        assert len(empties) == 1

    def test_canonical_json_matches_reference(self, census5):
        instances, records = census5
        for inst, rec in zip(instances, records):
            assert _dumps(rec) == _dumps(theorem_record_reference(inst)), inst.uid

    def test_readers_leave_the_records_unchanged(self, census5, tmp_path):
        _, records = census5
        before = [_dumps(r) for r in records]
        report = summarize(records, {"max_total": 5})
        digest(report)
        out = tmp_path / "records.jsonl"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["harness", "--total", "5", "--out", str(out)]) == 0
        assert [_dumps(r) for r in records] == before
        assert out.read_text().splitlines() == [
            json.dumps(r, sort_keys=True) for r in records]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _assert_same_text(got: str, want: str) -> None:
    """got == want, checked by length and sha256 first; a mismatch names
    the first differing offset with 40 characters on each side, so that
    a report text of half a megabyte fails fast and readably."""
    if len(got) == len(want) and (hashlib.sha256(got.encode()).digest()
                                  == hashlib.sha256(want.encode()).digest()):
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(at - 40, 0)
    pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and "
                f"{len(want)}):\n got  {got[lo:at + 40]!r}\n want "
                f"{want[lo:at + 40]!r}")


class TestStreamedDigest:
    """digest and _json_pieces stream the canonical text in pieces; the
    bytes are those of one json.dumps call."""

    @staticmethod
    def _same(obj) -> None:
        text = _dumps(obj)
        _assert_same_text("".join(_json_pieces(obj)), text)
        assert digest(obj) == hashlib.sha256(text.encode()).hexdigest()

    def test_census5_report_and_records(self):
        report = run_theorem_sweep(5)
        self._same(report)
        for record in report["records"]:
            self._same(record)
            # theorem_record hashes the record in one encode; the streamed
            # digest of the same record gives the same hash
            rest = {k: v for k, v in record.items() if k != "digest"}
            assert record["digest"] == digest(rest), record["id"]

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": {}, "b": []}, [{}], [[]],
        [[{"x": 1}], [{"y": [{"z": 2}]}]],
        {"k": [[{"a": 1}, {"b": [{"c": 3}]}]], "j": [{"d": {"e": [{}]}}]},
        [{"a": 1}, 2, "three", [4], None],
        {"runs": [{"a": 1}, [2], {"b": 2}, 0.5], "z": [{}, {}], "a": "s"},
    ])
    def test_small_shapes(self, obj):
        self._same(obj)

    def test_a_mismatch_names_its_offset(self):
        want = "ab" * 300_000
        got = want[:400_000] + "X" + want[400_001:]
        with pytest.raises(pytest.fail.Exception) as info:
            _assert_same_text(got, want)
        assert str(info.value) == (
            "texts differ at offset 400000 (lengths 600000 and 600000):\n"
            f" got  {'ab' * 20 + 'X' + 'ba' * 19 + 'b'!r}\n want {'ab' * 40!r}")
        with pytest.raises(pytest.fail.Exception, match="offset 5 .lengths 5 and 6"):
            _assert_same_text("abcde", "abcdef")
        _assert_same_text(want, "".join(["ab"] * 300_000))

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError):
            digest({1: [{"a": 1}]})
        # json.dumps writes {1: 2} as {"1":2}; joined, it would be {1:2}
        with pytest.raises(TypeError):
            digest([{1: 2}])

    def test_joined_texts_follow_the_values(self):
        """The record and report texts joined from stored part texts are
        the json.dumps bytes: for the records as they are, for records
        whose every part is an equal copy, and for records with one shared
        part swapped for an edited copy, whose stored text must not be
        read."""
        records = [theorem_record(inst) for inst in census_instances(5)]
        copied = [copy.deepcopy(r) for r in records]
        assert all(c["classes"] is not r["classes"]
                   for c, r in zip(copied, records))
        edited = []
        for r in records:
            e = dict(r, thm3={**r["thm3"], "B": not r["thm3"]["B"]})
            if r["extension_runs"]:
                first, *rest = r["extension_runs"]
                e["extension_runs"] = [{**first, "y": first["y"] + 1}, *rest]
            edited.append(e)
        for case in (records, copied, edited):
            for record in case:
                self._same(record)
            self._same(case)
        assert all(_dumps(e) != _dumps(r) for e, r in zip(edited, records))

    def test_one_text_per_shared_part(self):
        """Every shared part has its one stored text, its canonical JSON,
        and a second sweep over the same maps adds no entry to either
        table: no record keeps a text of its own."""
        run_theorem_sweep(5)
        size = len(harness._TEXT)
        assert set(harness._TEXT) == {id(p) for p in harness._SHARED.values()}
        assert size == len(harness._SHARED)
        for part in harness._SHARED.values():
            assert harness._TEXT[id(part)] == _dumps(part)
        run_theorem_sweep(5)
        assert len(harness._TEXT) == len(harness._SHARED) == size


class TestConstantMapDegeneration:
    def test_small_run_clean(self):
        rep = constant_map_degeneration(n_max=3, depth=3)
        assert rep["pairs_checked"] > 0
        assert rep["separator_disagreements"] == []
        assert rep["tietze_disagreements"] == []
        assert rep["contract_failures"] == []
