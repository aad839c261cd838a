from fractions import Fraction
from itertools import combinations

import pytest

from fibertop.census import (
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
from fibertop.harness import (
    _condition_c_ok,
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
    FiberedMap,
    Submapping,
    identity_map,
    is_f_sigma_submapping,
)
from fibertop.urysohn_tietze import verify_condition_C


KNOWN_LABELED = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
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
                    assert [(l.nbhd, l.blocks) for l in fam.levels] == levels
                    lim = assemble_limit(fam)
                    rep = verify_condition_C(f, a, b, y, lim.phi,
                                             fam.levels[2].nbhd)
                    assert rep.all_ok == _condition_c_ok(f, levels, a, b)
                    assert _stepwise_bounds_ok(f, levels)


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
