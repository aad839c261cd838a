"""The deciders answer pointwise and scan closed sets only once a failure
is known.  These tests hold them to the literal scans kept in
``normality_reference``: the same verdict, the same counterexample and the
same perfect-normality witnesses, on whole censuses and on random maps."""

import random

from hypothesis import given, seed, settings

import normality_reference as ref
from conftest import fibered_maps, seeded_maps, shuffled
from fibertop import normality
from fibertop.census import census_instances, sampled_instances
from fibertop.normality import perfect_witnesses
from fibertop.spaces import FiberedMap, bits, chain, sierpinski
from subspace_reference import Submapping, is_f_sigma_submapping

DECIDERS = ("is_prenormal", "is_normal", "is_sigma_prenormal",
            "is_sigma_normal", "is_perfectly_normal",
            "is_co_perfectly_normal", "is_co_sigma_perfectly_normal")
HEREDITARY = ("is_hereditarily_normal", "is_hereditarily_perfectly_normal",
              "is_sigma_normal_on_f_sigma_submaps")


def _disagreements(f) -> list[str]:
    return [name for name in DECIDERS
            if getattr(normality, name)(f) != getattr(ref, name)(f)]


def test_deciders_match_literal_scans_on_census6():
    bad = [(inst.uid, _disagreements(inst.f)) for inst in census_instances(6)]
    assert [b for b in bad if b[1]] == []


def test_perfect_witnesses_match_literal_scan():
    # census 5, then labelled maps up to the 12-point cap, renamed so that
    # mask order is not point order: the report, whose counterexample
    # comes from a scan over the minimal neighborhoods alone, and the
    # witnesses are the literal scan's
    rng = random.Random(28)
    maps = [inst.f for inst in census_instances(5)]
    maps += [shuffled(g, rng) for total in range(4, 13)
             for g in seeded_maps(30, total, seed=total)]
    failed = 0
    for f in maps:
        rep, witnesses = ref.perfect_scan(f)
        assert normality.is_perfectly_normal(f) == rep
        assert tuple(perfect_witnesses(f)) == witnesses
        failed += not rep.holds
    assert 0 < failed < len(maps)


def test_f_sigma_failure_matches_submapping_report():
    # the canonical maps of census 4, then labelled ones with up to 5
    # points a side, as in the pair-scan memo tests
    instances = [*census_instances(4), *sampled_instances(5, 80, seed=3),
                 *sampled_instances(5, 80, seed=16)]
    for inst in instances:
        f = inst.f
        for carrier in range(f.domain.full + 1):
            rep = is_f_sigma_submapping(Submapping(f, carrier))
            assert normality._f_sigma_failure(f, carrier) == rep.failure_y, \
                (inst.uid, carrier)
            # Lemma 1 of is_sigma_normal_on_f_sigma_submaps
            assert (normality._f_sigma_failure(f, carrier) is None) == \
                f.domain.is_closed(carrier), (inst.uid, carrier)


def test_closed_carrier_failures_reach_a_point_closure():
    """Lemma 2 of is_sigma_normal_on_f_sigma_submaps, on every closed
    carrier and not only the least failing one: the relative sigma test
    fails on C & P iff it fails on cl{v} & P for some v in C & P, and
    then it fails on P itself."""
    instances = [*census_instances(5), *sampled_instances(5, 80, seed=3)]
    checked = 0
    for inst in instances:
        space = inst.f.domain
        cl = space._cl_point
        for carrier in filter(space.is_closed, range(space.full + 1)):
            for pre in inst.f._nbhd_pre:
                fails = not normality._separation_ok(
                    space, carrier & pre, True, True)
                via = [v for v in bits(carrier & pre)
                       if not normality._separation_ok(
                           space, cl[v] & pre, True, True)]
                assert fails == bool(via), (inst.uid, carrier, pre)
                if fails:
                    checked += 1
                    assert not normality._separation_ok(
                        space, pre, True, True), (inst.uid, carrier, pre)
    assert checked > 0


def test_hereditary_closed_forms_match_carrier_loops():
    """The closed forms of the three hereditary deciders report the same
    offending carriers as the pointwise carrier loops they replaced, on
    census 6 and on seeded maps at the 12-point cap, as drawn and renamed
    (``seeded_maps`` numbers its points in mask order, and the least
    offending carrier depends on the labelling; the verdicts do not)."""
    def failures(maps) -> list[int]:
        count = [0, 0, 0]
        for f in maps:
            normal = normality.is_hereditarily_normal(f)
            perfect = normality.is_hereditarily_perfectly_normal(f)
            sigma = normality.is_sigma_normal_on_f_sigma_submaps(f)
            assert normal == ref.pointwise_hereditarily_normal(f)
            assert perfect == ref.pointwise_hereditarily_perfectly_normal(f)
            assert sigma == ref.pointwise_sigma_normal_on_f_sigma_submaps(f)
            assert normality.is_perfectly_normal(f).holds == perfect.holds
            assert normality.is_sigma_normal(f).holds == sigma.holds
            count[0] += not normal.holds
            count[1] += not perfect.holds
            count[2] += not sigma.holds
        return count

    assert failures(inst.f for inst in census_instances(6)) == [433, 1952, 398]
    for maps_seed, pinned in ((7, [11, 29, 9]), (8, [17, 28, 15]),
                              (9, [12, 27, 11])):
        maps = seeded_maps(30, 12, seed=maps_seed)
        assert failures(maps) == pinned
        rng = random.Random(maps_seed)
        assert failures([shuffled(f, rng) for f in maps]) == pinned


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(fibered_maps(max_points=4))
def test_hereditary_closed_forms_on_labelled_maps(f):
    # census maps are canonically labelled, and the least offending
    # carrier depends on the labelling
    oracles = {
        normality.is_hereditarily_normal: (
            ref.is_hereditarily_normal, ref.pointwise_hereditarily_normal),
        normality.is_hereditarily_perfectly_normal: (
            ref.is_hereditarily_perfectly_normal,
            ref.pointwise_hereditarily_perfectly_normal),
        normality.is_sigma_normal_on_f_sigma_submaps: (
            ref.is_sigma_normal_on_f_sigma_submaps,
            ref.pointwise_sigma_normal_on_f_sigma_submaps),
    }
    for decider, (literal, loop) in oracles.items():
        got = decider(f).offending_carrier
        assert got == literal(f).offending_carrier == \
            loop(f).offending_carrier, decider.__name__


class TestVerdictMemo:
    """Each pointwise verdict is stored once per domain space, under
    (verdict, P, flags), by ``FiniteSpace.memoised``."""

    def test_reports_equal_fresh_runs_and_literal_scans_on_census5(self):
        for inst in census_instances(5):
            f, space = inst.f, inst.f.domain
            for name in DECIDERS + HEREDITARY:
                warm = getattr(normality, name)(f)
                kept, space._memo = space._memo, None
                fresh = getattr(normality, name)(f)
                space._memo = kept
                assert warm == fresh == getattr(ref, name)(f), (name, inst.uid)

    def test_sigma_and_relative_verdicts_have_their_own_entries(self):
        # fresh spaces, so the memo holds only what these calls store
        f = FiberedMap(chain(3), sierpinski(), [0, 0, 1])
        space = f.domain
        assert normality.is_prenormal(f).holds
        assert normality.is_normal(f).holds
        assert normality.is_sigma_prenormal(f).holds
        assert normality.is_sigma_normal(f).holds
        ok = normality._separation_ok
        expected = {(ok, pre, sigma, relative): ok(space, pre, sigma, relative)
                    for pre in f._nbhd_pre
                    for sigma in (False, True) for relative in (False, True)}
        assert len(expected) == 8 and space._memo == expected
        assert not normality.is_perfectly_normal(f).holds
        # the least pair {0, 1} fails on both preimages, 0b011 and 0b111
        pair = normality._least_failing_pair
        pairs = {k: v for k, v in space._memo.items() if k[0] is pair}
        assert pairs == {(pair, 0b011): 0b011, (pair, 0b111): 0b011}


def _sandwich_meets(space, pre: int, t: int, fm: int) -> bool:
    """Some canonical piece of T has a closed sandwich meeting F."""
    for x in bits(t & pre):
        v = space.rel_hull(pre, space.rel_closure(pre, 1 << x))
        if space.rel_closure(pre, v) & fm:
            return True
    return False


def _check_counterexamples(f) -> None:
    space, cod = f.domain, f.codomain

    def minimal_preimage(y):
        return f.preimage(cod.min_nbhd(y))

    rep = normality.is_prenormal(f)
    if not rep.holds:
        a, b, y = rep.counterexample
        pre = minimal_preimage(y)
        assert not a & b and space.is_closed(a) and space.is_closed(b)
        assert space.rel_hull(pre, a & pre) & space.rel_hull(pre, b & pre)
    rep = normality.is_normal(f)
    if not rep.holds:
        o, a, b, y = rep.counterexample
        pre = minimal_preimage(y)
        assert o == cod.min_nbhd(y) and not a & b
        assert space.rel_is_closed(pre, a) and space.rel_is_closed(pre, b)
        assert space.rel_hull(pre, a) & space.rel_hull(pre, b)
    rep = normality.is_sigma_prenormal(f)
    if not rep.holds:
        t, fm, y = rep.counterexample
        assert not t & fm and space.is_closed(t) and space.is_closed(fm)
        assert _sandwich_meets(space, minimal_preimage(y), t, fm)
    rep = normality.is_sigma_normal(f)
    if not rep.holds:
        o, t, fm, y = rep.counterexample
        pre = minimal_preimage(y)
        assert o == cod.min_nbhd(y) and not t & fm
        assert space.rel_is_closed(pre, t) and space.rel_is_closed(pre, fm)
        assert _sandwich_meets(space, pre, t, fm)
    rep = normality.is_perfectly_normal(f)
    if not rep.holds:
        o, y, comp = rep.counterexample
        assert space.is_open(o) and comp & o and comp & ~o
        assert comp in space.nbhd_classes(minimal_preimage(y))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(fibered_maps(max_points=5))
def test_pointwise_verdicts_and_counterexamples(f):
    assert _disagreements(f) == []
    for name in HEREDITARY:
        assert getattr(normality, name)(f) == getattr(ref, name)(f), name
    _check_counterexamples(f)
