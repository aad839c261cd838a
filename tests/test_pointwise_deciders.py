"""The deciders answer pointwise and scan closed sets only once a failure
is known.  These tests hold them to the literal scans kept in
``normality_reference``: the same verdict, the same counterexample and the
same perfect-normality witnesses, on whole censuses and on random maps."""

import random

from hypothesis import given, seed, settings

import normality_reference as ref
from conftest import fibered_maps
from fibertop import normality
from fibertop.census import census_instances, sampled_instances, space_from_min_nbhds
from fibertop.normality import perfect_witnesses
from fibertop.spaces import FiberedMap, bits, chain, sierpinski
from subspace_reference import Submapping, is_f_sigma_submapping

DECIDERS = ("is_prenormal", "is_normal", "is_sigma_prenormal",
            "is_sigma_normal", "is_perfectly_normal",
            "is_co_perfectly_normal", "is_co_sigma_perfectly_normal")
CARRIER_DECIDERS = ("is_normal", "is_sigma_normal", "is_perfectly_normal")
HEREDITARY = ("is_hereditarily_normal", "is_hereditarily_perfectly_normal",
              "is_sigma_normal_on_f_sigma_submaps")


def _disagreements(f) -> list[str]:
    return [name for name in DECIDERS
            if getattr(normality, name)(f) != getattr(ref, name)(f)]


def test_deciders_match_literal_scans_on_census6():
    bad = [(inst.uid, _disagreements(inst.f)) for inst in census_instances(6)]
    assert [b for b in bad if b[1]] == []


def test_carrier_and_hereditary_deciders_match_on_census5():
    for inst in census_instances(5):
        f = inst.f
        for carrier in range(f.domain.full + 1):
            for name in CARRIER_DECIDERS:
                assert getattr(normality, name)(f, carrier) == \
                    getattr(ref, name)(f, carrier), (name, inst.uid, carrier)
        for name in HEREDITARY:
            assert getattr(normality, name)(f) == getattr(ref, name)(f), \
                (name, inst.uid)


def test_perfect_witnesses_match_literal_scan():
    for inst in census_instances(5):
        f = inst.f
        assert tuple(perfect_witnesses(f)) == ref.perfect_scan(f)[1], inst.uid
    for inst in census_instances(4):
        f = inst.f
        for carrier in range(f.domain.full + 1):
            assert tuple(perfect_witnesses(f, carrier)) == \
                ref.perfect_scan(f, carrier)[1], (inst.uid, carrier)


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


def _random_poset(n: int, rng: random.Random, related) -> list[int]:
    """Minimal neighbourhoods of a seeded T0 space on 0..n-1: U_i holds i
    and, closed under transitivity, each j < i with related(i, j) and a
    coin toss of probability 1/3."""
    nbhds = []
    for i in range(n):
        u = 1 << i
        for j in range(i):
            if rng.random() < 1 / 3 and related(i, j):
                u |= nbhds[j]
        nbhds.append(u)
    return nbhds


def _seeded_maps(count: int, total: int, seed: int) -> list[FiberedMap]:
    """Seeded continuous maps with ``total`` points in all.  The table is
    drawn first; a domain point j may then join U_i only when f(j) lies in
    U_f(i), and those links stay so under transitivity, so every map is
    continuous."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nx = rng.randint(total // 2, total - 2)
        ys = _random_poset(total - nx, rng, lambda i, j: True)
        table = [rng.randrange(total - nx) for _ in range(nx)]
        xs = _random_poset(nx, rng,
                           lambda i, j: ys[table[i]] >> table[j] & 1)
        out.append(FiberedMap(space_from_min_nbhds(xs),
                              space_from_min_nbhds(ys), table))
    return out


def _hereditary_closed_forms(f) -> tuple[int | None, int | None]:
    """The least carriers on which normality and perfect normality of the
    submapping fail, or None, in closed form.

    Normal.  Write P = f^{-1}(U_y).  By ``_separation_ok``'s relative plain
    test, a carrier C fails at y iff some x, z, w in P & C have w in
    U_x & U_z (so z is in cl(U_x & P & C)) and cl{x} & cl{z} & P & C empty
    (so no point of cl{x} & P & C has z in its minimal neighbourhood).
    Then w is neither x nor z: w = x puts z in cl{x}, and w = z puts x in
    cl{z}.  The carrier {x, z, w}, inside C, fails at the same y, since its
    trace of cl{x} & cl{z} lies in the empty one.  A subset's mask is never
    larger, so the least failing carrier is the least such triple; no
    closure under enlarging the carrier is needed.

    Perfect.  ``_components_indiscrete`` fails on P & C iff some x, z in it
    have z in U_x ^ cl{x}.  Then z is not x, and the pair {x, z}, inside C,
    fails at the same y.  So the least failing carrier is the least such
    pair, and with C the whole domain, hereditarily perfect is perfect.
    """
    nbhd, cl = f.domain._min_nbhd, f.domain._cl_point
    normal = perfect = None
    for pre in f._nbhd_pre:
        for x in bits(pre):
            odd = pre & (nbhd[x] ^ cl[x])
            if odd:
                pair = 1 << x | odd & -odd
                if perfect is None or pair < perfect:
                    perfect = pair
            # z > x with neither in the other's closure (z is not in U_x)
            for z in bits(pre & ~(nbhd[x] | cl[x] | (2 << x) - 1)):
                ws = pre & nbhd[x] & nbhd[z] & ~(cl[x] & cl[z])
                if ws:
                    triple = 1 << x | 1 << z | ws & -ws
                    if normal is None or triple < normal:
                        normal = triple
    return normal, perfect


def test_hereditary_deciders_match_closed_forms():
    """The carrier loops of the two hereditary deciders report the least
    triple and the least pair of ``_hereditary_closed_forms``, on census 6
    and on seeded maps at the 12-point cap."""
    def failures(maps) -> list[int]:
        count = [0, 0]
        for f in maps:
            normal, perfect = _hereditary_closed_forms(f)
            assert normality.is_hereditarily_normal(f) \
                .offending_carrier == normal
            assert normality.is_hereditarily_perfectly_normal(f) \
                .offending_carrier == perfect
            assert normality.is_perfectly_normal(f).holds == (perfect is None)
            count[0] += normal is not None
            count[1] += perfect is not None
        return count

    assert failures(inst.f for inst in census_instances(6)) == [433, 1952]
    assert failures(_seeded_maps(30, 12, seed=7)) == [11, 29]


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
        comps = {k: v for k, v in space._memo.items()
                 if k[0] is normality._components_indiscrete}
        assert comps == {(normality._components_indiscrete, 0b011): False}


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
