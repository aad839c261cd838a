import json
import pathlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from fibertop import normality
from fibertop.census import canonical_spaces, census_instances
from fibertop.errors import NotOpen, SearchFailed
from fibertop.normality import (
    are_f_separated,
    build_binary_partitions,
    check_lemma_conditions,
    is_co_perfectly_normal,
    is_co_sigma_perfectly_normal,
    is_f_functionally_open,
    is_hereditarily_normal,
    is_normal,
    is_perfectly_normal,
    is_prenormal,
    is_sigma_normal,
    is_sigma_prenormal,
    perfect_witnesses,
    verify_perfect_witness,
)
from fibertop.classical import space_normal
from fibertop.cli import main
from fibertop.oscillation import (
    RationalFunction,
    is_f_continuous_at,
    osc_on_set,
    weighted_sum,
)
from fibertop.spaces import bits, constant_map, identity_map, point
from fibertop.textfmt import _fmt_set
from fibertop.urysohn_tietze import sigma_separator_family
from subspace_reference import is_f_sigma_subset, restrict_map

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def brute_f_separated(f, a, b):
    """Literal search over all neighborhoods and all relatively open pairs."""
    for y in range(f.codomain.n):
        found = False
        for o in f.codomain.opens:
            if not o >> y & 1:
                continue
            pre = f.preimage(o)
            rel_opens = sorted({q & pre for q in f.domain.opens})
            at, bt = a & pre, b & pre
            for u in rel_opens:
                if at & ~u:
                    continue
                for v in rel_opens:
                    if not (bt & ~v or u & v):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def literal_is_normal(f):
    """Definition-shaped decider through honestly re-indexed restrictions."""
    for o in f.codomain.opens:
        g, dom, cod = restrict_map(f, o)
        closed = sorted(g.domain.full ^ q for q in g.domain.opens)
        for a in closed:
            for b in closed:
                if a & b:
                    continue
                if not brute_f_separated(g, a, b):
                    return False
    return True


class TestFSeparated:
    def test_discrete_singletons(self, D2):
        rep = are_f_separated(identity_map(D2), 0b01, 0b10)
        assert rep.holds and len(rep.certificates) == 2

    def test_indiscrete_fails(self, I2):
        rep = are_f_separated(identity_map(I2), 0b01, 0b10)
        assert not rep.holds

    def test_empty_side(self, I2):
        rep = are_f_separated(identity_map(I2), 0, 0b11)
        assert rep.holds

    def test_certificates_validate(self, S):
        f = identity_map(S)
        rep = are_f_separated(f, 0b10, 0)
        for cert in rep.certificates:
            assert cert.valid_for(f, 0b10, 0)

    def test_matches_brute_force(self):
        for inst in census_instances(5):
            f = inst.f
            full = f.domain.full
            for a in range(full + 1):
                for b in range(full + 1):
                    if a & b:
                        continue
                    assert are_f_separated(f, a, b).holds == brute_f_separated(f, a, b), inst.uid

    def test_monotone_neighborhood_lemma(self):
        # a witness over any neighborhood survives shrinking to a smaller one
        for inst in census_instances(5):
            f = inst.f
            space, cod = f.domain, f.codomain
            closed = sorted(space.full ^ o for o in space.opens)
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(cod.n):
                    hits = []
                    for o in cod.opens:
                        if not o >> y & 1:
                            continue
                        pre = f.preimage(o)
                        u = space.rel_hull(pre, a & pre)
                        v = space.rel_hull(pre, b & pre)
                        hits.append((o, not u & v))
                    small = dict(hits)[cod.min_nbhd(y)]
                    assert small == any(ok for _, ok in hits)


class TestPrenormalNormal:
    def test_id_sierpinski(self, S):
        assert is_prenormal(identity_map(S)).holds
        assert is_normal(identity_map(S)).holds

    def test_constant_indiscrete(self, I2):
        assert is_prenormal(constant_map(I2)).holds

    def test_discrete_identity(self, D3):
        assert is_normal(identity_map(D3)).holds

    def test_identity_always_normal(self):
        for n in range(1, 5):
            for space in canonical_spaces(n):
                assert is_normal(identity_map(space)).holds

    def test_v_poset_constant_not_normal(self, V_poset):
        rep = is_normal(constant_map(V_poset))
        assert not rep.holds
        o, a, b, y = rep.counterexample
        assert a & b == 0

    def test_kernel_matches_literal_definition(self):
        for inst in census_instances(5):
            assert is_normal(inst.f).holds == literal_is_normal(inst.f), inst.uid

    def test_constant_map_matches_space_normality(self):
        for n in range(1, 5):
            for space in canonical_spaces(n):
                f = constant_map(space)
                assert is_normal(f).holds == space_normal(space)

    def test_regression_table_2x2(self):
        table = json.loads((FIXTURES / "normality_2x2.json").read_text())
        seen = {}
        for inst in census_instances(4):
            if inst.f.domain.n <= 2 and inst.f.codomain.n <= 2:
                seen[inst.uid] = {
                    "prenormal": is_prenormal(inst.f).holds,
                    "normal": is_normal(inst.f).holds,
                    "sigma_normal": is_sigma_normal(inst.f).holds,
                    "perfectly_normal": is_perfectly_normal(inst.f).holds,
                }
        assert seen == table


class TestSigma:
    def test_discrete_domain(self, D3):
        f = constant_map(D3)
        assert is_sigma_prenormal(f).holds and is_sigma_normal(f).holds

    def test_sigma_equals_normal_on_census(self):
        # finite spaces: F_sigma sets are closed and strong separation equals
        # separation, so the sigma classes coincide with the plain ones
        for inst in census_instances(5):
            assert is_sigma_normal(inst.f).holds == is_normal(inst.f).holds
            assert is_sigma_prenormal(inst.f).holds == is_prenormal(inst.f).holds

    def test_constant_t1_equivalences(self):
        for n in range(1, 5):
            for space in canonical_spaces(n):
                f = constant_map(space)
                vals = {is_prenormal(f).holds, is_normal(f).holds,
                        is_sigma_prenormal(f).holds, is_sigma_normal(f).holds,
                        space_normal(space)}
                assert len(vals) == 1

    def test_miner_finds_no_normal_not_sigma(self):
        found = [inst.uid for inst in census_instances(5)
                 if is_normal(inst.f).holds and not is_sigma_normal(inst.f).holds]
        assert found == []


class TestMonotoneShrinking:
    """The one-lemma justification for minimal-first searches: every
    separation, sigma-separation, and F_sigma condition that holds over
    some neighborhood of y keeps holding over every smaller one."""

    def test_sigma_separation_shrinks(self):
        for inst in census_instances(5):
            f = inst.f
            space, cod = f.domain, f.codomain
            closed = sorted(space.full ^ o for o in space.opens)
            for t in closed:
                for fm in closed:
                    if t & fm:
                        continue
                    for y in range(cod.n):
                        results = {}
                        for o in cod.opens:
                            if not o >> y & 1:
                                continue
                            pre = f.preimage(o)
                            ok = True
                            for x in bits(t & pre):
                                piece = space.rel_closure(pre, 1 << x)
                                v = space.rel_hull(pre, piece)
                                if space.rel_closure(pre, v) & fm:
                                    ok = False
                                    break
                            results[o] = ok
                        assert results[cod.min_nbhd(y)] == any(results.values())

    def test_f_sigma_condition_shrinks(self):
        for inst in census_instances(5):
            f = inst.f
            space, cod = f.domain, f.codomain
            for carrier in range(space.full + 1):
                for y in range(cod.n):
                    results = {}
                    for o in cod.opens:
                        if not o >> y & 1:
                            continue
                        pre = f.preimage(o)
                        ok, _, _ = is_f_sigma_subset(space, pre, carrier & pre)
                        results[o] = ok
                    assert results[cod.min_nbhd(y)] == any(results.values())


class TestSmallUrysohn:
    """The Urysohn sandwich T_l ⊂ V_l ⊂ cl V_l ⊂ U at one y, as the deciders
    (``_sigma_separated_at``) and the sigma family's builder run it."""

    def test_clopen_piece(self, D2):
        f = constant_map(D2)
        assert normality._sigma_separated_at(D2, f._nbhd_pre[0], 0b10, 0b01)
        (lim,) = sigma_separator_family(f, 0b01, [0b10], 0, 3).limits
        for n, level in enumerate(lim.family.levels[1:], 1):
            assert level.nbhd == f.codomain.full
            assert level.table == (0, (1 << n) - 1)

    def test_empty_piece(self, D2):
        f = constant_map(D2)
        assert normality._sigma_separated_at(D2, f._nbhd_pre[0], 0, D2.full)
        (lim,) = sigma_separator_family(f, D2.full, [0], 0, 3).limits
        check_lemma_conditions(lim.family, D2.full, 0)

    def test_non_open_neighborhood_rejected(self, C3):
        f = identity_map(C3)
        with pytest.raises(NotOpen):
            sigma_separator_family(f, 0, [0b100], 1, 2, within=0b110)

    def test_not_found_on_non_normal(self, V_poset):
        f = constant_map(V_poset)
        # {a} inside the open {a, top}: the closure of any neighborhood of
        # {a} spills over to b's side
        assert not normality._sigma_separated_at(
            V_poset, f._nbhd_pre[0], 0b001, 0b010)
        with pytest.raises(SearchFailed) as exc:
            sigma_separator_family(f, 0b010, [0b001], 0, 2)
        assert exc.value.l == 0
        # re-raised from the plain builder's failure, which names no piece
        assert exc.value.__cause__.l is None


class TestBuilders:
    def test_d2_conditions(self, D2):
        f = constant_map(D2)
        fam = build_binary_partitions(f, 0b01, 0b10, 0, 3)
        for n in range(1, 4):
            table = fam.levels[n].table
            assert table[0] == 0
            assert table[1] == (1 << n) - 1
        check_lemma_conditions(fam, 0b01, 0b10)

    def test_empty_sides(self, S):
        f = identity_map(S)
        fam = build_binary_partitions(f, 0, 0, 0, 3)
        assert fam.depth == 3

    def test_search_failed_on_non_normal(self, V_poset):
        f = constant_map(V_poset)
        with pytest.raises(SearchFailed):
            build_binary_partitions(f, 0b001, 0b010, 0, 4)

    def test_success_sweep_matches_normality(self):
        # builder success on every disjoint closed pair iff the map is normal
        for inst in census_instances(5):
            f = inst.f
            space = f.domain
            closed = sorted(space.full ^ o for o in space.opens)
            ok = True
            for a, b in combinations(closed, 2):
                if a & b:
                    continue
                for y in range(f.codomain.n):
                    try:
                        build_binary_partitions(f, a, b, y, 4)
                    except SearchFailed:
                        ok = False
                        break
                if not ok:
                    break
            # the sweep above covers only the O = Y triples: normality forces
            # success, and success forces prenormality; the full O-quantified
            # equivalence is the theorem sweep's job
            if is_normal(f).holds:
                assert ok
            if ok:
                assert is_prenormal(f).holds

    def test_sigma_builder_shares_chain(self, D3):
        f = constant_map(D3)
        res = sigma_separator_family(f, 0b001, [0b010, 0b100], 0, 3)
        fams = [lim.family for lim in res.limits]
        assert len(fams) == 2
        for n in range(4):
            assert fams[0].levels[n].nbhd == fams[1].levels[n].nbhd
        assert fams[0].levels[2].nbhd == res.nbhd == f.codomain.min_nbhd(0)

    def test_sigma_builder_single_piece_reduces(self, D2):
        f = constant_map(D2)
        single = sigma_separator_family(f, 0b01, [0b10], 0, 3).limits[0].family
        plain = build_binary_partitions(f, 0b01, 0b10, 0, 3)
        assert single.levels == plain.levels


class TestPerfectlyNormal:
    def test_discrete(self, D3):
        f = constant_map(D3)
        assert is_perfectly_normal(f).holds
        witnesses = list(perfect_witnesses(f))
        assert len(witnesses) == len(D3.opens)
        for w in witnesses:
            assert verify_perfect_witness(f, w)

    def test_indiscrete_identity(self, I2):
        assert is_perfectly_normal(identity_map(I2)).holds

    def test_sierpinski_identity_fails(self, S):
        rep = is_perfectly_normal(identity_map(S))
        assert not rep.holds
        o, y, comp = rep.counterexample
        assert comp & o and comp & ~o

    def test_matches_exhaustive_three_valued_search(self):
        # declarative route: families of {0, 1/2, 1} valued functions with
        # zero oscillation over the minimal preimage
        half = Fraction(1, 2)
        for inst in census_instances(4):
            f = inst.f
            space, cod = f.domain, f.codomain
            expected = True
            for o_mask in space.opens:
                for y in range(cod.n):
                    region = f.preimage(cod.min_nbhd(y))
                    pool = []
                    for assign in product((Fraction(0), half, Fraction(1)),
                                          repeat=space.n):
                        phi = RationalFunction.total(space, assign)
                        if osc_on_set(phi, region) == 0:
                            pool.append(phi)
                    target = o_mask & region
                    found = False
                    for size in range(0, bin(target).count("1") + 1):
                        for fam in combinations(pool, size):
                            ones = 0
                            good = True
                            for phi in fam:
                                ones |= phi.preimage(lambda v: v == 1) & region
                                if (region & ~o_mask) & ~phi.preimage(
                                        lambda v: v == 0):
                                    good = False
                                    break
                            if good and ones == target:
                                found = True
                                break
                        if found:
                            break
                    if not found:
                        expected = False
                        break
                if not expected:
                    break
            assert is_perfectly_normal(f).holds == expected, inst.uid


class TestFunctionallyOpenClosed:
    def test_empty_and_full(self, S):
        f = identity_map(S)
        assert is_f_functionally_open(f, 0).holds
        assert is_f_functionally_open(f, S.full).holds

    def test_printed_phi_cuts_out_u(self, tmp_path, capsys):
        # where U is f-functionally open, the phi that build
        # functional-witness prints for y is positive exactly on U within
        # f^{-1}(U_y), and f-continuous at y
        path = tmp_path / "map.top"
        checked = 0
        for inst in census_instances(4):
            f = inst.f
            dom, cod = f.domain, f.codomain
            lines = []
            for name, space in (("X", dom), ("Y", cod)):
                lines += [f"space {name}", f"points {space.n}", "opens"]
                lines += [_fmt_set(o) for o in space.opens]
            lines.append("map f X -> Y")
            lines += [f"{x} -> {v}" for x, v in enumerate(f.table)]
            for i, u in enumerate(dom.opens):
                lines += [f"set U{i} in X", _fmt_set(u)]
            path.write_text("\n".join(lines) + "\n")
            for (i, u), y in product(enumerate(dom.opens), range(cod.n)):
                code = main(["--json", "build", "functional-witness",
                             str(path), "--F", f"U{i}", "--y", str(y)])
                out = json.loads(capsys.readouterr().out)
                assert out["holds"] == is_f_functionally_open(f, u).holds
                assert code == (0 if out["holds"] else 1)
                if out["holds"]:
                    phi = RationalFunction.total(dom, out["phi"])
                    region = f.preimage(cod.min_nbhd(y))
                    positive = phi.preimage(lambda v: v > 0) & region
                    assert positive == u & region, (inst.uid, u, y)
                    assert is_f_continuous_at(f, phi, y).holds
                    checked += 1
        assert checked > 300

    def test_weighted_sum_witness_on_perfect_map(self, D3):
        f = constant_map(D3)
        u = 0b011
        fam = next(w.family for w in perfect_witnesses(f)
                   if w.open_mask == u and w.y == 0)
        weights = [Fraction(1, 1 << (l + 1)) for l in range(len(fam))]
        total = weighted_sum(f, fam, weights, 0).phi
        region = f.preimage(f.codomain.min_nbhd(0))
        assert total.preimage(lambda v: v > 0) & region == u & region


class TestCoPerfect:
    def test_discrete(self, D3):
        f = constant_map(D3)
        assert is_co_perfectly_normal(f).holds
        assert is_co_sigma_perfectly_normal(f).holds

    def test_sierpinski_identity_counterexample(self, S):
        rep = is_co_perfectly_normal(identity_map(S))
        assert is_normal(identity_map(S)).holds
        assert rep == (False, (0b01, 1))

    def test_census_class_counts_are_consistent(self):
        co_sigma = perfect = co_perfect = 0
        for inst in census_instances(4):
            if is_co_sigma_perfectly_normal(inst.f).holds:
                co_sigma += 1
            if is_perfectly_normal(inst.f).holds:
                perfect += 1
            if is_co_perfectly_normal(inst.f).holds:
                co_perfect += 1
        assert co_sigma <= perfect <= co_perfect


class TestHereditary:
    def test_single_point(self):
        assert is_hereditarily_normal(identity_map(point())).holds

    def test_perfect_implies_hereditarily_normal(self):
        for inst in census_instances(4):
            if is_perfectly_normal(inst.f).holds:
                assert is_hereditarily_normal(inst.f).holds, inst.uid

    def test_offending_carrier_reported(self, V_poset):
        f = constant_map(V_poset)
        # the two closed points and the open point over both
        assert is_hereditarily_normal(f) == (False, (0b111,))
