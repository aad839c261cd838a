from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spaces
from fibertop.census import continuous_tables
from fibertop.errors import InstanceSyntaxError, InstanceValidationError, SearchFailed
from fibertop.normality import build_binary_partitions
from fibertop.oscillation import RationalFunction
from fibertop.spaces import FiberedMap, constant_map, discrete
from fibertop.textfmt import (
    InstanceFile,
    parse_instance,
    serialize_family,
    serialize_instance,
)

SIERPINSKI_ID = """\
# Sierpinski space with its identity map
space S
points 2
opens
-
0
0 1

map id S -> S
0 -> 0
1 -> 1

set F in S
1

func phi on S
0: 1/2
1: -1/3
"""


class TestParse:
    def test_fixture_parses(self):
        inst = parse_instance(SIERPINSKI_ID)
        assert inst.spaces["S"].opens == (0, 1, 3)
        assert inst.maps["id"].table == (0, 1)
        assert inst.sets["F"] == ("S", 0b10)
        _, phi = inst.funcs["phi"]
        assert phi.values == (Fraction(1, 2), Fraction(-1, 3))

    def test_non_topology_rejected(self):
        bad = "space X\npoints 2\nopens\n-\n0\n1\n"
        with pytest.raises(InstanceValidationError):
            parse_instance(bad)

    def test_discontinuous_map_rejected(self):
        bad = SIERPINSKI_ID + "map swap S -> S\n0 -> 1\n1 -> 0\n"
        with pytest.raises(InstanceValidationError) as err:
            parse_instance(bad)
        assert "swap" in str(err.value)

    def test_syntax_error_carries_line(self):
        bad = "space X\npoints 2\nopens\n-\n0\n0 1\nmap f X\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 7

    def test_bad_rational_line(self):
        bad = SIERPINSKI_ID + "func g on S\n0: one\n1: 2\n"
        with pytest.raises(InstanceSyntaxError):
            parse_instance(bad)

    @pytest.mark.parametrize("point", ["-1", "2", "17"])
    def test_func_point_outside_space(self, point):
        bad = SIERPINSKI_ID + f"func g on S\n0: 1\n{point}: 1/2\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 21
        assert f"point {point} outside space S" in str(err.value)

    def test_func_point_given_twice(self):
        bad = SIERPINSKI_ID + "func g on S\n0: 1\n1: 2\n0: 3\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 22
        assert "point 0 given twice" in str(err.value)

    def test_map_point_given_twice(self):
        bad = SIERPINSKI_ID + "map g S -> S\n0 -> 0\n1 -> 1\n1 -> 0\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 22
        assert "point 1 mapped twice" in str(err.value)

    @pytest.mark.parametrize("point", ["-1", "2", "99"])
    def test_opens_point_outside_space(self, point):
        bad = SIERPINSKI_ID.replace("\n0 1\n", f"\n0 {point}\n", 1)
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 7
        assert f"point {point} outside space S (points 0..1)" in str(err.value)

    @pytest.mark.parametrize("point", ["-1", "2", "99"])
    def test_set_point_outside_space(self, point):
        bad = SIERPINSKI_ID + f"set G in S\n0\n{point}\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 21
        assert f"point {point} outside space S (points 0..1)" in str(err.value)

    def test_negative_point_count(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance("space X\npoints -1\nopens\n-\n")
        assert err.value.line == 2 and "negative point count" in str(err.value)

    @pytest.mark.parametrize("line, point, bad", [
        ("family fam map id y 99", "99", 19),
        ("O: 0 5", "5", 20),
        ("blocks: 0 | -1", "-1", 21),
    ])
    def test_family_point_outside_space(self, line, point, bad):
        lines = ["family fam map id y 1", "O: 0 1", "blocks: 0 1"]
        lines[bad - 19] = line
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(SIERPINSKI_ID + "\n".join(lines) + "\n")
        assert err.value.line == bad
        assert f"point {point} outside space S (points 0..1)" in str(err.value)

    def test_unknown_space_reference(self):
        with pytest.raises(InstanceValidationError):
            parse_instance("set A in nowhere\n0\n")


class TestRoundTrip:
    def test_basic_round_trip(self):
        inst = parse_instance(SIERPINSKI_ID)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.spaces["S"] == inst.spaces["S"]
        assert again.maps["id"].table == inst.maps["id"].table
        assert again.sets == inst.sets
        assert again.funcs["phi"][1].values == inst.funcs["phi"][1].values
        assert serialize_instance(again) == text

    def test_family_round_trip(self):
        f = constant_map(discrete(2))
        fam = build_binary_partitions(f, 0b01, 0b10, 0, 3)
        inst = InstanceFile()
        inst.spaces["X"] = f.domain
        inst.spaces["pt"] = f.codomain
        inst.maps["c"] = f
        inst.map_names["c"] = ("X", "pt")
        inst.families["fam"] = ("c", fam)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.families["fam"][1].levels == fam.levels

    def test_partial_function_round_trip(self):
        text = SIERPINSKI_ID + "func part on S\n1: 4/7\n"
        inst = parse_instance(text)
        _, part = inst.funcs["part"]
        assert part.carrier == 0b10 and part.values[1] == Fraction(4, 7)
        again = parse_instance(serialize_instance(inst))
        assert again.funcs["part"][1].values == part.values


@st.composite
def instance_files(draw):
    """Random spaces, continuous maps between them, sets, partial rational
    functions and, where the builder succeeds, partition families."""
    inst = InstanceFile()
    for i in range(draw(st.integers(1, 3))):
        inst.spaces[f"S{i}"] = draw(spaces(max_points=4))
    names = sorted(inst.spaces)
    for i in range(draw(st.integers(0, 2))):
        xname, yname = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        dom, cod = inst.spaces[xname], inst.spaces[yname]
        table = draw(st.sampled_from(continuous_tables(dom, cod)))
        inst.maps[f"f{i}"] = FiberedMap(dom, cod, table)
        inst.map_names[f"f{i}"] = (xname, yname)
    for i in range(draw(st.integers(0, 2))):
        sname = draw(st.sampled_from(names))
        mask = draw(st.integers(0, inst.spaces[sname].full))
        inst.sets[f"A{i}"] = (sname, mask)
    for i in range(draw(st.integers(0, 2))):
        sname = draw(st.sampled_from(names))
        space = inst.spaces[sname]
        carrier = draw(st.integers(0, space.full))
        vals = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                          max_denominator=9),
                             min_size=space.n, max_size=space.n))
        inst.funcs[f"g{i}"] = (sname, RationalFunction.on_carrier(
            space, carrier, lambda x: vals[x]))
    for mname, f in inst.maps.items():
        closed = f.domain.rel_closed_sets(f.domain.full)
        f_side, t_side = draw(st.sampled_from(closed)), draw(st.sampled_from(closed))
        y = draw(st.integers(0, f.codomain.n - 1))
        if f_side & t_side:
            continue
        try:
            fam = build_binary_partitions(f, f_side, t_side, y, 2)
        except SearchFailed:
            continue
        inst.families[f"fam_{mname}"] = (mname, fam)
    return inst


@settings(max_examples=60, deadline=None)
@given(instance_files())
def test_round_trip_property(inst):
    text = serialize_instance(inst)
    parsed = parse_instance(text)
    assert serialize_instance(parsed) == text
    assert parsed == inst


def test_serialize_family_shape():
    f = constant_map(discrete(2))
    fam = build_binary_partitions(f, 0b01, 0b10, 0, 1)
    text = serialize_family(fam)
    assert text.splitlines() == ["O: 0", "blocks: 0 1", "O: 0", "blocks: 0 | 1"]
