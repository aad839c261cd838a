import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_maps, spaces
from fibertop.census import continuous_tables
from fibertop.errors import InstanceSyntaxError, InstanceValidationError, SearchFailed
from fibertop.normality import build_binary_partitions
from fibertop.oscillation import RationalFunction
from fibertop.spaces import FiberedMap, bits, constant_map, discrete
from fibertop.textfmt import (
    InstanceFile,
    _fmt_set,
    parse_instance,
    serialize_family,
)


def serialize_instance(inst: InstanceFile) -> str:
    """The instance file text of a parsed instance, block by block in the
    order spaces, maps, sets, funcs, families; parsing it gives the
    instance back."""
    chunks = []
    for name, space in inst.spaces.items():
        chunks.append(f"space {name}")
        chunks.append(f"points {space.n}")
        chunks.append("opens")
        chunks.extend(_fmt_set(o) for o in space.opens)
    for name, fmap in inst.maps.items():
        xname, yname = inst.map_names[name]
        chunks.append(f"map {name} {xname} -> {yname}")
        chunks.extend(f"{i} -> {v}" for i, v in enumerate(fmap.table))
    for name, (sname, mask) in inst.sets.items():
        chunks.append(f"set {name} in {sname}")
        chunks.append(_fmt_set(mask))
    for name, (sname, func) in inst.funcs.items():
        chunks.append(f"func {name} on {sname}")
        chunks.extend(f"{x}: {func.values[x]}" for x in bits(func.carrier))
    for name, (mname, fam) in inst.families.items():
        chunks.append(f"family {name} map {mname} y {fam.y}")
        chunks.append(serialize_family(fam))
    return "\n".join(chunks) + "\n"


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

    def test_points_line_with_extra_tokens(self):
        bad = SIERPINSKI_ID.replace("points 2\n", "points 2 7\n")
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 3 and "expected: points <n>" in str(err.value)

    @pytest.mark.parametrize("image", ["-1", "2", "5"])
    def test_map_image_outside_codomain(self, image):
        bad = SIERPINSKI_ID + f"space P\npoints 1\nopens\n-\n0\n" \
            f"map g S -> P\n0 -> 0\n1 -> {image}\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 26
        assert f"point {image} outside space P (points 0..0)" in str(err.value)

    @pytest.mark.parametrize("source", ["-1", "2", "7"])
    def test_map_source_outside_domain(self, source):
        bad = SIERPINSKI_ID + f"space P\npoints 1\nopens\n-\n0\n" \
            f"map g S -> P\n0 -> 0\n{source} -> 0\n"
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(bad)
        assert err.value.line == 26
        assert f"point {source} outside space S (points 0..1)" in str(err.value)

    def test_unknown_space_reference(self):
        with pytest.raises(InstanceValidationError):
            parse_instance("set A in nowhere\n0\n")


# demo.top with a family whose O: and blocks: lines are split by a blank line
DEMO_WITH_FAMILY = (Path(__file__).resolve().parents[1] / "scripts"
                    / "demo.top").read_text() + """
family fam map f y 0
O: 0 1
blocks: 0 1 2
O: 0

blocks: 0 1 | -
"""


def _untidy(text: str, indent: str, trail: str) -> str:
    """text with every line indented and trailed by whitespace, and every
    blank line an indented comment, so that each line keeps its number."""
    return "\n".join(f"{indent}{line}{trail}" if line.strip()
                     else f"{indent}# blank{trail}"
                     for line in text.splitlines()) + "\n"


class TestWhitespace:
    @pytest.mark.parametrize("indent, trail", [("\t", " "), ("    ", "\t  "),
                                               (" \t", "")])
    def test_untidy_demo_parses_like_the_clean_file(self, indent, trail):
        clean = parse_instance(DEMO_WITH_FAMILY)
        assert clean.families and clean.funcs
        assert parse_instance(_untidy(DEMO_WITH_FAMILY, indent, trail)) == clean

    @pytest.mark.parametrize("old, new", [
        ("\n0 1 2\n", "\n0 1 99\n"),
        ("\n2 -> 1\n", "\n2 -> 5\n"),
        ("\n0 -> 0\n", "\n0 -> 1\n"),
        ("\n2: 3/4\n", "\n2: 3/0\n"),
        ("\nblocks: 0 1 | -\n", "\nblocks: 2 | 0 1\n"),
        ("\nblocks: 0 1 | -\n", "\n"),
    ])
    @pytest.mark.parametrize("indent, trail", [("\t", " "), ("    ", "\t  ")])
    def test_untidy_demo_errors_name_the_same_line(self, old, new, indent,
                                                    trail):
        bad = DEMO_WITH_FAMILY.replace(old, new, 1)
        assert bad != DEMO_WITH_FAMILY
        with pytest.raises((InstanceSyntaxError, InstanceValidationError)) as clean:
            parse_instance(bad)
        with pytest.raises(type(clean.value)) as untidy:
            parse_instance(_untidy(bad, indent, trail))
        assert str(untidy.value) == str(clean.value)
        assert "line " in str(clean.value)


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


# the identity of the Sierpinski space on lines 1-9
SIERPINSKI_MAP = "space X\npoints 2\nopens\n-\n0\n0 1\nmap f X -> X\n0 -> 0\n1 -> 1\n"
POINT = "space X\npoints 1\nopens\n-\n0\n"


class TestErrorPaths:
    """One minimal bad file per error path of the parser: the type, the
    line and the whole message are pinned."""

    @pytest.mark.parametrize("text, kind, line, message", [
        ("foo\n", InstanceSyntaxError, 1, "line 1: unknown keyword 'foo'"),
        ("points 2\n", InstanceSyntaxError, 1,
         "line 1: points outside a space block"),
        (POINT + "opens\n", InstanceSyntaxError, 6,
         "line 6: opens outside a space block"),
        ("space X\npoints 1\n", InstanceSyntaxError, 3, "line 3: expected: opens"),
        ("space X\npoints 1\n0\nopens\n", InstanceSyntaxError, 3,
         "line 3: expected: opens"),
        ("space X\n\nmap f X -> X\n", InstanceSyntaxError, 3,
         "line 3: expected: points <n>"),
        # an O: row at the end of the file
        (SIERPINSKI_MAP + "family a map f y 0\nO: 0 1\n", InstanceSyntaxError,
         12, "line 12: expected: blocks:"),
        # a keyword line right after O:
        (SIERPINSKI_MAP + "family a map f y 0\nO: 0 1\n# c\nset A in X\n",
         InstanceSyntaxError, 13, "line 13: expected: blocks:"),
        (SIERPINSKI_MAP + "family a map f y 0\nO: 0 1\nO: 0 1\n",
         InstanceSyntaxError, 12, "line 12: expected: blocks:"),
        (POINT + "map f X -> X\n0 0\n", InstanceSyntaxError, 7,
         "line 7: expected: <i> -> <j>"),
        (POINT + "map f X -> X\na -> 0\n", InstanceSyntaxError, 7,
         "line 7: expected integers"),
        (SIERPINSKI_MAP.replace("1 -> 1\n", "") + "set A in X\n0\n",
         InstanceValidationError, 7, "map f (line 7): no image for point 1"),
        (SIERPINSKI_MAP + "family a map f y z\nO: 0 1\nblocks: 0 1\n",
         InstanceSyntaxError, 10, "line 10: bad base point"),
        (SIERPINSKI_MAP + "family a map g y 0\n", InstanceValidationError, 10,
         "family a (line 10): unknown map"),
        (POINT + "set A in X\nz\n", InstanceSyntaxError, 7,
         "line 7: bad point list 'z'"),
        (POINT + "func g on X\n0 1/2\n", InstanceSyntaxError, 7,
         "line 7: expected: <i>: <p/q>"),
        (POINT + "func g on Y\n0: 1/2\n", InstanceValidationError, 6,
         "func g (line 6): unknown space"),
        ("space\n", InstanceSyntaxError, 1, "line 1: expected: space <name>"),
        (POINT + "map f X\n", InstanceSyntaxError, 6,
         "line 6: expected: map <name> <X> -> <Y>"),
        ("set A X\n", InstanceSyntaxError, 1,
         "line 1: expected: set <name> in <space>"),
        ("func g in X\n", InstanceSyntaxError, 1,
         "line 1: expected: func <name> on <space>"),
        ("family a map f y\n", InstanceSyntaxError, 1,
         "line 1: expected: family <name> map <map> y <point>"),
        # a stray row after a valid family is the next header
        (SIERPINSKI_MAP + "family a map f y 0\nO: 0 1\nblocks: 0 1\n0 1\n",
         InstanceSyntaxError, 13, "line 13: unknown keyword '0'"),
        # ... and is reported only after the family is validated
        (SIERPINSKI_MAP + "family a map f y 0\nO: 0 1\nblocks: 0\n0 1\n",
         InstanceValidationError, 10,
         "family a (line 10): level 0 must be the whole codomain with one block"),
    ])
    def test_error_names_its_line(self, text, kind, line, message):
        with pytest.raises((InstanceSyntaxError, InstanceValidationError)) as err:
            parse_instance(text)
        assert type(err.value) is kind
        assert err.value.line == line
        assert str(err.value) == message


# a 12-point space whose opens are the empty set, one row and every point;
# the row is line 6
TWELVE = "space X\npoints 12\nopens\n-\n{row}\n0 1 2 3 4 5 6 7 8 9 10 11\n"


class TestOpensSpellings:
    """Opens rows are read through a table of the points' decimal names;
    every other spelling falls back to the per-row reader and keeps its
    mask or its message."""

    @pytest.mark.parametrize("row, mask", [
        ("01", 0b10), ("+1", 0b10), ("1 1", 0b10), (" 0 ", 0b1), ("-", 0),
        ("11 0", 1 << 11 | 1), ("0011", 1 << 11), ("\t3   4", 0b11000)])
    def test_accepted(self, row, mask):
        space = parse_instance(TWELVE.format(row=row)).spaces["X"]
        assert space.opens == tuple(sorted({0, mask, (1 << 12) - 1}))
        # the same row in a set block, which reads rows one at a time
        text = TWELVE.format(row="5") + f"set A in X\n{row}\n"
        assert parse_instance(text).sets["A"] == ("X", mask)

    @pytest.mark.parametrize("row, message", [
        ("- 1", "line 5: bad point list '- 1'"),
        ("x", "line 5: bad point list 'x'"),
        ("0 x", "line 5: bad point list '0 x'"),
        ("1 -", "line 5: bad point list '1 -'"),
        ("12", "line 5: point 12 outside space X (points 0..11)"),
        ("3 -1", "line 5: point -1 outside space X (points 0..11)"),
        ("1.0", "line 5: bad point list '1.0'")])
    def test_rejected(self, row, message):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(TWELVE.format(row=row))
        assert str(err.value) == message

    def test_points_past_the_name_table(self):
        # a 70-point space: point names above the table's reach still parse
        full = (1 << 70) - 1
        text = ("space X\npoints 70\nopens\n-\n69\n"
                + " ".join(map(str, range(70))) + "\n")
        assert parse_instance(text).spaces["X"].opens == (0, 1 << 69, full)
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance(text.replace("\n69\n", "\n70\n"))
        assert str(err.value) == "line 5: point 70 outside space X (points 0..69)"


def _seeded_twelve_point_instances(count: int, seed: int):
    """Seeded instances on 12 points in all: a continuous map, a closed set
    of its domain, and a partial function on its codomain."""
    rng = random.Random(seed)
    for f in seeded_maps(count, 12, seed):
        inst = InstanceFile()
        inst.spaces["X"], inst.spaces["Y"] = f.domain, f.codomain
        inst.maps["f"] = f
        inst.map_names["f"] = ("X", "Y")
        inst.sets["F"] = ("X", f.domain.closure(rng.randrange(1 << f.domain.n)))
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(f.codomain.n)]
        inst.funcs["phi"] = ("Y", RationalFunction.on_carrier(
            f.codomain, rng.randrange(1 << f.codomain.n), lambda y: vals[y]))
        yield inst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_twelve_point_files_round_trip(seed, tmp_path):
    for k, inst in enumerate(_seeded_twelve_point_instances(10, seed)):
        path = tmp_path / f"i{k}.top"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        parsed = parse_instance(path.read_text(encoding="utf-8"))
        assert parsed == inst
        for name, space in inst.spaces.items():
            again = parsed.spaces[name]
            assert again._min_nbhd == space._min_nbhd
            assert again._cl_point == space._cl_point
        assert parsed.maps["f"]._nbhd_pre == inst.maps["f"]._nbhd_pre
