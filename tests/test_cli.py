import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fibertop import census, cli, normality
from fibertop.cli import main
from fibertop.errors import CheckFailed, HypothesisFailed
from fibertop.normality import build_binary_partitions
from fibertop.textfmt import parse_instance
from fibertop.urysohn_tietze import (ConditionCReport, build_separator,
                                     sigma_separator_family)
from levels_reference import decode_family

ROOT = Path(__file__).resolve().parents[1]
DEMO = str(ROOT / "scripts" / "demo.top")

ID_D2 = """\
space D2
points 2
opens
-
0
1
0 1
map id D2 -> D2
0 -> 0
1 -> 1
set F in D2
0
set T in D2
1
"""

CONST_D2 = """\
space D2
points 2
opens
-
0
1
0 1
space P
points 1
opens
-
0
map c D2 -> P
0 -> 0
1 -> 0
set F in D2
0
set T in D2
1
"""

ID_S = """\
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
set T in S
-
func phit on S
1: 1
"""

MIXED_EXTEND = """\
# two Sierpinski spaces and a point, mapped onto a point; the boundary data
# on the closed set {1, 3, 4} has mixed denominators
space X
points 5
opens
-
0
2
4
0 1
0 2
0 4
2 3
2 4
0 1 2
0 1 4
0 2 3
0 2 4
2 3 4
0 1 2 3
0 1 2 4
0 2 3 4
0 1 2 3 4
space P
points 1
opens
-
0
map c X -> P
0 -> 0
1 -> 0
2 -> 0
3 -> 0
4 -> 0
func phit on X
1: -3/7
3: 5/6
4: 1/4
"""

EXTEND_GOLDEN = {
    "agreement": [],
    "checks": {"agreement": False, "eps": False, "norm": True},
    "iterations": 17,
    "kind": "extend",
    "norm_ok": True,
    "phi": ["-332586175/774840978",
            "-332586175/774840978",
            "645045455/774840978",
            "645045455/774840978",
            "193481285/774840978"],
    "residual_bound": "327680/387420489",
    "residuals": ["5/6", "5/9", "10/27", "20/81", "40/243", "80/729", "160/2187",
                  "320/6561", "640/19683", "1280/59049", "2560/177147",
                  "5120/531441", "10240/1594323", "20480/4782969", "40960/14348907",
                  "81920/43046721", "163840/129140163", "327680/387420489"],
    "y": 0,
}

# a Sierpinski space plus an isolated point 2, over the Sierpinski space
SIGMA_TWO_PIECES = """\
space X
points 3
opens
-
0
2
0 1
0 2
0 1 2
space S
points 2
opens
-
0
0 1
map f X -> S
0 -> 0
1 -> 1
2 -> 0
set F in X
2
set T1 in X
1
set T2 in X
0 1
"""

# `--json --depth 3 build sigma-family --F F --T T1,T2` stdout, by --y
SIGMA_GOLDEN = {
    0: r'{"Oy": [0], "families": ["O: 0 1\nblocks: 0 1 2\nO: 0\nblocks: '
       r'0 2 | -\nO: 0\nblocks: 0 2 | - | - | -\nO: 0\nblocks: 0 2 | - | - '
       r'| - | - | - | - | -", "O: 0 1\nblocks: 0 1 2\nO: 0\nblocks: 2 | 0'
       r'\nO: 0\nblocks: 2 | - | - | 0\nO: 0\nblocks: 2 | - | - | - | - | '
       r'- | - | 0"], "kind": "sigma-family", "osc_bounds": ["0", "0"], '
       r'"y": 0}',
    1: r'{"Oy": [0, 1], "families": ["O: 0 1\nblocks: 0 1 2\nO: 0 1\n'
       r'blocks: 2 | 0 1\nO: 0 1\nblocks: 2 | - | - | 0 1\nO: 0 1\nblocks: '
       r'2 | - | - | - | - | - | - | 0 1", "O: 0 1\nblocks: 0 1 2\nO: 0 1\n'
       r'blocks: 2 | 0 1\nO: 0 1\nblocks: 2 | - | - | 0 1\nO: 0 1\nblocks: '
       r'2 | - | - | - | - | - | - | 0 1"], "kind": "sigma-family", '
       r'"osc_bounds": ["0", "0"], "y": 1}',
}

# `--depth 3 build separator --F F --T T --y 0` stdout on CONST_D2, as text
# and with --json
SEPARATOR_GOLDEN = {
    False: "kind: separator\ny: 0\nfamily: O: 0\nblocks: 0 1\nO: 0\n"
           "blocks: 0 | 1\nO: 0\nblocks: 0 | - | - | 1\nO: 0\nblocks: 0 | - | "
           "- | - | - | - | - | 1\nOy: [0]\nphi: ['0', '1']\nosc: 0\n"
           "error_bound: 1/7\nchecks: {'osc_ok': True, 'f_in_zero': True, "
           "'t_in_one': True, 'f_off_upper_closure': True, "
           "'t_in_upper_interior': True}\n",
    True: r'{"Oy": [0], "checks": {"f_in_zero": true, "f_off_upper_closure": '
          r'true, "osc_ok": true, "t_in_one": true, "t_in_upper_interior": '
          r'true}, "error_bound": "1/7", "family": "O: 0\nblocks: 0 1\nO: 0'
          r'\nblocks: 0 | 1\nO: 0\nblocks: 0 | - | - | 1\nO: 0\nblocks: 0 '
          r'| - | - | - | - | - | - | 1", "kind": "separator", "osc": "0", '
          r'"phi": ["0", "1"], "y": 0}' "\n",
}


BIG = "space B\npoints 20\nopens\n-\n" + \
    "\n".join(" ".join(str(i) for i in range(k + 1)) for k in range(20)) + \
    "\nmap c B -> B\n" + "\n".join(f"{i} -> 0" for i in range(20)) + "\n"


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "id_D2.top"
    path.write_text(ID_D2)
    return str(path)


@pytest.fixture
def const_d2_file(tmp_path):
    path = tmp_path / "const_D2.top"
    path.write_text(CONST_D2)
    return str(path)


@pytest.fixture
def sigma_file(tmp_path):
    path = tmp_path / "sigma.top"
    path.write_text(SIGMA_TWO_PIECES)
    return str(path)


@pytest.fixture
def s_file(tmp_path):
    path = tmp_path / "id_S.top"
    path.write_text(ID_S)
    return str(path)


class TestCheck:
    def test_normal_holds(self, d2_file, capsys):
        assert main(["check", "normal", d2_file]) == 0
        assert "holds" in capsys.readouterr().out

    def test_co_perfect_fails_with_counterexample(self, s_file, capsys):
        code = main(["--json", "check", "co-perfect", s_file])
        assert code == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["holds"] is False
        assert cert["counterexample"] == {"open_carrier": [0], "y": 1}

    def test_cap_exceeded(self, tmp_path, capsys):
        path = tmp_path / "big.top"
        path.write_text(BIG)
        assert main(["check", "normal", str(path)]) == 2
        assert "cap" in capsys.readouterr().err

    def test_env_cap_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FIBERTOP_MAX_POINTS", "64")
        path = tmp_path / "big.top"
        path.write_text(BIG)
        assert main(["check", "normal", str(path)]) == 0

    @pytest.mark.parametrize("value", ["abc", "-4", "0", "1.5"])
    def test_env_cap_must_be_a_positive_integer(self, d2_file, capsys,
                                                monkeypatch, value):
        monkeypatch.setenv("FIBERTOP_MAX_POINTS", value)
        assert main(["check", "normal", d2_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: FIBERTOP_MAX_POINTS must be a positive "
                                f"integer, got {value!r}\n")

    @pytest.mark.parametrize("argv", [["--max-points", "-4", "check"],
                                      ["check", "--max-points=0"]])
    def test_flag_cap_must_be_a_positive_integer(self, d2_file, capsys, argv):
        assert main([*argv, "normal", d2_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-points" in captured.err and "positive integer" in captured.err

    @pytest.mark.parametrize("argv", [["--tol", "1/0", "check"],
                                      ["check", "--tol=1/0"]])
    def test_zero_denominator_tolerance_is_a_usage_error(self, capsys, argv):
        assert main([*argv, "normal", DEMO]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tol 1/0 has a zero denominator\n"

    @pytest.mark.parametrize("value, message", [
        ("abc", "--tol abc is not a rational number p/q"),
        ("-1", "--tol -1 must be positive"),
        ("0", "--tol 0 must be positive")])
    @pytest.mark.parametrize("before", [True, False])
    def test_bad_tolerance_names_the_flag(self, capsys, value, message, before):
        argv = (["--tol", value, "check"] if before
                else ["check", f"--tol={value}"])
        assert main([*argv, "normal", DEMO]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_every_class_runs(self, d2_file):
        for prop in ["prenormal", "normal", "sigma-normal", "perfectly-normal",
                     "co-perfect", "co-sigma-perfect", "hereditarily-normal"]:
            assert main(["check", prop, d2_file]) == 0


class TestBuild:
    def test_separator_reports_bound(self, const_d2_file, capsys):
        code = main(["--json", "--depth", "5", "build", "separator",
                     const_d2_file, "--F", "F", "--T", "T", "--y", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["error_bound"] == "1/31"
        assert out["phi"] == ["0", "1"]
        assert all(out["checks"].values())

    @pytest.mark.parametrize("as_json", [False, True])
    def test_separator_bytes(self, const_d2_file, capsys, as_json):
        flags = ["--json"] if as_json else []
        assert main([*flags, "--depth", "3", "build", "separator",
                     const_d2_file, "--F", "F", "--T", "T", "--y", "0"]) == 0
        assert capsys.readouterr().out == SEPARATOR_GOLDEN[as_json]

    @pytest.mark.parametrize("depth, calls", [(1, 0), (2, 2), (3, 2)])
    def test_separator_depth_is_checked_before_any_build(
            self, const_d2_file, capsys, monkeypatch, depth, calls):
        # the separator's own family and the printed one take a build
        # each, and a depth below 2 is refused before either
        seen = []
        original = normality.build_levels

        def counted(*args):
            seen.append(args[3:])
            return original(*args)

        monkeypatch.setattr(normality, "build_levels", counted)
        code = main(["--depth", str(depth), "build", "separator",
                     const_d2_file, "--F", "F", "--T", "T", "--y", "0"])
        captured = capsys.readouterr()
        assert len(seen) == calls
        if depth < 2:
            assert code == 2 and captured.out == ""
            assert captured.err == "error: a separator needs depth >= 2\n"
        else:
            assert code == 0 and captured.out.count("O:") == depth + 1

    @pytest.mark.parametrize("y", [0, 1])
    @pytest.mark.parametrize("kind", ["partitions", "separator",
                                      "sigma-family"])
    def test_printed_family_decodes_to_the_built_levels(self, sigma_file,
                                                        capsys, kind, y):
        t_names = "T1,T2" if kind == "sigma-family" else "T2"
        assert main(["--json", "--depth", "3", "build", kind, sigma_file,
                     "--F", "F", "--T", t_names, "--y", str(y)]) == 0
        out = json.loads(capsys.readouterr().out)
        inst = parse_instance(Path(sigma_file).read_text())
        f = inst.maps["f"]
        f_side = inst.sets["F"][1]
        t_sides = [inst.sets[nm][1] for nm in t_names.split(",")]
        if kind == "sigma-family":
            res = sigma_separator_family(f, f_side, t_sides, y, 3)
            built = [lim.family for lim in res.limits]
            printed = out["families"]
        elif kind == "separator":
            built = [build_separator(f, f_side, t_sides[0], y, 3).limit.family]
            printed = [out["family"]]
        else:
            built = [build_binary_partitions(f, f_side, t_sides[0], y, 3)]
            printed = [out["family"]]
        assert len(printed) == len(built)
        for text, fam in zip(printed, built):
            assert decode_family(text, f.domain.n) == fam.levels

    def test_extend_residuals(self, s_file, capsys):
        code = main(["--json", "build", "extend", s_file,
                     "--phi", "phit", "--y", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residuals"][0] == "1"

    def test_extend_golden_output(self, tmp_path, capsys):
        # mixed-denominator boundary data; the expected output is pinned
        # from the Fraction implementation of the iteration
        path = tmp_path / "mixed.top"
        path.write_text(MIXED_EXTEND)
        code = main(["--json", "build", "extend", str(path),
                     "--phi", "phit", "--y", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == json.dumps(EXTEND_GOLDEN, sort_keys=True) + "\n"
        assert len(EXTEND_GOLDEN["residuals"]) == 18

    def test_partitions_requires_disjoint(self, tmp_path, capsys):
        text = CONST_D2 + "set G in D2\n0 1\n"
        path = tmp_path / "x.top"
        path.write_text(text)
        code = main(["build", "partitions", str(path),
                     "--F", "F", "--T", "G", "--y", "0"])
        assert code == 2

    def test_sigma_family(self, tmp_path, capsys):
        text = ID_D2 + "set T1 in D2\n1\n"
        path = tmp_path / "y.top"
        path.write_text(text)
        code = main(["--json", "build", "sigma-family", str(path),
                     "--F", "F", "--T", "T1", "--y", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["families"]) == 1

    @pytest.mark.parametrize("y, golden", SIGMA_GOLDEN.items())
    def test_sigma_family_bytes(self, sigma_file, capsys, y, golden):
        code = main(["--json", "--depth", "3", "build", "sigma-family",
                     sigma_file, "--F", "F", "--T", "T1,T2", "--y", str(y)])
        assert code == 0
        assert capsys.readouterr().out == golden + "\n"

    def test_sigma_family_builds_each_piece_once(self, sigma_file, capsys,
                                                  monkeypatch):
        calls = []
        original = normality.build_levels

        def counted(*args):
            calls.append(args[3:])
            return original(*args)

        monkeypatch.setattr(normality, "build_levels", counted)
        assert main(["--depth", "3", "build", "sigma-family", sigma_file,
                     "--F", "F", "--T", "T1,T2,T1", "--y", "0"]) == 0
        assert calls == [(0, 3)] * 3

    def test_sigma_family_depth_comes_before_set_errors(self, sigma_file,
                                                        capsys):
        # F and T1 overlap, but the depth is named first
        assert main(["--depth", "1", "build", "sigma-family", sigma_file,
                     "--F", "T1", "--T", "T1,T2", "--y", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the sigma family needs depth >= 2\n"
        assert main(["--depth", "2", "build", "sigma-family", sigma_file,
                     "--F", "T1", "--T", "T1,T2", "--y", "0"]) == 2
        assert capsys.readouterr().err == "error: F and T must be disjoint\n"


    @pytest.mark.parametrize("y", ["99", "-1"])
    @pytest.mark.parametrize("kind, names", [
        ("functional-witness", ["--F", "F"]),
        ("separator", ["--F", "F", "--T", "T"]),
        ("extend", ["--phi", "phit"]),
    ])
    def test_y_outside_codomain_rejected(self, kind, names, y, capsys):
        assert main(["build", kind, DEMO, *names, f"--y={y}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--y {y}" in captured.err and "2 points" in captured.err

    @pytest.mark.parametrize("kind, given, missing", [
        ("partitions", ["--T", "T"], "F"),
        ("partitions", ["--F", "F"], "T"),
        ("separator", ["--T", "T"], "F"),
        ("separator", ["--F", "F"], "T"),
        ("sigma-family", ["--T", "T"], "F"),
        ("sigma-family", ["--F", "F"], "T"),
        ("functional-witness", [], "F"),
        ("extend", [], "phi"),
    ])
    def test_missing_flag_is_named(self, kind, given, missing, capsys):
        assert main(["build", kind, DEMO, *given, "--y", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: build {kind} needs --{missing}\n"

    def test_functional_witness_failure_exits_1(self, capsys):
        code = main(["--json", "build", "functional-witness", DEMO,
                     "--F", "F", "--y", "0"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] is False and "counterexample" in out

    def test_functional_witness_weights_the_perfect_family(self, const_d2_file,
                                                            capsys):
        assert main(["--json", "build", "functional-witness", const_d2_file,
                     "--F", "F", "--y", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"holds": True, "kind": "functional-witness",
                       "phi": ["1/2", "0"], "y": 0}

    @pytest.mark.parametrize("space, phi", [
        # {0} straddles the one component {0 1} of the Sierpinski space,
        # an open unrelated to U that must not change the witness
        ("-\n0\n0 1", ["1/2", "1/2"]),
        ("-\n0\n1\n0 1", ["1/2", "1/4"]),
    ])
    def test_functional_witness_reads_only_u_and_y(self, space, phi, tmp_path,
                                                   capsys):
        path = tmp_path / "const.top"
        path.write_text(f"space X\npoints 2\nopens\n{space}\n"
                        "space P\npoints 1\nopens\n-\n0\n"
                        "map c X -> P\n0 -> 0\n1 -> 0\nset U in X\n0 1\n")
        assert main(["--json", "build", "functional-witness", str(path),
                     "--F", "U", "--y", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"holds": True, "kind": "functional-witness",
                       "phi": phi, "y": 0}

    def test_perfect_witnesses_first_32_in_open_order(self, tmp_path, capsys):
        # the constant map from the 6-point discrete space has 64 opens
        opens = "\n".join(" ".join(str(p) for p in range(6) if m >> p & 1) or "-"
                          for m in range(64))
        path = tmp_path / "d6.top"
        path.write_text(f"space D6\npoints 6\nopens\n{opens}\n"
                        "space P\npoints 1\nopens\n-\n0\nmap c D6 -> P\n"
                        + "".join(f"{x} -> 0\n" for x in range(6)))
        assert main(["--json", "check", "perfectly-normal", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [w["open"] for w in out["witnesses"]] == [
            [p for p in range(6) if m >> p & 1] for m in range(32)]


# demo.top with a set on its codomain S and a func on a fourth space D4;
# both masks fit the domain C3, so only the declared space tells them apart
OFF_DOMAIN = Path(DEMO).read_text() + """
set G in S
0

space D4
points 4
opens
-
0 1 2 3

func g on D4
2: 1/2
"""


class TestDeclaredSpace:
    @pytest.mark.parametrize("kind, names", [
        ("functional-witness", ["--F", "G"]),
        ("partitions", ["--F", "G", "--T", "T"]),
        ("partitions", ["--F", "F", "--T", "G"]),
        ("separator", ["--F", "G", "--T", "T"]),
        ("separator", ["--F", "F", "--T", "G"]),
        ("sigma-family", ["--F", "G", "--T", "T"]),
        ("sigma-family", ["--F", "F", "--T", "T,G"]),
        ("extend", ["--phi", "g"]),
    ])
    def test_set_or_func_off_the_domain_rejected(self, tmp_path, capsys, kind,
                                                 names):
        path = tmp_path / "off.top"
        path.write_text(OFF_DOMAIN)
        assert main(["build", kind, str(path), *names, "--y", "0"]) == 2
        captured = capsys.readouterr()
        what = ("func 'g' is declared on space D4" if kind == "extend"
                else "set 'G' is declared on space S")
        assert captured.out == ""
        assert captured.err == f"error: {what}, not on the map's domain C3\n"


class TestDepthBound:
    @pytest.mark.parametrize("depth", ["17", "40", "0"])
    def test_depth_outside_bound_rejected(self, const_d2_file, depth, capsys,
                                          monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a family was built")

        monkeypatch.setattr(cli, "build_binary_partitions", never)
        code = main(["--depth", depth, "build", "partitions", const_d2_file,
                     "--F", "F", "--T", "T", "--y", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "between 1 and 16" in captured.err and depth in captured.err

    def test_bound_is_inclusive(self, d2_file, capsys):
        assert main(["--depth", "16", "check", "normal", d2_file]) == 0
        assert main(["--depth", "17", "check", "normal", d2_file]) == 2
        assert capsys.readouterr().err.endswith("got 17\n")


class TestFlagOrder:
    """With several bad flags, main names the first in a fixed order:
    --tol, FIBERTOP_MAX_POINTS (only without --max-points), --depth,
    --max-points."""

    @pytest.mark.parametrize("argv, env, message", [
        (["--tol", "0", "--depth", "0", "--max-points", "0"], "x",
         "--tol 0 must be positive"),
        (["--depth", "0"], "x",
         "FIBERTOP_MAX_POINTS must be a positive integer, got 'x'"),
        (["--depth", "0", "--max-points", "0"], "x",
         "depth must be between 1 and 16, got 0"),
        (["--max-points", "0"], "x",
         "the point cap (--max-points) must be a positive integer, got 0"),
    ])
    def test_first_bad_flag_is_named(self, d2_file, capsys, monkeypatch, argv,
                                     env, message):
        monkeypatch.setenv("FIBERTOP_MAX_POINTS", env)
        assert main([*argv, "check", "normal", d2_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestInstanceErrors:
    def test_func_point_outside_space(self, tmp_path, capsys):
        path = tmp_path / "bad.top"
        path.write_text(ID_S.replace("1: 1", "-1: 1/2"))
        assert main(["build", "extend", str(path), "--phi", "phit",
                     "--y", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 15" in captured.err
        assert "point -1 outside space S" in captured.err

    def test_func_point_given_twice(self, tmp_path, capsys):
        path = tmp_path / "twice.top"
        path.write_text(ID_S + "0: 1\n0: 1/2\n")
        assert main(["build", "extend", str(path), "--phi", "phit",
                     "--y", "0"]) == 2
        captured = capsys.readouterr()
        assert "line 17" in captured.err and "point 0 given twice" in captured.err

    def test_opens_point_outside_space(self, tmp_path, capsys):
        path = tmp_path / "bad.top"
        path.write_text(Path(DEMO).read_text().replace("\n0 1 2\n", "\n0 1 99\n"))
        assert main(["check", "normal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 15: point 99 outside space C3 (points 0..2)" in captured.err

    @pytest.mark.parametrize("old, new, message", [
        ("\npoints 3\n", "\npoints 3 7\n", "line 10: expected: points <n>"),
        ("\n2 -> 1\n", "\n2 -> 5\n",
         "line 27: point 5 outside space S (points 0..1)"),
        ("\n2 -> 1\n", "\n7 -> 1\n",
         "line 27: point 7 outside space C3 (points 0..2)"),
        # the family text that build prints is output only
        ("2: 3/4\n", "2: 3/4\n\nfamily fam map f y 0\nO: 0 1\n"
                      "blocks: 0 1 2\nO: 0\nblocks: 2 | 0 1\n",
         "line 38: instance files have no family block"),
    ])
    def test_header_and_image_errors_name_their_line(self, tmp_path, capsys,
                                                     old, new, message):
        path = tmp_path / "bad.top"
        path.write_text(Path(DEMO).read_text().replace(old, new, 1))
        assert main(["check", "normal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("opens, message", [
        ("-\n0\n0 1 2", "map f: preimage {0 1} of open {0} is not open"),
        ("-\n0\n1\n0 1 2", "space C3: union of opens {1} and {0} is not open"),
        ("-\n0 1\n1 2\n0 1 2",
         "space C3: intersection of opens {0 1} and {1 2} is not open"),
    ])
    def test_invalid_sets_named_by_points(self, tmp_path, capsys, opens,
                                          message):
        path = tmp_path / "bad.top"
        text = Path(DEMO).read_text().replace("-\n0\n0 1\n0 1 2", opens, 1)
        path.write_text(text)
        assert main(["check", "normal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the message names the header line of the offending block
        obj, reason = message.split(": ", 1)
        header = next(i for i, line in enumerate(text.splitlines(), 1)
                      if line.split()[:2] == obj.split())
        assert captured.err == f"error: {obj} (line {header}): {reason}\n"

    @pytest.mark.parametrize("old, new, message", [
        ("\n0 -> 0\n", "\n0 -> 1\n",
         "map f (line 24): preimage {1} of open {0} is not open"),
        ("\n0 1\n0 1 2\n", "\n1\n0 1 2\n",
         "space C3 (line 9): union of opens {1} and {0} is not open"),
    ])
    def test_validation_error_names_header_line(self, tmp_path, capsys, old,
                                                new, message):
        path = tmp_path / "bad.top"
        path.write_text(Path(DEMO).read_text().replace(old, new, 1))
        assert main(["check", "normal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


DEMO_LINES = Path(DEMO).read_text().splitlines()
BAD_TOKENS = ["-1", "99", "x", "1/0", "-", "->", ":", "0", "2", "3", "1/2",
              "opens", "space", "points", "map", "set", "func", "C3", "S"]


@st.composite
def mutated_demo(draw):
    """demo.top after one to three edits, each deleting, duplicating or
    truncating a line, or replacing one of its tokens."""
    lines = list(DEMO_LINES)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "truncate", "token"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@seed(20261018)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_demo())
def test_mutated_demo_never_crashes(tmp_path, text):
    path = tmp_path / "mutated.top"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", "normal", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


class TestParserReuse:
    """main() parses every call with the one parser built on the first."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_does_not_stick(self, d2_file, capsys):
        assert main(["--json", "check", "normal", d2_file]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert main(["check", "normal", d2_file]) == 0
        assert capsys.readouterr().out == "normal: holds\n"

    def test_depth_does_not_stick(self, const_d2_file, capsys):
        def levels(argv):
            assert main([*argv, "--json", "build", "partitions", const_d2_file,
                         "--F", "F", "--T", "T", "--y", "0"]) == 0
            return json.loads(capsys.readouterr().out)["family"].count("O:")

        assert levels(["--depth", "3"]) == 4
        assert levels([]) == 7

    def test_usage_error_then_valid_call(self, d2_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no-such-class", d2_file])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["check", "normal", d2_file]) == 0
        assert capsys.readouterr().out == "normal: holds\n"

    @pytest.mark.parametrize("command", [[], ["check"], ["build"], ["census"],
                                         ["harness"]])
    def test_help_matches_a_fresh_parser(self, d2_file, capsys, command):
        assert main(["check", "normal", d2_file]) == 0
        capsys.readouterr()
        helps = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*command, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith(" ".join(["usage: fibertop", *command]))


class TestInternalError:
    def test_invariant_failure_exits_3(self, d2_file, capsys, monkeypatch):
        def broken(f):
            raise AssertionError("invariant broke")

        monkeypatch.setattr(cli, "is_normal", broken)
        assert main(["check", "normal", d2_file]) == 3
        captured = capsys.readouterr()
        assert "internal error" in captured.err and "invariant broke" in captured.err
        # the traceback, whose module loads only on this path, comes first
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert 'raise AssertionError("invariant broke")' in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("exc", [
        CheckFailed("separator conditions ['osc_ok']"),
        HypothesisFailed("step", 3),
    ])
    def test_broken_separator_build_exits_3(self, const_d2_file, capsys,
                                            monkeypatch, exc):
        # the builders raise these only on their own output, never on the
        # input file
        def broken(*args):
            raise exc

        monkeypatch.setattr(cli, "build_separator", broken)
        assert main(["build", "separator", const_d2_file,
                     "--F", "F", "--T", "T", "--y", "0"]) == 3
        captured = capsys.readouterr()
        assert f"internal error: {type(exc).__name__}: {exc}" in captured.err
        assert captured.out == ""

    def test_failed_separator_re_verification_exits_3(self, const_d2_file,
                                                      capsys, monkeypatch):
        def failing(*args):
            return ConditionCReport(False, True, True, True, True,
                                    Fraction(1, 2))

        monkeypatch.setattr(cli, "verify_condition_C", failing)
        assert main(["build", "separator", const_d2_file,
                     "--F", "F", "--T", "T", "--y", "0"]) == 3
        captured = capsys.readouterr()
        assert ("internal error: CheckFailed: verification check failed: "
                "separator failed re-verification") in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("kind", ["partitions", "separator",
                                      "sigma-family"])
    @pytest.mark.parametrize("file, y, index, corrupt, message", [
        # the identity of the Sierpinski space over y = 1, F = {1}, T empty:
        # the open point 0 moved to the last block breaks condition 2 of
        # level 2, whose prefix {1} then meets the closure of block 3
        ("s_file", 1, (0, 0), lambda index: (63, index[1]),
         "built family: level 2 partition not regular: prefix through 0 "
         "meets closure of blocks >= 2"),
        # F's point in the last block and T's in block 0
        ("const_d2_file", 0, (0, 63), lambda index: index[::-1],
         "condition (a), F side, at level 1"),
        # T's point past the last block of every level, from level 1 on
        ("const_d2_file", 0, (0, 63), lambda index: (index[0], 64),
         "built family: level 1 must have 2 blocks"),
    ])
    def test_corrupted_built_family_exits_3(self, request, capsys,
                                            monkeypatch, kind, file, y,
                                            index, corrupt, message):
        # the builder re-checks its own family: a failure there is an
        # internal error, not a usage error
        real = normality.build_levels

        def corrupted(*args):
            levels = real(*args)
            assert levels.index == index
            return levels._replace(index=corrupt(levels.index))

        monkeypatch.setattr(normality, "build_levels", corrupted)
        assert main(["build", kind, request.getfixturevalue(file),
                     "--F", "F", "--T", "T", "--y", str(y)]) == 3
        captured = capsys.readouterr()
        assert ("internal error: CheckFailed: verification check failed: "
                + message) in captured.err
        assert captured.out == ""


class TestCensus:
    def test_n2_no_violations(self, capsys):
        assert main(["census", "--n", "2"]) == 0
        err = capsys.readouterr().err
        assert "violations=0" in err

    def test_sides_bounded_inside_the_enumeration(self, capsys, monkeypatch):
        # --n 3 asks for the total-6 census but builds no 4- or 5-point space,
        # and prints the same instances, with the same uids, as filtering it
        asked = []
        real = census.canonical_spaces

        def spy(n):
            asked.append(n)
            return real(n)

        monkeypatch.setattr(census, "canonical_spaces", spy)
        assert main(["census", "--n", "3"]) == 0
        assert max(asked) == 3
        uids = [json.loads(line)["id"]
                for line in capsys.readouterr().out.splitlines()]
        assert uids == [inst.uid for inst in census.census_instances(6)
                        if inst.f.domain.n <= 3 and inst.f.codomain.n <= 3]

    def test_sides_past_the_form_cap_exit_2_at_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(census, "minimal_nbhd_assignments",
                            lambda n: calls.append(n) or ())
        assert main(["census", "--n", "9", "--total", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: canonical spaces are capped at 8 "
                                "points, not 9\n")
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["census", "--n", "7", "--total", "8"],
        ["census", "--n", "7", "--sample", "3"],
        ["harness", "--total", "8"]])
    def test_sides_past_the_labelled_limit_exit_2_at_once(self, capsys,
                                                          monkeypatch, argv):
        # within the 8-point cap of forms, but a 7-point side would first
        # build all 9,535,241 labelled 7-point tables
        calls = []
        monkeypatch.setattr(census, "minimal_nbhd_assignments",
                            lambda n: calls.append(n) or ())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: census sides are capped at 6 points,"
                                " not 7: a larger side means canonicalising"
                                " every labelled space of its size, 9,535,241"
                                " at 7 points\n")
        assert calls == []

    def test_side_bound_at_four_points(self):
        # what `census --n 4` enumerates: total 8, no 5-, 6- or 7-point space
        assert sum(1 for _ in census.census_instances(8, 4)) == 87389

    def test_sampled(self, capsys):
        assert main(["--seed", "7", "census", "--n", "3", "--sample", "25"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "--n 0 must be positive"),
        (["--n", "-1"], "--n -1 must be positive"),
        (["--n", "0", "--sample", "3"], "--n 0 must be positive"),
        (["--sample", "0"], "--sample 0 must be positive"),
        (["--sample", "-2"], "--sample -2 must be positive")])
    def test_sizes_must_be_positive(self, capsys, argv, message):
        assert main(["census", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--total", "-1"], "--total -1 must be at least 2: no instance has "
                            "fewer than two points"),
        (["--total", "0"], "--total 0 must be at least 2: no instance has "
                           "fewer than two points"),
        (["--total", "1"], "--total 1 must be at least 2: no instance has "
                           "fewer than two points"),
        (["--total", "4", "--sample", "3"],
         "--total cannot be combined with --sample")])
    def test_total_is_checked(self, capsys, argv, message):
        assert main(["census", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_total_two(self, capsys):
        assert main(["census", "--total", "2"]) == 0
        assert capsys.readouterr().err.startswith("# instances=1 ")

    @pytest.mark.parametrize("argv", [["--n", "2"], ["--n", "3", "--total", "5"]])
    def test_counts_are_the_true_classes_of_the_lines(self, capsys, argv):
        assert main(["census", *argv]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        counts = Counter(key for rec in records
                         for key, val in rec["classes"].items() if val is True)
        assert captured.err == (
            f"# instances={len(records)} violations=0 "
            f"counts={json.dumps(dict(counts), sort_keys=True)}\n")

    def test_json_lines_output(self, tmp_path):
        out = tmp_path / "census.jsonl"
        assert main(["census", "--n", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert all(json.loads(line)["violations"] == [] for line in lines)


class TestHarness:
    def test_small_total_clean(self, capsys, tmp_path):
        out = tmp_path / "records.jsonl"
        code = main(["harness", "--total", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") > 0

    @pytest.mark.parametrize("argv, message", [
        (["--total", "0"], "--total 0 must be at least 2: no instance has "
                           "fewer than two points"),
        (["--total", "-3"], "--total -3 must be at least 2: no instance has "
                            "fewer than two points"),
        (["--budget", "-1"], "--budget -1 must not be negative")])
    def test_sizes_are_checked(self, capsys, argv, message):
        assert main(["harness", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_zero_budget_runs_no_extension(self, capsys):
        assert main(["--json", "harness", "--total", "3", "--budget", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["params"]["extender_budget"] == 0

    def test_deterministic_output(self, capsys):
        assert main(["--json", "harness", "--total", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "harness", "--total", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a `fibertop check` call spends most of its time importing; src keeps
    # its records as NamedTuples because dataclasses runs generated code per
    # class and imports inspect, ast, dis and tokenize.  The child compares
    # its own sys.modules around the import, so a site hook does not count.
    code = ("import sys; before = set(sys.modules); import fibertop.cli; "
            "print(*sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_deep_builds_smoke():
    # the separator builds of the cli12 seed-1 files at depth 2; the
    # digest pins their exit codes and output, and bench/ gains no file
    # even when the environment allows bytecode
    bench = sorted((ROOT / "bench").rglob("*"))
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "deep_builds.py"),
         "--depth", "2"], capture_output=True, text=True, check=True,
        timeout=120, env=env).stdout
    builds, seconds, digest = out.splitlines()
    assert builds == "builds: 45"
    assert seconds.startswith("seconds: ") and float(seconds[9:]) > 0
    assert digest == ("sha256: fa25c5452303fb9eac8378049bbf1ba9"
                      "245ef75b480b904333536f7fdbe1eea0")
    assert sorted((ROOT / "bench").rglob("*")) == bench
