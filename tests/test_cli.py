import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fibertop import cli
from fibertop.cli import main
from fibertop.config import MAX_DEPTH, RunConfig

DEMO = str(Path(__file__).resolve().parents[1] / "scripts" / "demo.top")

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

    def test_functional_witness_failure_exits_1(self, capsys):
        code = main(["--json", "build", "functional-witness", DEMO,
                     "--F", "F", "--y", "0"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] is False and "counterexample" in out


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

    def test_bound_is_inclusive(self):
        assert RunConfig(depth=MAX_DEPTH).depth == 16
        with pytest.raises(ValueError):
            RunConfig(depth=MAX_DEPTH + 1)


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


class TestInternalError:
    def test_invariant_failure_exits_3(self, d2_file, capsys, monkeypatch):
        def broken(f):
            raise AssertionError("invariant broke")

        monkeypatch.setattr(cli, "is_normal", broken)
        assert main(["check", "normal", d2_file]) == 3
        captured = capsys.readouterr()
        assert "internal error" in captured.err and "invariant broke" in captured.err
        assert captured.out == ""


class TestCensus:
    def test_n2_no_violations(self, capsys):
        assert main(["census", "--n", "2"]) == 0
        err = capsys.readouterr().err
        assert "violations=0" in err

    def test_sampled(self, capsys):
        assert main(["--seed", "7", "census", "--n", "3", "--sample", "25"]) == 0

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

    def test_deterministic_output(self, capsys):
        assert main(["--json", "harness", "--total", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "harness", "--total", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
