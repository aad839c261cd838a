import json
from pathlib import Path

import pytest

from fibertop import cli
from fibertop.cli import main

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
