"""What each entry point imports, each case in a fresh interpreter.

A short library call or a single `fibertop check` run spends most of its
time importing, so the package resolves its public names on first use
and only the sweep commands load the sweep modules.  Each child compares
its own sys.modules around the import, so a site hook does not count.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fibertop

ROOT = Path(__file__).resolve().parents[1]

# the package's re-exports, by the submodule that defines them
EXPORTS = {
    "oscillation": ["RationalFunction", "is_f_continuous_at",
                    "is_f_equicontinuous_at", "norm", "osc_at_point",
                    "osc_on_set", "weighted_sum"],
    "partitions": ["ApproximateLimitFunction", "ConsistentBinaryFamily",
                   "Level", "assemble_limit", "validate_consistent_family"],
    "normality": ["are_f_separated", "build_binary_partitions",
                  "is_co_perfectly_normal", "is_co_sigma_perfectly_normal",
                  "is_f_functionally_open", "is_hereditarily_normal",
                  "is_normal", "is_perfectly_normal", "is_prenormal",
                  "is_sigma_normal", "is_sigma_prenormal", "perfect_witnesses"],
    "spaces": ["FiberedMap", "FiniteSpace"],
    "urysohn_tietze": ["build_separator", "exact_extension_exists",
                       "sigma_separator_family", "tietze_extend",
                       "verify_condition_C", "verify_condition_D"],
    "harness": ["classify", "run_theorem_sweep"],
}
SUBMODULES = ["census", "classical", "errors", "harness", "normality",
              "oscillation", "partitions", "spaces", "urysohn_tietze"]


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(statement: str) -> set:
    """The modules that statement loads in a fresh interpreter."""
    code = ("import json, sys; before = set(sys.modules); "
            f"{statement}; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    return set(json.loads(_run(code)))


def _package_modules(statement: str) -> set:
    return {m for m in _loaded(statement) if m.split(".")[0] == "fibertop"}


def test_package_import_loads_no_submodule():
    assert _package_modules("import fibertop") == {"fibertop"}


def test_census_import_loads_only_its_dependencies():
    assert _package_modules("import fibertop.census") == {
        "fibertop", "fibertop.errors", "fibertop.spaces", "fibertop.census"}


def test_cli_import_loads_no_sweep_module():
    # census and harness load in their own commands, traceback only on an
    # internal error; harness is what imports hashlib
    loaded = _loaded("import fibertop.cli")
    assert "fibertop.cli" in loaded
    assert loaded & {"fibertop.harness", "fibertop.census",
                     "fibertop.classical", "hashlib", "traceback"} == set()


def test_public_names_are_their_submodules_objects():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 34
    assert sorted(fibertop.__all__) == sorted(names + SUBMODULES)
    for module, exported in EXPORTS.items():
        source = importlib.import_module(f"fibertop.{module}")
        for name in exported:
            value = getattr(fibertop, name)
            assert value is getattr(source, name), name
            assert value.__module__ == source.__name__, name
    for module in SUBMODULES:
        assert getattr(fibertop, module) is sys.modules[f"fibertop.{module}"]
    assert set(fibertop.__all__) <= set(dir(fibertop))
    assert not hasattr(fibertop, "no_such_name")


def test_star_import_and_readme_quick_start_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    quick_start = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code = ("import fibertop\n"
            "from fibertop import *\n"
            "missing = [n for n in fibertop.__all__ if n not in globals()]\n"
            "assert missing == [], missing\n"
            f"{quick_start}")
    # what README's comment on its last line says it prints
    assert _run(code) == "(Fraction(0, 1), Fraction(1, 1)) True\n"


def test_import_times_prints_the_start_up_table():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "import_times.py"), "--runs", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert lines[0].startswith("median of 1 fresh interpreters, Python ")
    assert lines[2:4] == ["| import | compiled each time | cached bytecode |",
                          "|---|---|---|"]
    rows = [re.fullmatch(r"\| `import ([\w.]+)` \| \d+\.\d ms \| \d+\.\d ms \|",
                         line) for line in lines[4:]]
    assert [row and row.group(1) for row in rows] == [
        "fibertop", "fibertop.census", "fibertop.cli"]
