import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# the stdout of `python3 bench/run.py --workload sweep6 --seed 1 --trace 1`
TRACED = (ROOT / "tests" / "fixtures" / "bench_run_traced.txt").read_text()


def test_reads_digests_and_traced_counters():
    got = bench_pairs.read_stdout(TRACED)
    assert got["digests"] == {
        "sweep6": "7ee68c3bf469138ada8007158c6f27ebff2a44d4a532a0f7bd72c3aecb1d1785",
        "canon6": "89b71198f7967c025b4628476494cb582753b7641b434ec6cd123c20c657c844",
        "cli12": "806066ed31f812b9c7429a947362a42c722485abad7420419b42ef05d8272351",
    }
    traced = got["traced_counters"]
    assert list(traced) == ["sweep6", "canon6", "cli12"]
    assert traced["sweep6"] == {
        "normality.build_levels_calls": 77774,
        "normality.deciders_calls": 38871,
        "spaces.canonical_form_calls": 7331,
        "spaces.classes_found": 185,
        "urysohn_tietze.tietze_extend_calls": 8633,
        "urysohn_tietze.tietze_iterations": 118188,
    }
    assert traced["canon6"]["spaces.canonical_form_calls"] == 2000
    assert traced["canon6"]["spaces.classes_found"] == 563
    assert traced["cli12"]["normality.build_levels_calls"] == 90
    # the untraced counters line of each workload is not read as traced
    assert all(set(c) == set(traced["sweep6"]) for c in traced.values())


def test_an_untraced_run_has_no_traced_counters():
    untraced = "\n".join(line for line in TRACED.splitlines()
                         if " traced counters " not in line)
    got = bench_pairs.read_stdout(untraced)
    assert got["traced_counters"] == {}
    assert got["digests"] == bench_pairs.read_stdout(TRACED)["digests"]
