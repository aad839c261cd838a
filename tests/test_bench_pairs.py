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


def test_compare_reads_the_ratio_within_each_pair():
    # both sides of a pair drift together: every pair reads 0.9, while the
    # parent's own runs spread by 0.4 and the medians by only 0.12
    parent = [1.0, 1.4, 1.0, 1.4]
    change = [0.9, 1.26, 0.9, 1.26]
    got = bench_pairs.compare(parent, change, "lower", 0.25)
    assert got["pair_ratio"] == {"median": 0.9, "q1": 0.9, "q3": 0.9}
    assert (got["change_wins"], got["change_losses"], got["pairs"]) == (4, 0, 4)
    assert got["parent"] == {"median": 1.2, "q1": 1.0, "q3": 1.4}
    assert got["median_ratio"] == 0.9
    assert abs(got["parent_iqr"] - 0.4) < 1e-12
    assert not got["gap_exceeds_parent_iqr"]
    assert not got["resolved"] and got["within_bound"]


def test_compare_ratio_quartiles_and_a_higher_is_better_metric():
    parent = [2.0, 2.0, 2.0, 2.0, 2.0]
    change = [1.0, 2.0, 3.0, 4.0, 2.5]
    got = bench_pairs.compare(parent, change, "higher", 0.1)
    # ratios 0.5, 1, 1.5, 2, 1.25: quartiles by the inclusive method
    assert got["pair_ratio"] == {"median": 1.25, "q1": 1.0, "q3": 1.5}
    assert (got["change_wins"], got["change_losses"]) == (3, 1)
    assert got["median_ratio"] == 1.25
    assert got["parent_iqr"] == 0 and got["resolved"]
    assert got["gap_exceeds_parent_iqr"] and got["within_bound"]
    # lower is better: the same runs lose three pairs and break the bound
    lower = bench_pairs.compare(parent, change, "lower", 0.1)
    assert (lower["change_wins"], lower["change_losses"]) == (1, 3)
    assert not lower["within_bound"]
