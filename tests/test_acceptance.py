"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy census sweep
runs once per session and is shared by criteria 3 through 7, by the pin of
its digest and by the count of the memo entries it stores; criterion 9
reruns everything and compares the canonical JSON byte for byte.
"""

import dataclasses
import random
import time
from collections import Counter
from itertools import product

import pytest

from fibertop import census
from fibertop.census import canonical_spaces, census_instances, sampled_instances
from fibertop.errors import PartitionError
from fibertop.harness import (
    classify,
    constant_map_degeneration,
    digest,
    hierarchy_violations,
    report_json,
    summarize,
    theorem_record,
)
from fibertop.oscillation import osc_at_point
from fibertop.partitions import interiors_cover_check, validate_regular_partition
from fibertop.urysohn_tietze import _extension_walk
from oscillation_reference import osc_at_point_exhaustive

SEED = 0
CENSUS_TOTAL = 6
DEPTH = 6
EXTENDER_BUDGET = 2
# the sweep6 gate of the benchmark, which runs the same sweep
SWEEP_DIGEST = "7ee68c3bf469138ada8007158c6f27ebff2a44d4a532a0f7bd72c3aecb1d1785"


def run_osc_oracle(seed: int) -> dict:
    """Criterion 1: minimal-neighborhood oscillation equals the definitional
    infimum, exactly, for 200 random rational functions per space."""
    from conftest import random_function

    rng = random.Random(seed)
    checks = 0
    mismatches = []
    for n in range(1, 5):
        for si, space in enumerate(canonical_spaces(n)):
            for k in range(200):
                phi = random_function(space, rng)
                for x in range(space.n):
                    checks += 1
                    if osc_at_point(phi, x) != osc_at_point_exhaustive(phi, x):
                        mismatches.append(f"n{n}.{si} fn{k} x{x}")
    return {"criterion": 1, "checks": checks, "mismatches": mismatches}


def run_covering_lemma() -> dict:
    """Criterion 2: every regular k-partition with k >= 3 found by exhaustive
    enumeration over all spaces with at most 4 points covers the space with
    the interiors of adjacent block pairs."""
    partitions = 0
    violations = []
    for n in range(1, 5):
        for si, space in enumerate(canonical_spaces(n)):
            for k in range(3, n + 3):
                for assign in product(range(k), repeat=space.n):
                    blocks = [0] * k
                    for x, b in enumerate(assign):
                        blocks[b] |= 1 << x
                    try:
                        part = validate_regular_partition(space, space.full, blocks)
                    except PartitionError:
                        continue
                    partitions += 1
                    if not interiors_cover_check(part):
                        violations.append(f"n{n}.{si} {blocks}")
    return {"criterion": 2, "partitions": partitions, "violations": violations}


def run_sweep() -> dict:
    records = [theorem_record(inst, DEPTH, EXTENDER_BUDGET)
               for inst in census_instances(CENSUS_TOTAL)]
    return summarize(records, {"max_total": CENSUS_TOTAL, "depth": DEPTH,
                               "extender_budget": EXTENDER_BUDGET,
                               "tolerance": "1/1024"})


def _census_domains():
    return [space for n in range(1, CENSUS_TOTAL)
            for space in canonical_spaces(n)]


def run_sweep_from_empty_memos() -> dict:
    """run_sweep with the memos of its domain spaces emptied first, as in a
    fresh process."""
    for space in _census_domains():
        space._memo = None
    return run_sweep()


def memo_entries() -> Counter:
    """The entries per walk in the memos of the sweep's domain spaces."""
    return Counter(key[0].__name__ for space in _census_domains()
                   for key in space._memo or ())


def extension_memo() -> list:
    """(space, value) of every _extension_walk entry in the memos of the
    sweep's domain spaces."""
    return [(space, value) for space in _census_domains()
            for key, value in (space._memo or {}).items()
            if key[0] is _extension_walk]


def run_sampled_hierarchy(seed: int) -> dict:
    bad = []
    for inst in sampled_instances(5, 200, seed=seed):
        cls = classify(inst.f)
        if hierarchy_violations(cls, inst.f.codomain.n == 1):
            bad.append(inst.uid)
    return {"criterion": "7-sample", "instances": 200, "violations": bad}


def run_all(seed: int) -> dict:
    return {
        "osc": run_osc_oracle(seed),
        "covering": run_covering_lemma(),
        "sweep": run_sweep(),
        "sampled": run_sampled_hierarchy(seed),
        "constant": constant_map_degeneration(n_max=5, depth=4),
    }


@pytest.fixture(scope="module")
def reports():
    out = {}
    timer = {}
    for name, fn in [("osc", lambda: run_osc_oracle(SEED)),
                     ("covering", run_covering_lemma),
                     ("sweep", run_sweep_from_empty_memos),
                     ("sampled", lambda: run_sampled_hierarchy(SEED)),
                     ("constant", lambda: constant_map_degeneration(5, 4))]:
        t0 = time.monotonic()
        out[name] = fn()
        timer[name] = time.monotonic() - t0
        if name == "sweep":
            out["memo_entries"] = memo_entries()
            out["extension_memo"] = extension_memo()
    out["elapsed"] = timer
    return out


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_oscillation_oracle(reports):
    rep = reports["osc"]
    elapsed = reports["elapsed"]["osc"]
    ok = not rep["mismatches"] and elapsed < 10
    _verdict(1, ok, f"{rep['checks']} exact comparisons in {elapsed:.1f}s, "
                    f"{len(rep['mismatches'])} mismatches")


def test_criterion_2_covering_lemma(reports):
    rep = reports["covering"]
    elapsed = reports["elapsed"]["covering"]
    ok = not rep["violations"] and elapsed < 60
    _verdict(2, ok, f"{rep['partitions']} regular partitions in {elapsed:.1f}s, "
                    f"{len(rep['violations'])} violations")


def test_criterion_3_stepwise_bounds(reports):
    sweep = reports["sweep"]
    ok = sweep["stepwise_violations"] == 0 and sweep["families_built"] > 10000
    _verdict(3, ok, f"{sweep['families_built']} depth-{DEPTH} families, "
                    f"{sweep['stepwise_violations']} bound violations")


def test_criterion_4_four_way_equivalence(reports):
    sweep = reports["sweep"]
    thm3_bad = [r["id"] for r in sweep["records"] if "thm3" in r["mismatches"]]
    ok = not thm3_bad and not sweep["anomalies"]
    _verdict(4, ok, f"{sweep['instances']} instances "
                    f"({sweep['normal_count']} normal), "
                    f"{len(thm3_bad)} mismatches, "
                    f"{len(sweep['anomalies'])} anomalies")


def test_criterion_5_tietze_residuals(reports):
    sweep = reports["sweep"]
    ok = (not sweep["extension_contract_failures"]
          and sweep["extension_runs"] > 1000)
    _verdict(5, ok, f"{sweep['extension_runs']} extension runs, "
                    f"{len(sweep['extension_contract_failures'])} contract failures")


def test_criterion_6_sigma_equivalence(reports):
    sweep = reports["sweep"]
    thm4_bad = [r["id"] for r in sweep["records"] if "thm4" in r["mismatches"]]
    _verdict(6, not thm4_bad, f"{sweep['instances']} instances, "
                              f"{len(thm4_bad)} sigma mismatches")


def test_criterion_7_hierarchy(reports):
    sweep = reports["sweep"]
    sampled = reports["sampled"]
    ok = not sweep["hierarchy_violations"] and not sampled["violations"]
    _verdict(7, ok, f"census {sweep['instances']} + sample "
                    f"{sampled['instances']}: "
                    f"{len(sweep['hierarchy_violations']) + len(sampled['violations'])}"
                    f" violations")


def test_criterion_8_constant_map_degeneration(reports):
    rep = reports["constant"]
    ok = not (rep["separator_disagreements"] or rep["tietze_disagreements"]
              or rep["contract_failures"])
    _verdict(8, ok, f"{rep['pairs_checked']} closed pairs over normal spaces, "
                    f"{len(rep['separator_disagreements'])}+"
                    f"{len(rep['tietze_disagreements'])}+"
                    f"{len(rep['contract_failures'])} disagreements")


def test_criterion_9_determinism(reports):
    # the rerun builds fresh space objects, so no per-space memo or cache
    # filled by the first run can serve it
    first_spaces = census._CANONICAL_CACHE[5]
    census._CANONICAL_CACHE.clear()
    census._LABELED_CACHE.clear()
    second = run_all(SEED)
    assert census._CANONICAL_CACHE[5][0] is not first_spaces[0]
    same = all(report_json(reports[name]) == report_json(second[name])
               for name in ("osc", "covering", "sweep", "sampled", "constant"))
    _verdict(9, same, "reruns of criteria 1-8 byte-identical: "
                      f"{same}")


def test_sweep_digest_is_the_benchmark_gate(reports):
    assert digest(reports["sweep"]) == SWEEP_DIGEST


def test_sweep_stores_one_memo_entry_per_distinct_key(reports):
    # level walks (72 of them failed), successful extension runs, the
    # pointwise verdicts of the deciders and the least failing pair and
    # triple of each f^-1(U_y), the least failing point closure of each
    # f^-1(U_y) of a sigma-normal map (classify asks for inheritance only
    # there), the neighbourhood classes of
    # each region, the pairs theorem_record scans for each f^-1(O) and
    # their verdicts for each (f^-1(O), f^-1(U_y)), and the verdicts of
    # functional_co_sigma, over the 185 domain spaces
    assert reports["memo_entries"] == {
        "_level_walk": 2835, "_extension_walk": 801,
        "_separation_ok": 1608, "_least_failing_pair": 402,
        "_least_failing_triple": 402, "_least_failing_closure": 285,
        "_nbhd_classes": 402, "_closed_pairs": 402, "_pair_scan": 658,
        "_no_straddle": 602}


def _ints_only(value) -> bool:
    return type(value) in (int, bool) or (
        type(value) is tuple and all(map(_ints_only, value)))


def test_extension_memo_holds_integers_only(reports):
    # every stored extension keeps the walk's integers and a reference to
    # its own domain, and no Fraction or RationalFunction
    entries = reports["extension_memo"]
    assert len(entries) == reports["memo_entries"]["_extension_walk"]
    for space, value in entries:
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert fields.pop("space") is space
        assert all(map(_ints_only, fields.values())), fields


def test_perfect_type_classes_coincide(reports):
    # co-perfect = co-sigma-perfect = perfect and functional co-sigma =
    # perfect on every finite map: the proofs are in the docstrings of
    # normality.is_co_perfectly_normal and harness.functional_co_sigma
    records = reports["sweep"]["records"]
    perfect = sum(r["classes"]["perfectly_normal"] for r in records)
    assert (len(records), perfect) == (4319, 2367)
    for r in records:
        c = r["classes"]
        assert (c["functional_co_sigma"] == c["co_perfectly_normal"]
                == c["co_sigma_perfectly_normal"] == c["perfectly_normal"]), r["id"]
