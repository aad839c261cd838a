"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy census sweep
runs once per session and is shared by criteria 3 through 7, by the pin of
its digest and by the count of the memo entries it stores; criterion 9
reruns everything and compares the canonical JSON byte for byte.
"""

import random
import time
from collections import Counter
from itertools import product

import pytest

from fibertop import census
from fibertop.census import canonical_spaces, census_instances, sampled_instances
from fibertop.errors import PartitionError
from fibertop.harness import (
    _json_pieces,
    classify,
    digest,
    hierarchy_violations,
    summarize,
    theorem_record,
)
from fibertop.oscillation import osc_at_point
from fibertop.partitions import check_links
from fibertop.urysohn_tietze import _extension_walk
from conftest import PRINT_VMHWM, run_fresh
from harness_reference import constant_map_degeneration
from levels_reference import interiors_cover_check, partition_table
from oscillation_reference import osc_at_point_exhaustive

SEED = 0
CENSUS_TOTAL = 6
DEPTH = 6
EXTENDER_BUDGET = 2
# the sweep6 gate of the benchmark, which runs the same sweep
SWEEP_DIGEST = "7ee68c3bf469138ada8007158c6f27ebff2a44d4a532a0f7bd72c3aecb1d1785"
# the same sweep over |X|+|Y| <= 7, pinned by the opt-in tier2 test
SWEEP7_DIGEST = "c6238c3207c0f1b019dd3db3759c3446ffc5a8a729db28343534caf94685e4ee"


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
                        check_links(space, space.full,
                                    partition_table(space.n, space.full, blocks))
                    except PartitionError:
                        continue
                    partitions += 1
                    if not interiors_cover_check(space, space.full, blocks):
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


def extension_keys() -> list:
    """The key of every _extension_walk entry in the memos of the sweep's
    domain spaces."""
    return [key for space in _census_domains()
            for key in space._memo or () if key[0] is _extension_walk]


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
            out["extension_keys"] = extension_keys()
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
    same = all("".join(_json_pieces(reports[name]))
               == "".join(_json_pieces(second[name]))
               for name in ("osc", "covering", "sweep", "sampled", "constant"))
    _verdict(9, same, "reruns of criteria 1-8 byte-identical: "
                      f"{same}")


def test_sweep_digest_is_the_benchmark_gate(reports):
    assert digest(reports["sweep"]) == SWEEP_DIGEST


@pytest.mark.tier2
def test_total_7_sweep_pin():
    # about 10 s, so it runs only under -m tier2, in a fresh interpreter so
    # that its peak RSS is the sweep's own; the sweep keeps every record,
    # and must fit in the 110 MB that total 8 is planned around
    code = ("from fibertop.harness import digest, run_theorem_sweep\n"
            f"sweep = run_theorem_sweep(7, {DEPTH}, {EXTENDER_BUDGET})\n"
            "print(digest(sweep), sweep['instances'])\n"
            "print(*[k for k in ('thm_mismatches', 'hierarchy_violations',\n"
            "                    'anomalies', 'extension_contract_failures')\n"
            "        if sweep[k]])\n" + PRINT_VMHWM)
    pin, failed, peak_kb = run_fresh(code)
    assert pin == f"{SWEEP7_DIGEST} 37634"
    assert failed == ""
    assert int(peak_kb) <= 110 * 1024


def test_sweep_stores_one_memo_entry_per_distinct_key(reports):
    # level walks (72 of them failed), successful extension runs, the
    # pointwise verdicts of the deciders and the least failing pair and
    # triple of each f^-1(U_y), the least failing point closure of each
    # f^-1(U_y) of a sigma-normal map (classify asks for inheritance only
    # there), the neighbourhood classes of
    # each region, the pairs theorem_record scans for each f^-1(O) and
    # their verdicts for each (f^-1(O), f^-1(U_y)), the verdicts of
    # functional_co_sigma, and the contract checks of each extension
    # result and the boundary data of each (F, T) of the extension runs,
    # and the two classical verdicts of each domain that classify asks for
    # on its constant maps, over the 185 domain spaces
    assert reports["memo_entries"] == {
        "_level_walk": 2835, "_extension_walk": 801,
        "_separation_ok": 1608, "_least_failing_pair": 402,
        "_least_failing_triple": 402, "_least_failing_closure": 285,
        "_nbhd_classes": 402, "_closed_pairs": 402, "_pair_scan": 658,
        "_no_straddle": 602, "_run_checks": 801, "boundary_function": 472,
        "space_normal": 185, "vedenisov_perfectly_normal": 185}


def _ints_only(value) -> bool:
    return type(value) in (int, bool) or (
        type(value) is tuple and all(map(_ints_only, value)))


def test_extension_memo_holds_integers_only(reports):
    # every stored extension keeps the walk's integers and a reference to
    # its own domain, and no Fraction or RationalFunction
    entries = reports["extension_memo"]
    assert len(entries) == reports["memo_entries"]["_extension_walk"]
    for space, value in entries:
        fields = value._asdict()
        assert fields.pop("space") is space
        assert all(map(_ints_only, fields.values())), fields


def test_extension_keys_share_the_boundary_constants(reports):
    # the walk is keyed on integers: P, the carrier, phit's scale and
    # numerators, and the tolerance's numerator and denominator, so a hit
    # hashes no Fraction.  The sweep's boundary data is 0 on F and 1 on T,
    # over the scale 1
    keys = reports["extension_keys"]
    assert len(keys) == reports["memo_entries"]["_extension_walk"]
    for key in keys:
        assert all(type(part) is int or (
            type(part) is tuple
            and all(v is None or type(v) is int for v in part))
            for part in key[1:]), key
        _, _, carrier, scale, nums, _, _ = key
        assert scale == 1 and all(v in (0, 1) for v in nums)
        assert all(v == 0 for x, v in enumerate(nums) if not carrier >> x & 1)


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
