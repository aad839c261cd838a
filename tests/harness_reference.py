"""Reference oracle for ``fibertop.harness.theorem_record``: the pair loop
that scans every (O, y) afresh, with no pair scan memoised, and the
literal ``functional_co_sigma`` that scans every relatively open set of
every (O, y).

They are kept only for the differential tests, which require the memoised
pair scans to give the same record, byte for byte, whether the memos of
the domain spaces are warm or empty.
"""

from __future__ import annotations

from fractions import Fraction

from fibertop.census import Instance
from fibertop.harness import (_build_entry, _extension_run, classify, digest,
                              hierarchy_violations)
from fibertop.normality import is_normal, is_sigma_normal
from fibertop.spaces import FiberedMap, bits


def functional_co_sigma_reference(f: FiberedMap) -> bool:
    space = f.domain
    for o_mask in f.codomain.opens:
        pre_o = f.preimage(o_mask)
        rel_opens = space.rel_opens(pre_o)
        for y in bits(o_mask):
            w = f._nbhd_pre[y]
            for u in rel_opens:
                # some component of w straddles u & w
                if space.saturation(w, u) & ~u:
                    return False
    return True


def theorem_record_reference(inst: Instance, depth: int = 6,
                             extender_budget: int = 2,
                             tolerance: Fraction = Fraction(1, 1024)) -> dict:
    f = inst.f
    space, cod = f.domain, f.codomain
    a_dec = is_normal(f).holds
    a_sigma = is_sigma_normal(f).holds
    b_ok = c_ok = d_ok = True
    bs_ok = cs_ok = True
    cache: dict = {}
    osc_viol = 0
    anomalies = []
    ext_runs = []
    budget = extender_budget
    for o_mask in cod.opens:
        if o_mask == 0:
            continue
        pre_o = f.preimage(o_mask)
        rel_closed = space.rel_closed_sets(pre_o)
        pieces_of = [[space.rel_closure(pre_o, 1 << x) for x in bits(t)]
                     for t in rel_closed]
        for y in bits(o_mask):
            w = f._nbhd_pre[y]
            for i, a in enumerate(rel_closed):
                for b in rel_closed[i:]:
                    if a & b:
                        continue
                    if space.saturation(w, a) & b:
                        d_ok = False
                    if b_ok or c_ok:
                        built, bounds, c_pass = _build_entry(cache, f, a, b, y, depth)
                        if not built:
                            if a_dec:
                                anomalies.append(
                                    f"builder failed on normal map at O={o_mask}"
                                    f" F={a} T={b} y={y}")
                            b_ok = c_ok = False
                        else:
                            if not bounds:
                                osc_viol += 1
                            if not c_pass:
                                if a_dec:
                                    anomalies.append(
                                        f"condition C failed at O={o_mask}"
                                        f" F={a} T={b} y={y}")
                                c_ok = False
                    if budget > 0 and (a | b):
                        budget -= 1
                        ext_runs.append(
                            _extension_run(f, a, b, y, o_mask, tolerance, a_dec,
                                           anomalies))
            for t, pieces in zip(rel_closed, pieces_of):
                for fm in rel_closed:
                    if t & fm:
                        continue
                    if space.rel_closure(w, space.saturation(w, t)) & fm:
                        cs_ok = False
                    if bs_ok:
                        for piece in pieces:
                            built, _, _ = _build_entry(cache, f, fm, piece, y, depth)
                            if not built:
                                if a_sigma:
                                    anomalies.append(
                                        f"sigma builder failed at O={o_mask}"
                                        f" F={fm} piece={piece} y={y}")
                                bs_ok = False
                                break
    families = sum(1 for v in cache.values() if v[0])
    cls = classify(f)
    cls["functional_co_sigma"] = functional_co_sigma_reference(f)
    record = {
        "id": inst.uid,
        "x_opens": list(space.opens),
        "y_opens": list(cod.opens),
        "map": list(f.table),
        "classes": cls,
        "thm3": {"A": a_dec, "B": b_ok, "C": c_ok, "D": d_ok},
        "thm4": {"A": a_sigma, "B": bs_ok, "C": cs_ok},
        "stepwise": {"families": families, "osc_or_increment_violations": osc_viol},
        "extension_runs": ext_runs,
        "hierarchy_violations": hierarchy_violations(cls, cod.n == 1),
        "anomalies": anomalies,
    }
    mism = []
    if not (a_dec == b_ok == c_ok == d_ok):
        mism.append("thm3")
    if not (a_sigma == bs_ok == cs_ok):
        mism.append("thm4")
    if a_dec != a_sigma:
        mism.append("normal_vs_sigma_normal")
    if cls["normal"] != a_dec or cls["sigma_normal"] != a_sigma:
        mism.append("classify_vs_sweep")
    record["mismatches"] = mism
    record["digest"] = digest(record)
    return record
