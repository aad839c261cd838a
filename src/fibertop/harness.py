"""Instance classification and the theorem-checking sweeps.

For every map in a census this module computes, by independent routes, the
truth values of each side of the three characterization theorems (the
four-way normality one, the sigma one, and the functional one for the
co-sigma-perfect class) plus the whole classification lattice, and records
any disagreement.  Zero recorded mismatches over a census is the artifact
level acceptance ground.

Side A of each theorem and the whole classification come from the public
deciders in ``normality``: the two hereditary entries and the inheritance
entry from their closed forms on each f^{-1}(U_y).  The other sides are
computed here on their own routes:
from the partition families built for each closed pair, and from the
minimal-neighborhood components.  Both are memoised per domain space:
the pairs to scan on f^{-1}(O), and the verdicts of the component sides
on (f^{-1}(O), f^{-1}(U_y)).  Each instance then looks up each family's
verdicts once per (F, T, y), in the same order as the scans list the pairs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .census import Instance, canonical_spaces, census_instances
from .classical import (
    space_normal,
    tietze_function,
    urysohn_function,
    vedenisov_perfectly_normal,
)
from .errors import FibertopError, SearchFailed
from .normality import (
    build_levels,
    is_co_perfectly_normal,
    is_co_sigma_perfectly_normal,
    is_hereditarily_normal,
    is_hereditarily_perfectly_normal,
    is_normal,
    is_perfectly_normal,
    is_prenormal,
    is_sigma_normal,
    is_sigma_normal_on_f_sigma_submaps,
    is_sigma_prenormal,
)
from .oscillation import norm, osc_on_set
from .spaces import FiberedMap, FiniteSpace, bits, constant_map
from .urysohn_tietze import (
    boundary_function,
    build_separator,
    exact_extension_exists,
    tietze_extend,
    verify_condition_D,
)


def functional_co_sigma(f: FiberedMap) -> bool:
    """Right-hand side of the functional characterization of the
    co-sigma-perfect class, checked literally over every restriction and
    every relatively open set.

    On every finite map it equals perfect normality.  ``_no_straddle(pre_o,
    w)`` fails iff some minimal-neighbourhood component K of
    w = P_y = f^{-1}(U_y) meets a set u open in pre_o and leaves it.  If K
    meets u at x, then U_x & pre_o lies inside u, and K lies inside w,
    inside pre_o (y is in O), so K leaves u only if K is not inside U_x.
    Conversely, if K is not inside U_x for some x in K, take O = U_y and
    u = U_x & P_y.  So the check holds iff every component of every P_y
    lies inside U_x for each of its points x, which is the perfect test of
    ``normality._least_failing_pair``.  The route stays literal, as the
    harness's own side of that equality."""
    space = f.domain
    for o_mask in f.codomain.opens:
        pre_o = f.preimage(o_mask)
        for y in bits(o_mask):
            if not space.memoised(_no_straddle, pre_o, f._nbhd_pre[y]):
                return False
    return True


def _no_straddle(space: FiniteSpace, pre_o: int, w: int) -> bool:
    """No component of w straddles u & w, for any u open in pre_o."""
    return not any(space.saturation(w, u) & ~u for u in space.rel_opens(pre_o))


# ------------------------------------------------------------ classification


def classify(f: FiberedMap) -> dict:
    """All classification booleans for one map, via the public deciders."""
    out = {
        "prenormal": is_prenormal(f).holds,
        "normal": is_normal(f).holds,
        "sigma_prenormal": is_sigma_prenormal(f).holds,
        "sigma_normal": is_sigma_normal(f).holds,
        "perfectly_normal": is_perfectly_normal(f).holds,
        "co_perfectly_normal": is_co_perfectly_normal(f).holds,
        "co_sigma_perfectly_normal": is_co_sigma_perfectly_normal(f).holds,
        "functional_co_sigma": functional_co_sigma(f),
        "hereditarily_normal": is_hereditarily_normal(f).holds,
        "hereditarily_perfectly_normal": is_hereditarily_perfectly_normal(f).holds,
    }
    # the inheritance theorem is about sigma-normal maps only
    out["sigma_inherited_by_f_sigma_submaps"] = (
        not out["sigma_normal"] or is_sigma_normal_on_f_sigma_submaps(f).holds)
    constant = len(set(f.table)) <= 1
    out["constant_map"] = constant
    if constant:
        out["vedenisov_domain"] = vedenisov_perfectly_normal(f.domain)
        out["domain_space_normal"] = space_normal(f.domain)
    return out


def hierarchy_violations(c: dict, codomain_is_point: bool) -> list[str]:
    """The implication lattice every instance must satisfy."""
    bad = []

    def imp(name: str, a: bool, b: bool):
        if a and not b:
            bad.append(name)

    imp("co_sigma_perfect->perfect", c["co_sigma_perfectly_normal"],
        c["perfectly_normal"])
    imp("perfect->co_perfect", c["perfectly_normal"], c["co_perfectly_normal"])
    imp("perfect->prenormal", c["perfectly_normal"], c["prenormal"])
    imp("perfect->hereditarily_normal", c["perfectly_normal"],
        c["hereditarily_normal"])
    imp("sigma_normal->normal", c["sigma_normal"], c["normal"])
    imp("normal->prenormal", c["normal"], c["prenormal"])
    # both entries read normality._least_failing_pair, and its proof makes
    # them equal on every finite map: a consistency check between two
    # reads of one pair test, not an independent route
    if c["perfectly_normal"] != c["hereditarily_perfectly_normal"]:
        bad.append("perfect_normality_not_hereditary")
    if c["functional_co_sigma"] != c["co_sigma_perfectly_normal"]:
        bad.append("functional_characterization_mismatch")
    # the entry reads the relative sigma test of normality._separation_ok
    # that sigma_normal read, and the proof in
    # is_sigma_normal_on_f_sigma_submaps's docstring makes it hold on every
    # finite map: again two reads of one test, not an independent route
    if not c["sigma_inherited_by_f_sigma_submaps"]:
        bad.append("sigma_not_inherited_by_f_sigma_submaps")
    if c["constant_map"]:
        trio = {c["co_perfectly_normal"], c["perfectly_normal"],
                c["co_sigma_perfectly_normal"]}
        if len(trio) != 1:
            bad.append("constant_perfect_trio_differs")
        quad = {c["prenormal"], c["normal"], c["sigma_prenormal"],
                c["sigma_normal"]}
        if len(quad) != 1:
            bad.append("constant_normality_quad_differs")
        if c["perfectly_normal"] != c["vedenisov_domain"]:
            bad.append("constant_vedenisov_mismatch")
        if codomain_is_point and c["normal"] != c["domain_space_normal"]:
            bad.append("constant_total_space_mismatch")
    return bad


# --------------------------------------------------------- theorem sweeps


def _closed_pairs(space: FiniteSpace, pre_o: int) -> tuple:
    """The pairs theorem_record replays for every y in O, which depend only
    on the domain and pre_o = f^{-1}(O):

    - the disjoint pairs (F, T) of sets closed in pre_o, each pair once
      with F first in sorted order, in scan order;
    - the (F, piece) pairs of the sigma scan, each piece the closure in
      pre_o of a point of a T disjoint from F, in scan order with only the
      first of each repeat kept: a repeat has the outcome of its first.
    """
    rel_closed = space.rel_closed_sets(pre_o)
    pairs = tuple((a, b) for i, a in enumerate(rel_closed)
                  for b in rel_closed[i:] if not a & b)
    sigma_pairs = {}
    for t in rel_closed:
        pieces = [space.rel_closure(pre_o, 1 << x) for x in bits(t)]
        for fm in rel_closed:
            if not t & fm:
                for piece in pieces:
                    sigma_pairs.setdefault((fm, piece))
    return pairs, tuple(sigma_pairs)


def _pair_scan(space: FiniteSpace, pre_o: int, w: int) -> tuple:
    """The verdicts of both theorems' pair scans for one (O, y), which
    depend only on the domain, pre_o = f^{-1}(O) and w = f^{-1}(U_y):

    - side D of thm3: no component of w meets both sets of a pair;
    - side C of thm4: the closure in w of the components meeting t misses
      every fm closed in pre_o and disjoint from t.
    """
    pairs, _ = space.memoised(_closed_pairs, pre_o)
    d_ok = not any(space.saturation(w, a) & b for a, b in pairs)
    rel_closed = space.rel_closed_sets(pre_o)
    cs_ok = True
    for t in rel_closed:
        cl_t = space.rel_closure(w, space.saturation(w, t))
        if any(cl_t & fm for fm in rel_closed if not t & fm):
            cs_ok = False
            break
    return d_ok, cs_ok


def _build_entry(cache: dict, f: FiberedMap, f_side: int, t_side: int, y: int,
                 depth: int):
    """(built, stepwise bounds, condition C) of the family for (F, T, y)."""
    key = (f_side, t_side, y)
    hit = cache.get(key)
    if hit is None:
        try:
            levels = build_levels(f, f_side, t_side, y, depth)
        except SearchFailed:
            hit = (False, False, False)
        else:
            hit = (True, levels.stepwise_ok, levels.condition_c_ok)
        cache[key] = hit
    return hit


def theorem_record(inst: Instance, depth: int = 6, extender_budget: int = 2,
                   tolerance: Fraction = Fraction(1, 1024)) -> dict:
    """The full per-instance record: classification, both equivalence
    theorems by independent routes, stepwise-bound tallies, and the
    budgeted extension runs with their residual checks."""
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
        pairs, sigma_pairs = space.memoised(_closed_pairs, pre_o)
        for y in bits(o_mask):
            d_side, c_side = space.memoised(_pair_scan, pre_o, f._nbhd_pre[y])
            d_ok = d_ok and d_side
            cs_ok = cs_ok and c_side
            if b_ok or c_ok or budget > 0:
                for a, b in pairs:
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
            if bs_ok:
                for fm, piece in sigma_pairs:
                    if not _build_entry(cache, f, fm, piece, y, depth)[0]:
                        if a_sigma:
                            anomalies.append(
                                f"sigma builder failed at O={o_mask}"
                                f" F={fm} piece={piece} y={y}")
                        bs_ok = False
                        break
    families = sum(1 for v in cache.values() if v[0])
    cls = classify(f)
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


def _extension_run(f: FiberedMap, f_side: int, t_side: int, y: int,
                   o_mask: int, tolerance: Fraction, expect_ok: bool,
                   anomalies: list) -> dict:
    phit = boundary_function(f.domain, f_side, t_side)
    run = {"O": o_mask, "F": f_side, "T": t_side, "y": y}
    try:
        res = tietze_extend(f, phit.carrier, phit, y, tolerance=tolerance,
                            within=o_mask)
    except FibertopError as exc:
        run["ok"] = False
        run["error"] = type(exc).__name__
        if expect_ok:
            anomalies.append(f"extension failed on normal map: {exc}")
        return run
    # The checks read the result's integers, each value a numerator over
    # scale * 3^k after k steps.  Residual k+1 is at most 2/3 of residual k.
    chain_ok = all(m1 <= 2 * m0 for m0, m1 in zip(res.mus, res.mus[1:]))
    trace = phit.carrier & f._nbhd_pre[y]
    exact = res.bound == 0
    agree_ok = not exact or not (trace & ~res.agreement_set)
    # |phit(x) - phi(x)| <= residual_bound at each x of the trace,
    # cross-multiplied by den and phit(x)'s denominator
    den = res.scale * 3 ** res.iterations
    covers_ok = all(
        abs(v.numerator * den - res.totals[x] * v.denominator)
        <= res.bound * v.denominator
        for x in bits(trace) for v in (phit.values[x],))
    run.update({
        "ok": True,
        "iterations": res.iterations,
        "residual": str(res.residual_bound),
        "geometric_chain_exact": chain_ok,
        "norm_contract": res.norm_ok,
        "exact_agreement": exact and agree_ok,
        "residual_covers_sup": covers_ok,
    })
    if not (chain_ok and res.norm_ok and agree_ok and covers_ok):
        anomalies.append(f"extension contract violated at O={o_mask} y={y}")
    return run


# ------------------------------------------------------------ sweep drivers


def run_theorem_sweep(max_total: int = 6, depth: int = 6,
                      extender_budget: int = 2,
                      tolerance: Fraction = Fraction(1, 1024)) -> dict:
    records = [theorem_record(inst, depth, extender_budget, tolerance)
               for inst in census_instances(max_total)]
    return summarize(records, {"max_total": max_total, "depth": depth,
                               "extender_budget": extender_budget,
                               "tolerance": str(tolerance)})


def summarize(records: list, params: dict) -> dict:
    mismatches = [r["id"] for r in records if r["mismatches"]]
    violations = [r["id"] for r in records if r["hierarchy_violations"]]
    anomalies = [r["id"] for r in records if r["anomalies"]]
    bad_ext = [r["id"] for r in records
               for run in r["extension_runs"]
               if run.get("ok") and not (run["geometric_chain_exact"]
                                         and run["norm_contract"]
                                         and run["residual_covers_sup"])]
    stepwise_viol = sum(r["stepwise"]["osc_or_increment_violations"]
                        for r in records)
    return {
        "params": params,
        "instances": len(records),
        "normal_count": sum(1 for r in records if r["thm3"]["A"]),
        "families_built": sum(r["stepwise"]["families"] for r in records),
        "stepwise_violations": stepwise_viol,
        "extension_runs": sum(len(r["extension_runs"]) for r in records),
        "thm_mismatches": mismatches,
        "hierarchy_violations": violations,
        "anomalies": anomalies,
        "extension_contract_failures": bad_ext,
        "normal_not_sigma_normal": [r["id"] for r in records
                                    if r["thm3"]["A"] and not r["thm4"]["A"]],
        "records": records,
    }


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_pieces(obj):
    """The canonical JSON text of obj, ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))``, in pieces, so that the text of a whole sweep
    report is never held at once.  A list of dicts comes item by item, and
    a dict's entries that hold such lists come apart from the runs of
    entries between them; everything else is encoded whole.  Dict keys
    must be strings."""
    if isinstance(obj, dict):
        sep, run = "{", {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"dict key {key!r} is not a string")
            value = obj[key]
            if not _is_dict_list(value):
                run[key] = value
                continue
            if run:
                yield sep + _ENCODE(run)[1:-1]
                sep, run = ",", {}
            yield f"{sep}{_ENCODE(key)}:"
            yield from _json_pieces(value)
            sep = ","
        if run:
            yield sep + _ENCODE(run)[1:]
        else:
            yield "{}" if sep == "{" else "}"
    elif _is_dict_list(obj):
        sep = "["
        for item in obj:
            yield sep + _ENCODE(item)
            sep = ","
        yield "]"
    else:
        yield _ENCODE(obj)


def _is_dict_list(obj) -> bool:
    return isinstance(obj, list) and bool(obj) and isinstance(obj[0], dict)


def report_json(report: dict) -> str:
    return "".join(_json_pieces(report))


def digest(obj) -> str:
    h = hashlib.sha256()
    for piece in _json_pieces(obj):
        h.update(piece.encode())
    return h.hexdigest()


# ------------------------------------------- constant-map degeneration check


def constant_map_degeneration(n_max: int = 5, depth: int = 4) -> dict:
    """Cross-oracle run: on constant maps the separator and extension
    machinery must agree with the classical space-level constructions."""
    checked = 0
    separator_disagreements = []
    tietze_disagreements = []
    contract_failures = []
    for n in range(1, n_max + 1):
        for si, space in enumerate(canonical_spaces(n)):
            if not space_normal(space):
                continue
            f = constant_map(space)
            closed = sorted(space.full ^ o for o in space.opens)
            for i, a in enumerate(closed):
                for b in closed[i + 1:]:
                    if a & b or not (a and b):
                        continue
                    checked += 1
                    sid = f"n{n}.{si:03d} F={a} T={b}"
                    classical = urysohn_function(space, a, b)
                    try:
                        sep = build_separator(f, a, b, 0, depth)
                        ours = True
                        zeros = sep.phi.preimage(lambda v: v == 0)
                        ones = sep.phi.preimage(lambda v: v == 1)
                        if a & ~zeros or b & ~ones:
                            contract_failures.append(sid + " values")
                        if osc_on_set(sep.phi, space.full) > sep.limit.error_bound:
                            contract_failures.append(sid + " osc")
                    except FibertopError:
                        ours = False
                    if ours != (classical is not None):
                        separator_disagreements.append(sid)
                    # extension: two-valued boundary data on the closed union
                    phit = boundary_function(space, a, b)
                    ext = exact_extension_exists(f, phit, 0)
                    cla = tietze_function(space, phit)
                    if ext.exists != (cla is not None):
                        tietze_disagreements.append(sid)
                    if ext.exists:
                        rep = verify_condition_D(f, phit.carrier, phit, ext.phi, 0)
                        if not rep.all_ok:
                            contract_failures.append(sid + " contract")
                        if cla is not None and norm(cla) > norm(phit):
                            contract_failures.append(sid + " classical norm")
    return {
        "pairs_checked": checked,
        "separator_disagreements": separator_disagreements,
        "tietze_disagreements": tietze_disagreements,
        "contract_failures": contract_failures,
    }
