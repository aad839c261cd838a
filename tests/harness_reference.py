"""Reference oracles for ``fibertop.harness``.

- ``theorem_record_reference``: the pair loop that scans every (O, y)
  afresh, with no pair scan memoised, and ``functional_co_sigma_reference``,
  the literal check that scans every relatively open set of every (O, y).
  The differential tests require the memoised pair scans to give the same
  record, byte for byte, whether the memos of the domain spaces are warm
  or empty.
- ``extension_run_reference``: one budgeted extension run of
  ``theorem_record``, with fresh boundary data, its contract checked on
  the result's ``Fraction`` views on every call.
- ``constant_map_degeneration``: the cross-oracle run of acceptance
  criterion 8.  On constant maps the separator and extension machinery
  must agree with the classical space-level constructions
  ``urysohn_function`` and ``tietze_function``, which are phrased on one
  space with no reference to the fiberwise code paths.
"""

from __future__ import annotations

from fractions import Fraction

from fibertop.census import Instance, canonical_spaces
from fibertop.classical import space_normal
from fibertop.errors import FibertopError
from fibertop.harness import _build_entry, classify, digest, hierarchy_violations
from fibertop.normality import is_normal, is_sigma_normal
from fibertop.oscillation import RationalFunction, norm, osc_on_set
from fibertop.spaces import FiberedMap, FiniteSpace, bits, constant_map
from fibertop.urysohn_tietze import (
    boundary_function,
    build_separator,
    exact_extension_exists,
    tietze_extend,
    verify_condition_D,
)


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
                            extension_run_reference(f, a, b, y, o_mask, tolerance,
                                                    a_dec, anomalies))
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


def extension_run_reference(f: FiberedMap, f_side: int, t_side: int, y: int,
                            o_mask: int, tolerance: Fraction, expect_ok: bool,
                            anomalies: list) -> dict:
    """The run record of extending the boundary data 0 on F, 1 on T from
    F | T over O, with the contract read from the result's rationals:
    each residual at most 2/3 of the one before, |phi| <= |phit|, an exact
    result agreeing with phit on the trace of f^{-1}(U_y), and
    |phit - phi| within the residual bound there."""
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
    residuals, phi, bound = res.residuals, res.phi, res.residual_bound
    trace = bits(phit.carrier & f._nbhd_pre[y])
    chain_ok = all(r1 <= Fraction(2, 3) * r0
                   for r0, r1 in zip(residuals, residuals[1:]))
    norm_ok = norm(phi) <= norm(phit)
    exact = bound == 0
    agree_ok = not exact or all(phi.values[x] == phit.values[x] for x in trace)
    covers_ok = all(abs(phit.values[x] - phi.values[x]) <= bound for x in trace)
    run.update({
        "ok": True,
        "iterations": res.iterations,
        "residual": str(bound),
        "geometric_chain_exact": chain_ok,
        "norm_contract": norm_ok,
        "exact_agreement": exact and agree_ok,
        "residual_covers_sup": covers_ok,
    })
    if not (chain_ok and norm_ok and agree_ok and covers_ok):
        anomalies.append(f"extension contract violated at O={o_mask} y={y}")
    return run


def urysohn_function(space: FiniteSpace, f_side: int, t_side: int
                     ) -> RationalFunction | None:
    """A continuous [0,1] function, 0 on F and 1 on T, when one exists.

    A continuous function on a finite space is constant on each
    minimal-neighborhood component, so existence is a component check.
    """
    out = space.saturation(space.full, t_side)
    if out & f_side:
        return None
    return RationalFunction.indicator(space, out)


def tietze_function(space: FiniteSpace, phit: RationalFunction
                    ) -> RationalFunction | None:
    """Exact continuous extension of a continuous function on a closed set."""
    values = [Fraction(0)] * space.n
    for comp in space.nbhd_classes(space.full):
        val = None
        for x in bits(comp & phit.carrier):
            if val is None:
                val = phit.values[x]
            elif phit.values[x] != val:
                return None
        if val is not None:
            for x in bits(comp):
                values[x] = val
    return RationalFunction(space, tuple(values), space.full)


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
