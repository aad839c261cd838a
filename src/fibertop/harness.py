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
minimal-neighborhood components.  Both are memoised per domain space,
each through ``space.memoised((walk, *args))``: the pairs to scan on
f^{-1}(O), under ``(_closed_pairs, pre_o)``, and the verdicts of the
component sides under ``(_pair_scan, pre_o, w)`` with w = f^{-1}(U_y).
Each instance then looks up each family's verdicts once per (F, T, y), in
the same order as the scans list the pairs.  The budgeted extension runs
call ``tietze_extend`` every time, but read their boundary data from the
same memo, under ``(boundary_function, F, T)``, and the contract checks of
each distinct result once per (F, T, f^{-1}(U_y)).

Records are read-only values whose equal parts are shared: each part kind
that repeats across a sweep (the theorem sides, the classification, the
tallies, the extension runs and their checks, the open and map lists, and
the empty lists) is stored once per distinct value in ``_SHARED`` and
reused by every record that has it.  The canonical JSON text of each part
is stored with it, in ``_TEXT``, and a record's digest and a report's
digest both join those texts rather than encode the parts again.  So a
part must never be edited in place: the edit would reach every record
that shares the part, and the part's stored text would go stale, so that
digests would no longer hash the records' bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .census import Instance, census_instances
from .classical import space_normal, vedenisov_perfectly_normal
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
from .spaces import FiberedMap, FiniteSpace, bits
from .urysohn_tietze import boundary_function, tietze_extend


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
            if not space.memoised((_no_straddle, pre_o, f._nbhd_pre[y])):
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
        # both depend only on the domain, which many constant maps share
        out["vedenisov_domain"] = f.domain.memoised((vedenisov_perfectly_normal,))
        out["domain_space_normal"] = f.domain.memoised((space_normal,))
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


# ------------------------------------------------------ shared record parts


# one stored object per distinct record part, for the life of the process.
# Each key starts with its part kind and holds the part's values, so a hit
# builds no dict or list; the tag keeps kinds apart, since True == 1 hashes
# alike and an untagged key could hand a part with 1 where true is due.
_SHARED: dict = {}

# the canonical JSON text of each part in _SHARED, keyed by the part's id,
# stored when the part is; an id is safe as a key only because _SHARED
# keeps every part alive, so no other object can ever take a stored id
_TEXT: dict = {}

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _share(key: tuple, part):
    """Store part, and its text, as the shared part under key."""
    _SHARED[key] = part
    _TEXT[id(part)] = _ENCODE(part)
    return part


def _shared_dict(kind: str, names, *values) -> dict:
    """The shared dict of ``kind`` that maps names to values, in order."""
    key = (kind, *values)
    part = _SHARED.get(key)
    if part is None:
        part = _share(key, dict(zip(names, values)))
    return part


def _shared_list(kind: str, values: tuple) -> list:
    """The shared list of ``kind`` with these values."""
    key = (kind, values)
    part = _SHARED.get(key)
    if part is None:
        part = _share(key, list(values))
    return part


_STEPWISE_KEYS = ("families", "osc_or_increment_violations")
_CHECK_KEYS = ("ok", "iterations", "residual", "geometric_chain_exact",
               "norm_contract", "exact_agreement", "residual_covers_sup")


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
    pairs, _ = space.memoised((_closed_pairs, pre_o))
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
    budgeted extension runs with their residual checks.

    The extension runs take the first ``extender_budget`` pairs (F, T) of
    the scans with F | T non-empty.  ``_closed_pairs`` sorts F = ∅ first,
    and a pair with F non-empty needs a second non-empty closed set, whose
    pair with ∅ comes before it; so a budget of 2 always extends the
    constant 1 on T, and the sweep's runs never see two-valued data (every
    census-5 and census-6 run has F = 0).

    The record is a read-only value.  Its parts other than the id, the
    digest and the list of extension runs are shared with every other
    record that has an equal part, and the digest joins their stored texts
    (see ``_encode``), so changing one in place would change every record
    that has it and leave its text stale; copy a part before editing it."""
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
        pairs, sigma_pairs = space.memoised((_closed_pairs, pre_o))
        for y in bits(o_mask):
            d_side, c_side = space.memoised((_pair_scan, pre_o, f._nbhd_pre[y]))
            d_ok = d_ok and d_side
            cs_ok = cs_ok and c_side
            if b_ok or c_ok or budget > 0:
                for a, b in pairs:
                    if b_ok or c_ok:
                        # a repeat of (F, T, y) is read without a call
                        built, bounds, c_pass = (
                            cache.get((a, b, y))
                            or _build_entry(cache, f, a, b, y, depth))
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
                    entry = (cache.get((fm, piece, y))
                             or _build_entry(cache, f, fm, piece, y, depth))
                    if not entry[0]:
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
        "x_opens": _shared_list("opens", space.opens),
        "y_opens": _shared_list("opens", cod.opens),
        "map": _shared_list("map", f.table),
        # classify's keys follow from its values' count, in a fixed order
        "classes": _shared_dict("classes", cls, *cls.values()),
        "thm3": _shared_dict("thm3", "ABCD", a_dec, b_ok, c_ok, d_ok),
        "thm4": _shared_dict("thm4", "ABC", a_sigma, bs_ok, cs_ok),
        "stepwise": _shared_dict("stepwise", _STEPWISE_KEYS, families, osc_viol),
        "extension_runs": ext_runs,
        "hierarchy_violations": (hierarchy_violations(cls, cod.n == 1)
                                 or _shared_list("empty", ())),
        "anomalies": anomalies or _shared_list("empty", ()),
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
    record["mismatches"] = mism or _shared_list("empty", ())
    # the same bytes as digest(record), which streams them in pieces only
    # so that a whole sweep report is never held at once
    record["digest"] = hashlib.sha256(_encode(record).encode()).hexdigest()
    return record


def _extension_run(f: FiberedMap, f_side: int, t_side: int, y: int,
                   o_mask: int, tolerance: Fraction, expect_ok: bool,
                   anomalies: list) -> dict:
    space = f.domain
    # a RationalFunction is immutable, so every run on (F, T) shares one
    phit = space.memoised((boundary_function, f_side, t_side))
    try:
        res = tietze_extend(f, phit.carrier, phit, y, tolerance=tolerance,
                            within=o_mask)
    except FibertopError as exc:
        checks = _shared_dict("failed_run", ("ok", "error"), False,
                              type(exc).__name__)
        if expect_ok:
            anomalies.append(f"extension failed on normal map: {exc}")
    else:
        # keyed on the result's integers, so a result that differs from the
        # memoised walk's in any field is checked afresh
        checks, contract_ok = space.memoised((
            _run_checks, f_side, t_side, f._nbhd_pre[y], res.scale, res.totals,
            res.mus, res.separators, res.bound, res.agreement_set))
        if not contract_ok:
            anomalies.append(f"extension contract violated at O={o_mask} y={y}")
    # checks is itself shared, so its identity stands for its value
    key = ("run", o_mask, f_side, t_side, y, id(checks))
    run = _SHARED.get(key)
    if run is None:
        run = _share(key, {"O": o_mask, "F": f_side, "T": t_side, "y": y,
                           **checks})
    return run


def _run_checks(space: FiniteSpace, f_side: int, t_side: int, pre: int,
                scale: int, totals: tuple, mus: tuple, separators: tuple,
                bound: int, agreement_set: int) -> tuple:
    """The contract checks of one extension result on the boundary data
    0 on F and 1 on T, with P = ``pre`` = f^{-1}(U_y): the run's fields
    after its key, and whether every check holds.  They read the result's
    integers only: each value is a numerator over scale * 3^k after k
    steps."""
    iterations = len(separators)
    lift = 3 ** iterations
    den = scale * lift
    # Residual k+1 is at most 2/3 of residual k.
    chain_ok = all(m1 <= 2 * m0 for m0, m1 in zip(mus, mus[1:]))
    # |phi| <= |phit|, whose numerator over scale is mu_0
    norm_ok = max(map(abs, totals)) <= mus[0] * lift
    trace = (f_side | t_side) & pre
    exact = bound == 0
    agree_ok = not exact or not (trace & ~agreement_set)
    # |phit(x) - phi(x)| <= residual_bound at each x of the trace, times den
    covers_ok = all(abs((t_side >> x & 1) * den - totals[x]) <= bound
                    for x in bits(trace))
    # str(residual_bound), without building the Fraction
    g = gcd(bound, den)
    residual = str(bound // g) if g == den else f"{bound // g}/{den // g}"
    checks = _shared_dict("checks", _CHECK_KEYS, True, iterations, residual,
                          chain_ok, norm_ok, exact and agree_ok, covers_ok)
    return checks, chain_ok and norm_ok and agree_ok and covers_ok


# ------------------------------------------------------------ sweep drivers


def run_theorem_sweep(max_total: int = 6, depth: int = 6,
                      extender_budget: int = 2,
                      tolerance: Fraction = Fraction(1, 1024)) -> dict:
    """The summarized report of theorem_record over every map of
    census_instances(max_total), with the records under "records".  The
    records are read-only values whose equal parts are shared, between
    the records and with every later sweep in the process (see
    theorem_record)."""
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


def _encode(obj) -> str:
    """The canonical JSON text of obj, ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))``, joined from the stored texts of the shared
    parts it holds.  A shared part is its stored text; any other dict is
    joined entry by entry under its sorted keys, which must be strings, and
    a list of dicts item by item; everything else is encoded whole."""
    text = _TEXT.get(id(obj))
    if text is not None:
        return text
    # the stored text is looked up inline, since most values have one
    if isinstance(obj, dict):
        return "{" + ",".join([
            f"{_key_text(key)}:{_TEXT.get(id(obj[key])) or _encode(obj[key])}"
            for key in sorted(obj)]) + "}"
    if _is_dict_list(obj):
        return "[" + ",".join([_TEXT.get(id(item)) or _encode(item)
                               for item in obj]) + "]"
    return _ENCODE(obj)


# the quoted text of a key, as json.dumps writes it.  It raises TypeError
# on a key that is not a string: json.dumps writes {1: 2} as {"1":2}, and
# a key joined bare would give {1:2}, which is not JSON
_key_text = encode_basestring_ascii


def _json_pieces(obj):
    """The text of ``_encode(obj)`` in pieces, so that the text of a whole
    sweep report is never held at once: a dict comes entry by entry, and a
    list of dicts, whole or as such an entry, item by item."""
    if isinstance(obj, dict):
        sep = "{"
        for key in sorted(obj):
            value = obj[key]
            if _is_dict_list(value):
                yield f"{sep}{_key_text(key)}:"
                yield from _json_pieces(value)
            else:
                yield f"{sep}{_key_text(key)}:{_encode(value)}"
            sep = ","
        yield "{}" if sep == "{" else "}"
    elif _is_dict_list(obj):
        sep = "["
        for item in obj:
            yield sep + _encode(item)
            sep = ","
        yield "]"
    else:
        yield _encode(obj)


def _is_dict_list(obj) -> bool:
    return isinstance(obj, list) and bool(obj) and isinstance(obj[0], dict)


def digest(obj) -> str:
    h = hashlib.sha256()
    for piece in _json_pieces(obj):
        h.update(piece.encode())
    return h.hexdigest()
