"""Command-line surface: check, build, census, harness.

Exit codes: 0 the property holds / artifact built, 1 it fails (a
counterexample is emitted), 2 usage or validation error, 3 internal error
(a broken invariant of the program, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from .census import census_instances, sampled_instances
from .config import RunConfig
from .errors import CapExceeded, FibertopError
from .harness import (
    classify,
    digest,
    hierarchy_violations,
    run_theorem_sweep,
)
from .normality import (
    build_binary_partitions,
    build_binary_partitions_sigma,
    is_co_perfectly_normal,
    is_co_sigma_perfectly_normal,
    is_f_functionally_open,
    is_hereditarily_normal,
    is_normal,
    is_perfectly_normal,
    is_prenormal,
    is_sigma_normal,
)
from .oscillation import weighted_sum
from .spaces import bits
from .textfmt import parse_instance, serialize_family
from .urysohn_tietze import build_separator, sigma_separator_family, tietze_extend, verify_condition_C, verify_condition_D

CHECKS = {
    "prenormal": lambda f: _plain(is_prenormal(f)),
    "normal": lambda f: _plain(is_normal(f)),
    "sigma-normal": lambda f: _plain(is_sigma_normal(f)),
    "perfectly-normal": lambda f: _perfect(f),
    "co-perfect": lambda f: _coperfect(is_co_perfectly_normal(f)),
    "co-sigma-perfect": lambda f: _coperfect(is_co_sigma_perfectly_normal(f)),
    "hereditarily-normal": lambda f: _hereditary(f),
}


def _points(mask: int) -> list[int]:
    return list(bits(mask))


def _plain(rep):
    ce = None
    if rep.counterexample is not None:
        ce = [_points(m) if isinstance(m, int) else m for m in rep.counterexample]
    return rep.holds, [], ce


def _perfect(f):
    rep = is_perfectly_normal(f)
    witnesses = [{"y": w.y, "Oy": _points(w.nbhd),
                  "functions": [[str(v) for v in phi.values] for phi in w.family],
                  "open": _points(w.open_mask)}
                 for w in rep.witnesses[:32]]
    ce = None
    if rep.counterexample is not None:
        o, y, comp = rep.counterexample
        ce = {"open": _points(o), "y": y, "component": _points(comp)}
    return rep.holds, witnesses, ce


def _coperfect(rep):
    ce = None
    if rep.counterexample is not None:
        if rep.normality_ok:
            carrier, y = rep.counterexample
            ce = {"open_carrier": _points(carrier), "y": y}
        else:
            ce = [_points(m) if isinstance(m, int) else m
                  for m in rep.counterexample]
    return rep.holds, [], ce


def _hereditary(f):
    rep = is_hereditarily_normal(f)
    ce = None if rep.offending_carrier is None else {
        "carrier": _points(rep.offending_carrier)}
    return rep.holds, [], ce


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _pick_map(inst, name):
    if name:
        if name not in inst.maps:
            raise FibertopError(f"no map named {name!r} in the file")
        return inst.maps[name]
    if len(inst.maps) != 1:
        raise FibertopError("the file must contain exactly one map, or use --map")
    return next(iter(inst.maps.values()))


def _cap(f, config: RunConfig):
    total = f.domain.n + f.codomain.n
    if total > config.max_points:
        raise CapExceeded(total, config.max_points)


def cmd_check(args, config: RunConfig) -> int:
    inst = _load(args.file)
    f = _pick_map(inst, args.map)
    _cap(f, config)
    holds, witnesses, ce = CHECKS[args.property](f)
    cert = {"class": args.property, "holds": holds, "witnesses": witnesses}
    if ce is not None:
        cert["counterexample"] = ce
    if args.json:
        print(json.dumps(cert, sort_keys=True))
    else:
        verdict = "holds" if holds else "fails"
        print(f"{args.property}: {verdict}")
        if ce is not None:
            print(f"counterexample: {ce}")
    return 0 if holds else 1


def _named_set(inst, name, space):
    if name not in inst.sets:
        raise FibertopError(f"no set named {name!r}")
    _, mask = inst.sets[name]
    if mask & ~space.full:
        raise FibertopError(f"set {name!r} does not live on the map domain")
    return mask


def cmd_build(args, config: RunConfig) -> int:
    inst = _load(args.file)
    f = _pick_map(inst, args.map)
    _cap(f, config)
    y = args.y
    if not 0 <= y < f.codomain.n:
        raise FibertopError(f"--y {y} is not a codomain point: the codomain "
                            f"has {f.codomain.n} points, 0..{f.codomain.n - 1}")
    code = 0
    out: dict = {"kind": args.kind, "y": y}
    if args.kind in ("partitions", "separator", "sigma-family"):
        f_side = _named_set(inst, args.F, f.domain)
        if args.kind == "sigma-family":
            pieces = [_named_set(inst, nm, f.domain) for nm in args.T.split(",")]
            fams = build_binary_partitions_sigma(f, f_side, pieces, y, config.depth)
            res = sigma_separator_family(f, f_side, pieces, y, config.depth)
            out["families"] = [serialize_family(fam) for fam in fams]
            out["Oy"] = _points(res.nbhd)
            out["osc_bounds"] = [str(o) for o in res.osc_values]
        else:
            t_side = _named_set(inst, args.T, f.domain)
            fam = build_binary_partitions(f, f_side, t_side, y, config.depth)
            out["family"] = serialize_family(fam)
            if args.kind == "separator":
                sep = build_separator(f, f_side, t_side, y, config.depth)
                rep = verify_condition_C(f, f_side, t_side, y, sep.phi, sep.nbhd)
                if not rep.all_ok:
                    raise FibertopError("separator failed re-verification")
                out["Oy"] = _points(sep.nbhd)
                out["phi"] = [str(v) for v in sep.phi.values]
                out["osc"] = str(rep.osc_value)
                out["error_bound"] = str(sep.limit.error_bound)
                out["checks"] = dict(zip(rep._fields[:5], rep[:5]))
    elif args.kind == "extend":
        if args.phi not in inst.funcs:
            raise FibertopError(f"no func named {args.phi!r}")
        _, phit = inst.funcs[args.phi]
        res = tietze_extend(f, phit.carrier, phit, y, tolerance=config.tolerance)
        rep = verify_condition_D(f, phit.carrier, phit, res.phi, y)
        out["phi"] = [str(v) for v in res.phi.values]
        out["residuals"] = [str(r) for r in res.residuals]
        out["iterations"] = res.iterations
        out["residual_bound"] = str(res.residual_bound)
        out["agreement"] = _points(res.agreement_set)
        out["norm_ok"] = res.norm_ok
        out["checks"] = {"agreement": rep.agreement_ok, "norm": rep.norm_ok,
                         "eps": rep.eps_ok}
    elif args.kind == "functional-witness":
        u = _named_set(inst, args.F, f.domain)
        rep = is_f_functionally_open(f, u)
        out["holds"] = rep.holds
        if rep.holds:
            witness = rep.witnesses[y]
            members = is_perfectly_normal(f).witnesses
            fam = None
            for w in members:
                if w.open_mask == u and w.y == y:
                    fam = w.family
                    break
            if fam is not None:
                weights = [Fraction(1, 1 << (l + 1)) for l in range(len(fam))]
                total = weighted_sum(f, fam, weights, y)
                out["phi"] = [str(v) for v in total.phi.values]
            else:
                out["phi"] = [str(v) for v in witness.phi.values]
        else:
            code = 1
            out["counterexample"] = {"y": rep.counterexample[0],
                                     "component": _points(rep.counterexample[1])}
    else:
        raise FibertopError(f"unknown build kind {args.kind!r}")
    print(json.dumps(out, sort_keys=True) if args.json else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return code


def cmd_census(args, config: RunConfig) -> int:
    if args.sample:
        if 2 * args.n > config.max_points:
            raise CapExceeded(2 * args.n, config.max_points)
        instances = sampled_instances(args.n, args.sample, config.seed)
    else:
        total = args.total if args.total else 2 * args.n
        if total > config.max_points:
            raise CapExceeded(total, config.max_points)
        instances = [inst for inst in census_instances(total)
                     if inst.f.domain.n <= args.n and inst.f.codomain.n <= args.n]
    violations = []
    lines = []
    for inst in instances:
        cls = classify(inst.f)
        bad = hierarchy_violations(cls, inst.f.codomain.n == 1)
        if bad:
            violations.append((inst.uid, bad))
        lines.append(json.dumps(
            {"id": inst.uid, "classes": cls, "violations": bad},
            sort_keys=True))
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    counts = {}
    for line in lines:
        rec = json.loads(line)
        for key, val in rec["classes"].items():
            if isinstance(val, bool) and val:
                counts[key] = counts.get(key, 0) + 1
    print(f"# instances={len(instances)} violations={len(violations)} "
          f"counts={json.dumps(counts, sort_keys=True)}", file=sys.stderr)
    return 1 if violations else 0


def cmd_harness(args, config: RunConfig) -> int:
    if args.total > config.max_points:
        raise CapExceeded(args.total, config.max_points)
    report = run_theorem_sweep(args.total, config.depth, args.budget,
                               config.tolerance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for rec in report["records"]:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
    clean = not (report["thm_mismatches"] or report["hierarchy_violations"]
                 or report["anomalies"] or report["extension_contract_failures"])
    summary = {k: v for k, v in report.items() if k != "records"}
    print(json.dumps(summary, sort_keys=True) if args.json else
          "\n".join(f"{k}: {v}" for k, v in summary.items()))
    print(f"# digest {digest(report)}", file=sys.stderr)
    return 0 if clean else 1


def _shared_flags(suppress: bool) -> argparse.ArgumentParser:
    # the same flags exist before and after the subcommand; the subcommand
    # copies suppress their defaults so they never clobber global values
    parent = argparse.ArgumentParser(add_help=False)

    def add(*names, **kwargs):
        if suppress:
            kwargs["default"] = argparse.SUPPRESS
        parent.add_argument(*names, **kwargs)

    add("--depth", type=int, default=6)
    add("--tol", default="1/1024", help="rational tolerance p/q")
    add("--max-points", type=int, default=None)
    add("--seed", type=int, default=0)
    add("--json", action="store_true", default=False)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibertop",
        description="normality deciders and constructions for maps of finite spaces",
        parents=[_shared_flags(False)])
    sub = parser.add_subparsers(dest="command", required=True)
    flags = [_shared_flags(True)]

    p_check = sub.add_parser("check", help="decide a normality class",
                             parents=flags)
    p_check.add_argument("property", choices=sorted(CHECKS))
    p_check.add_argument("file")
    p_check.add_argument("--map", default=None)

    p_build = sub.add_parser("build", help="run a construction",
                             parents=flags)
    p_build.add_argument("kind", choices=["partitions", "separator", "extend",
                                          "sigma-family", "functional-witness"])
    p_build.add_argument("file")
    p_build.add_argument("--map", default=None)
    p_build.add_argument("--F", default=None)
    p_build.add_argument("--T", default=None, help="set name, or comma list for sigma-family")
    p_build.add_argument("--phi", default=None)
    p_build.add_argument("--y", type=int, required=True)

    p_census = sub.add_parser("census", help="classify all small instances",
                              parents=flags)
    p_census.add_argument("--n", type=int, default=2)
    p_census.add_argument("--total", type=int, default=None)
    p_census.add_argument("--sample", type=int, default=None)
    p_census.add_argument("--out", default=None)

    p_har = sub.add_parser("harness", help="run the theorem equivalence sweep",
                           parents=flags)
    p_har.add_argument("--total", type=int, default=4)
    p_har.add_argument("--budget", type=int, default=2)
    p_har.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        kwargs = {"depth": args.depth, "tolerance": Fraction(args.tol),
                  "seed": args.seed}
        if args.max_points is not None:
            kwargs["max_points"] = args.max_points
        config = RunConfig(**kwargs)
        if args.command == "check":
            return cmd_check(args, config)
        if args.command == "build":
            return cmd_build(args, config)
        if args.command == "census":
            return cmd_census(args, config)
        if args.command == "harness":
            return cmd_harness(args, config)
        parser.error("unknown command")
    except (FibertopError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
