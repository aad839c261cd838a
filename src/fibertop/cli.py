"""Command-line surface: check, build, census, harness.

Exit codes: 0 the property holds / artifact built, 1 it fails (a
counterexample is emitted), 2 usage or validation error, 3 internal error
(a broken invariant of the program, never a verdict).

The sweep modules (census, harness, classical) load only in the commands
that run them, and traceback only on an internal error, so a check or
build run imports neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

from .errors import CapExceeded, CheckFailed, FibertopError, HypothesisFailed
from .normality import (
    build_binary_partitions,
    is_co_perfectly_normal,
    is_co_sigma_perfectly_normal,
    is_f_functionally_open,
    is_hereditarily_normal,
    is_normal,
    is_perfectly_normal,
    is_prenormal,
    is_sigma_normal,
    perfect_witnesses,
)
from .oscillation import RationalFunction, weighted_sum
from .spaces import bits
from .textfmt import parse_instance, serialize_family
from .urysohn_tietze import build_separator, sigma_separator_family, tietze_extend, verify_condition_C, verify_condition_D

# perfectly-normal lists the first this many witnesses
WITNESS_LIMIT = 32
# a printed family lists the 2^n blocks of each level n
MAX_DEPTH = 16
# the named sets or function that each build kind reads, in --help order
BUILD_FLAGS = {"partitions": ("F", "T"), "separator": ("F", "T"),
               "extend": ("phi",), "sigma-family": ("F", "T"),
               "functional-witness": ("F",)}


def _points(mask: int) -> list[int]:
    return list(bits(mask))


def _masks(ce) -> list:
    # every entry as a point list; y too, so y = 1 prints as [0]
    return [_points(m) for m in ce]


def _perfect(ce) -> dict:
    o, y, comp = ce
    return {"open": _points(o), "y": y, "component": _points(comp)}


def _coperfect(ce):
    # the base class's counterexample, or (open carrier, y)
    if len(ce) != 2:
        return _masks(ce)
    carrier, y = ce
    return {"open_carrier": _points(carrier), "y": y}


def _witnesses(f) -> list[dict]:
    return [{"y": w.y, "Oy": _points(w.nbhd),
             "functions": [[str(v) for v in phi.values] for phi in w.family],
             "open": _points(w.open_mask)}
            for w in islice(perfect_witnesses(f), WITNESS_LIMIT)]


# each class: the name of its decider, which cmd_check looks up in this
# module when it runs (a rebinding of cli.is_normal, say, takes effect),
# and the printer of its counterexample
CHECKS = {
    "prenormal": ("is_prenormal", _masks),
    "normal": ("is_normal", _masks),
    "sigma-normal": ("is_sigma_normal", _masks),
    "perfectly-normal": ("is_perfectly_normal", _perfect),
    "co-perfect": ("is_co_perfectly_normal", _coperfect),
    "co-sigma-perfect": ("is_co_sigma_perfectly_normal", _coperfect),
    "hereditarily-normal": ("is_hereditarily_normal",
                            lambda ce: {"carrier": _points(ce[0])}),
}


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _pick_map(inst, name) -> str:
    """The name of the map to use: --map, or the file's only map."""
    if name:
        if name not in inst.maps:
            raise FibertopError(f"no map named {name!r} in the file")
        return name
    if len(inst.maps) != 1:
        raise FibertopError("the file must contain exactly one map, or use --map")
    return next(iter(inst.maps))


def _cap(total: int, args) -> None:
    if total > args.max_points:
        raise CapExceeded(total, args.max_points)


def cmd_check(args) -> int:
    inst = _load(args.file)
    f = inst.maps[_pick_map(inst, args.map)]
    _cap(f.domain.n + f.codomain.n, args)
    decider, show = CHECKS[args.property]
    holds, ce = globals()[decider](f)
    witnesses = _witnesses(f) if args.property == "perfectly-normal" else []
    cert = {"class": args.property, "holds": holds, "witnesses": witnesses}
    if ce is not None:
        ce = cert["counterexample"] = show(ce)
    if args.json:
        print(json.dumps(cert, sort_keys=True))
    else:
        verdict = "holds" if holds else "fails"
        print(f"{args.property}: {verdict}")
        if ce is not None:
            print(f"counterexample: {ce}")
    return 0 if holds else 1


def _on_domain(kind: str, table, name, domain: str):
    """The set or func of that name, which must be declared on the map's
    domain: a mask or table of another space would be read as the domain's."""
    if name not in table:
        raise FibertopError(f"no {kind} named {name!r}")
    space, value = table[name]
    if space != domain:
        raise FibertopError(f"{kind} {name!r} is declared on space {space}, "
                            f"not on the map's domain {domain}")
    return value


def cmd_build(args) -> int:
    for flag in BUILD_FLAGS[args.kind]:
        if getattr(args, flag) is None:
            raise FibertopError(f"build {args.kind} needs --{flag}")
    inst = _load(args.file)
    name = _pick_map(inst, args.map)
    f, domain = inst.maps[name], inst.map_names[name][0]
    _cap(f.domain.n + f.codomain.n, args)
    y = args.y
    if not 0 <= y < f.codomain.n:
        raise FibertopError(f"--y {y} is not a codomain point: the codomain "
                            f"has {f.codomain.n} points, 0..{f.codomain.n - 1}")
    code = 0
    out: dict = {"kind": args.kind, "y": y}
    if args.kind in ("partitions", "separator", "sigma-family"):
        f_side = _on_domain("set", inst.sets, args.F, domain)
        if args.kind == "sigma-family":
            pieces = [_on_domain("set", inst.sets, nm, domain)
                      for nm in args.T.split(",")]
            res = sigma_separator_family(f, f_side, pieces, y, args.depth)
            out["families"] = [serialize_family(lim.family)
                               for lim in res.limits]
            out["Oy"] = _points(res.nbhd)
            out["osc_bounds"] = [str(o) for o in res.osc_values]
        else:
            t_side = _on_domain("set", inst.sets, args.T, domain)
            # first, so that a depth the separator rejects builds nothing
            sep = (build_separator(f, f_side, t_side, y, args.depth)
                   if args.kind == "separator" else None)
            fam = build_binary_partitions(f, f_side, t_side, y, args.depth)
            out["family"] = serialize_family(fam)
            if sep is not None:
                rep = verify_condition_C(f, f_side, t_side, y, sep.phi, sep.nbhd)
                if not rep.all_ok:
                    raise CheckFailed("separator failed re-verification")
                out["Oy"] = _points(sep.nbhd)
                out["phi"] = [str(v) for v in sep.phi.values]
                out["osc"] = str(rep.osc_value)
                out["error_bound"] = str(sep.limit.error_bound)
                out["checks"] = dict(zip(rep._fields[:5], rep[:5]))
    elif args.kind == "extend":
        phit = _on_domain("func", inst.funcs, args.phi, domain)
        res = tietze_extend(f, phit.carrier, phit, y, tolerance=args.tol)
        rep = verify_condition_D(f, phit.carrier, phit, res.phi, y)
        out["phi"] = [str(v) for v in res.phi.values]
        out["residuals"] = [str(r) for r in res.residuals]
        out["iterations"] = res.iterations
        out["residual_bound"] = str(res.residual_bound)
        out["agreement"] = _points(res.agreement_set)
        out["norm_ok"] = rep.norm_ok
        out["checks"] = {"agreement": rep.agreement_ok, "norm": rep.norm_ok,
                         "eps": rep.eps_ok}
    elif args.kind == "functional-witness":
        u = _on_domain("set", inst.sets, args.F, domain)
        rep = is_f_functionally_open(f, u)
        out["holds"] = rep.holds
        if rep.holds:
            # the indicators of the components of f^-1(U_y) that meet U,
            # none of which leaves U, weighted 1/2, 1/4, ...
            space = f.domain
            fam = tuple(RationalFunction.indicator(space, comp)
                        for comp in space.nbhd_classes(f._nbhd_pre[y])
                        if comp & u) or (RationalFunction.constant(space, 0),)
            weights = [Fraction(1, 1 << (l + 1)) for l in range(len(fam))]
            total = weighted_sum(f, fam, weights, y)
            out["phi"] = [str(v) for v in total.phi.values]
        else:
            code = 1
            out["counterexample"] = {"y": rep.counterexample[0],
                                     "component": _points(rep.counterexample[1])}
    print(json.dumps(out, sort_keys=True) if args.json else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return code


def _check_total(total: int) -> int:
    if total < 2:
        raise FibertopError(f"--total {total} must be at least 2: no instance "
                            "has fewer than two points")
    return total


def cmd_census(args) -> int:
    from .census import census_instances, check_side, sampled_instances
    from .harness import classify, hierarchy_violations

    for flag, value in (("--n", args.n), ("--sample", args.sample)):
        if value is not None and value <= 0:
            raise FibertopError(f"{flag} {value} must be positive")
    if args.sample and args.total is not None:
        raise FibertopError("--total cannot be combined with --sample")
    total = 2 * args.n if args.total is None else _check_total(args.total)
    if args.sample:
        # its sides bound a sampled census whatever the point cap allows
        check_side(args.n)
    _cap(total, args)
    instances = (sampled_instances(args.n, args.sample, args.seed) if args.sample
                 else list(census_instances(total, args.n)))
    violations = []
    lines = []
    counts = Counter()
    for inst in instances:
        cls = classify(inst.f)
        bad = hierarchy_violations(cls, inst.f.codomain.n == 1)
        if bad:
            violations.append((inst.uid, bad))
        counts.update(key for key, val in cls.items() if val is True)
        lines.append(json.dumps(
            {"id": inst.uid, "classes": cls, "violations": bad},
            sort_keys=True))
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"# instances={len(instances)} violations={len(violations)} "
          f"counts={json.dumps(counts, sort_keys=True)}", file=sys.stderr)
    return 1 if violations else 0


def cmd_harness(args) -> int:
    from .harness import digest, run_theorem_sweep

    _check_total(args.total)
    if args.budget < 0:
        raise FibertopError(f"--budget {args.budget} must not be negative")
    _cap(args.total, args)
    report = run_theorem_sweep(args.total, args.depth, args.budget, args.tol)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Reuse is
    safe: every parse_args call makes a fresh Namespace, and argparse looks
    up sys.stdout/sys.stderr only when it prints."""
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
    p_build.add_argument("kind", choices=list(BUILD_FLAGS))
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


def _check_flags(args) -> None:
    """Check the shared flags in place and name the first bad one: --tol
    becomes a Fraction, and an absent --max-points becomes the cap that
    FIBERTOP_MAX_POINTS sets, or 12."""
    text = args.tol
    try:
        args.tol = Fraction(text)
    except ZeroDivisionError:
        raise FibertopError(f"--tol {text} has a zero denominator") from None
    except ValueError:
        raise FibertopError(f"--tol {text} is not a rational number p/q") from None
    if args.tol <= 0:
        raise FibertopError(f"--tol {text} must be positive")
    if args.max_points is None:
        raw = os.environ.get("FIBERTOP_MAX_POINTS") or "12"
        try:
            args.max_points = int(raw)
            if args.max_points < 1:
                raise ValueError
        except ValueError:
            raise FibertopError("FIBERTOP_MAX_POINTS must be a positive "
                                f"integer, got {raw!r}") from None
    if not 1 <= args.depth <= MAX_DEPTH:
        raise FibertopError(f"depth must be between 1 and {MAX_DEPTH}, "
                            f"got {args.depth}")
    if args.max_points < 1:
        raise FibertopError(f"the point cap (--max-points) must be a positive "
                            f"integer, got {args.max_points}")


COMMANDS = {"check": cmd_check, "build": cmd_build, "census": cmd_census,
            "harness": cmd_harness}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return COMMANDS[args.command](args)
    except (CheckFailed, HypothesisFailed) as exc:
        # raised only on the program's own output: a broken invariant
        internal = exc
    except (FibertopError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        internal = exc
    import traceback

    traceback.print_exception(internal)
    print(f"internal error: {type(internal).__name__}: {internal}",
          file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
