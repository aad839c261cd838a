"""The three workloads: what each feeds the program, how it is timed and
which gates its outputs must pass.

Every workload is a closed loop in one process with no threads: the next
item starts only when the previous one has returned.  The program is
reached through module attributes (``harness.theorem_record``,
``cli.main``, ...) so that a traced pass sees the same calls through its
wrappers.  Gates run after the timed part and, on a traced pass, after the
wrappers are gone.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import time
from fractions import Fraction

import instances

DEFAULT_SEED = 1

# labelled topologies on 6 points (OEIS A000798) and their homeomorphism
# classes (OEIS A001930)
LABELLED_6 = 209527
CLASSES_6 = 718

# the CLI's and the sweep's default extension tolerance
TOLERANCE = Fraction(1, 1024)
SWEEP_PARAMS = {"depth": 6, "extender_budget": 2, "tolerance": str(TOLERANCE)}

PROPERTIES = ("prenormal", "normal", "sigma-normal", "perfectly-normal",
              "co-perfect", "co-sigma-perfect", "hereditarily-normal")

# implications among the checked properties, as in
# fibertop.harness.hierarchy_violations
IMPLICATIONS = (("co-sigma-perfect", "perfectly-normal"),
                ("perfectly-normal", "co-perfect"),
                ("perfectly-normal", "prenormal"),
                ("perfectly-normal", "hereditarily-normal"),
                ("sigma-normal", "normal"),
                ("normal", "prenormal"),
                ("co-perfect", "normal"),
                ("co-sigma-perfect", "sigma-normal"))
# on a constant map these classes coincide
CONSTANT_EQUAL = (("co-perfect", "perfectly-normal", "co-sigma-perfect"),
                  ("prenormal", "normal", "sigma-normal"))

# Exact results pinned from earlier runs.  "any" holds for every seed;
# a seed key holds only for that seed.  A mismatch is a failed gate, and
# so a count that drifts between runs is flagged as nondeterminism.
_NOT_REACHED = {"normality.build_levels_calls": 0, "normality.deciders_calls": 0,
                "spaces.canonical_form_calls": 0, "spaces.classes_found": 0,
                "urysohn_tietze.tietze_extend_calls": 0,
                "urysohn_tietze.tietze_iterations": 0}
PINS = {
    ("sweep6", "full"): {"any": {
        "digest": "7ee68c3bf469138ada8007158c6f27ebff2a44d4a532a0f7bd72c3aecb1d1785",
        "counters": {"instances": 4319, "normal_count": 3921,
                     "families_built": 77376, "extension_runs": 8633,
                     "stepwise_violations": 0},
        "traced": {"normality.build_levels_calls": 77774,
                   "normality.deciders_calls": 38871,
                   "spaces.canonical_form_calls": 7331, "spaces.classes_found": 185,
                   "urysohn_tietze.tietze_extend_calls": 8633,
                   "urysohn_tietze.tietze_iterations": 118188}}},
    ("sweep6", "smoke"): {"any": {
        "digest": "1d989e217a835b479d42b448f18903d6e368711a36f097c760718f38c35b0d24",
        "counters": {"instances": 75, "normal_count": 74, "families_built": 483,
                     "extension_runs": 147, "stepwise_violations": 0},
        "traced": {"normality.build_levels_calls": 484,
                   "normality.deciders_calls": 675,
                   "spaces.canonical_form_calls": 34, "spaces.classes_found": 13,
                   "urysohn_tietze.tietze_extend_calls": 147,
                   "urysohn_tietze.tietze_iterations": 2178}}},
    ("canon6", "full"): {DEFAULT_SEED: {
        "digest": "89b71198f7967c025b4628476494cb582753b7641b434ec6cd123c20c657c844",
        "counters": {"labelled": LABELLED_6, "classes": 563},
        "traced": {**_NOT_REACHED, "spaces.canonical_form_calls": 2000,
                   "spaces.classes_found": 563}}},
    ("cli12", "full"): {DEFAULT_SEED: {
        "digest": "806066ed31f812b9c7429a947362a42c722485abad7420419b42ef05d8272351",
        "counters": {"holds": 177, "fails": 341, "built": 90},
        "traced": {**_NOT_REACHED, "normality.build_levels_calls": 90,
                   "normality.deciders_calls": 518,
                   "urysohn_tietze.tietze_extend_calls": 45,
                   "urysohn_tietze.tietze_iterations": 414}}},
    ("cli12", "smoke"): {DEFAULT_SEED: {
        "digest": "ae860bfa5d8dfeed942a157ea967df5cbcc03c905c964378caf9c66c49353227",
        "counters": {"holds": 4, "fails": 10, "built": 2}}},
}


class Gates:
    """The failed gates of one pass: how many, and the first few messages."""

    def __init__(self):
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


# the per-layer metrics each workload reports from its traced pass (see
# tracing.layer_metrics); run.py prefixes them with the workload name
LAYER_METRICS = {
    "sweep6": ("census.enumerate_s", "normality.build_levels_s",
               "normality.build_levels_calls", "normality.build_levels_built_frac",
               "normality.deciders_s", "normality.deciders_calls",
               "urysohn_tietze.tietze_extend_s", "urysohn_tietze.tietze_extend_calls",
               "urysohn_tietze.tietze_iterations", "harness.theorem_record_self_s",
               "harness.classify_self_s", "classical.s", "harness.summarize_digest_s",
               "harness.families_built", "harness.extension_runs"),
    "canon6": ("census.minimal_nbhd_assignments_s", "census.space_from_min_nbhds_s",
               "spaces.canonical_form_s", "spaces.canonical_form_calls",
               "spaces.canonical_form_p50_ms", "spaces.classes_found"),
    "cli12": ("textfmt.parse_instance_s", "cli.self_s", "normality.is_prenormal_s",
              "normality.is_normal_s", "normality.is_sigma_normal_s",
              "normality.is_perfectly_normal_s", "normality.is_co_perfectly_normal_s",
              "normality.is_co_sigma_perfectly_normal_s",
              "normality.is_hereditarily_normal_s",
              "normality.build_binary_partitions_s", "urysohn_tietze.build_separator_s",
              "urysohn_tietze.verify_condition_C_s", "urysohn_tietze.tietze_extend_s",
              "urysohn_tietze.verify_condition_D_s", "cli.requests_holds",
              "cli.requests_fails", "cli.requests_built"),
}

SETUP_MODULES = {
    "sweep6": ("fibertop.census", "fibertop.harness"),
    "canon6": ("fibertop.census", "fibertop.spaces"),
    "cli12": ("fibertop.cli",),
}


def setup(workload: str) -> float:
    """Import what the workload uses; the program keeps no other state
    that is built before the first item."""
    t0 = time.perf_counter()
    for name in SETUP_MODULES[workload]:
        importlib.import_module(name)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ sweep6


def sweep_inputs(seed: int, smoke: bool, work_dir: str) -> dict:
    # the census is the same for every seed
    return {"max_total": 4 if smoke else 6}


def sweep_run(inp: dict, span) -> tuple[float, list, dict]:
    from fibertop import census, harness

    latencies = []
    t0 = time.perf_counter()
    with span("census.enumerate"):
        items = list(census.census_instances(inp["max_total"]))
    records, errors = [], []
    for inst in items:
        t = time.perf_counter()
        try:
            records.append(harness.theorem_record(inst, SWEEP_PARAMS["depth"],
                                                  SWEEP_PARAMS["extender_budget"]))
        except Exception as exc:  # an internal error fails the item, not the run
            errors.append(f"{inst.uid}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
    with span("harness.summarize_digest"):
        report = harness.summarize(records, {"max_total": inp["max_total"],
                                             **SWEEP_PARAMS})
        digest = harness.digest(report)
    return (time.perf_counter() - t0, latencies,
            {"report": report, "digest": digest, "errors": errors})


def sweep_check(inp: dict, out: dict) -> tuple[Gates, dict, str]:
    report = out["report"]
    gates = Gates()
    for error in out["errors"]:
        gates.fail(error)
    bad: dict[str, list] = {}
    for key in ("thm_mismatches", "hierarchy_violations", "anomalies",
                "extension_contract_failures"):
        for uid in report[key]:
            bad.setdefault(uid, []).append(key)
    for uid, keys in bad.items():
        gates.fail(f"{uid}: {', '.join(keys)}")
    counters = {k: report[k] for k in ("instances", "normal_count",
                                       "families_built", "extension_runs",
                                       "stepwise_violations")}
    return gates, counters, out["digest"]


# ------------------------------------------------------------------ canon6


def canon_inputs(seed: int, smoke: bool, work_dir: str) -> dict:
    rng = random.Random(seed)
    picks = rng.sample(range(LABELLED_6), 40 if smoke else 2000)
    return {"picks": picks, "perms": [rng.sample(range(6), 6) for _ in picks]}


def canon_run(inp: dict, span) -> tuple[float, list, dict]:
    from fibertop import census

    latencies = []
    spaces, forms = [], []
    t0 = time.perf_counter()
    labelled = census.minimal_nbhd_assignments(6)
    for i in inp["picks"]:
        t = time.perf_counter()
        space = census.space_from_min_nbhds(labelled[i])
        forms.append(space.canonical_form())
        latencies.append(time.perf_counter() - t)
        spaces.append(space)
    return (time.perf_counter() - t0, latencies,
            {"labelled": len(labelled), "spaces": spaces, "forms": forms})


def _relabel(opens, perm) -> list[int]:
    return [sum(1 << perm[p] for p in range(len(perm)) if o >> p & 1) for o in opens]


def canon_check(inp: dict, out: dict) -> tuple[Gates, dict, str]:
    from fibertop.errors import FibertopError
    from fibertop.spaces import FiniteSpace

    gates = Gates()
    if out["labelled"] != LABELLED_6:
        gates.fail(f"{out['labelled']} labelled topologies, expected {LABELLED_6}")
    for space, form, perm in zip(out["spaces"], out["forms"], inp["perms"]):
        # the least relabelling is at most the identity one, is itself a
        # topology with as many opens, and does not move under relabelling
        ok = form <= space.opens and len(form) == len(space.opens)
        try:
            FiniteSpace(6, form)
            moved = FiniteSpace(6, _relabel(space.opens, perm))
        except (FibertopError, ValueError):
            ok = False
        else:
            ok = ok and moved.canonical_form() == form
        if not ok:
            gates.fail(f"canonical form {form} of {space.opens} is wrong")
    classes = len(set(out["forms"]))
    if classes > CLASSES_6:
        gates.fail(f"{classes} classes, more than {CLASSES_6}")
    digest = hashlib.sha256(repr(out["forms"]).encode()).hexdigest()
    return gates, {"labelled": out["labelled"], "classes": classes}, digest


# ------------------------------------------------------------------- cli12


def cli_inputs(seed: int, smoke: bool, work_dir: str) -> dict:
    files = instances.cli12_files(seed, smoke)
    os.makedirs(work_dir, exist_ok=True)
    for k, spec in enumerate(files):
        spec["path"] = os.path.join(work_dir, f"f{k:02d}.top")
        with open(spec["path"], "w", encoding="utf-8") as handle:
            handle.write(spec["text"])
    return {"files": files}


def cli_run(inp: dict, span) -> tuple[float, list, dict]:
    from fibertop import cli

    latencies = []
    requests = []

    def call(k: int, label: str, args: list) -> int:
        stdout, stderr = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["--json"] + args)
            except Exception as exc:  # an internal error fails the request
                code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        requests.append((k, label, code, stdout.getvalue(), stderr.getvalue()))
        return code

    t0 = time.perf_counter()
    for k, spec in enumerate(inp["files"]):
        path = spec["path"]
        codes = {prop: call(k, prop, ["check", prop, path]) for prop in PROPERTIES}
        if codes["normal"] == 0:
            y = str(spec["y"])
            call(k, "separator", ["build", "separator", path, "--F", "F", "--T", "T",
                                  "--y", y])
            call(k, "extend", ["build", "extend", path, "--phi", "phi", "--y", y])
    return time.perf_counter() - t0, latencies, {"requests": requests}


def cli_check(inp: dict, out: dict) -> tuple[Gates, dict, str]:
    gates = Gates()
    verdicts: dict[int, dict] = {}
    counters = {"holds": 0, "fails": 0, "built": 0}
    for k, label, code, stdout, stderr in out["requests"]:
        name = os.path.basename(inp["files"][k]["path"])
        if label in PROPERTIES:
            if code not in (0, 1):
                gates.fail(f"{name} check {label} exit {code}: {stderr.strip()}")
                continue
            counters["holds" if code == 0 else "fails"] += 1
            verdicts.setdefault(k, {})[label] = code == 0
            continue
        if code != 0:
            gates.fail(f"{name} build {label} on a normal map: exit {code} "
                       f"{stderr.strip()}")
            continue
        # the extension meets the tolerance it was run to, within the norm
        # of the boundary data; the separator is re-verified by the CLI
        if label == "extend":
            built = json.loads(stdout)
            if not (built["norm_ok"]
                    and Fraction(built["residual_bound"]) <= TOLERANCE):
                gates.fail(f"{name} build extend broke its contract: {built}")
                continue
        counters["built"] += 1
    for k, v in verdicts.items():
        name = os.path.basename(inp["files"][k]["path"])
        broken = [f"{a}->{b}" for a, b in IMPLICATIONS
                  if a in v and b in v and v[a] and not v[b]]
        if inp["files"][k]["family"] == "constant":
            broken += ["=".join(group) for group in CONSTANT_EQUAL
                       if len({v.get(p) for p in group}) != 1]
        if broken:
            gates.fail(f"{name} verdicts break {broken}")
    digest = hashlib.sha256(json.dumps(
        [(k, label, code, stdout) for k, label, code, stdout, _ in out["requests"]]
    ).encode()).hexdigest()
    return gates, counters, digest


WORKLOADS = {
    "sweep6": (sweep_inputs, sweep_run, sweep_check),
    "canon6": (canon_inputs, canon_run, canon_check),
    "cli12": (cli_inputs, cli_run, cli_check),
}


def pinned(workload: str, smoke: bool, seed: int) -> dict:
    table = PINS.get((workload, "smoke" if smoke else "full"), {})
    return table.get("any") or table.get(seed) or {}
