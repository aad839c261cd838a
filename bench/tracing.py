"""Outside-in layer timing.

A traced pass rebinds the layer functions that callers look up (a module
attribute such as ``fibertop.harness.build_levels``, or a method on a
class) to timing wrappers, and puts the originals back afterwards.  Spans
nest: a layer's self time is its duration minus the time of the wrapped
calls made inside it.  Nothing in the program changes.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

# span name -> the places a caller looks the layer up, as
# "module:attribute" or "module:Class.method"
LAYERS = {
    "census.minimal_nbhd_assignments": ["fibertop.census:minimal_nbhd_assignments"],
    "census.space_from_min_nbhds": ["fibertop.census:space_from_min_nbhds"],
    "spaces.canonical_form": ["fibertop.spaces:FiniteSpace.canonical_form"],
    "normality.build_levels": ["fibertop.normality:build_levels",
                               "fibertop.harness:build_levels"],
    "normality.build_binary_partitions": ["fibertop.cli:build_binary_partitions",
                                          "fibertop.urysohn_tietze:build_binary_partitions"],
    "urysohn_tietze.tietze_extend": ["fibertop.harness:tietze_extend",
                                     "fibertop.cli:tietze_extend"],
    "urysohn_tietze.build_separator": ["fibertop.cli:build_separator"],
    "urysohn_tietze.verify_condition_C": ["fibertop.cli:verify_condition_C"],
    "urysohn_tietze.verify_condition_D": ["fibertop.cli:verify_condition_D"],
    "harness.theorem_record": ["fibertop.harness:theorem_record"],
    "harness.classify": ["fibertop.harness:classify"],
    "classical": ["fibertop.harness:space_normal",
                  "fibertop.harness:vedenisov_perfectly_normal"],
    "textfmt.parse_instance": ["fibertop.cli:parse_instance"],
    "cli.main": ["fibertop.cli:main"],
}

# the public deciders, wrapped where the harness (from classify and
# theorem_record) and the CLI (its seven checks) look them up
HARNESS_DECIDERS = ("is_prenormal", "is_normal", "is_sigma_prenormal",
                    "is_sigma_normal", "is_perfectly_normal",
                    "is_co_perfectly_normal", "is_co_sigma_perfectly_normal")
CLI_DECIDERS = ("is_prenormal", "is_normal", "is_sigma_normal",
                "is_perfectly_normal", "is_co_perfectly_normal",
                "is_co_sigma_perfectly_normal", "is_hereditarily_normal")
DECIDERS = HARNESS_DECIDERS + ("is_hereditarily_normal",)
for _name in DECIDERS:
    LAYERS[f"normality.{_name}"] = [
        f"fibertop.{module}:{_name}"
        for module, names in (("harness", HARNESS_DECIDERS), ("cli", CLI_DECIDERS))
        if _name in names]


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "durations", "seen",
                 "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0  # calls that raised
        self.durations = []  # of the calls that returned
        self.seen = set()  # distinct results, where an observer keeps them
        self.count = 0  # observer-defined tally


def _distinct(st: Stat, result) -> None:
    st.seen.add(result)


def _iterations(st: Stat, result) -> None:
    st.count += result.iterations


# what a wrapper records from a layer's return value, besides its timing
OBSERVERS = {"spaces.canonical_form": _distinct,
             "urysohn_tietze.tietze_extend": _iterations}


class Tracer:
    """In-memory span statistics for one pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = []  # [start, child time] per open span
        self._saved = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self):
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, st: Stat) -> float:
        start, child = self._stack.pop()
        dur = time.perf_counter() - start
        st.calls += 1
        st.total += dur
        st.self_time += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        st = self.stat(name)
        self._enter()
        try:
            yield
        finally:
            self._exit(st)

    def wrap(self, name: str, fn):
        st = self.stat(name)
        enter, exit_ = self._enter, self._exit
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                exit_(st)
                raise
            st.durations.append(exit_(st))
            if observe is not None:
                observe(st, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every layer in LAYERS; undo with restore()."""
        for name, places in LAYERS.items():
            for place in places:
                owner, attr = _resolve(place)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve(place: str):
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def layer_metrics(tracer: Tracer, counters: dict) -> dict:
    """Every per-layer figure of one traced pass, with the exact counts its
    workload read off the program's outputs.  Layers the workload does not
    reach read 0; workloads.LAYER_METRICS keeps the ones it does."""
    st = tracer.stat
    out = {
        "harness.families_built": counters.get("families_built", 0),
        "harness.extension_runs": counters.get("extension_runs", 0),
        "cli.requests_holds": counters.get("holds", 0),
        "cli.requests_fails": counters.get("fails", 0),
        "cli.requests_built": counters.get("built", 0),
    }
    for name in ("census.enumerate", "harness.summarize_digest",
                 "census.minimal_nbhd_assignments", "census.space_from_min_nbhds",
                 "normality.build_binary_partitions", "urysohn_tietze.build_separator",
                 "urysohn_tietze.verify_condition_C", "urysohn_tietze.verify_condition_D",
                 "textfmt.parse_instance"):
        out[name + "_s"] = st(name).total
    canon = st("spaces.canonical_form")
    out["spaces.canonical_form_s"] = canon.total
    out["spaces.canonical_form_calls"] = canon.calls
    out["spaces.canonical_form_p50_ms"] = (
        statistics.median(canon.durations) * 1e3 if canon.durations else 0.0)
    out["spaces.classes_found"] = len(canon.seen)
    levels = st("normality.build_levels")
    out["normality.build_levels_s"] = levels.total
    out["normality.build_levels_calls"] = levels.calls
    out["normality.build_levels_built_frac"] = (
        (levels.calls - levels.errors) / levels.calls if levels.calls else 0.0)
    deciders = [st(f"normality.{d}") for d in DECIDERS]
    out["normality.deciders_s"] = sum(d.total for d in deciders)
    out["normality.deciders_calls"] = sum(d.calls for d in deciders)
    for d in DECIDERS:
        out[f"normality.{d}_s"] = st(f"normality.{d}").total
    tietze = st("urysohn_tietze.tietze_extend")
    out["urysohn_tietze.tietze_extend_s"] = tietze.total
    out["urysohn_tietze.tietze_extend_calls"] = tietze.calls
    out["urysohn_tietze.tietze_iterations"] = tietze.count
    out["harness.theorem_record_self_s"] = st("harness.theorem_record").self_time
    out["harness.classify_self_s"] = st("harness.classify").self_time
    out["classical.s"] = st("classical").total
    out["cli.self_s"] = st("cli.main").self_time
    return out


def exact_counters(tracer: Tracer) -> dict:
    """Counts that must repeat exactly on every pass with the same inputs."""
    m = layer_metrics(tracer, {})
    return {k: m[k] for k in ("spaces.canonical_form_calls", "spaces.classes_found",
                              "normality.build_levels_calls",
                              "normality.deciders_calls",
                              "urysohn_tietze.tietze_extend_calls",
                              "urysohn_tietze.tietze_iterations")}
