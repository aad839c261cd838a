"""Executable fiberwise normality theory on finite topological spaces.

Spaces are validated open-set families on bitmask point sets; maps carry
their continuity proof; every normality class of a map (prenormal, normal,
sigma variants, perfect and the co-perfect pair) is decided exactly with
machine-checkable witnesses, and the separating-function and extension
constructions are executable with certified error bounds.

Importing the package loads none of its modules: each public name below
imports its submodule on first use (PEP 562), so ``import fibertop.spaces``
or a ``fibertop check`` run compiles only the modules it runs.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "oscillation": ("RationalFunction", "is_f_continuous_at",
                    "is_f_equicontinuous_at", "norm", "osc_at_point",
                    "osc_on_set", "weighted_sum"),
    "partitions": ("ApproximateLimitFunction", "ConsistentBinaryFamily",
                   "Level", "RegularKPartition", "assemble_limit",
                   "validate_consistent_family", "validate_regular_partition"),
    "normality": ("are_f_separated", "build_binary_partitions",
                  "is_co_perfectly_normal", "is_co_sigma_perfectly_normal",
                  "is_f_functionally_open", "is_hereditarily_normal",
                  "is_normal", "is_perfectly_normal", "is_prenormal",
                  "is_sigma_normal", "is_sigma_prenormal", "perfect_witnesses"),
    "spaces": ("FiberedMap", "FiniteSpace"),
    "urysohn_tietze": ("build_separator", "exact_extension_exists",
                       "sigma_separator_family", "tietze_extend",
                       "verify_condition_C", "verify_condition_D"),
    "harness": ("classify", "run_theorem_sweep"),
}
# the submodules that are public names of the package themselves
_SUBMODULES = ("census", "classical", "errors", "harness", "normality",
               "oscillation", "partitions", "spaces", "urysohn_tietze")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
