"""Executable fiberwise normality theory on finite topological spaces.

Spaces are validated open-set families on bitmask point sets; maps carry
their continuity proof; every normality class of a map (prenormal, normal,
sigma variants, perfect and the co-perfect pair) is decided exactly with
machine-checkable witnesses, and the separating-function and extension
constructions are executable with certified error bounds.
"""

from .oscillation import (
    RationalFunction,
    is_f_continuous_at,
    is_f_equicontinuous_at,
    norm,
    osc_at_point,
    osc_on_set,
    weighted_sum,
)
from .partitions import (
    ApproximateLimitFunction,
    ConsistentBinaryFamily,
    Level,
    RegularKPartition,
    assemble_limit,
    validate_consistent_family,
    validate_regular_partition,
)
from .normality import (
    are_f_separated,
    build_binary_partitions,
    is_co_perfectly_normal,
    is_co_sigma_perfectly_normal,
    is_f_functionally_open,
    is_hereditarily_normal,
    is_normal,
    is_perfectly_normal,
    is_prenormal,
    is_sigma_normal,
    is_sigma_prenormal,
    perfect_witnesses,
)
from .spaces import FiberedMap, FiniteSpace
from .urysohn_tietze import (
    build_separator,
    exact_extension_exists,
    sigma_separator_family,
    tietze_extend,
    verify_condition_C,
    verify_condition_D,
)
from .harness import classify, run_theorem_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
