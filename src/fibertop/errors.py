"""Exception types shared across the package.

Every error that a decider or builder can raise carries enough payload to
reconstruct the offending instance by hand.
"""

from __future__ import annotations


def points_text(mask: int) -> str:
    """A set as its point list, the way an instance file writes it:
    ``{0 1}``, ``{}`` for the empty set, and a negative mask as given."""
    if mask < 0:
        return str(mask)
    return "{" + " ".join(str(x) for x in range(mask.bit_length())
                          if mask >> x & 1) + "}"


class FibertopError(Exception):
    pass


# ---------------------------------------------------------------- topology


class TopologyError(FibertopError):
    pass


class MissingEmptyOrFull(TopologyError):
    pass


class NotClosedUnderUnion(TopologyError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"union of opens {points_text(a)} and "
                         f"{points_text(b)} is not open")


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"intersection of opens {points_text(a)} and "
                         f"{points_text(b)} is not open")


class NotOpen(FibertopError):
    def __init__(self, mask: int):
        self.mask = mask
        super().__init__(f"set {points_text(mask)} is not open")


class NotContinuous(FibertopError):
    def __init__(self, open_mask: int, preimage: int):
        self.witness_open = open_mask
        self.preimage = preimage
        super().__init__(
            f"preimage {points_text(preimage)} of open {points_text(open_mask)} "
            "is not open"
        )


# ------------------------------------------------------------- oscillation


class MemberNotFContinuous(FibertopError):
    def __init__(self, index: int, y: int):
        self.index = index
        self.y = y
        super().__init__(f"family member {index} is not f-continuous at y={y}")


# -------------------------------------------------------------- partitions


class PartitionError(FibertopError):
    pass


class NotCovering(PartitionError):
    pass


class PrefixNotClosed(PartitionError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"prefix union through block {p} is not closed")


class Condition2Violated(PartitionError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"prefix through {p} meets closure of blocks >= {p + 2}")


class NeighborhoodNotNested(FibertopError):
    def __init__(self, level: int):
        self.level = level
        super().__init__(f"neighborhood at level {level} is not inside level {level - 1}")


class CoherenceViolated(FibertopError):
    def __init__(self, level: int, k: int):
        self.level = level
        self.k = k
        super().__init__(f"children of block {k} at level {level} do not recover it")


class LevelNotRegular(FibertopError):
    def __init__(self, level: int, detail: Exception):
        self.level = level
        self.detail = detail
        super().__init__(f"level {level} partition not regular: {detail}")


class DepthExceeded(FibertopError):
    pass


class HypothesisFailed(FibertopError):
    def __init__(self, which: str, level: int):
        self.which = which
        self.level = level
        super().__init__(f"limit hypothesis ({which}) fails at level {level}")


# --------------------------------------------------- normality and builders


class SearchFailed(FibertopError):
    """A sandwich step of a partition builder has no witness.

    On a map that really is (sigma-)normal this is an implementation bug;
    callers that probe arbitrary maps catch it and read it as a refutation.
    """

    def __init__(self, level: int, step: str, l: int | None = None):
        self.level = level
        self.step = step
        self.l = l
        extra = "" if l is None else f" (component {l})"
        super().__init__(f"no witness at level {level}, step {step}{extra}")


class CheckFailed(FibertopError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"verification check failed: {which}")


# ------------------------------------------------------------------ tietze


class PreconditionNotFContinuous(FibertopError):
    pass


# --------------------------------------------------------------------- cli


class CapExceeded(FibertopError):
    def __init__(self, points: int, cap: int):
        self.points = points
        self.cap = cap
        super().__init__(f"instance has {points} points, cap is {cap}")


class InstanceSyntaxError(FibertopError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InstanceValidationError(FibertopError):
    """An object of an instance file that parses but is invalid; ``line``
    is the line of its block's header."""

    def __init__(self, obj: str, reason: str, line: int):
        self.obj = obj
        self.reason = reason
        self.line = line
        super().__init__(f"{obj} (line {line}): {reason}")
