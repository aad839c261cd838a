"""Reference oracles on re-indexed subspaces and submappings.

The library names every submapping by a carrier mask of its domain: the
offending carriers of the hereditary deciders and
``normality._f_sigma_failure``; the carrier-mask oracles of
``normality_reference`` (``is_normal(f, carrier)`` and its siblings, and
its pointwise carrier loops) decide the submapping on one.  This module
keeps the other
representation, for the tests only: the subspace on a carrier rebuilt as a
space of its own on points 0..k-1, the restriction of a map over an open
of its codomain and the submapping on a carrier as maps between such
spaces, and the locally-F_sigma test with one witness per codomain point.
Sharing nothing with the mask route beyond the space primitives, they
check it independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from fibertop.errors import NotOpen
from fibertop.spaces import FiberedMap, FiniteSpace, bits, bits_tuple, mask_of


@dataclass(frozen=True)
class Subspace:
    """Re-indexed subspace; points[i] is the parent point of index i."""

    parent: FiniteSpace
    carrier: int
    space: FiniteSpace
    points: tuple[int, ...]  # new index -> parent point

    def from_parent(self, mask: int) -> int:
        index = {p: i for i, p in enumerate(self.points)}
        return mask_of(index[p] for p in bits(mask) if p in index)


def subspace(space: FiniteSpace, carrier: int) -> Subspace:
    """The subspace on carrier, its points renumbered in ascending order."""
    pts = bits_tuple(carrier)
    index = {p: i for i, p in enumerate(pts)}
    traces = sorted({o & carrier for o in space.opens})
    sub_opens = [mask_of(index[p] for p in bits(t)) for t in traces]
    return Subspace(parent=space, carrier=carrier,
                    space=FiniteSpace(len(pts), sub_opens),
                    points=pts)


def restrict_map(f: FiberedMap, open_mask: int
                 ) -> tuple[FiberedMap, Subspace, Subspace]:
    """Restriction of f over an open subset of the codomain.

    Returns the induced map between the re-indexed subspaces f^{-1}O and O
    together with both subspace views.
    """
    if not f.codomain.is_open(open_mask):
        raise NotOpen(open_mask)
    dom_view = subspace(f.domain, f.preimage(open_mask))
    cod_view = subspace(f.codomain, open_mask)
    cod_index = {p: i for i, p in enumerate(cod_view.points)}
    table = [cod_index[f.table[p]] for p in dom_view.points]
    return (FiberedMap(dom_view.space, cod_view.space, table),
            dom_view, cod_view)


@dataclass(frozen=True)
class Submapping:
    """Restriction of a map to an arbitrary carrier subset of the domain."""

    base: FiberedMap
    carrier: int

    def __post_init__(self):
        if self.carrier & ~self.base.domain.full:
            raise ValueError("carrier outside domain")

    def preimage(self, mask: int) -> int:
        return self.base.preimage(mask) & self.carrier

    def induced(self) -> tuple[FiberedMap, Subspace]:
        view = subspace(self.base.domain, self.carrier)
        table = [self.base.table[p] for p in view.points]
        return (FiberedMap(view.space, self.base.codomain, table), view)


def is_f_sigma_subset(space: FiniteSpace, carrier: int, t_mask: int):
    """Is T a union of closed sets of the carrier subspace?

    Finite criterion: the closure (in the carrier) of every point of T stays
    inside T.  Returns (flag, canonical decomposition as singleton closures,
    witness point when false).
    """
    if t_mask & ~carrier:
        raise ValueError("T must lie inside the carrier")
    decomposition = []
    for x in bits(t_mask):
        piece = space.rel_closure(carrier, 1 << x)
        if piece & ~t_mask:
            return False, (), x
        decomposition.append(piece)
    return True, tuple(decomposition), None


@dataclass(frozen=True)
class FSigmaWitness:
    y: int
    nbhd: int
    decomposition: tuple[int, ...]


@dataclass(frozen=True)
class FSigmaSubmapReport:
    holds: bool
    witnesses: tuple[FSigmaWitness, ...]
    failure_y: int | None


def is_f_sigma_submapping(sub: Submapping) -> FSigmaSubmapReport:
    """Locally-F_sigma test for a submapping, one witness per codomain point.

    The minimal neighborhood decides: if the trace is F_sigma over some
    neighborhood of y it stays so after shrinking, so checking min_nbhd(y)
    is exhaustive.
    """
    f = sub.base
    witnesses = []
    for y in range(f.codomain.n):
        nbhd = f.codomain.min_nbhd(y)
        pre = f.preimage(nbhd)
        ok, decomp, _ = is_f_sigma_subset(f.domain, pre, sub.carrier & pre)
        if not ok:
            return FSigmaSubmapReport(False, tuple(witnesses), y)
        witnesses.append(FSigmaWitness(y, nbhd, decomp))
    return FSigmaSubmapReport(True, tuple(witnesses), None)
