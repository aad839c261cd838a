"""Finite topological spaces, subsets as bitmasks, continuous maps.

A finite space is Alexandrov: arbitrary intersections of opens are open,
so every point x has a minimal open neighborhood ``min_nbhd(x)`` and the
closure of a set is the union of its singleton closures.  All subsets are
plain ints with bit i standing for point i; this keeps the exhaustive
deciders cheap enough to run over whole censuses of spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    NotOpen,
)

MAX_CANONICAL_POINTS = 8

# closure and hull lookups split a mask into chunks of this many points,
# one table of 2^CHUNK_BITS unions per chunk
CHUNK_BITS = 12
_CHUNK = (1 << CHUNK_BITS) - 1


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits(mask: int):
    """Yield the set bits of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_tuple(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def _union_tables(images) -> tuple[list[int], ...]:
    """Per chunk of CHUNK_BITS points, the union of images[x] over the
    points x of every submask: t[m] = t[m ^ low] | images[low]."""
    tables = []
    for base in range(0, len(images), CHUNK_BITS):
        chunk = images[base:base + CHUNK_BITS]
        table = [0] * (1 << len(chunk))
        for m in range(1, len(table)):
            low = m & -m
            table[m] = table[m ^ low] | chunk[low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


class FiniteSpace:
    """A validated topology on points 0..n-1, opens stored as sorted bitmasks."""

    __slots__ = ("n", "full", "opens", "_opens_set", "_min_nbhd", "_cl_point",
                 "_closure_tables", "_hull_tables", "_canon", "_class_cache",
                 "_levels_memo", "_checks_memo")

    def __init__(self, n: int, opens, *, _trusted: bool = False):
        self.n = n
        self.full = (1 << n) - 1
        family = sorted(set(int(o) for o in opens))
        for o in family:
            if o & ~self.full:
                raise ValueError(f"open {o:#x} uses points outside 0..{n - 1}")
        if not _trusted:
            family = self._validate(family)
        self.opens = tuple(family)
        self._opens_set = frozenset(family)
        min_nbhd = [self.full] * n
        for o in family:
            for x in bits(o):
                min_nbhd[x] &= o
        self._min_nbhd = tuple(min_nbhd)
        # z is in cl{x} iff x lies in every open around z, i.e. x in min_nbhd(z)
        cl_point = [0] * n
        for z in range(n):
            for x in bits(min_nbhd[z]):
                cl_point[x] |= 1 << z
        self._cl_point = tuple(cl_point)
        self._closure_tables = self._hull_tables = None  # built on first use
        self._levels_memo = None  # normality.build_levels, on first use
        self._checks_memo = None  # harness family checks, on first use
        self._canon = None
        self._class_cache = {}

    def _validate(self, family):
        fam_set = set(family)
        if 0 not in fam_set:
            raise MissingEmptyOrFull("family must contain the empty set")
        covered = 0
        for o in family:
            covered |= o
        if covered != self.full:
            raise MissingEmptyOrFull(
                f"no open covers point {(self.full & ~covered).bit_length() - 1}")
        # Minimal neighborhood candidates; a family containing them and all
        # their unions is closed under pairwise union and intersection.
        cand = [self.full] * self.n
        for o in family:
            for x in bits(o):
                cand[x] &= o
        for x in range(self.n):
            if cand[x] not in fam_set:
                acc = None
                for o in family:
                    if o >> x & 1:
                        nxt = o if acc is None else acc & o
                        if acc is not None and nxt not in fam_set:
                            raise NotClosedUnderIntersection(acc, o)
                        acc = nxt
                raise AssertionError("intersection witness not found")
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for x in range(self.n):
                u = cur | cand[x]
                if u not in seen:
                    if u not in fam_set:
                        raise NotClosedUnderUnion(cur, cand[x])
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != len(fam_set):
            # some open is not a union of minimal neighborhoods: impossible,
            # since every open contains the candidates of its points
            raise AssertionError("open set family inconsistent")
        return family

    # ----------------------------------------------------------- basic ops

    def is_open(self, mask: int) -> bool:
        return mask in self._opens_set

    def is_closed(self, mask: int) -> bool:
        return (self.full ^ mask) in self._opens_set

    def min_nbhd(self, x: int) -> int:
        return self._min_nbhd[x]

    def closure_point(self, x: int) -> int:
        return self._cl_point[x]

    def closure(self, mask: int) -> int:
        tables = self._closure_tables
        if tables is None:
            tables = self._closure_tables = _union_tables(self._cl_point)
        out = 0
        for table in tables:
            out |= table[mask & _CHUNK]
            mask >>= CHUNK_BITS
        return out

    def interior(self, mask: int) -> int:
        return self.full & ~self.closure(self.full & ~mask)

    def hull(self, mask: int) -> int:
        """Smallest open superset (union of minimal neighborhoods)."""
        tables = self._hull_tables
        if tables is None:
            tables = self._hull_tables = _union_tables(self._min_nbhd)
        out = 0
        for table in tables:
            out |= table[mask & _CHUNK]
            mask >>= CHUNK_BITS
        return out

    # ------------------------------------------------- relative (subspace) ops

    def rel_closure(self, carrier: int, mask: int) -> int:
        return self.closure(mask & carrier) & carrier

    def rel_interior(self, carrier: int, mask: int) -> int:
        return carrier & ~self.closure(carrier & ~mask)

    def rel_hull(self, carrier: int, mask: int) -> int:
        """Smallest subspace-open superset of mask inside carrier."""
        return self.hull(mask & carrier) & carrier

    def rel_is_open(self, carrier: int, mask: int) -> bool:
        return mask == self.rel_hull(carrier, mask) and mask == (mask & carrier)

    def rel_is_closed(self, carrier: int, mask: int) -> bool:
        return mask == (mask & carrier) and self.rel_closure(carrier, mask) == mask

    def rel_opens(self, carrier: int) -> tuple[int, ...]:
        return tuple(sorted({o & carrier for o in self.opens}))

    def rel_closed_sets(self, carrier: int) -> tuple[int, ...]:
        return tuple(sorted({(self.full ^ o) & carrier for o in self.opens}))

    # ------------------------------------------------------------- classes

    def nbhd_classes(self, region: int) -> tuple[int, ...]:
        """Partition of a region into minimal-neighborhood components.

        x is linked to every point of ``min_nbhd(x) & region``, the minimal
        neighborhood of x in the subspace on region; on an open region that
        is min_nbhd(x) itself.  A function has zero oscillation on region
        (relative to the region subspace) iff it is constant on each
        component; this is the engine behind every f-continuity collapse.
        """
        cached = self._class_cache.get(region)
        if cached is not None:
            return cached
        # z in min_nbhd(x) iff x in cl{z}, so the symmetrized links of x
        # are (min_nbhd(x) | cl{x}) & region
        comps = []
        left = region
        while left:
            comp, frontier = 0, left & -left
            while frontier:
                comp |= frontier
                reach = self.hull(frontier) | self.closure(frontier)
                frontier = reach & region & ~comp
            comps.append(comp)
            left &= ~comp
        out = tuple(sorted(comps))
        self._class_cache[region] = out
        return out

    # -------------------------------------------------------- constructions

    def subspace(self, carrier: int) -> "Subspace":
        pts = bits_tuple(carrier)
        index = {p: i for i, p in enumerate(pts)}
        traces = sorted({o & carrier for o in self.opens})
        sub_opens = []
        for t in traces:
            sub_opens.append(mask_of(index[p] for p in bits(t)))
        space = FiniteSpace(len(pts), sub_opens, _trusted=True)
        return Subspace(parent=self, carrier=carrier, space=space, points=pts)

    def relabel(self, perm) -> "FiniteSpace":
        """Copy with point i renamed to perm[i]."""
        out = []
        for o in self.opens:
            out.append(mask_of(perm[p] for p in bits(o)))
        return FiniteSpace(self.n, out, _trusted=True)

    def canonical_form(self) -> tuple[int, ...]:
        """Lexicographically least sorted opens tuple over all relabelings.

        Exact, by a pruned search giving positions 0, 1, ... to points in
        turn.  Placing a point at position j fixes the image masks in
        [2^j, 2^(j+1)), those of the opens whose last unplaced point it
        was; equal-size sorted families compare by the lowest mask in
        which they differ, so only partial labelings with the best new
        masks can reach the minimum.  Survivors with the same placed set P
        and the same pairs (O - P, image of O & P) have the same futures.
        """
        if self._canon is not None:
            return self._canon
        if self.n > MAX_CANONICAL_POINTS:
            raise ValueError("canonical form capped at 8 points")
        # state: (P, {unplaced part: sorted images of the placed parts})
        groups = {o: (0,) for o in self.opens}
        form = list(groups.pop(0, ()))
        states = [(0, groups)]
        for j in range(self.n):
            bit = 1 << j
            # the sentinel bit sorts a segment after its extensions
            cands = [(groups.get(1 << v, ()) + (bit,), placed, groups, 1 << v)
                     for placed, groups in states for v in bits(self.full & ~placed)]
            best = min(c[0] for c in cands)
            form.extend(img | bit for img in best[:-1])
            seen = {}
            for _, placed, groups, vbit in (c for c in cands if c[0] == best):
                # images below bit first, then those of the opens through v
                nxt = {r: imgs for r, imgs in groups.items() if not r & vbit}
                for rest, imgs in groups.items():
                    if rest & vbit and rest != vbit:
                        shifted = tuple([img | bit for img in imgs])
                        rest ^= vbit
                        nxt[rest] = nxt.get(rest, ()) + shifted
                placed |= vbit
                seen.setdefault((placed, frozenset(nxt.items())), (placed, nxt))
            states = list(seen.values())
        self._canon = tuple(form)
        return self._canon

    # ------------------------------------------------------------- dunders

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.n == other.n and self.opens == other.opens

    def __hash__(self):
        return hash((self.n, self.opens))

    def __repr__(self):
        sets = ",".join("{" + " ".join(map(str, bits(o))) + "}" for o in self.opens)
        return f"FiniteSpace(n={self.n}, opens=[{sets}])"


def validate_topology(n: int, opens) -> FiniteSpace:
    """Validate an open-set family and return the space; order-insensitive."""
    return FiniteSpace(n, opens)


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


def closure(space: FiniteSpace, mask: int) -> int:
    return space.closure(mask)


def interior(space: FiniteSpace, mask: int) -> int:
    return space.interior(mask)


def minimal_open_neighborhood(space: FiniteSpace, x: int) -> int:
    return space.min_nbhd(x)


class FiberedMap:
    """A continuous map between finite spaces, table[x] = image of x."""

    __slots__ = ("domain", "codomain", "table", "_fiber")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, table,
                 *, _trusted: bool = False):
        self.domain = domain
        self.codomain = codomain
        self.table = tuple(int(v) for v in table)
        if len(self.table) != domain.n:
            raise ValueError("table length must equal domain size")
        for v in self.table:
            if not (0 <= v < codomain.n):
                raise ValueError(f"image point {v} outside codomain")
        fiber = [0] * codomain.n
        for x, v in enumerate(self.table):
            fiber[v] |= 1 << x
        self._fiber = tuple(fiber)
        if not _trusted:
            for o in codomain.opens:
                pre = self.preimage(o)
                if not domain.is_open(pre):
                    raise NotContinuous(o, pre)

    def preimage(self, mask: int) -> int:
        out = 0
        for y in bits(mask):
            out |= self._fiber[y]
        return out

    def image(self, mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << self.table[x]
        return out

    def fiber(self, y: int) -> int:
        return self._fiber[y]

    def __eq__(self, other):
        return (isinstance(other, FiberedMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.table == other.table)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.table))

    def __repr__(self):
        return f"FiberedMap({self.table})"


def restrict_map(f: FiberedMap, open_mask: int) -> tuple[FiberedMap, Subspace, Subspace]:
    """Restriction of f over an open subset of the codomain.

    Returns the induced map between the re-indexed subspaces f^{-1}O and O
    together with both subspace views.
    """
    if not f.codomain.is_open(open_mask):
        raise NotOpen(open_mask)
    dom_view = f.domain.subspace(f.preimage(open_mask))
    cod_view = f.codomain.subspace(open_mask)
    cod_index = {p: i for i, p in enumerate(cod_view.points)}
    table = [cod_index[f.table[p]] for p in dom_view.points]
    return FiberedMap(dom_view.space, cod_view.space, table, _trusted=True), dom_view, cod_view


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
        view = self.base.domain.subspace(self.carrier)
        table = [self.base.table[p] for p in view.points]
        return FiberedMap(view.space, self.base.codomain, table, _trusted=True), view


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


# ----------------------------------------------------------- small factories


def discrete(n: int) -> FiniteSpace:
    return FiniteSpace(n, range(1 << n), _trusted=True)


def indiscrete(n: int) -> FiniteSpace:
    return FiniteSpace(n, [0, (1 << n) - 1], _trusted=True)


def sierpinski() -> FiniteSpace:
    return FiniteSpace(2, [0, 1, 3], _trusted=True)


def chain(n: int) -> FiniteSpace:
    """Opens are the prefixes {0..k-1}; the n-point chain."""
    return FiniteSpace(n, [(1 << k) - 1 for k in range(n + 1)], _trusted=True)


def point() -> FiniteSpace:
    return FiniteSpace(1, [0, 1], _trusted=True)


def constant_map(space: FiniteSpace, target: FiniteSpace | None = None,
                 at: int = 0) -> FiberedMap:
    cod = target if target is not None else point()
    return FiberedMap(space, cod, [at] * space.n)


def identity_map(space: FiniteSpace) -> FiberedMap:
    return FiberedMap(space, space, range(space.n), _trusted=True)
