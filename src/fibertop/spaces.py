"""Finite topological spaces, subsets as bitmasks, continuous maps.

A finite space is Alexandrov: arbitrary intersections of opens are open,
so every point x has a minimal open neighborhood ``min_nbhd(x)`` and the
closure of a set is the union of its singleton closures.  All subsets are
plain ints with bit i standing for point i; this keeps the exhaustive
deciders cheap enough to run over whole censuses of spaces.
"""

from __future__ import annotations

from operator import index

from .errors import (
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    points_text,
)

MAX_CANONICAL_POINTS = 8

# canonical forms by FiniteSpace._sorted_table, filled by canonical_form
_FORMS: dict[tuple[int, ...], tuple[int, ...]] = {}


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


def _unions(nbhds, within=None):
    """Every union of the masks in nbhds, the empty one included: one set
    comprehension per mask that is not already such a union (the set is
    closed under union after each step).  Given a set within, None as soon
    as a union falls outside it; each step at most doubles the set, so the
    work is then at most 2 * len(within) per mask."""
    unions = {0}
    for u in nbhds:
        if u not in unions:
            unions |= {o | u for o in unions}
            if within is not None and not unions <= within:
                return None
    return unions


def _point_closures(table, full):
    """cl{x} per point, from a minimal-neighborhood table on the points of
    full: z is in cl{x} iff x is in U_z.  None unless the table is a
    preorder there: each U_x holds x and no point outside full (a negative
    mask has bits outside it), and z in U_x puts U_z inside U_x.  Given
    the first two, the last holds iff the U_z over z in U_x join to U_x."""
    cl = [0] * len(table)
    for x, u in enumerate(table):
        if u & ~full or not u >> x & 1:
            return None
        xbit, rest, join = 1 << x, u, 0
        while rest:
            low = rest & -rest
            z = low.bit_length() - 1
            join |= table[z]
            cl[z] |= xbit
            rest ^= low
        if join != u:
            return None
    return tuple(cl)


def _table_error(table) -> ValueError:
    """The error of a table that _point_closures rejects, naming its first
    bad point: first any U_x that uses a point outside 0..n-1 or misses
    x, then the first x whose U_x holds a z with U_z not inside U_x."""
    n = len(table)
    for x, u in enumerate(table):
        if u & ~((1 << n) - 1):
            return ValueError(f"minimal neighborhood {points_text(u)} of "
                              f"point {x} uses points outside 0..{n - 1}")
        if not u >> x & 1:
            return ValueError(f"minimal neighborhood {points_text(u)} of "
                              f"point {x} does not hold {x}")
    for x, u in enumerate(table):
        for z in bits(u):
            if table[z] & ~u:
                return ValueError(
                    f"minimal neighborhood {points_text(u)} of point {x} "
                    f"holds {z} but not its minimal neighborhood "
                    f"{points_text(table[z])}")
    raise AssertionError("minimal-neighborhood table is a preorder")


def _moved_table(table, order) -> tuple[int, ...]:
    """The minimal-neighborhood table with point order[i] renamed i."""
    new_bit = [0] * len(table)
    for i, x in enumerate(order):
        new_bit[x] = 1 << i
    out = []
    for x in order:
        u, m = table[x], 0
        while u:
            low = u & -u
            m |= new_bit[low.bit_length() - 1]
            u ^= low
        out.append(m)
    return tuple(out)


def _nbhd_classes(space: "FiniteSpace", region: int) -> tuple[int, ...]:
    # z in min_nbhd(x) iff x in cl{z}, so the symmetrized links of x
    # are (min_nbhd(x) | cl{x}) & region
    comps = []
    left = region
    while left:
        comp, frontier = 0, left & -left
        while frontier:
            comp |= frontier
            reach = space.hull(frontier) | space.closure(frontier)
            frontier = reach & region & ~comp
        comps.append(comp)
        left &= ~comp
    return tuple(sorted(comps))


class FiniteSpace:
    """A validated topology on points 0..n-1, held as its minimal
    neighborhoods U_x and point closures cl{x}.  Its opens, ascending
    bitmasks, are given to FiniteSpace(n, opens) and derived from the U_x
    on first read in a space built by from_min_nbhds."""

    __slots__ = ("n", "full", "_opens", "_open_set", "_min_nbhd", "_cl_point",
                 "_memo")

    def __init__(self, n: int, opens):
        self.n = n
        self.full = full = (1 << n) - 1
        self._open_set = fam_set = frozenset(map(int, opens))
        self._opens = family = tuple(sorted(fam_set))
        if family and (family[0] < 0 or family[-1] > full):
            for o in family:
                if o & ~full:
                    raise ValueError(f"open {points_text(o)} uses points "
                                     f"outside 0..{n - 1}")
        # on a topology the minimal neighborhood of x lies inside every
        # open around x, so it is the numerically least of them: one pass
        # over the sorted family, until every point is covered
        min_nbhd = [0] * n
        covered = 0
        for o in family:
            new = o & ~covered
            if new:
                covered |= new
                while new:
                    low = new & -new
                    min_nbhd[low.bit_length() - 1] = o
                    new ^= low
                if covered == full:
                    break
        self._min_nbhd = min_nbhd = tuple(min_nbhd)
        self._cl_point = cl = _point_closures(min_nbhd, full)
        if cl is None or _unions(min_nbhd, fam_set) != fam_set:
            self._reject(min_nbhd)
        self._memo = None  # see memoised, on first use

    @classmethod
    def from_min_nbhds(cls, nbhds) -> "FiniteSpace":
        """The space whose minimal neighborhoods are nbhds: U_x = nbhds[x].

        A table is some space's iff it is a preorder (see _point_closures),
        and then the opens are the unions of the U_x.  They are derived on
        the first read of opens or _opens_set, which canonical_form on a
        known key never makes.  ValueError names the first bad point."""
        table = tuple(map(index, nbhds))
        n = len(table)
        full = (1 << n) - 1
        cl = _point_closures(table, full)
        if cl is None:
            raise _table_error(table)
        space = cls.__new__(cls)
        space.n, space.full = n, full
        space._opens = space._open_set = None
        space._min_nbhd, space._cl_point = table, cl
        space._memo = None
        return space

    @property
    def opens(self) -> tuple[int, ...]:
        """The opens as ascending masks."""
        if self._opens is None:
            self._derive_opens()
        return self._opens

    @property
    def _opens_set(self) -> frozenset[int]:
        """The opens as a set, for membership tests."""
        if self._open_set is None:
            self._derive_opens()
        return self._open_set

    def _derive_opens(self) -> None:
        # a space built by from_min_nbhds: its opens are the unions of its U_x
        self._open_set = fam_set = frozenset(_unions(self._min_nbhd))
        self._opens = tuple(sorted(fam_set))

    def _reject(self, least) -> None:
        """Raise the error of opens that are not a topology; least[x] is
        the numerically least open containing x, or 0 if no open holds x.

        A family is a topology iff each least[x] holds x, the least[x] nest
        (y in least[x] puts least[y] inside least[x]), and the family is
        exactly their unions.  Then every open holds the least[y] of each
        of its points y, so least[y] is the intersection of the opens
        around y, and the intersection of two opens is the union of the
        least[y] of its points.  Conversely, in a topology least[x] is the
        minimal neighborhood of x and every open is the union of the
        minimal neighborhoods of its points.  (A family that misses a
        point x has least[x] = 0, and may still be the unions of its
        least[x]; hence the first condition.)

        __init__ tests the three conditions (the first two through
        _point_closures); only a rejected family comes here, and the checks
        below name its error: the one an intersection-first check gives.  Past the
        empty-set and cover checks, each least[x] holds x, and the witness
        search over the intersections of the opens around each point runs
        once.  It raises whenever some open misses the least[y] of one of
        its points, since the intersection around y is then a proper
        subset of least[y] and so not open; a least[x] that fails to nest
        is such an open.  Otherwise the least[x] nest, every open is the
        union of the least[y] of its points, and so some union of the
        least[x] is not open: the union search names the first one.  The
        unions are built only while they stay in the family, so a
        malformed family costs at most its own size per point.
        """
        family, fam_set = self._opens, self._open_set
        if 0 not in fam_set:
            raise MissingEmptyOrFull("family must contain the empty set")
        covered = 0
        for o in family:
            covered |= o
        if covered != self.full:
            raise MissingEmptyOrFull(
                f"no open covers point {(self.full & ~covered).bit_length() - 1}")
        self._intersection_witness(family, fam_set)
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for x in range(self.n):
                u = cur | least[x]
                if u not in seen:
                    if u not in fam_set:
                        raise NotClosedUnderUnion(cur, least[x])
                    seen.add(u)
                    frontier.append(u)
        raise AssertionError("open set family inconsistent")

    def _intersection_witness(self, family, fam_set) -> None:
        """Raise NotClosedUnderIntersection for the first point x whose
        opens do not intersect to an open, at the first open that breaks
        the running intersection; return if every such intersection is
        open."""
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

    def memoised(self, key):
        """``walk(self, *args)`` for ``key = (walk, *args)``, computed once
        per space object and stored under key.  The walk must depend only
        on this space and its args.  A walk that raises stores nothing, so
        the next call runs it again.

        The caller builds the key, so a hit is one dict probe.  The walk
        runs outside the ``except``, so its errors carry no context."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        except TypeError:
            # the memo is still None; an unhashable key raises as it is
            if self._memo is not None:
                raise
            self._memo = {}
        hit = self._memo[key] = key[0](self, *key[1:])
        return hit

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
        """Union of the point closures cl{x} over the points x of mask."""
        cl, out = self._cl_point, 0
        while mask:
            low = mask & -mask
            out |= cl[low.bit_length() - 1]
            mask ^= low
        return out

    def interior(self, mask: int) -> int:
        return self.full & ~self.closure(self.full & ~mask)

    def hull(self, mask: int) -> int:
        """Smallest open superset (union of minimal neighborhoods)."""
        nbhd, out = self._min_nbhd, 0
        while mask:
            low = mask & -mask
            out |= nbhd[low.bit_length() - 1]
            mask ^= low
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
        return self.memoised((_nbhd_classes, region))

    def saturation(self, region: int, mask: int) -> int:
        """The union of the components in ``nbhd_classes(region)`` that
        meet mask: the least union of components covering mask & region."""
        out = 0
        for comp in self.memoised((_nbhd_classes, region)):
            if comp & mask:
                out |= comp
        return out

    # -------------------------------------------------------- constructions

    def relabel(self, perm) -> "FiniteSpace":
        """Copy with point i renamed to perm[i]; ValueError unless perm is
        a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"perm {list(perm)} is not a permutation of "
                             f"0..{self.n - 1}")
        order = [0] * self.n
        for x, p in enumerate(perm):
            order[p] = x
        return FiniteSpace.from_min_nbhds(_moved_table(self._min_nbhd, order))

    def twins(self) -> tuple[int, ...]:
        """Per point v, the mask of its twins: the points w (v included)
        for which swapping v and w is a homeomorphism.

        The swap preserves the minimal neighborhoods iff U_v and U_w agree
        off {v, w}, cl{v} and cl{w} agree off {v, w} (so every other U_x
        holds both or neither), and w in U_v iff v in U_w.  Being twins is
        an equivalence: (v u) = (v w)(w u)(v w).
        """
        nbhd, cl = self._min_nbhd, self._cl_point
        out = [1 << v for v in range(self.n)]
        for v in range(self.n):
            for w in range(v):
                pair = 1 << v | 1 << w
                if (not (nbhd[v] ^ nbhd[w]) & ~pair
                        and not (cl[v] ^ cl[w]) & ~pair
                        and nbhd[v] >> w & 1 == nbhd[w] >> v & 1):
                    out[v] |= 1 << w
                    out[w] |= 1 << v
        return tuple(out)

    def canonical_form(self) -> tuple[int, ...]:
        """Lexicographically least sorted opens tuple over all relabelings.

        Read from _FORMS under the space's key (see _sorted_table), and
        searched (see _least_form) only when the key is new.  Two spaces
        with one key are relabelings of the same labeled topology, the
        key's, so they have the same least form; the invariant only sets
        how often the key repeats.
        """
        if self.n > MAX_CANONICAL_POINTS:
            raise ValueError("canonical form capped at 8 points")
        key = self._sorted_table()
        form = _FORMS.get(key)
        if form is None:
            form = _FORMS[key] = self._least_form()
        return form

    def _sorted_table(self) -> tuple[int, ...]:
        """The minimal-neighborhood table relabeled so that the points
        run in stable order of (|U_x|, |cl{x}|).

        Homeomorphisms keep the invariant, so the tables this returns are
        exactly the labelings whose invariant is already sorted, and each
        is its own key: 1, 3, 9, 36, 158, 931, 6,620 and 62,049 of them
        for n = 1..8.
        """
        nbhd, cl = self._min_nbhd, self._cl_point
        # both sizes are at most MAX_CANONICAL_POINTS < 16
        rank = [u.bit_count() << 4 | c.bit_count() for u, c in zip(nbhd, cl)]
        return _moved_table(nbhd, sorted(range(self.n), key=rank.__getitem__))

    def _least_form(self) -> tuple[int, ...]:
        """The least form of canonical_form, searched on this labeling.

        Exact, by a pruned search giving positions 0, 1, ... to points in
        turn.  Placing a point at position j fixes the image masks in
        [2^j, 2^(j+1)), those of the opens whose last unplaced point it
        was; equal-size sorted families compare by the lowest mask in
        which they differ, so only partial labelings with the best new
        masks can reach the minimum.  Survivors with the same placed set P
        and the same pairs (O - P, image of O & P) have the same futures.

        Integer segments: the sorted images of a group are one int, with
        image m at bit 2^n - 1 - m.  Two segments of images below 2^j,
        each followed by the sentinel 2^j that sorts a segment after its
        extensions, part at the least image m that one of them lacks; the
        one holding m is lexicographically smaller, and its int is larger,
        since bit 2^n - 1 - m is their top differing bit.  So the best
        segment is the largest int, and the images m + 2^j of a placed
        point's opens are the int shifted right by 2^j.  The form is
        decoded once, at the end.

        Twin pruning: permuting points inside a twin class (see twins) is
        an automorphism and leaves the image family unchanged, so some
        least labeling gives each class increasing positions in point
        order.  A point is a candidate only once its lower-numbered twins
        are placed; every prefix of that labeling still survives, and
        merging stays valid because the allowed moves depend only on P.

        The last position only reads its segment: every open is then
        placed, so no state follows it and none is built.
        """
        n = self.n
        top = (1 << n) - 1  # the bit of image 0
        lower = [t & ((1 << v) - 1) for v, t in enumerate(self.twins())]
        # state: (P, {unplaced part: encoded images of the placed parts})
        groups = dict.fromkeys(self.opens, 1 << top)
        enc = groups.pop(0, 0)
        states = [(0, groups)]
        for j in range(n):
            best, picks = -1, []
            for placed, groups in states:
                for v in bits(self.full & ~placed):
                    if lower[v] & ~placed:
                        continue
                    seg = groups.get(1 << v, 0)
                    if seg > best:
                        best, picks = seg, [(placed, groups, 1 << v)]
                    elif seg == best:
                        picks.append((placed, groups, 1 << v))
            shift = 1 << j
            enc |= best >> shift
            if j == n - 1:
                break
            seen, states = {}, []
            for placed, groups, vbit in picks:
                # v leaves the unplaced part of the opens through it, and
                # their images gain 2^j
                nxt = {}
                for rest, imgs in groups.items():
                    if rest & vbit:
                        if rest != vbit:
                            rest ^= vbit
                            nxt[rest] = nxt.get(rest, 0) | imgs >> shift
                    elif rest in nxt:
                        nxt[rest] |= imgs
                    else:
                        nxt[rest] = imgs
                placed |= vbit
                # merge states with the same P and equal groups
                same = seen.setdefault(placed, [])
                if nxt not in same:
                    same.append(nxt)
                    states.append((placed, nxt))
        form = [top - p for p in bits(enc)]
        form.reverse()
        return tuple(form)

    # ------------------------------------------------------------- dunders

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.n == other.n and self.opens == other.opens

    def __hash__(self):
        return hash((self.n, self.opens))

    def __repr__(self):
        sets = ",".join("{" + " ".join(map(str, bits(o))) + "}" for o in self.opens)
        return f"FiniteSpace(n={self.n}, opens=[{sets}])"


class FiberedMap:
    """A continuous map between finite spaces, table[x] = image of x.

    ``_nbhd_pre[y]`` is f^{-1}(U_y), the preimage of the minimal
    neighborhood of y, on which every pointwise decider works.
    """

    __slots__ = ("domain", "codomain", "table", "_fiber", "_nbhd_pre")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, table):
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
        # z lies in U_y iff y lies in cl{z}
        nbhd_pre = [0] * codomain.n
        for z, pre in enumerate(fiber):
            if pre:
                for y in bits(codomain._cl_point[z]):
                    nbhd_pre[y] |= pre
        self._nbhd_pre = tuple(nbhd_pre)
        # every open of Y is the union of the U_y of its points, and
        # preimages commute with unions, so f is continuous iff each
        # f^-1(U_y) is open.  A failure names the first open of Y whose
        # preimage is not open, which is the least failing U_y: a failing
        # open o holds some y with f^-1(U_y) not open, and U_y, inside o,
        # is at most o as a mask
        opens = domain._opens_set
        if not all(map(opens.__contains__, nbhd_pre)):
            raise NotContinuous(*min(
                (u, pre) for u, pre in zip(codomain._min_nbhd, nbhd_pre)
                if pre not in opens))

    def check_point(self, y: int) -> None:
        """Raise ValueError unless y is a point of the codomain."""
        if not 0 <= y < self.codomain.n:
            raise ValueError(f"y = {y} is not a codomain point (points "
                             f"0..{self.codomain.n - 1})")

    def preimage(self, mask: int) -> int:
        fiber, out = self._fiber, 0
        while mask:
            low = mask & -mask
            out |= fiber[low.bit_length() - 1]
            mask ^= low
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


# ----------------------------------------------------------- small factories


def discrete(n: int) -> FiniteSpace:
    return FiniteSpace.from_min_nbhds([1 << x for x in range(n)])


def indiscrete(n: int) -> FiniteSpace:
    return FiniteSpace.from_min_nbhds([(1 << n) - 1] * n)


def sierpinski() -> FiniteSpace:
    """Opens {}, {0} and {0 1}."""
    return FiniteSpace.from_min_nbhds([1, 3])


def chain(n: int) -> FiniteSpace:
    """Opens are the prefixes {0..k-1}; the n-point chain."""
    return FiniteSpace.from_min_nbhds([(2 << x) - 1 for x in range(n)])


def point() -> FiniteSpace:
    return FiniteSpace.from_min_nbhds([1])


def constant_map(space: FiniteSpace, target: FiniteSpace | None = None,
                 at: int = 0) -> FiberedMap:
    cod = target if target is not None else point()
    return FiberedMap(space, cod, [at] * space.n)


def identity_map(space: FiniteSpace) -> FiberedMap:
    return FiberedMap(space, space, range(space.n))
