"""Finite topological spaces, subsets as bitmasks, continuous maps.

A finite space is Alexandrov: arbitrary intersections of opens are open,
so every point x has a minimal open neighborhood ``min_nbhd(x)`` and the
closure of a set is the union of its singleton closures.  All subsets are
plain ints with bit i standing for point i; this keeps the exhaustive
deciders cheap enough to run over whole censuses of spaces.
"""

from __future__ import annotations

from .errors import (
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    points_text,
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


def _is_preorder(table) -> bool:
    """Whether each table[x] holds x and the table nests: z in table[x]
    puts table[z] inside table[x]."""
    for x, u in enumerate(table):
        if not u >> x & 1:
            return False
        for z in bits(u):
            if table[z] & ~u:
                return False
    return True


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
    """A validated topology on points 0..n-1, opens stored as sorted bitmasks."""

    __slots__ = ("n", "full", "opens", "_opens_set", "_min_nbhd", "_cl_point",
                 "_closure_tables", "_hull_tables", "_canon", "_memo")

    def __init__(self, n: int, opens, *, _trusted: bool = False):
        self.n = n
        self.full = full = (1 << n) - 1
        self._opens_set = fam_set = frozenset(map(int, opens))
        self.opens = family = tuple(sorted(fam_set))
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
                for x in bits(new):
                    min_nbhd[x] = o
                covered |= new
                if covered == full:
                    break
        if not _trusted:
            self._validate(min_nbhd)
        self._min_nbhd = tuple(min_nbhd)
        # z is in cl{x} iff x lies in every open around z, i.e. x in min_nbhd(z)
        cl_point = [0] * n
        for z in range(n):
            for x in bits(min_nbhd[z]):
                cl_point[x] |= 1 << z
        self._cl_point = tuple(cl_point)
        self._closure_tables = self._hull_tables = None  # built on first use
        self._memo = None  # see memoised, on first use
        self._canon = None

    def _validate(self, least) -> None:
        """Raise unless the opens are a topology; least[x] is the
        numerically least open containing x, or 0 if no open holds x.

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

        Only a rejected family runs the checks below, which name its
        error: the one an intersection-first check gives.  On any failure
        they run the witness search over the intersections of the opens
        around each point first.  It raises whenever some open misses the
        least[y] of one of its points, since the intersection around y is
        then a proper subset of least[y] and so not open; otherwise the
        intersections are the least[x] and the union error stands.  The
        checks together are the three conditions above, so one of them
        raises.  The unions are built only while they stay in the family,
        so a malformed family costs at most its own size per point.
        """
        family, fam_set = self.opens, self._opens_set
        if _is_preorder(least) and _unions(least, fam_set) == fam_set:
            return
        if 0 not in fam_set:
            raise MissingEmptyOrFull("family must contain the empty set")
        covered = 0
        for o in family:
            covered |= o
        if covered != self.full:
            raise MissingEmptyOrFull(
                f"no open covers point {(self.full & ~covered).bit_length() - 1}")
        for u in least:
            for y in bits(u):
                if least[y] & ~u:
                    self._intersection_witness(family, fam_set)
                    raise AssertionError("intersection witness not found")
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for x in range(self.n):
                u = cur | least[x]
                if u not in seen:
                    if u not in fam_set:
                        self._intersection_witness(family, fam_set)
                        raise NotClosedUnderUnion(cur, least[x])
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != len(fam_set):
            # some open is not a union of least opens, so it misses the
            # least open of one of its points
            self._intersection_witness(family, fam_set)
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

    def memoised(self, walk, *key):
        """``walk(self, *key)``, computed once per space object and stored
        under (walk, *key).  The walk must depend only on this space and
        its key.  A walk that raises stores nothing, so the next call runs
        it again."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        full_key = (walk, *key)
        try:
            return memo[full_key]
        except KeyError:
            pass
        hit = memo[full_key] = walk(self, *key)
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
        return self.memoised(_nbhd_classes, region)

    def saturation(self, region: int, mask: int) -> int:
        """The union of the components in ``nbhd_classes(region)`` that
        meet mask: the least union of components covering mask & region."""
        out = 0
        for comp in self.memoised(_nbhd_classes, region):
            if comp & mask:
                out |= comp
        return out

    # -------------------------------------------------------- constructions

    def relabel(self, perm) -> "FiniteSpace":
        """Copy with point i renamed to perm[i]."""
        out = []
        for o in self.opens:
            out.append(mask_of(perm[p] for p in bits(o)))
        return FiniteSpace(self.n, out, _trusted=True)

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
        if self._canon is not None:
            return self._canon
        n = self.n
        if n > MAX_CANONICAL_POINTS:
            raise ValueError("canonical form capped at 8 points")
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


class FiberedMap:
    """A continuous map between finite spaces, table[x] = image of x.

    ``_nbhd_pre[y]`` is f^{-1}(U_y), the preimage of the minimal
    neighborhood of y, on which every pointwise decider works.
    """

    __slots__ = ("domain", "codomain", "table", "_fiber", "_nbhd_pre")

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
        # z lies in U_y iff y lies in cl{z}
        nbhd_pre = [0] * codomain.n
        for z, pre in enumerate(fiber):
            if pre:
                for y in bits(codomain._cl_point[z]):
                    nbhd_pre[y] |= pre
        self._nbhd_pre = tuple(nbhd_pre)
        # every open of Y is the union of the U_y of its points, and
        # preimages commute with unions, so f is continuous iff each
        # f^-1(U_y) is open; only a failure walks the opens, to name the
        # first one whose preimage is not open
        if not _trusted and not all(map(domain._opens_set.__contains__,
                                        nbhd_pre)):
            for o in codomain.opens:
                pre = self.preimage(o)
                if not domain.is_open(pre):
                    raise NotContinuous(o, pre)

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
