"""The instance file format.

    space S
    points 2
    opens
    -
    0
    0 1
    map f S -> S
    0 -> 0
    1 -> 1
    set F in S
    1
    func phi on S
    0: 1/2
    1: -1/3

Blank lines and '#' comments are ignored.  '-' denotes the empty set.
A family is output only: ``serialize_family`` prints one (O:, blocks:)
pair per level, blocks separated by '|', and a file with a ``family``
line is rejected.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

from .errors import FibertopError, InstanceSyntaxError, InstanceValidationError
from .oscillation import RationalFunction
from .partitions import ConsistentBinaryFamily
from .spaces import FiberedMap, FiniteSpace, bits, mask_of

# the header line of each block; a <placeholder> matches any one token
HEADERS = {shape.split()[0]: shape.split() for shape in (
    "space <name>", "map <name> <X> -> <Y>", "set <name> in <space>",
    "func <name> on <space>")}
# the first tokens of the other lines that end a block body, with the
# error each gets where a header should be
STRAYS = {"points": "points outside a space block",
          "opens": "opens outside a space block",
          "family": "instance files have no family block"}
KEYWORDS = {*HEADERS, *STRAYS}
# opens rows are read through a table of the names of points below this
TABLE_POINTS = 64


class _Tables(NamedTuple):
    spaces: dict[str, FiniteSpace]
    maps: dict[str, FiberedMap]
    map_names: dict[str, tuple[str, str]]
    sets: dict[str, tuple[str, int]]
    funcs: dict[str, tuple[str, RationalFunction]]


class InstanceFile(_Tables):
    """The objects of one instance file by name, one dict per block kind.
    ``InstanceFile()`` holds five new empty dicts, which parsing fills."""

    __slots__ = ()

    def __new__(cls, *tables):
        return super().__new__(cls, *(tables or [{} for _ in cls._fields]))


def _parse_set_line(body: str, lineno: int, n: int, where: str) -> int:
    """The mask of a point list on a line; every point must be in 0..n-1."""
    body = body.strip()
    if body == "-":
        return 0
    try:
        points = [int(tok) for tok in body.split()]
    except ValueError:
        raise InstanceSyntaxError(lineno, f"bad point list {body!r}") from None
    mask = 0
    for p in points:
        if not 0 <= p < n:
            raise _outside(p, lineno, n, where)
        mask |= 1 << p
    return mask


@lru_cache(maxsize=None)
def _point_bits(n: int) -> dict[str, int]:
    """The bit of each point of an n-point space, by its decimal name: of
    the tokens int() reads as a point, the one str() gives; other
    spellings are left to _parse_set_line."""
    return {str(p): 1 << p for p in range(n)}


def _outside(p: int, lineno: int, n: int, where: str) -> InstanceSyntaxError:
    return InstanceSyntaxError(
        lineno, f"point {p} outside {where} (points 0..{n - 1})")


def _scan(lines: list[str], i: int) -> tuple[list[int], int]:
    """The body rows from line index i on (the indices of the lines that are
    not blank, a comment or a keyword line) and the index of the next
    keyword line, len(lines) at the end of the file."""
    rows = []
    n = len(lines)
    while i < n:
        line = lines[i]
        if line and line[0] != "#":
            if line.split(None, 1)[0] in KEYWORDS:
                break
            rows.append(i)
        i += 1
    return rows, i


def _read_space(out, head, lineno, lines, rows, nxt) -> int:
    name = head[1]
    # the points and opens lines are keyword lines, so each one is the
    # first line of its scan unless a stray row comes before it
    first = rows[0] if rows else nxt
    parts = lines[first].split() if first < len(lines) else []
    if len(parts) != 2 or parts[0] != "points":
        raise InstanceSyntaxError(first + 1, "expected: points <n>")
    try:
        count = int(parts[1])
    except ValueError:
        raise InstanceSyntaxError(first + 1, "expected: points <n>") from None
    if count < 0:
        raise InstanceSyntaxError(first + 1, f"negative point count {count}")
    rows, nxt = _scan(lines, first + 1)
    first = rows[0] if rows else nxt
    if first == len(lines) or lines[first] != "opens":
        raise InstanceSyntaxError(first + 1, "expected: opens")
    rows, nxt = _scan(lines, first + 1)
    bit = _point_bits(min(count, TABLE_POINTS))
    opens = []
    for r in rows:
        mask = 0
        try:
            for tok in lines[r].split():
                mask |= bit[tok]
        except KeyError:
            mask = _parse_set_line(lines[r], r + 1, count, f"space {name}")
        opens.append(mask)
    try:
        out.spaces[name] = FiniteSpace(count, opens)
    except (FibertopError, ValueError) as exc:
        raise InstanceValidationError(f"space {name}", str(exc), lineno) from exc
    return nxt


def _read_map(out, head, lineno, lines, rows, nxt) -> int:
    name, xname, yname = head[1], head[2], head[4]
    if xname not in out.spaces or yname not in out.spaces:
        raise InstanceValidationError(f"map {name}", "unknown space", lineno)
    dom, cod = out.spaces[xname], out.spaces[yname]
    table = [None] * dom.n
    for r in rows:
        parts = lines[r].split()
        if len(parts) != 3 or parts[1] != "->":
            raise InstanceSyntaxError(r + 1, "expected: <i> -> <j>")
        try:
            src, dst = int(parts[0]), int(parts[2])
        except ValueError:
            raise InstanceSyntaxError(r + 1, "expected integers") from None
        if not 0 <= src < dom.n:
            raise _outside(src, r + 1, dom.n, f"space {xname}")
        if not 0 <= dst < cod.n:
            raise _outside(dst, r + 1, cod.n, f"space {yname}")
        if table[src] is not None:
            raise InstanceSyntaxError(r + 1, f"point {src} mapped twice")
        table[src] = dst
    if None in table:
        raise InstanceValidationError(
            f"map {name}", f"no image for point {table.index(None)}", lineno)
    try:
        out.maps[name] = FiberedMap(dom, cod, table)
    except (FibertopError, ValueError) as exc:
        raise InstanceValidationError(f"map {name}", str(exc), lineno) from exc
    out.map_names[name] = (xname, yname)
    return nxt


def _space_of(out, head, lineno) -> FiniteSpace:
    """The space that a set or func header names."""
    if head[3] not in out.spaces:
        raise InstanceValidationError(f"{head[0]} {head[1]}", "unknown space",
                                      lineno)
    return out.spaces[head[3]]


def _read_set(out, head, lineno, lines, rows, nxt) -> int:
    space = _space_of(out, head, lineno)
    mask = 0
    for r in rows:
        mask |= _parse_set_line(lines[r], r + 1, space.n, f"space {head[3]}")
    out.sets[head[1]] = (head[3], mask)
    return nxt


def _read_func(out, head, lineno, lines, rows, nxt) -> int:
    space = _space_of(out, head, lineno)
    values: dict[int, Fraction] = {}
    for r in rows:
        parts = lines[r].split(":")
        if len(parts) != 2:
            raise InstanceSyntaxError(r + 1, "expected: <i>: <p/q>")
        try:
            pt = int(parts[0])
            value = Fraction(parts[1].strip())
        except (ValueError, ZeroDivisionError):
            raise InstanceSyntaxError(r + 1, "bad rational") from None
        if not 0 <= pt < space.n:
            raise _outside(pt, r + 1, space.n, f"space {head[3]}")
        if pt in values:
            raise InstanceSyntaxError(r + 1, f"point {pt} given twice")
        values[pt] = value
    table = tuple(values.get(x) for x in range(space.n))
    out.funcs[head[1]] = (head[3], RationalFunction(space, table,
                                                     mask_of(values)))
    return nxt


# each reader takes the instance so far, the header's tokens and line
# number, the lines, the body rows and the next keyword line's index, and
# returns the index at which the next block must start
READERS = {"space": _read_space, "map": _read_map, "set": _read_set,
           "func": _read_func}


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate the whole file; every object is checked on sight,
    and a second block of one kind and name is rejected with both lines."""
    out = InstanceFile()
    # the header line of each (kind, name) declared so far
    declared: dict[tuple[str, str], int] = {}
    # stripped once; line i + 1 of the file is lines[i]
    lines = [ln.strip() for ln in text.splitlines()]
    i = 0
    while True:
        rows, i = _scan(lines, i)
        if rows:
            raise InstanceSyntaxError(
                rows[0] + 1, f"unknown keyword {lines[rows[0]].split()[0]!r}")
        if i == len(lines):
            return out
        head = lines[i].split()
        shape = HEADERS.get(head[0])
        if shape is None:
            raise InstanceSyntaxError(i + 1, STRAYS[head[0]])
        if len(head) != len(shape) or any(
                s != h for s, h in zip(shape, head) if s[0] != "<"):
            raise InstanceSyntaxError(i + 1, "expected: " + " ".join(shape))
        first = declared.setdefault((head[0], head[1]), i + 1)
        if first != i + 1:
            raise InstanceValidationError(f"{head[0]} {head[1]}",
                                          f"already declared on line {first}",
                                          i + 1)
        rows, nxt = _scan(lines, i + 1)
        i = READERS[head[0]](out, head, i + 1, lines, rows, nxt)


def _fmt_set(mask: int) -> str:
    return " ".join(str(p) for p in bits(mask)) if mask else "-"


def serialize_family(fam: ConsistentBinaryFamily) -> str:
    """One (O:, blocks:) pair per level, with all 2^n blocks of level n;
    only the non-empty ones are formatted."""
    lines = []
    for n, (nbhd, table) in enumerate(fam.levels):
        blocks = ["-"] * (1 << n)
        for k in set(table) - {None}:
            blocks[k] = _fmt_set(sum(1 << x for x, j in enumerate(table) if j == k))
        lines.append(f"O: {_fmt_set(nbhd)}")
        lines.append("blocks: " + " | ".join(blocks))
    return "\n".join(lines)
