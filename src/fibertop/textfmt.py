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
    family fam map f y 0
    O: 0 1
    blocks: 0 1
    O: 0
    blocks: - | 0

Blank lines and '#' comments are ignored.  '-' denotes the empty set.
Families list one (O:, blocks:) pair per level, blocks separated by '|'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FibertopError, InstanceSyntaxError, InstanceValidationError
from .oscillation import RationalFunction
from .partitions import ConsistentBinaryFamily, Level, validate_consistent_family
from .spaces import FiberedMap, FiniteSpace, bits, mask_of

KEYWORDS = ("space", "points", "opens", "map", "set", "func", "family")


@dataclass
class InstanceFile:
    spaces: dict[str, FiniteSpace] = field(default_factory=dict)
    maps: dict[str, FiberedMap] = field(default_factory=dict)
    map_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    sets: dict[str, tuple[str, int]] = field(default_factory=dict)
    funcs: dict[str, tuple[str, RationalFunction]] = field(default_factory=dict)
    families: dict[str, tuple[str, ConsistentBinaryFamily]] = field(default_factory=dict)


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


def _outside(p: int, lineno: int, n: int, where: str) -> InstanceSyntaxError:
    return InstanceSyntaxError(
        lineno, f"point {p} outside {where} (points 0..{n - 1})")


def parse_instance(text: str) -> InstanceFile:
    """Parse and validate the whole file; every object is checked on sight."""
    out = InstanceFile()
    lines = text.splitlines()
    i = 0
    n = len(lines)

    def peek_keyword(idx: int) -> bool:
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("#"):
            return False
        return stripped.split()[0] in KEYWORDS

    def skip_blank(idx: int) -> int:
        while idx < n and (not lines[idx].strip()
                           or lines[idx].strip().startswith("#")):
            idx += 1
        return idx

    while i < n:
        line = lines[i].strip()
        lineno = i + 1
        if not line or line.startswith("#"):
            i += 1
            continue
        head = line.split()
        kw = head[0]
        if kw == "space":
            if len(head) != 2:
                raise InstanceSyntaxError(lineno, "expected: space <name>")
            name = head[1]
            i = skip_blank(i + 1)
            if i >= n or lines[i].split()[:1] != ["points"]:
                raise InstanceSyntaxError(i + 1, "expected: points <n>")
            try:
                count = int(lines[i].split()[1])
            except (IndexError, ValueError):
                raise InstanceSyntaxError(i + 1, "expected: points <n>") from None
            if count < 0:
                raise InstanceSyntaxError(i + 1, f"negative point count {count}")
            i = skip_blank(i + 1)
            if i >= n or lines[i].strip() != "opens":
                raise InstanceSyntaxError(i + 1, "expected: opens")
            i += 1
            opens = []
            while i < n:
                stripped = lines[i].strip()
                if not stripped or stripped.startswith("#"):
                    i += 1
                    continue
                if peek_keyword(i):
                    break
                opens.append(_parse_set_line(stripped, i + 1, count,
                                             f"space {name}"))
                i += 1
            try:
                out.spaces[name] = FiniteSpace(count, opens)
            except (FibertopError, ValueError) as exc:
                raise InstanceValidationError(f"space {name}", str(exc)) from exc
        elif kw == "map":
            if len(head) != 5 or head[3] != "->":
                raise InstanceSyntaxError(lineno, "expected: map <name> <X> -> <Y>")
            name, xname, yname = head[1], head[2], head[4]
            if xname not in out.spaces or yname not in out.spaces:
                raise InstanceValidationError(f"map {name}", "unknown space")
            dom, cod = out.spaces[xname], out.spaces[yname]
            table = [None] * dom.n
            i += 1
            while i < n:
                stripped = lines[i].strip()
                if not stripped or stripped.startswith("#"):
                    i += 1
                    continue
                if peek_keyword(i):
                    break
                parts = stripped.split()
                if len(parts) != 3 or parts[1] != "->":
                    raise InstanceSyntaxError(i + 1, "expected: <i> -> <j>")
                try:
                    src, dst = int(parts[0]), int(parts[2])
                except ValueError:
                    raise InstanceSyntaxError(i + 1, "expected integers") from None
                if not 0 <= src < dom.n:
                    raise InstanceSyntaxError(i + 1, f"point {src} outside domain")
                if table[src] is not None:
                    raise InstanceSyntaxError(i + 1, f"point {src} mapped twice")
                table[src] = dst
                i += 1
            if None in table:
                missing = table.index(None)
                raise InstanceValidationError(f"map {name}",
                                              f"no image for point {missing}")
            try:
                out.maps[name] = FiberedMap(dom, cod, table)
            except (FibertopError, ValueError) as exc:
                raise InstanceValidationError(f"map {name}", str(exc)) from exc
            out.map_names[name] = (xname, yname)
        elif kw == "set":
            if len(head) != 4 or head[2] != "in":
                raise InstanceSyntaxError(lineno, "expected: set <name> in <space>")
            name, sname = head[1], head[3]
            if sname not in out.spaces:
                raise InstanceValidationError(f"set {name}", "unknown space")
            space = out.spaces[sname]
            mask = 0
            i += 1
            while i < n:
                stripped = lines[i].strip()
                if not stripped or stripped.startswith("#"):
                    i += 1
                    continue
                if peek_keyword(i):
                    break
                mask |= _parse_set_line(stripped, i + 1, space.n, f"space {sname}")
                i += 1
            out.sets[name] = (sname, mask)
        elif kw == "func":
            if len(head) != 4 or head[2] != "on":
                raise InstanceSyntaxError(lineno, "expected: func <name> on <space>")
            name, sname = head[1], head[3]
            if sname not in out.spaces:
                raise InstanceValidationError(f"func {name}", "unknown space")
            space = out.spaces[sname]
            values: dict[int, Fraction] = {}
            i += 1
            while i < n:
                stripped = lines[i].strip()
                if not stripped or stripped.startswith("#"):
                    i += 1
                    continue
                if peek_keyword(i):
                    break
                parts = stripped.split(":")
                if len(parts) != 2:
                    raise InstanceSyntaxError(i + 1, "expected: <i>: <p/q>")
                try:
                    pt = int(parts[0])
                    value = Fraction(parts[1].strip())
                except (ValueError, ZeroDivisionError):
                    raise InstanceSyntaxError(i + 1, "bad rational") from None
                if not 0 <= pt < space.n:
                    raise _outside(pt, i + 1, space.n, f"space {sname}")
                if pt in values:
                    raise InstanceSyntaxError(i + 1, f"point {pt} given twice")
                values[pt] = value
                i += 1
            carrier = mask_of(values)
            table = tuple(values.get(x) for x in range(space.n))
            out.funcs[name] = (sname, RationalFunction(space, table, carrier))
        elif kw == "family":
            if len(head) != 6 or head[2] != "map" or head[4] != "y":
                raise InstanceSyntaxError(
                    lineno, "expected: family <name> map <map> y <point>")
            name, mname = head[1], head[3]
            if mname not in out.maps:
                raise InstanceValidationError(f"family {name}", "unknown map")
            try:
                ypt = int(head[5])
            except ValueError:
                raise InstanceSyntaxError(lineno, "bad base point") from None
            fmap = out.maps[mname]
            dom, cod = out.map_names[mname]
            if not 0 <= ypt < fmap.codomain.n:
                raise _outside(ypt, lineno, fmap.codomain.n, f"space {cod}")
            levels = []
            i += 1
            while i < n:
                stripped = lines[i].strip()
                if not stripped or stripped.startswith("#"):
                    i += 1
                    continue
                if not stripped.startswith("O:"):
                    break
                nbhd = _parse_set_line(stripped[2:], i + 1, fmap.codomain.n,
                                       f"space {cod}")
                i += 1
                while i < n and (not lines[i].strip() or lines[i].strip().startswith("#")):
                    i += 1
                if i >= n or not lines[i].strip().startswith("blocks:"):
                    raise InstanceSyntaxError(i + 1, "expected: blocks:")
                body = lines[i].strip()[len("blocks:"):]
                blocks = tuple(_parse_set_line(part, i + 1, fmap.domain.n,
                                               f"space {dom}")
                               for part in body.split("|"))
                levels.append(Level(nbhd, blocks))
                i += 1
            try:
                fam = validate_consistent_family(
                    ConsistentBinaryFamily(fmap, ypt, tuple(levels)))
            except FibertopError as exc:
                raise InstanceValidationError(f"family {name}", str(exc)) from exc
            out.families[name] = (mname, fam)
        elif kw in ("points", "opens"):
            raise InstanceSyntaxError(lineno, f"{kw} outside a space block")
        else:
            raise InstanceSyntaxError(lineno, f"unknown keyword {kw!r}")
    return out


def _fmt_set(mask: int) -> str:
    return " ".join(str(p) for p in bits(mask)) if mask else "-"


def serialize_instance(inst: InstanceFile) -> str:
    chunks = []
    for name, space in inst.spaces.items():
        chunks.append(f"space {name}")
        chunks.append(f"points {space.n}")
        chunks.append("opens")
        chunks.extend(_fmt_set(o) for o in space.opens)
    for name, fmap in inst.maps.items():
        xname, yname = inst.map_names[name]
        chunks.append(f"map {name} {xname} -> {yname}")
        chunks.extend(f"{i} -> {v}" for i, v in enumerate(fmap.table))
    for name, (sname, mask) in inst.sets.items():
        chunks.append(f"set {name} in {sname}")
        chunks.append(_fmt_set(mask))
    for name, (sname, func) in inst.funcs.items():
        chunks.append(f"func {name} on {sname}")
        chunks.extend(f"{x}: {func.values[x]}" for x in bits(func.carrier))
    for name, (mname, fam) in inst.families.items():
        chunks.append(f"family {name} map {mname} y {fam.y}")
        chunks.append(serialize_family(fam))
    return "\n".join(chunks) + "\n"


def serialize_family(fam: ConsistentBinaryFamily) -> str:
    lines = []
    for level in fam.levels:
        lines.append(f"O: {_fmt_set(level.nbhd)}")
        lines.append("blocks: " + " | ".join(_fmt_set(b) for b in level.blocks))
    return "\n".join(lines)
