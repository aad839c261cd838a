"""Seeded instance files for the cli12 workload.

The generator works on minimal-neighbourhood tables (U[i] is the smallest
open set around point i, listed so that U[i] only holds points <= i) and
writes the plain-text instance format that ``fibertop check`` and
``fibertop build`` read.  It shares no code with the program, so a defect
in the program's own enumeration or serialisation cannot shape its inputs.
"""

from __future__ import annotations

import random

TOTAL_POINTS = 12


def _opens(nbhds) -> list[int]:
    """Every open set: all unions of minimal neighbourhoods."""
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for u in nbhds:
            nxt = cur | u
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def _closure(nbhds, x: int) -> int:
    return sum(1 << z for z, u in enumerate(nbhds) if u >> x & 1)


def random_poset(n: int, rng: random.Random, p: float) -> list[int]:
    """A random T0 (partial-order) topology: each pair j < i is related with
    probability p, then closed under transitivity."""
    nbhds = []
    for i in range(n):
        u = 1 << i
        for j in range(i):
            if rng.random() < p:
                u |= nbhds[j]
        nbhds.append(u)
    return nbhds


def near_discrete(n: int, relations: int, rng: random.Random) -> list[int]:
    """The discrete space with ``relations`` seeded pairs j < i glued so that
    j lies in every open set around i."""
    nbhds = [1 << i for i in range(n)]
    pairs = [(j, i) for i in range(n) for j in range(i)]
    for j, i in rng.sample(pairs, relations):
        nbhds[i] |= nbhds[j]
    return nbhds


def chain_sum(lengths) -> list[int]:
    """Disjoint sum of chains (length 2 is the Sierpinski space)."""
    nbhds = []
    for length in lengths:
        base = len(nbhds)
        nbhds.extend(((1 << (k + 1)) - 1) << base for k in range(length))
    return nbhds


def random_continuous_map(xs, ys, rng: random.Random) -> list[int]:
    """A seeded continuous map: point i must go to some v whose minimal
    neighbourhood holds the images of every point below i.  Falls back to a
    constant map when the greedy choice runs out of candidates."""
    for _ in range(64):
        table = []
        for i, u in enumerate(xs):
            need = 0
            for j in range(i):
                if u >> j & 1:
                    need |= 1 << table[j]
            cands = [v for v, uv in enumerate(ys) if not need & ~uv]
            if not cands:
                break
            table.append(rng.choice(cands))
        else:
            return table
    return [rng.randrange(len(ys))] * len(xs)


def _permute(nbhds, perm) -> list[int]:
    out = [0] * len(nbhds)
    for i, u in enumerate(nbhds):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(nbhds)) if u >> j & 1)
    return out


def _fmt(mask: int) -> str:
    pts = [str(i) for i in range(mask.bit_length()) if mask >> i & 1]
    return " ".join(pts) if pts else "-"


def make_file(family: str, xs, ys, table, rng: random.Random) -> dict:
    """Relabel X at random and pick a disjoint closed pair F, T and a point
    y.  Returns the file text with what the workload needs to drive it."""
    n = len(xs)
    perm = list(range(n))
    rng.shuffle(perm)
    xs = _permute(xs, perm)
    new_table = [0] * n
    for i, v in enumerate(table):
        new_table[perm[i]] = v
    table = new_table
    a = rng.randrange(n)
    f_side = _closure(xs, a)
    t_side = 0
    for b in rng.sample(range(n), n):
        cl_b = _closure(xs, b)
        if not cl_b & f_side:
            t_side = cl_b
            break
    y = rng.randrange(len(ys))
    lines = []
    for name, nb in (("X", xs), ("Y", ys)):
        lines += [f"space {name}", f"points {len(nb)}", "opens"]
        lines += [_fmt(o) for o in _opens(nb)]
    lines.append("map f X -> Y")
    lines += [f"{i} -> {v}" for i, v in enumerate(table)]
    lines += ["set F in X", _fmt(f_side), "set T in X", _fmt(t_side)]
    lines.append("func phi on X")
    lines += [f"{x}: {1 if t_side >> x & 1 else 0}" for x in range(n)
              if (f_side | t_side) >> x & 1]
    return {"family": family, "text": "\n".join(lines) + "\n", "y": y}


def cli12_files(seed: int, smoke: bool = False) -> list[dict]:
    """The seeded file set.  The heavy constant-map files have the same
    shape for every seed and the many light files average out, so the cost
    of a pass barely depends on the seed; the seed picks the posets, maps,
    labels, the closed pair and y.  The light files outnumber the heavy
    ones about 30 to 1, so the 95th percentile request is a light one."""
    rng = random.Random(seed)
    out = []
    # random T0 posets split 6+6 or 7+5: checks mostly fail early
    for k in range(2 if smoke else 48):
        nx = 6 + k % 2
        xs = random_poset(nx, rng, 0.35)
        ys = random_poset(TOTAL_POINTS - nx, rng, 0.35)
        out.append(make_file("poset", xs, ys,
                             random_continuous_map(xs, ys, rng), rng))
    if smoke:
        return out
    # constant maps from (near-)discrete spaces onto a point of the discrete
    # 2-point space: every check is exhaustive over up to 1,024 opens
    for rel in (0, 1):
        xs = near_discrete(10, rel, rng)
        ys = near_discrete(2, 0, rng)
        out.append(make_file("constant", xs, ys, [rng.randrange(2)] * 10, rng))
    # disjoint sums of chains and Sierpinski spaces: mixed verdicts
    shapes = (((2, 2, 2, 1), (2, 1, 2)), ((3, 2, 2), (2, 1, 2)),
              ((2, 2, 1, 1, 1), (3, 2)), ((4, 2, 1), (2, 2, 1)),
              ((2, 2, 2), (3, 2, 1)), ((1, 1, 2, 3), (2, 1, 2)))
    for x_lengths, y_lengths in shapes * 4:
        xs = chain_sum(x_lengths)
        ys = chain_sum(y_lengths)
        out.append(make_file("sum", xs, ys,
                             random_continuous_map(xs, ys, rng), rng))
    return out
