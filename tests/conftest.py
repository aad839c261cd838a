import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import fibertop
from fibertop.census import space_from_min_nbhds
from fibertop.oscillation import RationalFunction
from fibertop.spaces import FiberedMap, FiniteSpace, chain, discrete, indiscrete, sierpinski


@pytest.fixture
def S():
    return sierpinski()


@pytest.fixture
def D2():
    return discrete(2)


@pytest.fixture
def D3():
    return discrete(3)


@pytest.fixture
def I2():
    return indiscrete(2)


@pytest.fixture
def C3():
    return chain(3)


@pytest.fixture
def V_poset():
    # two closed points under a common open one: the smallest non-normal space
    return FiniteSpace(3, [0b000, 0b100, 0b101, 0b110, 0b111])


def make_space(n: int, seeds) -> FiniteSpace:
    """Repair arbitrary per-point masks into a valid Alexandrov assignment."""
    nbhds = [(m | 1 << i) & ((1 << n) - 1) for i, m in enumerate(seeds)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if nbhds[i] >> j & 1 and nbhds[j] & ~nbhds[i]:
                    nbhds[i] |= nbhds[j]
                    changed = True
    return space_from_min_nbhds(nbhds)


@st.composite
def spaces(draw, max_points=6):
    n = draw(st.integers(min_value=1, max_value=max_points))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=n, max_size=n))
    return make_space(n, seeds)


@st.composite
def spaces_with_function(draw, max_points=6):
    space = draw(spaces(max_points))
    vals = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=space.n, max_size=space.n))
    return space, RationalFunction.total(space, vals)


@st.composite
def fibered_maps(draw, max_points=4):
    dom = draw(spaces(max_points))
    cod = draw(spaces(max_points))
    # repair an arbitrary table into a continuous one by climbing targets
    raw = draw(st.lists(st.integers(min_value=0, max_value=cod.n - 1),
                        min_size=dom.n, max_size=dom.n))
    table = list(raw)
    for _ in range(dom.n):
        ok = True
        for x in range(dom.n):
            for z in range(dom.n):
                if dom.min_nbhd(x) >> z & 1 and not cod.min_nbhd(table[x]) >> table[z] & 1:
                    table[z] = table[x]
                    ok = False
        if ok:
            break
    else:
        table = [raw[0]] * dom.n
    return FiberedMap(dom, cod, table)


def random_function(space: FiniteSpace, rng: random.Random) -> RationalFunction:
    vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(space.n)]
    return RationalFunction.total(space, vals)


def _random_poset(n: int, rng: random.Random, related) -> list[int]:
    """Minimal neighbourhoods of a seeded T0 space on 0..n-1: U_i holds i
    and, closed under transitivity, each j < i with related(i, j) and a
    coin toss of probability 1/3."""
    nbhds = []
    for i in range(n):
        u = 1 << i
        for j in range(i):
            if rng.random() < 1 / 3 and related(i, j):
                u |= nbhds[j]
        nbhds.append(u)
    return nbhds


def seeded_maps(count: int, total: int, seed: int) -> list[FiberedMap]:
    """Seeded continuous maps with ``total`` points in all.  The table is
    drawn first; a domain point j may then join U_i only when f(j) lies in
    U_f(i), and those links stay so under transitivity, so every map is
    continuous."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nx = rng.randint(total // 2, total - 2)
        ys = _random_poset(total - nx, rng, lambda i, j: True)
        table = [rng.randrange(total - nx) for _ in range(nx)]
        xs = _random_poset(nx, rng,
                           lambda i, j: ys[table[i]] >> table[j] & 1)
        out.append(FiberedMap(space_from_min_nbhds(xs),
                              space_from_min_nbhds(ys), table))
    return out


def shuffled(f: FiberedMap, rng: random.Random) -> FiberedMap:
    """f with the points of its domain and codomain renamed by seeded
    permutations.  ``seeded_maps`` numbers each U_i below i, so its mask
    order is its point order; a renamed copy tells the two apart."""
    dom, cod = f.domain, f.codomain
    px, py = list(range(dom.n)), list(range(cod.n))
    rng.shuffle(px)
    rng.shuffle(py)
    table = [0] * dom.n
    for x, v in enumerate(f.table):
        table[px[x]] = py[v]
    return FiberedMap(dom.relabel(px), cod.relabel(py), table)


# appended to a fresh interpreter's code: its peak RSS in kB, as the last
# line.  The peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss over
# fork and exec, so a child of a large test process reports the parent's
PRINT_VMHWM = ("with open('/proc/self/status') as f:\n"
               "    print(*[l.split()[1] for l in f if l.startswith('VmHWM')])\n")


def run_fresh(code: str, timeout: int = 300) -> list[str]:
    """The stdout lines of code run in a fresh interpreter that imports
    this fibertop, so that the child's peak RSS is its own work's."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fibertop.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
