"""The pruned canonical form and the bounded topology enumeration against
their oracles in ``canonical_reference``: the brute force over every
relabeling up to 7 points, and the pruned search without integer segments
or twin pruning at 8.

``canonical_form`` reads most forms from ``spaces._FORMS``, filled by
whichever test ran first, so every oracle comparison also runs the search
itself, ``FiniteSpace._least_form``, on the same labeling."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertop.census import (
    canonical_spaces,
    minimal_nbhd_assignments,
    space_from_min_nbhds,
)
from fibertop import spaces as spaces_module
from fibertop.spaces import FiniteSpace, chain, discrete, indiscrete

from canonical_reference import (
    canonical_form_pruned_reference,
    canonical_form_reference,
    minimal_nbhd_assignments_reference,
)
from conftest import make_space, spaces


def seeded_space(n: int, rng: random.Random) -> FiniteSpace:
    """A seeded space with one drawn link per point; denser seeds mostly
    close up to the indiscrete space (11 of 12 at 7 points, 18 of 20 at
    8 with every mask drawn)."""
    return make_space(n, [1 << rng.randrange(n) for _ in range(n)])


class TestEnumerationAgainstReference:
    @pytest.mark.parametrize("n", range(7))
    def test_same_assignments_in_same_order(self, n):
        # the packed tables are read through iteration and through indexing
        tables = minimal_nbhd_assignments(n)
        reference = minimal_nbhd_assignments_reference(n)
        assert tuple(tables) == reference
        assert tuple(tables[k] for k in range(len(reference))) == reference


class TestCanonicalAgainstReference:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labelled_topology(self, n):
        # the oracle runs once per orbit: every relabeling of a space has
        # the same least form
        forms = {}
        for nbhds in minimal_nbhd_assignments(n):
            space = space_from_min_nbhds(nbhds)
            if space.opens not in forms:
                form = canonical_form_reference(space)
                for perm in permutations(range(n)):
                    forms[space.relabel(perm).opens] = form
            assert space._least_form() == forms[space.opens]
            assert space.canonical_form() == forms[space.opens]
        assert len(set(forms.values())) == len(canonical_spaces(n))

    def test_seeded_picks_at_six_points(self):
        labelled = minimal_nbhd_assignments(6)
        rng = random.Random(5417)
        for _ in range(150):
            space = space_from_min_nbhds(labelled[rng.randrange(len(labelled))])
            form = canonical_form_reference(space)
            assert space._least_form() == form == space.canonical_form()

    def test_seeded_picks_at_seven_points(self):
        rng = random.Random(7211)
        for _ in range(12):
            space = seeded_space(7, rng)
            form = canonical_form_reference(space)
            assert space._least_form() == form == space.canonical_form()

    @pytest.mark.parametrize("make", [discrete, indiscrete, chain])
    @pytest.mark.parametrize("n", [6, 7])
    def test_symmetric_spaces(self, make, n):
        space = make(n)
        form = canonical_form_reference(space)
        assert space._least_form() == form == space.canonical_form()

    @pytest.mark.parametrize("make", [discrete, indiscrete, chain])
    def test_symmetric_spaces_at_the_cap(self, make):
        # these opens are already least over the relabelings: the brute
        # force over 8! permutations would only return them unchanged
        space = make(8)
        assert space._least_form() == space.opens == space.canonical_form()
        moved = space.relabel([3, 7, 0, 5, 1, 6, 2, 4])
        assert moved._least_form() == space.opens == moved.canonical_form()

    def test_cap(self):
        with pytest.raises(ValueError):
            chain(9).canonical_form()


def block_sum(blocks) -> FiniteSpace:
    """Disjoint sum, each block on the points after those of the ones
    before it."""
    nbhds, base = [], 0
    for block in blocks:
        nbhds += [block.min_nbhd(x) << base for x in range(block.n)]
        base += block.n
    return space_from_min_nbhds(nbhds)


def _twin_rich_sums() -> dict[str, FiniteSpace]:
    """Sums of discrete (D), indiscrete (I) and chain (C) blocks on 8 points,
    by name: five fixed, then up to sixteen seeded."""
    makers = {"D": discrete, "I": indiscrete, "C": chain}
    names = ["D3+I2+C3", "I2+I2+I2+I2", "C2+C2+C2+C2", "C4+C4", "D2+C2+D2+C2"]
    rng = random.Random(8)
    for _ in range(16):
        left, blocks = 8, []
        while left:
            k = rng.randint(1, left)
            left -= k
            blocks.append(rng.choice("DIC") + str(k))
        names.append("+".join(blocks))
    return {name: block_sum([makers[b[0]](int(b[1:])) for b in name.split("+")])
            for name in names}


TWIN_RICH_SUMS = _twin_rich_sums()


class TestTwins:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_twins_are_the_swaps_that_fix_the_opens(self, n):
        for nbhds in minimal_nbhd_assignments(n):
            space = space_from_min_nbhds(nbhds)
            twins = space.twins()
            for v in range(n):
                assert twins[v] >> v & 1
                for w in range(v):
                    swap = list(range(n))
                    swap[v], swap[w] = w, v
                    fixed = space.relabel(swap).opens == space.opens
                    assert bool(twins[v] >> w & 1) == fixed == bool(twins[w] >> v & 1)

    def test_sums_have_their_blocks_as_classes(self):
        space = block_sum([discrete(3), indiscrete(2), chain(3)])
        assert space.twins() == (0b111, 0b111, 0b111, 0b11000, 0b11000,
                                 0b100000, 0b1000000, 0b10000000)


class TestCanonicalAgainstPrunedReference:
    """At 8 points the n! brute force is too slow; the same search on
    tuples, without integer segments or twin pruning, is the oracle."""

    @staticmethod
    def _check(space, rng):
        perm = list(range(space.n))
        rng.shuffle(perm)
        form = canonical_form_pruned_reference(space)
        moved = space.relabel(perm)
        assert space._least_form() == form == space.canonical_form()
        assert moved._least_form() == form == moved.canonical_form()

    def test_seeded_spaces_at_eight_points(self):
        rng = random.Random(8191)
        for _ in range(20):
            self._check(seeded_space(8, rng), rng)

    @pytest.mark.parametrize("name", sorted(TWIN_RICH_SUMS))
    def test_twin_rich_sums(self, name):
        self._check(TWIN_RICH_SUMS[name], random.Random(name))


class TestFormCache:
    """``canonical_form`` searches once per key, the minimal-neighborhood
    table relabeled into the stable order of (|U_x|, |cl{x}|)."""

    @pytest.mark.parametrize("n, sorted_labelings", [(1, 1), (2, 3), (3, 9),
                                                     (4, 36), (5, 158)])
    def test_one_entry_per_sorted_labeling(self, monkeypatch, n, sorted_labelings):
        monkeypatch.setattr(spaces_module, "_FORMS", {})
        for nbhds in minimal_nbhd_assignments(n):
            space_from_min_nbhds(nbhds).canonical_form()
        assert len(spaces_module._FORMS) == sorted_labelings

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_key_is_its_own_key(self, n):
        keys = set()
        for nbhds in minimal_nbhd_assignments(n):
            key = space_from_min_nbhds(nbhds)._sorted_table()
            keyed = space_from_min_nbhds(key)
            assert keyed._sorted_table() == key
            ranks = [(keyed.min_nbhd(x).bit_count(),
                      keyed.closure_point(x).bit_count()) for x in range(n)]
            assert ranks == sorted(ranks)
            keys.add(key)
        # the keys are exactly the labelings that are their own key
        assert len(keys) == sum(
            space_from_min_nbhds(nbhds)._sorted_table() == nbhds
            for nbhds in minimal_nbhd_assignments(n))

    @pytest.mark.parametrize("n, seed", [(6, 61), (7, 71), (8, 81)])
    def test_seeded_relabelings_read_the_search_form(self, monkeypatch, n, seed):
        rng = random.Random(seed)
        copies = []
        for _ in range(6):
            space = seeded_space(n, rng)
            form = space._least_form()
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                copies.append((space.relabel(perm), form))
        for moved, form in copies:
            monkeypatch.setattr(spaces_module, "_FORMS", {})
            assert moved._least_form() == form == moved.canonical_form()
        monkeypatch.setattr(spaces_module, "_FORMS", {})
        for moved, _ in copies:
            FiniteSpace(n, moved.opens).canonical_form()
        filled = dict(spaces_module._FORMS)
        assert len(filled) < len(copies)
        for moved, form in copies:
            assert FiniteSpace(n, moved.opens).canonical_form() == form
        assert spaces_module._FORMS == filled


@settings(max_examples=80, deadline=None)
@given(spaces(), st.randoms(use_true_random=False))
def test_relabelling_keeps_the_form(space, rng):
    form = space.canonical_form()
    perm = list(range(space.n))
    rng.shuffle(perm)
    moved = space.relabel(perm)
    assert moved.canonical_form() == form == moved._least_form()
    assert form <= space.opens and form <= moved.opens
    assert FiniteSpace(space.n, form).canonical_form() == form


def test_canonical_classes_at_six_points():
    # OEIS A001930
    assert len(canonical_spaces(6)) == 718
