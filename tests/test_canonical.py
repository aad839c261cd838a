"""The pruned canonical form and the bounded topology enumeration against
their brute-force oracles in ``canonical_reference``."""

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
from fibertop.spaces import FiniteSpace, chain, discrete, indiscrete

from canonical_reference import (
    canonical_form_reference,
    minimal_nbhd_assignments_reference,
)
from conftest import make_space, spaces


class TestEnumerationAgainstReference:
    @pytest.mark.parametrize("n", range(7))
    def test_same_assignments_in_same_order(self, n):
        assert minimal_nbhd_assignments(n) == minimal_nbhd_assignments_reference(n)


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
            assert space.canonical_form() == forms[space.opens]
        assert len(set(forms.values())) == len(canonical_spaces(n))

    def test_seeded_picks_at_six_points(self):
        labelled = minimal_nbhd_assignments(6)
        rng = random.Random(5417)
        for _ in range(150):
            space = space_from_min_nbhds(labelled[rng.randrange(len(labelled))])
            assert space.canonical_form() == canonical_form_reference(space)

    def test_seeded_picks_at_seven_points(self):
        rng = random.Random(7211)
        for _ in range(12):
            space = make_space(7, [rng.randrange(1 << 7) for _ in range(7)])
            assert space.canonical_form() == canonical_form_reference(space)

    @pytest.mark.parametrize("make", [discrete, indiscrete, chain])
    @pytest.mark.parametrize("n", [6, 7])
    def test_symmetric_spaces(self, make, n):
        space = make(n)
        assert space.canonical_form() == canonical_form_reference(space)

    @pytest.mark.parametrize("make", [discrete, indiscrete, chain])
    def test_symmetric_spaces_at_the_cap(self, make):
        # these opens are already least over the relabelings: the brute
        # force over 8! permutations would only return them unchanged
        space = make(8)
        assert space.canonical_form() == space.opens
        perm = [3, 7, 0, 5, 1, 6, 2, 4]
        assert space.relabel(perm).canonical_form() == space.opens

    def test_cap(self):
        with pytest.raises(ValueError):
            chain(9).canonical_form()


@settings(max_examples=80, deadline=None)
@given(spaces(), st.randoms(use_true_random=False))
def test_relabelling_keeps_the_form(space, rng):
    form = space.canonical_form()
    perm = list(range(space.n))
    rng.shuffle(perm)
    moved = space.relabel(perm)
    assert moved.canonical_form() == form
    assert form <= space.opens and form <= moved.opens
    assert FiniteSpace(space.n, form).canonical_form() == form


@pytest.mark.tier2
def test_canonical_classes_at_six_points():
    # OEIS A001930
    assert len(canonical_spaces(6)) == 718
