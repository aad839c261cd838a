from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertop.errors import (
    CheckFailed,
    CoherenceViolated,
    Condition2Violated,
    DepthExceeded,
    HypothesisFailed,
    LevelNotRegular,
    NeighborhoodNotNested,
    NotCovering,
    PartitionError,
    PrefixNotClosed,
)
from fibertop.census import canonical_spaces
from fibertop.normality import build_binary_partitions
from fibertop.oscillation import is_f_continuous_at, osc_on_set
from fibertop.partitions import (
    ConsistentBinaryFamily,
    Level,
    assemble_limit,
    check_links,
    validate_consistent_family,
)
from fibertop.spaces import bits, constant_map, discrete, identity_map, indiscrete
from conftest import spaces
from levels_reference import (
    interiors_cover_check,
    limit_extrapolation,
    partition_table,
    stepwise_function,
)


def _literal_failure(space, carrier, blocks):
    """(PrefixNotClosed, p) for the first p whose prefix union is not
    closed in the carrier, else (Condition2Violated, p) for the first p
    whose prefix meets the closure of the union of blocks p + 2 on, else
    None."""
    k = len(blocks)
    unions = [0] * (k + 1)
    for i, b in enumerate(blocks):
        unions[i + 1] = unions[i] | b
    for p in range(k):
        if space.rel_closure(carrier, unions[p + 1]) != unions[p + 1]:
            return PrefixNotClosed, p
    for p in range(k - 2):
        if unions[p + 1] & space.rel_closure(carrier, carrier & ~unions[p + 2]):
            return Condition2Violated, p
    return None


def _regular(space, carrier, blocks):
    """check_links on the table of the block masks; its error, if any."""
    check_links(space, carrier, partition_table(space.n, carrier, blocks))


def _reading(space, carrier, blocks):
    """check_links's verdict on the block masks in _literal_failure's shape."""
    try:
        _regular(space, carrier, blocks)
    except (PrefixNotClosed, Condition2Violated) as exc:
        return type(exc), exc.p
    return None


def all_ordered_partitions(space, k):
    """Every assignment of the points into k ordered (possibly empty) blocks."""
    for assign in product(range(k), repeat=space.n):
        blocks = [0] * k
        for x, b in enumerate(assign):
            blocks[b] |= 1 << x
        yield tuple(blocks)


class TestRegularPartition:
    def test_sierpinski_two_blocks(self, S):
        _regular(S, S.full, (0b10, 0b01))

    def test_chain_condition2_violation(self, C3):
        with pytest.raises(Condition2Violated) as err:
            _regular(C3, C3.full, (0b100, 0b010, 0b001))
        assert err.value.p == 0

    def test_discrete_singletons(self, D3):
        _regular(D3, D3.full, (0b001, 0b010, 0b100))

    def test_prefix_not_closed(self, S):
        with pytest.raises(PrefixNotClosed) as err:
            _regular(S, S.full, (0b01, 0b10))
        assert err.value.p == 0

    def test_disjoint_and_covering(self, D2):
        # block masks that are not a partition of the carrier have no table
        with pytest.raises(PartitionError, match="overlaps an earlier block"):
            partition_table(D2.n, D2.full, (0b11, 0b01))
        with pytest.raises(NotCovering):
            partition_table(D2.n, D2.full, (0b01, 0))

    def test_first_failure_is_the_literal_one(self):
        # every ordered partition, empty blocks included, of every carrier
        # of the canonical spaces up to 3 points into up to 5 blocks: the
        # error and its p are those of the definition, read with whole
        # prefix and suffix unions, both from the masks and from the table
        # the link scan reads
        for n in range(1, 4):
            for space in canonical_spaces(n):
                for carrier in range(space.full + 1):
                    points = list(bits(carrier))
                    for k in range(1, 6):
                        for assign in product(range(k), repeat=len(points)):
                            blocks = [0] * k
                            table = [None] * n
                            for x, b in zip(points, assign):
                                blocks[b] |= 1 << x
                                table[x] = b
                            want = _literal_failure(space, carrier, blocks)
                            assert _reading(space, carrier, blocks) == want, (
                                space.opens, carrier, blocks)
                            try:
                                check_links(space, carrier, table)
                                got = None
                            except (PrefixNotClosed, Condition2Violated) as exc:
                                got = (type(exc), exc.p)
                            assert got == want, (space.opens, carrier, table)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verdict_is_the_literal_one_on_random_tables(self, data):
        # random spaces up to 6 points, random carriers, open or not, and
        # random tables of up to 8 blocks, empty blocks included
        space = data.draw(spaces(max_points=6))
        carrier = data.draw(st.integers(0, space.full))
        k = data.draw(st.integers(1, 8))
        blocks = [0] * k
        for x in bits(carrier):
            blocks[data.draw(st.integers(0, k - 1))] |= 1 << x
        assert _reading(space, carrier, blocks) == _literal_failure(
            space, carrier, blocks)


class TestInteriorsCover:
    def test_discrete_three(self, D3):
        blocks = (0b001, 0b010, 0b100)
        _regular(D3, D3.full, blocks)
        assert interiors_cover_check(D3, D3.full, blocks)

    def test_k2_rejected(self, S):
        blocks = (0b10, 0b01)
        _regular(S, S.full, blocks)
        with pytest.raises(ValueError):
            interiors_cover_check(S, S.full, blocks)

    def test_exhaustive_small(self):
        # the covering statement holds for every valid regular partition
        found = 0
        for n in range(1, 4):
            for space in canonical_spaces(n):
                for k in (3, 4):
                    for blocks in all_ordered_partitions(space, k):
                        try:
                            _regular(space, space.full, blocks)
                        except PartitionError:
                            continue
                        found += 1
                        assert interiors_cover_check(space, space.full, blocks)
        assert found > 50


class TestConsistentFamily:
    def test_depth_zero(self, S):
        fam = ConsistentBinaryFamily(identity_map(S), 0, (Level(S.full, (0, 0)),))
        validate_consistent_family(fam)

    def test_depth_one_sierpinski(self, S):
        f = identity_map(S)
        fam = ConsistentBinaryFamily(f, 0, (
            Level(S.full, (0, 0)),
            Level(0b01, (1, None)),
        ))
        validate_consistent_family(fam)

    def test_role_swapped_blocks_still_structurally_valid(self, S):
        f = identity_map(S)
        fam = ConsistentBinaryFamily(f, 0, (
            Level(S.full, (0, 0)),
            Level(0b01, (0, None)),
        ))
        validate_consistent_family(fam)

    def test_nesting_violation(self, D2):
        f = identity_map(D2)
        fam = ConsistentBinaryFamily(f, 0, (
            Level(D2.full, (0, 0)),
            Level(0b01, (0, None)),
            Level(0b11, (0, 0)),
        ))
        with pytest.raises(NeighborhoodNotNested):
            validate_consistent_family(fam)

    def test_coherence_violation(self, D2):
        f = identity_map(D2)
        fam = ConsistentBinaryFamily(f, 0, (
            Level(D2.full, (0, 0)),
            Level(D2.full, (0, 1)),
            Level(D2.full, (3, 0)),
        ))
        with pytest.raises(CoherenceViolated):
            validate_consistent_family(fam)

    def test_coherence_names_the_first_block(self):
        # level 2 moves point 2 from block 1 of level 1 to block 0, and
        # point 1 from block 0 to block 2: both parents 0 and 1 break
        f = identity_map(discrete(3))
        fam = ConsistentBinaryFamily(f, 0, (
            Level(0b111, (0, 0, 0)),
            Level(0b111, (0, 0, 1)),
            Level(0b111, (0, 2, 0))))
        with pytest.raises(CoherenceViolated) as err:
            validate_consistent_family(fam)
        assert (err.value.level, err.value.k) == (2, 0)
        assert str(err.value) == "children of block 0 at level 2 do not recover it"

    @pytest.mark.parametrize("table, message", [
        ((0, 0, None), "level 1 partition not regular: blocks cover {0 1}, "
                       "carrier is {0 1 2}"),
        ((0, 1, 1), "level 1 partition not regular: prefix union through "
                    "block 0 is not closed"),
        ((0, 0, 2), "level 1 must have 2 blocks"),
        ((0, 0), "level 1 must have 2 blocks"),
    ])
    def test_table_faults(self, C3, table, message):
        # the chain 0 <- 1 <- 2, whose point 0 is open
        fam = ConsistentBinaryFamily(identity_map(C3), 0, (
            Level(C3.full, (0, 0, 0)), Level(C3.full, table)))
        with pytest.raises((PartitionError, LevelNotRegular)) as err:
            validate_consistent_family(fam)
        assert str(err.value) == message

    def test_table_off_its_carrier_names_its_block(self, S):
        # level 1 lives over the open point 0 of the Sierpinski space,
        # whose preimage under the identity is {0}
        fam = ConsistentBinaryFamily(identity_map(S), 0, (
            Level(S.full, (0, 0)), Level(0b01, (1, 1))))
        with pytest.raises(LevelNotRegular) as err:
            validate_consistent_family(fam)
        assert str(err.value) == ("level 1 partition not regular: "
                                  "block {0 1} leaves the carrier {0}")

    def test_irregular_level(self, C3):
        f = identity_map(C3)
        fam = ConsistentBinaryFamily(f, 0, (
            Level(C3.full, (0, 0, 0)),
            Level(C3.full, (0, 0, 1)),
        ))
        with pytest.raises(LevelNotRegular):
            validate_consistent_family(fam)


class TestStepwise:
    def build_d2_family(self, depth=3):
        f = constant_map(discrete(2))
        return build_binary_partitions(f, 0b01, 0b10, 0, depth)

    def test_level_one_is_indicator(self):
        fam = self.build_d2_family()
        phi = stepwise_function(fam, 1)
        assert phi.values == (Fraction(0), Fraction(1))

    def test_level_two_value_grid(self):
        fam = self.build_d2_family()
        phi = stepwise_function(fam, 2)
        denom_ok = all(v in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
                       for v in phi.values)
        assert denom_ok

    def test_all_levels_pin_f_and_t(self):
        fam = self.build_d2_family(4)
        for n in range(1, 5):
            phi = stepwise_function(fam, n)
            assert phi.values[0] == 0 and phi.values[1] == 1

    def test_level_zero_and_depth_errors(self):
        fam = self.build_d2_family()
        assert set(stepwise_function(fam, 0).values) == {Fraction(0)}
        with pytest.raises(DepthExceeded):
            stepwise_function(fam, 9)


class TestAssembleLimit:
    def test_d2_exact(self):
        f = constant_map(discrete(2))
        fam = build_binary_partitions(f, 0b01, 0b10, 0, 3)
        lim = assemble_limit(fam)
        assert lim.phi.values == (Fraction(0), Fraction(1))
        assert lim.error_bound == Fraction(1, 7)
        stab_depth, exact_phi = limit_extrapolation(fam)
        assert stab_depth is not None and exact_phi is not None
        assert exact_phi.values == (Fraction(0), Fraction(1))

    def test_depth_one_error_bound(self):
        f = constant_map(discrete(2))
        fam = build_binary_partitions(f, 0b01, 0b10, 0, 1)
        lim = assemble_limit(fam)
        assert lim.error_bound == 1

    def test_depth_five_osc_bound(self):
        f = constant_map(discrete(3))
        fam = build_binary_partitions(f, 0b001, 0b110, 0, 5)
        lim = assemble_limit(fam)
        region = fam.carrier(5)
        assert osc_on_set(lim.phi, region) <= Fraction(1, 31)

    def test_unvalidated_family_breaking_b_raises(self):
        # level 2 puts the two points of an indiscrete space in blocks 0
        # and 3: oscillation 1 against the bound 1/3 of hypothesis (b)
        f = constant_map(indiscrete(2))
        fam = ConsistentBinaryFamily(f, 0, (
            Level(1, (0, 0)), Level(1, (0, 1)),
            Level(1, (0, 3))))
        with pytest.raises(LevelNotRegular):
            validate_consistent_family(fam)
        with pytest.raises(CheckFailed, match="oscillation bound at level 2"):
            assemble_limit(fam)

    def test_unvalidated_family_breaking_increment_raises(self):
        # on a discrete space every step function has zero oscillation;
        # level 2 jumps from 0 and 1/1 to 2/3 and 3/3, which moves point 0
        # by 2/3 against the increment bound 1/3 into level 2
        f = constant_map(discrete(2))
        fam = ConsistentBinaryFamily(f, 0, (
            Level(1, (0, 0)), Level(1, (0, 1)),
            Level(1, (2, 3))))
        with pytest.raises(HypothesisFailed) as err:
            assemble_limit(fam)
        assert (err.value.which, err.value.level) == ("c", 1)
        # each step function on its own keeps its oscillation bound
        assert stepwise_function(fam, 2).values == (Fraction(2, 3), Fraction(1))

    def test_unvalidated_family_breaking_level_zero_increment_raises(self):
        # level 1 puts both points in block 2: the value 2 is more than
        # one away from the zero function of level 0
        f = constant_map(discrete(2))
        fam = ConsistentBinaryFamily(f, 0, (
            Level(1, (0, 0)), Level(1, (2, 2))))
        with pytest.raises(HypothesisFailed) as err:
            assemble_limit(fam)
        assert (err.value.which, err.value.level) == ("c", 0)

    def test_exact_limit_is_f_continuous_when_stabilized(self):
        # census of builder families: wherever stabilization is detected the
        # extrapolated limit has exactly zero oscillation at the base point
        checked = 0
        for n in range(1, 4):
            for space in canonical_spaces(n):
                f = constant_map(space)
                closed = sorted(space.full ^ o for o in space.opens)
                for a in closed:
                    for b in closed:
                        if a & b:
                            continue
                        try:
                            fam = build_binary_partitions(f, a, b, 0, 4)
                        except Exception:
                            continue
                        _, exact_phi = limit_extrapolation(fam)
                        if exact_phi is not None:
                            checked += 1
                            assert is_f_continuous_at(f, exact_phi, 0).holds
        assert checked > 20
