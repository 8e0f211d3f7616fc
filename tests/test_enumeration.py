"""Candidate family enumeration: counts, order, explicit lists."""

import itertools
import tracemalloc

import numpy as np
import pytest

from dpms import enumeration
from dpms import CandidateSet, ConfigError, DataError, ModelMask, all_subsets, from_explicit


class TestAllSubsets:
    def test_counts(self):
        assert len(all_subsets(6)) == 63
        assert len(all_subsets(13)) == 8191
        assert len(all_subsets(4, include_empty=True)) == 16
        assert len(all_subsets(5, max_size=2)) == 5 + 10

    def test_frozen_order_d3(self):
        # cardinality first, numeric bit value second
        got = [m.bits for m in all_subsets(3)]
        assert got == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]

    def test_bit_value_breaks_ties_within_a_size(self):
        # {1,4} has bits 9, {2,3} has bits 6: index order alone would put
        # {1,4} first, numeric order puts {2,3} first.
        masks = [m for m in all_subsets(4) if m.size == 2]
        assert [m.bits for m in masks[:2]] == [0b0011, 0b0101]
        assert ModelMask.from_indices([2, 3], 4).bits < ModelMask.from_indices([1, 4], 4).bits

    def test_include_empty_goes_first(self):
        masks = list(all_subsets(3, include_empty=True))
        assert masks[0] == ModelMask.empty(3)
        assert len(masks) == 8

    def test_max_size_zero_needs_empty(self):
        assert len(all_subsets(3, include_empty=True, max_size=0)) == 1
        with pytest.raises(ConfigError):
            all_subsets(3, max_size=0)

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            all_subsets(0)
        with pytest.raises(ConfigError):
            all_subsets(25)
        with pytest.raises(ConfigError):
            all_subsets(4, max_size=5)

    def test_integer_arguments(self):
        # max_size=2.5 used to keep the 10 models of size <= 2 at d=4, and
        # a float d raised a bare TypeError.
        with pytest.raises(ConfigError, match="max_size must be an integer"):
            all_subsets(4, max_size=2.5)
        with pytest.raises(ConfigError, match="d must be an integer"):
            all_subsets(3.0)
        assert len(all_subsets(np.int64(4), max_size=np.int64(2))) == 10

    def test_no_duplicates_and_consistent_d(self):
        fam = all_subsets(7)
        assert len({m.bits for m in fam}) == len(fam)
        assert all(m.d == 7 for m in fam)

    def test_builds_no_mask_objects(self, monkeypatch):
        # The family is two arrays; masks are made only when a caller
        # indexes or iterates it.
        monkeypatch.setattr(enumeration, "ModelMask", None)
        fam = all_subsets(12)
        assert len(fam) == 4095 and fam.bits[:3].tolist() == [1, 2, 4]


class TestFromExplicit:
    def test_keeps_caller_order(self):
        fam = from_explicit([[3], [1, 2], [2]], 4)
        assert [m.indices() for m in fam] == [(3,), (1, 2), (2,)]

    def test_collapses_duplicates_keeping_first(self):
        fam = from_explicit([[1], [2], [1]], 3)
        assert len(fam) == 2
        assert [m.indices() for m in fam] == [(1,), (2,)]
        # index order inside a subset does not matter for identity
        fam2 = from_explicit([[1, 3], [3, 1]], 3)
        assert len(fam2) == 1

    def test_range_checked(self):
        with pytest.raises(DataError):
            from_explicit([[5]], 4)
        with pytest.raises(DataError):
            from_explicit([], 4)


class TestCandidateSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match=r"duplicate mask \(1,\)"):
            CandidateSet([0b010, 0b001, 0b001], 3)

    def test_rejects_mixed_dimensions(self):
        # A mask of d=4 has bits no mask of d=3 can have.
        with pytest.raises(DataError):
            CandidateSet([ModelMask.full(3).bits, ModelMask.full(4).bits], 3)
        with pytest.raises(DataError):
            CandidateSet([1], 65)

    def test_rejects_fractional_and_negative_bits(self):
        # Fractional bits used to be truncated and negative ones raised a
        # bare OverflowError.
        for bits in ([1.5, 2], np.array([1.0, 2.0]), [-1], np.array([-1, 2]), [-1, 2**63]):
            with pytest.raises(DataError):
                CandidateSet(bits, 3)
        assert CandidateSet([1, 2**64 - 1], 64).bits.tolist() == [1, 2**64 - 1]

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CandidateSet([], 3)

    def test_arrays_are_read_only_and_masks_built_on_demand(self):
        fam = from_explicit([[2, 3], [1]], 3)
        assert fam.bits.dtype == np.uint64 and fam.bits.tolist() == [0b110, 0b001]
        assert fam.sizes.tolist() == [2, 1]
        assert not fam.bits.flags.writeable and not fam.sizes.flags.writeable
        assert fam[0] == ModelMask.from_indices([2, 3], 3)
        assert list(fam) == [fam[0], fam[1]]

    def test_canonical_order_is_known_once(self):
        # By size, then by bit value: None for a family in that order.
        for fam in (all_subsets(6), all_subsets(6, include_empty=True, max_size=2),
                    from_explicit([[1], [3], [1, 2]], 3), CandidateSet([5], 3)):
            assert fam.canonical_order is None
        fam = from_explicit([[2, 3], [1], [3], [1, 2]], 3)
        order = fam.canonical_order
        assert order.tolist() == [1, 2, 3, 0] and not order.flags.writeable
        assert fam.canonical_order is order
        assert from_explicit([[2], [1]], 3).canonical_order.tolist() == [1, 0]
        perm = np.random.default_rng(4).permutation(63)
        shuffled = CandidateSet(all_subsets(6).bits[perm], 6)
        assert np.array_equal(perm[shuffled.canonical_order], np.arange(63))


class TestLevelByLevel:
    @staticmethod
    def _scan(d, include_empty, cap):
        # Reference: every one of the 2^d patterns, sorted by (size, value).
        values = np.arange(1 << d, dtype=np.uint64)
        sizes = np.bitwise_count(values)
        keep = (sizes >= (0 if include_empty else 1)) & (sizes <= cap)
        return values[keep][np.lexsort((values[keep], sizes[keep]))]

    @pytest.mark.parametrize(
        "d, cap, include_empty",
        [(20, 3, False), (12, 12, False), (16, 4, False), (18, 2, False), (5, 5, True),
         (1, 1, False), (6, 0, True), (10, 3, True)],
    )
    def test_order_matches_a_scan_of_every_pattern(self, d, cap, include_empty):
        family = all_subsets(d, include_empty=include_empty, max_size=cap)
        assert np.array_equal(family.bits, self._scan(d, include_empty, cap))

    def test_small_family_of_a_wide_lattice_allocates_only_itself(self):
        # 300 masks out of 2^24 patterns: a scan would allocate 2^24 words.
        tracemalloc.start()
        try:
            family = all_subsets(24, max_size=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        pairs = sorted((1 << i) | (1 << j) for i, j in itertools.combinations(range(24), 2))
        assert family.bits.tolist() == [1 << i for i in range(24)] + pairs
