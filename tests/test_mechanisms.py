"""Noise primitives: exactness, distributions, and mechanism behavior."""

import hashlib
import itertools
import math
import struct
import types

import numpy as np
import pytest

from dpms import (
    CandidateSet,
    ConfigError,
    DataError,
    Dataset,
    ModelMask,
    PrivacyBudget,
    RngStream,
    ScoredCandidate,
    SelectionConfig,
    all_subsets,
    exponential_mechanism,
    noisy_argmin,
    pcls_select,
    pcpl_select,
    sample_laplace,
)
from dpms import mechanisms
from dpms.mechanisms import (
    _gumbel_from_u64_array,
    _gumbel_keys,
    _keyed_u64_block,
    _laplace_from_u64_array,
    _noisy_keys,
    _row_argmin,
    _uniform_rows,
)


def _family(cands):
    """The candidates' masks as a family, in list order."""
    return CandidateSet([c.mask.bits for c in cands], cands[0].mask.d)


def _cands(scores, scale, d=None):
    d = d or max(2, len(scores).bit_length())
    return [
        ScoredCandidate(ModelMask(i + 1, d), float(s), scale)
        for i, s in enumerate(scores)
    ]


class TestRngStream:
    def test_generator_replays(self):
        s = RngStream(123, 4)
        a = s.generator().normal(size=5)
        b = s.generator().normal(size=5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().normal(size=5)
        b = RngStream(123, 1).generator().normal(size=5)
        assert not np.array_equal(a, b)

    def test_bounds(self):
        RngStream(0, 0)
        RngStream(2**64 - 1, 2**64 - 1)
        RngStream(2**128 - 1, 0)
        with pytest.raises(ConfigError):
            RngStream(-1, 0)
        with pytest.raises(ConfigError):
            RngStream(0, 2**64)
        with pytest.raises(ConfigError):
            RngStream(2**128, 0)

    def test_integers_only(self):
        # A float or string key used to pass validation and then break
        # every draw with a bare TypeError or struct.error.
        for bad in ((1.5, 0), ("7", 0), (0, 2.0), (0, None)):
            with pytest.raises(ConfigError):
                RngStream(*bad)
        stream = RngStream(np.uint64(7), np.int64(3))
        assert type(stream.seed) is int and type(stream.stream_id) is int
        assert stream == RngStream(7, 3)


class TestPrivacyBudget:
    def test_accepts_positive_and_inf(self):
        assert PrivacyBudget(0.5).epsilon == 0.5
        assert math.isinf(PrivacyBudget(math.inf).epsilon)
        assert PrivacyBudget(1.0, 1e-6).delta == 1e-6

    def test_rejects_bad_values(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                PrivacyBudget(eps)
        for delta in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                PrivacyBudget(1.0, delta)

    def test_rejects_non_numbers(self):
        # "abc" and None used to raise a bare ValueError and TypeError.
        for eps in ("abc", None, "1.0"):
            with pytest.raises(ConfigError, match="epsilon must be a real number"):
                PrivacyBudget(eps)
        with pytest.raises(ConfigError, match="delta must be a real number"):
            PrivacyBudget(1.0, None)
        assert PrivacyBudget(np.float32(0.5), np.float64(0.0)).epsilon == 0.5


class TestLaplaceInverseMap:
    def test_frozen_extremes_and_center(self):
        # Integer-exact tails: the smallest and largest nonzero words map
        # to symmetric extreme quantiles, the midpoint to zero.
        k = np.array([1, 2**64 - 1, 2**63], dtype=np.uint64)
        assert _laplace_from_u64_array(k).tolist() == [
            math.log(2.0**-63), -math.log(2.0**-63), 0.0
        ]

    @staticmethod
    def _three_where_map(k):
        # The map as first written, kept as the reference: the lower half
        # read as k, the upper as its exact complement 2^64 - k, over 2^63.
        small = k < np.uint64(2**63)
        comp = np.bitwise_not(k) + np.uint64(1)
        arg = np.where(small, k, comp).astype(np.float64) / float(2**63)
        return np.where(small, 1.0, -1.0) * np.log(arg)

    def test_bits_and_signs_match_the_three_where_map(self):
        # == cannot tell -0.0 from 0.0: the midpoint maps to -0.0, and
        # 2^63 - 1 and 2^63 + 1 round to the midpoint's argument.
        edges = np.array([1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
        got = _laplace_from_u64_array(edges)
        assert np.signbit(got[2]) and got[2] == 0.0
        assert got.tobytes() == self._three_where_map(edges).tobytes()
        words = mechanisms._xof_words(3, range(1000), mechanisms._TAG_ARGMIN, 100)
        assert words.size == 10**5
        assert (_laplace_from_u64_array(words).tobytes()
                == self._three_where_map(words).tobytes())

    def test_antisymmetry(self):
        ks = np.random.default_rng(0).integers(1, 2**63, size=200)
        lower = _laplace_from_u64_array(ks.astype(np.uint64))
        upper = _laplace_from_u64_array(np.array([2**64 - int(k) for k in ks], dtype=np.uint64))
        assert np.array_equal(lower, -upper)

    def test_sample_scale_zero_is_exact_zero(self):
        assert sample_laplace(RngStream(1, 1), 0.0) == 0.0
        assert np.all(sample_laplace(RngStream(1, 1), 0.0, size=10) == 0.0)

    def test_stream_replay_and_divergence(self):
        a = sample_laplace(RngStream(9, 3), 1.0)
        b = sample_laplace(RngStream(9, 3), 1.0)
        c = sample_laplace(RngStream(9, 4), 1.0)
        assert a == b
        assert a != c

    def test_moments(self):
        draws = sample_laplace(RngStream(11, 0), 2.0, size=200_000)
        # Laplace(0, b): mean 0, variance 2 b^2 = 8.
        assert abs(np.mean(draws)) < 0.03
        assert np.var(draws) == pytest.approx(8.0, rel=0.03)

    def test_kolmogorov_smirnov(self):
        from scipy import stats

        draws = sample_laplace(RngStream(13, 0), 1.5, size=100_000)
        result = stats.kstest(draws, stats.laplace(scale=1.5).cdf)
        assert result.pvalue > 0.01

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            sample_laplace(RngStream(1, 0), -1.0)
        with pytest.raises(ConfigError):
            sample_laplace(RngStream(1, 0), math.inf)

    def test_takes_a_stream_only(self):
        with pytest.raises(ConfigError):
            sample_laplace(np.random.default_rng(0), 1.0)

    def test_size_is_a_nonnegative_integer(self):
        # size=-1 used to raise a bare numpy ValueError and size=2.5 to
        # return two draws.
        for bad in (-1, 2.5, "3", 2.0):
            with pytest.raises(ConfigError):
                sample_laplace(RngStream(1, 0), 1.0, size=bad)
        assert sample_laplace(RngStream(1, 0), 1.0, size=0).shape == (0,)
        assert sample_laplace(RngStream(1, 0), 1.0, size=np.int64(3)).shape == (3,)


class TestGumbelMap:
    def test_distribution(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        ks = rng.integers(1, 2**64, size=50_000, dtype=np.uint64)
        draws = _gumbel_from_u64_array(ks)
        result = stats.kstest(draws, stats.gumbel_r().cdf)
        assert result.pvalue > 0.01


def _reference_word(seed, stream_id, tag, rank):
    """Word ``rank`` of one keyed stream, read on its own as specified:
    SHAKE-256 of the 16-byte little-endian seed and the little-endian
    words (stream_id, tag), cut into little-endian 64-bit words."""
    message = seed.to_bytes(16, "little") + struct.pack("<QQ", stream_id, tag)
    digest = hashlib.shake_256(message).digest(8 * (rank + 1))
    return int.from_bytes(digest[8 * rank:], "little")


def _ranks(bits):
    """Each mask's position when the masks are sorted by size, then bits."""
    order = sorted(range(len(bits)), key=lambda j: (bin(bits[j]).count("1"), bits[j]))
    return [order.index(j) for j in range(len(bits))]


class TestKeyedDraws:
    SEEDS = [2**64 - 3, 2**100 + 2**64 + 17]
    STREAMS = [0, 1, 977, 2**63, 2**64 - 1]
    BITS = [2**64 - 1, 6, 0, 2**40 + 5, 1, 12]

    def _block(self, seed, streams, tag, bits):
        return _keyed_u64_block(seed, streams, tag, CandidateSet(bits, 64))

    def test_block_matches_per_entry_reference(self):
        ranks = _ranks(self.BITS)
        for seed in self.SEEDS:
            for tag in (1, 2, 3, 4):
                block = self._block(seed, self.STREAMS, tag, self.BITS)
                expected = [
                    [_reference_word(seed, s, tag, r) for r in ranks] for s in self.STREAMS
                ]
                assert block.dtype == np.uint64
                assert block.tolist() == expected

    def test_single_draws_read_the_first_words(self):
        for seed in self.SEEDS:
            stream = RngStream(seed, 977)
            words = np.array(
                [_reference_word(seed, 977, mechanisms._TAG_LAPLACE, r) for r in range(5)],
                dtype=np.uint64,
            )
            expected = 3.0 * _laplace_from_u64_array(words)
            assert np.array_equal(sample_laplace(stream, 3.0, size=5), expected)
            assert sample_laplace(stream, 3.0) == expected[0]
            u = _reference_word(seed, 977, mechanisms._TAG_FALLBACK, 0) / 2**64
            # 1000 masks in canonical order: each column is its rank.
            family = CandidateSet(all_subsets(10).bits[:1000], 10)
            assert _uniform_rows(seed, [977], family).tolist() == [int(u * 1000)]

    def test_zero_word_takes_the_next_nonzero_spare(self, monkeypatch):
        # Six masks: rank 1 reads a zero word, so it takes the first
        # nonzero word past the first six (word 6, or word 7 when word 6
        # is zero too).  The other stream of the block is untouched.
        seed, streams, tag = 2**70 + 4, [9, 10], 1
        target = seed.to_bytes(16, "little") + struct.pack("<QQ", streams[0], tag)
        real = hashlib.shake_256
        ranks = _ranks(self.BITS)
        for zeroed in ((1,), (1, 6)):

            class ZeroWords:
                """SHAKE-256 stand-in that zeroes some words of one stream."""

                def __init__(self, data):
                    self.data = bytes(data)

                def digest(self, length):
                    out = bytearray(real(self.data).digest(length))
                    if self.data == target:
                        for w in zeroed:
                            if 8 * w < length:
                                out[8 * w:8 * w + 8] = bytes(8)
                    return bytes(out)

            monkeypatch.setattr(mechanisms, "hashlib", types.SimpleNamespace(shake_256=ZeroWords))
            block = self._block(seed, streams, tag, self.BITS)
            monkeypatch.undo()
            spare = _reference_word(seed, streams[0], tag, 5 + len(zeroed))
            for j, r in enumerate(ranks):
                want = spare if r == 1 else _reference_word(seed, streams[0], tag, r)
                assert int(block[0, j]) == want
                assert int(block[1, j]) == _reference_word(seed, streams[1], tag, r)

    def test_shuffled_family_reorders_its_draws(self):
        family = all_subsets(5)
        perm = np.random.default_rng(3).permutation(len(family))
        for tag in (1, 2):
            block = _keyed_u64_block(7, [0, 5], tag, family)
            shuffled = _keyed_u64_block(7, [0, 5], tag, CandidateSet(family.bits[perm], 5))
            assert np.array_equal(shuffled, block[:, perm])

    def test_wide_seed_draws_differently_from_its_low_half(self):
        low, wide = RngStream(5, 3), RngStream(2**64 + 5, 3)
        assert sample_laplace(low, 1.0) != sample_laplace(wide, 1.0)
        blocks = [self._block(s.seed, [s.stream_id], 1, self.BITS) for s in (low, wide)]
        assert not np.any(blocks[0] == blocks[1])

    def test_selectors_never_use_the_generator(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("selection drew from RngStream.generator")

        monkeypatch.setattr(RngStream, "generator", forbidden)
        gen = np.random.default_rng(0)
        x = gen.uniform(-1.0, 1.0, (400, 3))
        y = np.clip(x @ np.array([0.8, -0.6, 0.0]) + 0.3 * gen.normal(size=400), -2, 2)
        ds = Dataset.from_arrays(x, y, response_bound=2.0)
        family = all_subsets(3)
        fallbacks = set()
        for mechanism in ("noisy_argmin", "exponential"):
            cfg = SelectionConfig(radius=1.0, penalty=1.0, budget=PrivacyBudget(1.0),
                                  mechanism=mechanism)
            pcls_select(ds, family, cfg, RngStream(1, 2))
            for radius, delta in ((1.0, 1e-3), (3.0, 1e-6)):
                cfg = SelectionConfig(radius=radius, penalty=1.0, mechanism=mechanism,
                                      budget=PrivacyBudget(20.0, delta))
                fallbacks.add(pcpl_select(ds, family, cfg, RngStream(1, 2)).fallback_uniform)
        assert fallbacks == {False, True}

    def test_row_tie_rule_ignores_column_order(self):
        bits = np.array([0b0111, 0b1000, 0b0001, 0b0011, 0b0100], dtype=np.uint64)
        keys = np.array([
            [1.0, 1.0, 1.0, 1.0, 2.0],  # three sizes tie: size 1, bits 1 wins
            [0.5, 3.0, 3.0, 0.5, 3.0],  # sizes 3 and 2 tie: bits 3 wins
            [2.0, 0.0, 1.0, 1.0, 0.0],  # size-1 masks 8 and 4 tie: bits 4 wins
        ])
        expected = [0b0001, 0b0011, 0b0100]
        for perm in itertools.permutations(range(len(bits))):
            perm = list(perm)
            winners = _row_argmin(keys[:, perm], CandidateSet(bits[perm], 4))
            assert bits[perm][winners].tolist() == expected

    def test_list_mechanisms_equal_their_block_row(self):
        cands = _cands([3.0, 1.0, 4.0, 1.5, 0.2], 2.0, d=4)
        family = _family(cands)
        scores = np.array([[c.score for c in cands]])
        streams = [11, 12, 13]
        noisy_rows = _noisy_keys(2.0, family, 77, streams)(scores, scores)
        key_rows = _gumbel_keys(0.7, 1.5, family, 77, streams)(scores, scores)
        winners, key_winners = _row_argmin(noisy_rows, family), _row_argmin(key_rows, family)
        for row, stream in enumerate(streams):
            mask, noisy = noisy_argmin(cands, PrivacyBudget(1.0), RngStream(77, stream))
            assert mask == cands[winners[row]].mask
            assert np.array_equal(noisy, noisy_rows[row])
            mask, keys = exponential_mechanism(cands, 1.5, PrivacyBudget(0.7), RngStream(77, stream))
            assert mask == cands[key_winners[row]].mask
            assert np.array_equal(keys, key_rows[row])


class TestNoisyArgmin:
    def test_exact_when_noiseless(self):
        cands = _cands([5.0, 2.0, 9.0], 0.0)
        mask, noisy = noisy_argmin(cands, PrivacyBudget(math.inf), RngStream(1, 0))
        assert mask == cands[1].mask
        assert noisy.tolist() == [5.0, 2.0, 9.0]

    def test_tie_prefers_smaller_model_then_bits(self):
        d = 4
        big = ScoredCandidate(ModelMask(0b0111, d), 1.0, 0.0)
        small_hi = ScoredCandidate(ModelMask(0b1000, d), 1.0, 0.0)
        small_lo = ScoredCandidate(ModelMask(0b0001, d), 1.0, 0.0)
        mask, _ = noisy_argmin([big, small_hi, small_lo], PrivacyBudget(math.inf), RngStream(1, 0))
        assert mask == small_lo.mask
        mask, _ = noisy_argmin([big, small_hi], PrivacyBudget(math.inf), RngStream(1, 0))
        assert mask == small_hi.mask

    def test_permutation_equivariance_is_exact(self):
        cands = _cands([3.0, 1.0, 4.0, 1.5], 2.0)
        stream = RngStream(77, 3)
        mask_a, noisy_a = noisy_argmin(cands, PrivacyBudget(1.0), stream)
        perm = [cands[2], cands[0], cands[3], cands[1]]
        mask_b, noisy_b = noisy_argmin(perm, PrivacyBudget(1.0), stream)
        assert mask_a == mask_b
        # same mask, same stream -> byte-identical noisy score
        by_mask_a = {c.mask.bits: s for c, s in zip(cands, noisy_a)}
        by_mask_b = {c.mask.bits: s for c, s in zip(perm, noisy_b)}
        assert by_mask_a == by_mask_b

    def test_two_candidate_flip_rate_matches_quadrature(self):
        # Oracle: P(noisier loser wins) computed by numeric integration of
        # P(Z2 - Z1 < -margin) for independent Laplace(b) noise, checked
        # against the empirical frequency of the mechanism itself.
        from scipy import integrate, stats

        margin, b = 3.0, 2.0
        flip_oracle, err = integrate.quad(
            lambda z: stats.laplace.pdf(z, scale=b) * stats.laplace.cdf(z - margin, scale=b),
            -60.0, 60.0,
        )
        assert err < 1e-9
        closed_form = (2.0 + margin / b) * math.exp(-margin / b) / 4.0
        assert flip_oracle == pytest.approx(closed_form, abs=1e-9)

        trials = 120_000
        family = _family(_cands([0.0, margin], b))
        # All trials in one block: row i is noisy_argmin on these two
        # candidates at scale b under RngStream(1000, i).
        noisy = _noisy_keys(b, family, 1000, range(trials))(np.array([[0.0, margin]]), None)
        winners = _row_argmin(noisy, family)
        rate = np.count_nonzero(winners == 1) / trials
        sigma = math.sqrt(flip_oracle * (1 - flip_oracle) / trials)
        assert abs(rate - flip_oracle) < 4 * sigma

    def test_rejects_duplicates_and_mixed_d(self):
        d = 3
        a = ScoredCandidate(ModelMask(1, d), 0.0, 1.0)
        with pytest.raises(DataError):
            noisy_argmin([a, a], PrivacyBudget(1.0), RngStream(0, 0))
        b = ScoredCandidate(ModelMask(1, 4), 0.0, 1.0)
        with pytest.raises(DataError):
            noisy_argmin([a, b], PrivacyBudget(1.0), RngStream(0, 0))

    def test_rejects_nonzero_delta(self):
        with pytest.raises(ConfigError):
            noisy_argmin(_cands([0.0, 1.0], 1.0), PrivacyBudget(1.0, 0.5), RngStream(0, 0))

    def test_rejects_an_empty_candidate_list(self):
        with pytest.raises(DataError, match="need at least one candidate"):
            noisy_argmin([], PrivacyBudget(1.0), RngStream(0, 0))

    @pytest.mark.parametrize("score, scale, message", [
        (math.nan, 1.0, "candidate score must be finite"),
        (math.inf, 1.0, "candidate score must be finite"),
        (-math.inf, 0.0, "candidate score must be finite"),
        (0.0, -1.0, "noise_scale must be finite and >= 0"),
        (0.0, math.inf, "noise_scale must be finite and >= 0"),
        (0.0, math.nan, "noise_scale must be finite and >= 0"),
    ])
    def test_a_candidate_needs_a_finite_score_and_scale(self, score, scale, message):
        with pytest.raises(DataError, match=message):
            ScoredCandidate(ModelMask(1, 2), score, scale)


class TestExponentialMechanism:
    def test_rejects_nonzero_delta(self):
        with pytest.raises(ConfigError, match="pure-epsilon"):
            exponential_mechanism(_cands([0.0, 1.0], 0.0), 1.0, PrivacyBudget(1.0, 0.5),
                                  RngStream(0, 0))

    def test_infinite_epsilon_is_argmin(self):
        cands = _cands([5.0, 2.0, 9.0], 0.0)
        mask, _ = exponential_mechanism(cands, 1.0, PrivacyBudget(math.inf), RngStream(1, 0))
        assert mask == cands[1].mask

    def test_softmax_frequencies_chi_square(self):
        from scipy import stats

        scores = [0.0, 1.0, 3.0]
        sens, eps = 1.0, 2.0
        weights = np.exp([-eps * s / (2 * sens) for s in scores])
        probs = weights / weights.sum()
        trials = 30_000
        family = _family(_cands(scores, 0.0))
        # Row i is exponential_mechanism(..., RngStream(2000, i)).
        keys = _gumbel_keys(eps, sens, family, 2000, range(trials))
        winners = _row_argmin(keys(np.array([scores]), np.array([scores])), family)
        counts = np.bincount(winners, minlength=3)
        result = stats.chisquare(counts, probs * trials)
        assert result.pvalue > 0.01

    def test_translation_invariance_is_exact(self):
        stream = RngStream(31, 9)
        base = _cands([2.0, 5.0, 3.5], 0.0)
        shifted = [
            ScoredCandidate(c.mask, c.score + 1000.0, c.noise_scale) for c in base
        ]
        m1, k1 = exponential_mechanism(base, 2.0, PrivacyBudget(1.0), stream)
        m2, k2 = exponential_mechanism(shifted, 2.0, PrivacyBudget(1.0), stream)
        assert m1 == m2
        assert np.array_equal(k1, k2)

    def test_permutation_equivariance(self):
        stream = RngStream(55, 1)
        cands = _cands([1.0, 0.5, 2.0, 0.8], 0.0)
        m1, _ = exponential_mechanism(cands, 1.0, PrivacyBudget(0.7), stream)
        m2, _ = exponential_mechanism(list(reversed(cands)), 1.0, PrivacyBudget(0.7), stream)
        assert m1 == m2

    def test_distinct_noise_domains(self):
        # The additive mechanism and the softmax mechanism must not reuse
        # the same underlying draws for the same mask and stream.
        stream = RngStream(8, 8)
        cands = _cands([0.0, 0.0, 0.0], 1.0)
        _, noisy = noisy_argmin(cands, PrivacyBudget(1.0), stream)
        _, keys = exponential_mechanism(cands, 1.0, PrivacyBudget(1.0), stream)
        assert not np.array_equal(noisy, keys)

    def test_rejects_bad_sensitivity(self):
        cands = _cands([0.0, 1.0], 0.0)
        for sens in (0.0, -1.0, math.inf):
            with pytest.raises(ConfigError):
                exponential_mechanism(cands, sens, PrivacyBudget(1.0), RngStream(0, 0))


class TestUniformIndex:
    def test_deterministic_and_in_range(self):
        # all_subsets(3) holds 7 masks in canonical order: columns are ranks.
        v1 = _uniform_rows(3, [3], all_subsets(3))
        v2 = _uniform_rows(3, [3], all_subsets(3))
        assert v1.tolist() == v2.tolist()
        assert 0 <= v1[0] < 7

    def test_roughly_uniform(self):
        from scipy import stats

        n, trials = 7, 21_000
        counts = np.bincount(_uniform_rows(4, range(trials), all_subsets(3)), minlength=n)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

