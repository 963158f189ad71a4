"""Sketch kernel unit tests: accuracy vs exact oracles at small n, merge
laws (associativity/commutativity — identical bytes where the algorithm is
bit-deterministic, estimate-level otherwise), and serde round-trips.

Mirrors the reference's statistical-assertion strategy
(``SamplingSketchExperiment.java:869-907``, ``BloomFilter.getFpRate``)
— see SURVEY.md §5.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.state import (
    HOPS, KLL, BloomFilter, BottomK, CountMinSketch, CountSketch,
    HyperLogLog, TDigest, TopM, hamming64, lsh_bands, minhash_signatures,
    simhash64, sketch_from_bytes)

SEED = 777


def zipf_keys(rng, n, sigma, s=1.3):
    ranks = np.arange(1, sigma + 1, dtype=np.float64)
    p = ranks ** -s
    p /= p.sum()
    return rng.choice(sigma, size=n, p=p).astype(np.uint64)


def chunks(arr, k, rng):
    idx = rng.permutation(len(arr))
    return [arr[i] for i in np.array_split(idx, k)]


# ---------------------------------------------------------------- bloom ----
class TestBloom:
    def test_no_false_negatives_and_fpr(self, rng):
        keys = rng.integers(0, 2**62, size=5000, dtype=np.uint64)
        bf = BloomFilter(n=5000, p=0.01, seed=SEED)
        bf.update(keys)
        assert bf.contains(keys).all()
        absent = rng.integers(2**62, 2**63, size=20000, dtype=np.uint64)
        fpr = bf.contains(absent).mean()
        # binomial 3-sigma slack around configured p
        assert fpr <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / 20000) + 0.005
        assert abs(bf.estimate_distinct() - 5000) / 5000 < 0.1

    def test_merge_is_bitwise_or_and_order_free(self, rng):
        keys = rng.integers(0, 2**62, size=3000, dtype=np.uint64)
        full = BloomFilter(3000, 0.01, SEED)
        full.update(keys)
        parts = chunks(keys, 5, rng)
        for order in (range(5), reversed(range(5))):
            acc = BloomFilter(3000, 0.01, SEED)
            for i in order:
                b = BloomFilter(3000, 0.01, SEED)
                b.update(parts[i])
                acc.merge(b)
            assert np.array_equal(acc.words, full.words)

    def test_merge_param_mismatch_raises(self):
        a = BloomFilter(100, 0.01, SEED)
        b = BloomFilter(100, 0.01, SEED + 1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_serde(self, rng):
        keys = rng.integers(0, 2**62, size=500, dtype=np.uint64)
        bf = BloomFilter(500, 0.05, SEED)
        bf.update(keys)
        bf2 = sketch_from_bytes(bf.to_bytes())
        assert np.array_equal(bf.words, bf2.words)
        assert bf2.contains(keys).all()

    def test_fold_keeps_every_key(self, rng):
        keys = rng.integers(0, 2**62, size=2000, dtype=np.uint64)
        bf = BloomFilter(50_000, 0.01, SEED)
        bf.update(keys)
        folded = bf
        while folded.m > 64:
            folded = folded.fold()
            assert len(folded.words) == folded.m // 64
            assert folded.contains(keys).all()
        with pytest.raises(ValueError):
            folded.fold()
        filled = bf.fold_to_fill()
        assert filled.m < bf.m
        assert sketch_from_bytes(filled.to_bytes()).contains(keys).all()

    @pytest.mark.parametrize("n_keys", [0, 10, 800, 5000, 20_000])
    def test_fold_to_fill_is_the_smallest_m_within_p(self, rng, n_keys):
        """Folding to the fill lands at or below p whenever it folds, and
        one more fold would pass p; a filter already above p (more keys
        than its sizing) is left as it is."""
        keys = rng.integers(0, 2**62, size=n_keys, dtype=np.uint64)
        bf = BloomFilter(5000, 0.01, SEED)
        bf.update(keys)
        filled = bf.fold_to_fill()
        if filled.m < bf.m:
            assert filled.fp_rate() <= bf.p
        else:
            assert filled is bf
        if filled.m > 64:
            assert filled.fold().fp_rate() > bf.p
        assert filled.contains(keys).all()
        if n_keys <= 800:
            assert filled.m < bf.m
        if n_keys == 20_000:
            assert filled.m == bf.m

    def test_folded_filters_merge_only_at_one_m(self):
        bf = BloomFilter(500, 0.01, SEED)
        with pytest.raises(ValueError):
            BloomFilter(500, 0.01, SEED).merge(bf.fold())
        assert bf.fold().merge(bf.fold()).m == bf.m // 2


# ------------------------------------------------------------------ cms ----
class TestCountMin:
    def test_point_estimates_within_eps_n(self, rng):
        keys = zipf_keys(rng, 50_000, 2000)
        cms = CountMinSketch.from_eps_delta(0.005, 0.01, SEED)
        cms.update(keys)
        uk, true = np.unique(keys, return_counts=True)
        est = cms.estimate(uk)
        assert (est >= true).all()  # one-sided
        assert (est - true <= 0.005 * len(keys)).mean() > 0.99

    def test_countsketch_unbiasedish(self, rng):
        keys = zipf_keys(rng, 50_000, 2000)
        cs = CountSketch.from_eps_delta(0.005, 0.01, SEED)
        cs.update(keys)
        uk, true = np.unique(keys, return_counts=True)
        est = cs.estimate(uk)
        assert (np.abs(est - true) <= 0.01 * len(keys)).mean() > 0.98

    def test_merge_identical_bytes(self, rng):
        keys = zipf_keys(rng, 20_000, 500)
        full = CountMinSketch.from_eps_delta(0.01, 0.05, SEED)
        full.update(keys)
        parts = chunks(keys, 4, rng)
        acc = CountMinSketch.from_eps_delta(0.01, 0.05, SEED)
        for part in reversed(parts):
            p = CountMinSketch.from_eps_delta(0.01, 0.05, SEED)
            p.update(part)
            acc.merge(p)
        assert np.array_equal(acc.table, full.table)
        assert acc.total == full.total
        assert acc.to_bytes() == full.to_bytes()

    def test_weighted_update(self):
        cms = CountMinSketch(1 << 12, 4, SEED)
        cms.update(np.array([7, 7, 9], dtype=np.uint64),
                   np.array([5, 3, 2]))
        est = cms.estimate(np.array([7, 9], dtype=np.uint64))
        assert est[0] >= 8 and est[1] >= 2

    def test_serde(self, rng):
        cms = CountMinSketch.from_eps_delta(0.01, 0.05, SEED)
        cms.update(zipf_keys(rng, 1000, 100))
        c2 = sketch_from_bytes(cms.to_bytes())
        assert np.array_equal(cms.table, c2.table) and cms.total == c2.total

    def test_default_config_table_is_small(self):
        """Every (source, window) partial carries one CMS table, built
        from the config: the default must stay small (0.001/0.01 made it
        4M x 5 int64 cells, 160 MiB per partial)."""
        from hierarchical_bloom_filter_index_ray import HbiConfig
        from hierarchical_bloom_filter_index_ray.stages.sketch_build import \
            PartialSketchBuilder
        cms = PartialSketchBuilder(HbiConfig())._new_sketches()["cms"]
        assert cms.table.nbytes <= 1 << 20


# ------------------------------------------------------------------ hll ----
class TestHLL:
    @pytest.mark.parametrize("true_n", [500, 20_000, 300_000])
    def test_estimate_within_bound(self, rng, true_n):
        keys = rng.permutation(np.arange(true_n, dtype=np.uint64))
        h = HyperLogLog(p=14, seed=SEED)
        # duplicate stream: each key appears 1-3 times
        h.update(np.concatenate([keys, keys[: true_n // 2]]))
        err = abs(h.estimate() - true_n) / true_n
        assert err < 4 * h.rel_error  # 4 sigma

    def test_merge_max_and_order_free(self, rng):
        keys = rng.integers(0, 2**62, size=30_000, dtype=np.uint64)
        full = HyperLogLog(12, SEED)
        full.update(keys)
        parts = chunks(keys, 6, rng)
        acc = HyperLogLog(12, SEED)
        for part in reversed(parts):
            p = HyperLogLog(12, SEED)
            p.update(part)
            acc.merge(p)
        assert np.array_equal(acc.registers, full.registers)

    def test_serde(self, rng):
        h = HyperLogLog(12, SEED)
        h.update(rng.integers(0, 2**62, size=1000, dtype=np.uint64))
        h2 = sketch_from_bytes(h.to_bytes())
        assert np.array_equal(h.registers, h2.registers)


# ------------------------------------------------------------------ kll ----
class TestKLL:
    def test_rank_error(self, rng):
        vals = rng.lognormal(4.0, 1.0, size=100_000)
        k = KLL(200, SEED)
        k.update(vals)
        s = np.sort(vals)
        for q in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            est = k.quantile(q)
            # rank of estimate within eps of q; KLL eps ~ O(1/k)
            r = np.searchsorted(s, est) / len(s)
            assert abs(r - q) < 0.025

    def test_merge_estimate_level(self, rng):
        vals = rng.normal(0, 1, size=50_000)
        parts = chunks(vals, 8, rng)
        acc = KLL(200, SEED)
        for part in parts:
            p = KLL(200, SEED)
            p.update(part)
            acc.merge(p)
        s = np.sort(vals)
        for q in (0.1, 0.5, 0.9):
            r = np.searchsorted(s, acc.quantile(q)) / len(s)
            assert abs(r - q) < 0.03
        assert acc.n == len(vals)

    def test_serde(self, rng):
        k = KLL(100, SEED)
        k.update(rng.normal(size=5000))
        k2 = sketch_from_bytes(k.to_bytes())
        assert k.n == k2.n
        assert all(np.array_equal(a, b)
                   for a, b in zip(k.compactors, k2.compactors))
        assert k.quantile(0.5) == k2.quantile(0.5)


# -------------------------------------------------------------- tdigest ----
class TestTDigest:
    def test_quantile_accuracy(self, rng):
        vals = rng.lognormal(4.0, 1.0, size=100_000)
        t = TDigest(200.0)
        t.update(vals)
        s = np.sort(vals)
        for q in (0.01, 0.05, 0.5, 0.95, 0.99):
            r = np.searchsorted(s, t.quantile(q)) / len(s)
            assert abs(r - q) < 0.02, q

    def test_merge(self, rng):
        vals = rng.normal(size=60_000)
        parts = chunks(vals, 6, rng)
        acc = TDigest(200.0)
        for part in parts:
            p = TDigest(200.0)
            p.update(part)
            acc.merge(p)
        assert abs(acc.n - len(vals)) < 1e-6
        s = np.sort(vals)
        for q in (0.1, 0.5, 0.9):
            r = np.searchsorted(s, acc.quantile(q)) / len(s)
            assert abs(r - q) < 0.03

    def test_serde(self, rng):
        t = TDigest(100.0)
        t.update(rng.normal(size=3000))
        t2 = sketch_from_bytes(t.to_bytes())
        assert np.array_equal(t.means, t2.means)
        assert t.quantile(0.9) == t2.quantile(0.9)


# ----------------------------------------------------------------- hops ----
class TestHOPS:
    def test_merge_bit_deterministic_any_order(self, rng):
        keys = zipf_keys(rng, 40_000, 5000)
        full = HOPS(512, SEED)
        full.update(keys)
        parts = chunks(keys, 7, rng)
        for perm in (range(7), reversed(range(7))):
            acc = HOPS(512, SEED)
            for i in perm:
                p = HOPS(512, SEED)
                p.update(parts[i])
                acc.merge(p)
            assert np.array_equal(acc.prios, full.prios)
            assert np.array_equal(acc.keys, full.keys)
            assert acc.to_bytes() == full.to_bytes()

    def test_quantile_of_freq_within_dkw(self, rng):
        keys = zipf_keys(rng, 200_000, 2000, s=1.2)
        h = HOPS(2048, SEED)
        h.update(keys)
        uk, counts = np.unique(keys, return_counts=True)
        lookup_map = dict(zip(uk.tolist(), counts.tolist()))

        def lookup(ks):
            return np.array([lookup_map[int(x)] for x in ks])

        sorted_counts = np.sort(counts)
        n_samp = int(h.occupied.sum())
        eps = math.sqrt(math.log(2 / 0.05) / (2 * n_samp))  # DKW, delta=.05
        for q in (0.25, 0.5, 0.9):
            est = h.quantile_of_freq(q, lookup)
            lo = sorted_counts[max(0, math.ceil((q - eps) * len(counts)) - 1)]
            hi = sorted_counts[min(len(counts) - 1,
                                   math.ceil((q + eps) * len(counts)) - 1)]
            assert lo <= est <= hi, (q, est, lo, hi)


# -------------------------------------------------------------- bottomk ----
class TestBottomK:
    def test_kmv_distinct(self, rng):
        true_n = 50_000
        keys = np.arange(true_n, dtype=np.uint64)
        bk = BottomK(1024, SEED)
        bk.update(rng.permutation(np.concatenate([keys, keys])))
        err = abs(bk.estimate_distinct() - true_n) / true_n
        assert err < 4 / math.sqrt(1024)

    def test_exact_below_k(self, rng):
        bk = BottomK(256, SEED)
        bk.update(np.arange(100, dtype=np.uint64))
        assert bk.estimate_distinct() == 100

    def test_merge_bit_deterministic(self, rng):
        keys = rng.integers(0, 2**62, size=20_000, dtype=np.uint64)
        full = BottomK(512, SEED)
        full.update(keys)
        parts = chunks(keys, 5, rng)
        acc = BottomK(512, SEED)
        for part in reversed(parts):
            p = BottomK(512, SEED)
            p.update(part)
            acc.merge(p)
        assert acc.to_bytes() == full.to_bytes()


# -------------------------------------------------- minhash / simhash ------
class TestMinHashSimHash:
    def _docs(self, rng):
        a = rng.integers(0, 1000, size=300, dtype=np.int32)
        b = a.copy()
        b[:30] = rng.integers(1000, 2000, size=30)  # ~90% overlap
        c = rng.integers(0, 1000, size=300, dtype=np.int32)
        flat = np.concatenate([a, b, c])
        offsets = np.array([0, 300, 600, 900])
        return flat, offsets, a, b, c

    def test_minhash_estimates_jaccard(self, rng):
        flat, offsets, a, b, c = self._docs(rng)
        sig = minhash_signatures(flat, offsets, num_perm=256, seed=SEED)
        sa, sb = set(a.tolist()), set(b.tolist())
        true_j = len(sa & sb) / len(sa | sb)
        est_j = (sig[0] == sig[1]).mean()
        assert abs(est_j - true_j) < 0.12
        assert (sig[0] == sig[2]).mean() < 0.3

    def test_lsh_bands_catch_near_dups(self, rng):
        flat, offsets, *_ = self._docs(rng)
        sig = minhash_signatures(flat, offsets, num_perm=128, seed=SEED)
        bands = lsh_bands(sig, bands=32, seed=SEED)
        assert (bands[0] == bands[1]).any()       # near-dups share a band
        assert not (bands[0] == bands[2]).all()   # unrelated docs don't share all

    def test_simhash_distance(self, rng):
        flat, offsets, *_ = self._docs(rng)
        h = simhash64(flat, offsets, seed=SEED)
        near = hamming64(h[0:1], h[1:2])[0]
        far = hamming64(h[0:1], h[2:3])[0]
        assert near < far
        assert near <= 16


class TestTopM:
    def test_union_of_batch_topm_survives_merge(self, rng):
        """Sharded update+merge keeps every globally-heavy token (the
        candidate-recall property heavy_hitters relies on)."""
        keys = zipf_keys(rng, 60_000, 3000)
        uk, true = np.unique(keys, return_counts=True)
        top10 = uk[np.argsort(-true)[:10]]
        shards = np.array_split(keys, 13)
        parts = []
        for sh in shards:
            t = TopM(80)
            t.update(sh)
            parts.append(t)
        acc = parts[0]
        for p in parts[1:]:
            acc.merge(p)
        toks, counts = acc.top(10)
        assert set(top10.tolist()) <= set(acc.tokens.tolist())
        assert set(toks.tolist()) == set(top10.tolist())

    def test_roundtrip_and_cap(self, rng):
        t = TopM(4, cap=8)
        t.update(np.arange(100, dtype=np.uint64))  # 100 singletons -> top4
        assert len(t.tokens) <= 8
        u = sketch_from_bytes(t.to_bytes())
        assert np.array_equal(u.tokens, t.tokens)
        assert np.array_equal(u.counts, t.counts)
        assert u.m == t.m and u.cap == t.cap

    def test_merge_deterministic_truncation(self):
        a = TopM(2, cap=4)
        b = TopM(2, cap=4)
        a.update_counts(np.array([1, 2, 3], np.uint64),
                        np.array([5, 5, 1], np.int64))
        b.update_counts(np.array([2, 4, 5], np.uint64),
                        np.array([5, 3, 2], np.int64))
        a.merge(b)
        toks, counts = a.top()
        assert toks[0] == 2 and counts[0] == 10  # summed across partials


class TestCountMinNonPow2:
    def test_non_pow2_width_falls_back_to_modulo(self, rng):
        """Reference CountSketch.java:211-216: non-pow2 widths use modulo;
        the mask fast path would silently skip columns."""
        keys = zipf_keys(rng, 20_000, 500)
        cms = CountMinSketch(1000, 4, SEED)  # non-pow2 width
        cms.update(keys)
        uk, true = np.unique(keys, return_counts=True)
        est = cms.estimate(uk)
        assert (est >= true).all()
        # all columns reachable: the estimate error stays sane
        assert (est - true <= 3.0 / 1000 * len(keys) * 3).all()


class TestIntCountSketch:
    def test_saturates_at_int32_and_merges_saturating(self):
        from hierarchical_bloom_filter_index_ray.state import IntCountSketch
        cs = IntCountSketch(1 << 8, 1, SEED)
        big = np.array([2**31 - 10], dtype=np.int64)
        cs.update(np.array([7], dtype=np.uint64), big)
        cs.update(np.array([7], dtype=np.uint64), big)  # would overflow
        est = cs.estimate(np.array([7], dtype=np.uint64))
        assert abs(est[0]) == 2**31 - 1  # clamped, not wrapped
        other = IntCountSketch(1 << 8, 1, SEED)
        other.update(np.array([7], dtype=np.uint64), big)
        cs.merge(other)
        assert abs(cs.estimate(np.array([7], dtype=np.uint64))[0]) \
            == 2**31 - 1
        assert cs.table.dtype == np.int32

    def test_estimates_accurate_in_range(self, rng):
        """Within int32 range the saturating variant behaves like a plain
        count sketch (same error bound; seed chains differ by KIND)."""
        from hierarchical_bloom_filter_index_ray.state import IntCountSketch
        keys = zipf_keys(rng, 30_000, 800)
        b = IntCountSketch(1 << 12, 5, SEED)
        b.update(keys)
        uk, true = np.unique(keys, return_counts=True)
        est = b.estimate(uk)
        assert (np.abs(est - true) <= 0.01 * len(keys)).mean() > 0.98

    def test_serde_roundtrip(self, rng):
        from hierarchical_bloom_filter_index_ray.state import IntCountSketch
        s = IntCountSketch(1 << 8, 3, SEED)
        s.update(zipf_keys(rng, 2000, 100))
        t = sketch_from_bytes(s.to_bytes())
        assert t.table.dtype == np.int32
        assert np.array_equal(s.table, t.table) and s.total == t.total
