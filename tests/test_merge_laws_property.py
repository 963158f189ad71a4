"""Property-based merge laws (hypothesis): for every bit-deterministic
sketch, ANY partition of ANY stream merged in ANY order yields identical
serialized bytes to the single-pass build (north_rule: "merge order
provably irrelevant")."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hierarchical_bloom_filter_index_ray.state import (
    HOPS, BloomFilter, BottomK, CountMinSketch, HyperLogLog,
    IntCountSketch)

SEED = 99


def _factories():
    return {
        "bloom": lambda: BloomFilter(200, 0.05, SEED),
        "cms": lambda: CountMinSketch(1 << 10, 3, SEED),
        "hll": lambda: HyperLogLog(11, SEED),
        "hops": lambda: HOPS(64, SEED),
        "bottomk": lambda: BottomK(32, SEED),
        # saturating variant: streams here never reach int32 bounds, so
        # the bit-identity law applies unchanged
        "intcs": lambda: IntCountSketch(1 << 9, 3, SEED),
    }


streams = st.lists(st.integers(0, 2**48), min_size=0, max_size=200)
cuts = st.lists(st.integers(0, 200), min_size=0, max_size=4)
perms = st.randoms(use_true_random=False)


@settings(max_examples=25, deadline=None)
@given(stream=streams, cut_points=cuts, rnd=perms)
def test_partition_and_order_invariance(stream, cut_points, rnd):
    keys = np.array(stream, dtype=np.uint64)
    bounds = sorted({min(c, len(keys)) for c in cut_points} | {0, len(keys)})
    chunks = [keys[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    order = list(range(len(chunks)))
    rnd.shuffle(order)
    for name, make in _factories().items():
        ref = make()
        ref.update(keys)
        acc = make()
        for i in order:
            part = make()
            part.update(chunks[i])
            acc.merge(part)
        assert acc.to_bytes() == ref.to_bytes(), name


@settings(max_examples=25, deadline=None)
@given(stream=streams)
def test_update_in_pieces_equals_single_update(stream):
    """Incremental updates == one batched update (actor accumulation)."""
    keys = np.array(stream, dtype=np.uint64)
    for name, make in _factories().items():
        ref = make()
        ref.update(keys)
        inc = make()
        for i in range(0, len(keys), 7):
            inc.update(keys[i:i + 7])
        assert inc.to_bytes() == ref.to_bytes(), name


@settings(max_examples=25, deadline=None)
@given(a=streams, b=streams, shift=st.integers(0, 5))
def test_fold_distributes_over_merge(a, b, shift):
    """fold(A | B) == fold(A) | fold(B) at the same m: folding a merged
    bloom equals merging folded ones."""
    def bloom(*parts):
        bf = BloomFilter(200, 0.05, SEED)
        for p in parts:
            bf.update(np.array(p, dtype=np.uint64))
        return bf

    def fold(bf):
        for _ in range(shift):
            bf = bf.fold()
        return bf

    assert (fold(bloom(a, b)).to_bytes()
            == fold(bloom(a)).merge(fold(bloom(b))).to_bytes())
