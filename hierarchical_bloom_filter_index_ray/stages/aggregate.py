"""Sketches as native Ray Data aggregations.

The reference exposes its sketches through ``Supplier<>`` seams
(``PMIndex/HbiConfiguration.java:98-207``); the Ray-native equivalent is an
``AggregateFn`` adapter: any registered sketch becomes usable as

    ds.groupby("source").aggregate(HllAgg(cfg_seed, on="tokens"))

The accumulator IS the sketch object (numpy state, picklable); merge is the
sketch's associative merge; finalize returns the estimate (or serialized
bytes with ``raw=True``).
"""

from __future__ import annotations

import numpy as np

from ray.data.aggregate import AggregateFn

from ..functions.tokenize import flat_tokens_and_offsets
from ..state import (KLL, BloomFilter, BottomK, CountMinSketch, HyperLogLog,
                     TDigest, derive_seed)


def _column_values(block, col: str) -> np.ndarray:
    """Flat numpy values of a scalar or list column in an Arrow block."""
    import pyarrow as pa

    arr = block[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
        flat, _ = flat_tokens_and_offsets(arr)
        return flat
    return arr.to_numpy(zero_copy_only=False)


class SketchAgg(AggregateFn):
    """Generic adapter: ``factory() -> sketch``, updated with the flat
    values of ``on`` per block, merged associatively, finalized via
    ``finalize_fn(sketch)`` (default: serialized bytes)."""

    def __init__(self, factory, on: str, name: str, finalize_fn=None,
                 cast=None):
        def accumulate_block(acc, block):
            vals = _column_values(block, on)
            if cast is not None:
                vals = vals.astype(cast, copy=False)
            acc.update(vals)
            return acc

        super().__init__(
            init=lambda k: factory(),
            accumulate_block=accumulate_block,
            merge=lambda a, b: a.merge(b),
            name=name,
            finalize=(lambda a: finalize_fn(a)) if finalize_fn
            else (lambda a: a.to_bytes()),
        )


def HllAgg(seed: int, on: str = "tokens", p: int = 12,
           alias_name: str = "hll_distinct") -> SketchAgg:
    return SketchAgg(lambda: HyperLogLog(p, derive_seed(seed, "agg_hll")),
                     on, alias_name, finalize_fn=lambda h: h.estimate(),
                     cast=np.uint64)


def KmvDistinctAgg(seed: int, on: str = "tokens", k: int = 1024,
                   alias_name: str = "kmv_distinct") -> SketchAgg:
    return SketchAgg(lambda: BottomK(k, derive_seed(seed, "agg_kmv")),
                     on, alias_name,
                     finalize_fn=lambda b: b.estimate_distinct(),
                     cast=np.uint64)


def CmsAgg(seed: int, on: str = "tokens", eps: float = 0.01,
           delta: float = 0.05, alias_name: str = "cms") -> SketchAgg:
    return SketchAgg(
        lambda: CountMinSketch.from_eps_delta(eps, delta,
                                              derive_seed(seed, "agg_cms")),
        on, alias_name, cast=np.uint64)


def KllQuantileAgg(seed: int, on: str = "n_tok", q: float = 0.5, k: int = 200,
                   alias_name: str | None = None) -> SketchAgg:
    return SketchAgg(lambda: KLL(k, derive_seed(seed, "agg_kll")), on,
                     alias_name or f"kll_q{q}",
                     finalize_fn=lambda s: s.quantile(q), cast=np.float64)


def TDigestQuantileAgg(on: str = "n_tok", q: float = 0.5,
                       delta: float = 200.0,
                       alias_name: str | None = None) -> SketchAgg:
    return SketchAgg(lambda: TDigest(delta), on,
                     alias_name or f"tdigest_q{q}",
                     finalize_fn=lambda s: s.quantile(q), cast=np.float64)


def BloomAgg(seed: int, n: int, fp: float = 0.01, on: str = "tokens",
             alias_name: str = "bloom") -> SketchAgg:
    return SketchAgg(lambda: BloomFilter(n, fp, derive_seed(seed, "agg_bf")),
                     on, alias_name, cast=np.uint64)
