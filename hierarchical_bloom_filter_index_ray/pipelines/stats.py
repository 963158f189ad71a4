"""Corpus / per-source sketch aggregates over the sequences table.

The "wide" aggregations of SURVEY.md §2.5 expressed as mergeable-UDAF
pre-aggregation: ``map_batches`` emits ONE serialized partial sketch row per
(group x batch) — tokens never leave the map stage — and a whole-dataset
``aggregate`` tree-merges the partial rows into a per-source sketch dict.
The driver only receives the final merged dict (O(#sources) entries,
never the O(batches) partial stream). Reference analogues: exact truth map
``SamplingSketchExperiment.java:819-825`` (test oracle), distinct counting
:563, heavy hitters via CS estimates ``estimators/CSEstimator.java:67-91``,
quantile rank pick :744-761.
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..config import HbiConfig
from ..functions.tokenize import flat_tokens_and_offsets
from ..state import (KLL, BottomK, CountMinSketch, HyperLogLog, TDigest,
                     TopM, derive_seed, sketch_from_bytes)



def _new_global(cfg: HbiConfig, top_m: int = 0) -> dict:
    out = {
        "hll": HyperLogLog(cfg.hll_p, derive_seed(cfg.seed, "ghll")),
        "cms": CountMinSketch.from_eps_delta(cfg.cms_eps, cfg.cms_delta,
                                             derive_seed(cfg.seed, "gcms")),
        "kll_ntok": KLL(cfg.kll_k, derive_seed(cfg.seed, "gkll")),
        "tdigest_ntok": TDigest(cfg.tdigest_delta),
        "bottomk": BottomK(cfg.bottomk_k, derive_seed(cfg.seed, "gbk")),
    }
    if top_m:
        out["topm"] = TopM(top_m)
    return out


class GlobalSketchPartials:
    """Map stage: one partial row per (source x batch). Passed as a pickled
    INSTANCE -> elastic task pool (its only state is the config; an actor
    pool's startup cost buys nothing here)."""

    def __init__(self, cfg: HbiConfig, by_source: bool = True,
                 top_m: int = 0):
        self.cfg = cfg
        self.by_source = by_source
        self.top_m = top_m

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, offsets = flat_tokens_and_offsets(batch["tokens"])
        lengths = np.diff(offsets)
        n_tok = batch["n_tok"].to_numpy(zero_copy_only=False)
        if self.by_source:
            src = batch["source"]
            if isinstance(src, pa.ChunkedArray):
                src = src.combine_chunks()
            sd = src.dictionary_encode()
            if isinstance(sd, pa.ChunkedArray):
                sd = sd.combine_chunks()
            codes = sd.indices.to_numpy(zero_copy_only=False)
            names = sd.dictionary.to_pylist()
        else:
            codes = np.zeros(batch.num_rows, dtype=np.int64)
            names = ["__all__"]
        tok_codes = np.repeat(codes, lengths)
        out_src, out_payload, out_rows, out_toks = [], [], [], []
        for ci, name in enumerate(names):
            rmask = codes == ci
            sk = _new_global(self.cfg, self.top_m)
            toks = flat[tok_codes == ci]
            # one np.unique serves hll/cms/bottomk/topm (cms would unique
            # internally anyway; counts ride along for free)
            uk, ucounts = (np.unique(toks.astype(np.uint64, copy=False),
                                     return_counts=True)
                           if len(toks) else
                           (np.empty(0, np.uint64), np.empty(0, np.int64)))
            sk["hll"].update(uk)
            sk["cms"].update(uk, ucounts.astype(np.int64))
            sk["bottomk"].update(uk)
            if self.top_m:
                sk["topm"].update_counts(uk, ucounts.astype(np.int64))
            sk["kll_ntok"].update(n_tok[rmask].astype(np.float64))
            sk["tdigest_ntok"].update(n_tok[rmask].astype(np.float64))
            out_src.append(name)
            out_payload.append(pickle.dumps(
                {k: v.to_bytes() for k, v in sk.items()},
                protocol=pickle.HIGHEST_PROTOCOL))
            out_rows.append(int(rmask.sum()))
            out_toks.append(int(len(toks)))
        return pa.table({
            "source": pa.array(out_src, pa.string()),
            "n_docs": pa.array(out_rows, pa.int64()),
            "n_tokens": pa.array(out_toks, pa.int64()),
            "payload": pa.array(out_payload, pa.binary()),
        })


def build_global_sketches(ds: "rd.Dataset", cfg: HbiConfig, *,
                          by_source: bool = True, concurrency=None,
                          batch_size: int = 2048,
                          top_m: int = 0) -> dict[str, dict]:
    """-> {source: {"sketches": {...}, "n_docs": int, "n_tokens": int}}.

    Fully distributed reduce in ONE job: the partial map fuses with a
    whole-dataset ``aggregate`` whose accumulator is the per-source sketch
    dict (sources are few by construction; partials are tiny). Ray
    tree-merges accumulators across blocks — the driver receives exactly
    one merged dict, never the partial stream (the round-1 ``take_all()``
    + serial loop did)."""
    from ray.data.aggregate import AggregateFn

    parts = ds.map_batches(
        GlobalSketchPartials(cfg, by_source, top_m=top_m),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)

    def acc_block(acc: dict, block) -> dict:
        for src, nd, nt, payload in zip(
                block["source"].to_pylist(),
                block["n_docs"].to_pylist(),
                block["n_tokens"].to_pylist(),
                block["payload"].to_pylist()):
            sk = {k: sketch_from_bytes(v)
                  for k, v in pickle.loads(payload).items()}
            cur = acc.get(src)
            if cur is None:
                acc[src] = [sk, int(nd), int(nt)]
            else:
                for k, v in sk.items():
                    cur[0][k].merge(v)
                cur[1] += int(nd)
                cur[2] += int(nt)
        return acc

    def merge_accs(a: dict, b: dict) -> dict:
        for src, (sk, nd, nt) in b.items():
            cur = a.get(src)
            if cur is None:
                a[src] = [sk, nd, nt]
            else:
                for k, v in sk.items():
                    cur[0][k].merge(v)
                cur[1] += nd
                cur[2] += nt
        return a

    res = parts.aggregate(AggregateFn(
        init=lambda k: {}, accumulate_block=acc_block, merge=merge_accs,
        name="sketches", finalize=lambda a: a))
    merged = res["sketches"] if res else {}
    return {src: {"sketches": sk, "n_docs": nd, "n_tokens": nt}
            for src, (sk, nd, nt) in merged.items()}


def distinct_tokens(ds: "rd.Dataset", cfg: HbiConfig, *,
                    by_source: bool = True) -> pd.DataFrame:
    """HLL distinct-token estimates (+KMV cross-check) per source/global."""
    agg = build_global_sketches(ds, cfg, by_source=by_source)
    rows = []
    for src in sorted(agg):
        s = agg[src]["sketches"]
        rows.append({
            "source": src,
            "hll_estimate": s["hll"].estimate(),
            "kmv_estimate": s["bottomk"].estimate_distinct(),
            "rel_error_bound": s["hll"].rel_error,
            "n_tokens": agg[src]["n_tokens"],
        })
    return pd.DataFrame(rows)


def heavy_hitters(ds: "rd.Dataset", cfg: HbiConfig, k: int = 20, *,
                  candidate_factor: int = 8) -> pd.DataFrame:
    """Top-k tokens, single pass: the mergeable TopM summary generates
    candidates (union of per-batch exact top-(k*factor) — any global top-k
    token is a local top-k in at least one batch by pigeonhole when factor
    covers skew) in the SAME partial row as the CMS, whose merged estimate
    (upper bound, eps*N error) ranks them. Deterministic tie-break
    (cnt desc, token asc)."""
    agg = build_global_sketches(ds, cfg, by_source=False,
                                top_m=k * candidate_factor)["__all__"]
    cms = agg["sketches"]["cms"]
    tm = agg["sketches"]["topm"]
    toks, partial = tm.top()
    est = cms.estimate(toks) if len(toks) else np.empty(0, np.int64)
    out = pd.DataFrame({"token": toks.view(np.int64),
                        "est_count": est, "partial_count": partial})
    out = out.sort_values(["est_count", "token"],
                          ascending=[False, True]).head(k)
    out["total_tokens"] = agg["n_tokens"]
    return out.reset_index(drop=True)


def ntok_quantiles(ds: "rd.Dataset", cfg: HbiConfig,
                   qs=(0.05, 0.25, 0.5, 0.75, 0.95, 0.99)) -> pd.DataFrame:
    """n_tok distribution quantiles from the merged KLL + t-digest."""
    agg = build_global_sketches(ds, cfg, by_source=False)["__all__"]
    kll = agg["sketches"]["kll_ntok"]
    td = agg["sketches"]["tdigest_ntok"]
    return pd.DataFrame({
        "q": list(qs),
        "kll": [kll.quantile(q) for q in qs],
        "tdigest": [td.quantile(q) for q in qs],
    })
