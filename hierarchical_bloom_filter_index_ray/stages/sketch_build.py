"""Partial-sketch build stage (the mergeable-UDAF map side).

``PartialSketchBuilder`` is a callable CLASS for
``map_batches(..., batch_format="pyarrow", zero_copy_batch=True,
concurrency=N)`` — an actor pool: config/seed derivation happens once per
actor in ``__init__`` (the reference's per-tree estimator lifecycle,
``PMIndex/HBI.java:244-260``), per-batch work is fully vectorized.

Per batch it emits ONE partial row per ``(source, window_id)`` group present
in the batch — serialized sketches, never raw tokens — so the
``groupby(source, window_id)`` shuffle moves kilobytes of sketch state
instead of the token stream (SURVEY.md §4.2 "pre-aggregation (combiner)
inside the map stage").

Hierarchical bloom insert mirrors ``PMIndex/HBI.java:215-267`` +
``tree/ImplicitTree.java:56-76``: for every n-gram position, insert
``(interval_id(level), ngram_key)`` into every STORED level's Bloom
(``HbiConfig.stored_levels``: every third level plus the leaf); per-level
start sizing per ``PMIndex/HBI.java:693-702`` via
``HbiConfig.level_expected_distinct``. Partials keep that size so they
OR-merge; the merge stage folds each finished level to its fill.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

from ..config import HbiConfig
from ..functions.tokenize import flat_tokens_and_offsets, ngram_keys
from ..state import (HOPS, KLL, BloomFilter, BottomK, CountMinSketch,
                     HyperLogLog, TDigest, derive_seed, splitmix64)
from ..state.splitmix import U64

PARTIAL_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("window_id", pa.int64()),
    ("n_docs", pa.int64()),
    ("n_tokens", pa.int64()),
    ("payload", pa.binary()),
])


class PartialSketchBuilder:
    def __init__(self, cfg: HbiConfig):
        self.cfg = cfg
        self.hops_buckets = cfg.effective_hops_buckets()
        self.ngram_seed = derive_seed(cfg.seed, "ngram")
        self.level_salts = np.array(
            [derive_seed(cfg.seed, "interval_salt", lv) & 0xFFFFFFFFFFFFFFFF
             for lv in range(cfg.num_levels)], dtype=np.uint64)

    # -- sketch factories (identical params everywhere -> mergeable) -----
    def _new_sketches(self) -> dict:
        """Fresh sketches of every configured family; ``bloom_tree`` is
        one start-size filter per level of ``HbiConfig.stored_levels``."""
        cfg = self.cfg
        out: dict[str, object] = {}
        for kind in cfg.sketches:
            if kind == "bloom_tree":
                out[kind] = {
                    lv: BloomFilter(cfg.level_expected_distinct(lv), cfg.fp,
                                    derive_seed(cfg.seed, "bloom", lv))
                    for lv in cfg.stored_levels()}
            elif kind == "hll":
                out[kind] = HyperLogLog(cfg.hll_p, derive_seed(cfg.seed, "hll"))
            elif kind == "cms":
                out[kind] = CountMinSketch.from_eps_delta(
                    cfg.cms_eps, cfg.cms_delta, derive_seed(cfg.seed, "cms"))
            elif kind == "kll_ntok":
                out[kind] = KLL(cfg.kll_k, derive_seed(cfg.seed, "kll"))
            elif kind == "tdigest_ntok":
                out[kind] = TDigest(cfg.tdigest_delta)
            elif kind == "hops":
                out[kind] = HOPS(self.hops_buckets,
                                 derive_seed(cfg.seed, "hops"))
            elif kind == "bottomk":
                out[kind] = BottomK(cfg.bottomk_k, derive_seed(cfg.seed, "bk"))
            else:
                raise ValueError(f"unknown sketch kind {kind!r}")
        return out

    @staticmethod
    def serialize(sketches: dict) -> bytes:
        blob = {k: ({lv: s.to_bytes() for lv, s in v.items()}
                    if isinstance(v, dict) else v.to_bytes())
                for k, v in sketches.items()}
        return pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)

    # -- per-batch work --------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n_rows = batch.num_rows
        if n_rows == 0:
            return PARTIAL_SCHEMA.empty_table()
        flat, offsets = flat_tokens_and_offsets(batch["tokens"])
        lengths = np.diff(offsets)
        ngrams, ng_offsets = ngram_keys(flat, offsets, cfg.ngram,
                                        self.ngram_seed)
        ng_lengths = np.diff(ng_offsets)

        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        src_d = src.dictionary_encode()
        if isinstance(src_d, pa.ChunkedArray):
            src_d = src_d.combine_chunks()
        src_codes = src_d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        src_names = src_d.dictionary.to_pylist()
        window_ids = batch["window_id"].to_numpy(zero_copy_only=False)
        slots = batch["slot"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch["n_tok"].to_numpy(zero_copy_only=False)

        # group id per row; rows of a group need not be contiguous
        gkey = (src_codes << 40) | window_ids  # window_id < 2^40 by design
        ugroups, grow = np.unique(gkey, return_inverse=True)

        # per-token and per-ngram group labels, then one stable sort each so
        # every group is a contiguous slice (vectorized partition)
        tok_group = np.repeat(grow, lengths)
        ng_group = np.repeat(grow, ng_lengths)
        tok_order = np.argsort(tok_group, kind="stable")
        ng_order = np.argsort(ng_group, kind="stable")
        tok_sorted = flat[tok_order]
        tok_bounds = np.searchsorted(tok_group[tok_order],
                                     np.arange(len(ugroups) + 1))
        ng_sorted = ngrams[ng_order]
        ng_bounds = np.searchsorted(ng_group[ng_order],
                                    np.arange(len(ugroups) + 1))

        # hierarchical bloom keys: mix(interval_id(level), ngram_key)
        # (reference key packing: membership/KeyPackingService.java:77-94)
        ng_slot_sorted = np.repeat(slots, ng_lengths).astype(np.uint64)[ng_order]
        row_order = np.argsort(grow, kind="stable")
        row_bounds = np.searchsorted(grow[row_order],
                                     np.arange(len(ugroups) + 1))

        out_source, out_window, out_ndocs, out_ntokens, out_payload = \
            [], [], [], [], []
        for g in range(len(ugroups)):
            sketches = self._new_sketches()
            toks = tok_sorted[tok_bounds[g]:tok_bounds[g + 1]]
            ngs = ng_sorted[ng_bounds[g]:ng_bounds[g + 1]]
            ng_slots_g = ng_slot_sorted[ng_bounds[g]:ng_bounds[g + 1]]
            rows_g = row_order[row_bounds[g]:row_bounds[g + 1]]
            for kind, sk in sketches.items():
                if kind == "bloom_tree":
                    for lv, bloom in sk.items():
                        iv = ng_slots_g >> U64(cfg.window_bits - lv)
                        keys = ngs ^ splitmix64(iv ^ self.level_salts[lv])
                        bloom.update(keys)
                elif kind == "hll":
                    sk.update(toks)  # distinct RAW tokens per window
                elif kind in ("cms", "hops", "bottomk"):
                    # frequency estimator + samplers count NGRAM KEYS, the
                    # probe-key space — the reference's per-tree estimator
                    # is fed each inserted ngram (``PMIndex/HBI.java:215-267``)
                    sk.update(ngs)
                elif kind in ("kll_ntok", "tdigest_ntok"):
                    sk.update(n_tok[rows_g].astype(np.float64))
            out_source.append(src_names[int(ugroups[g] >> 40)])
            out_window.append(int(ugroups[g] & ((1 << 40) - 1)))
            out_ndocs.append(len(rows_g))
            out_ntokens.append(int(lengths[rows_g].sum()))
            out_payload.append(self.serialize(sketches))

        return pa.table({
            "source": pa.array(out_source, pa.string()),
            "window_id": pa.array(out_window, pa.int64()),
            "n_docs": pa.array(out_ndocs, pa.int64()),
            "n_tokens": pa.array(out_ntokens, pa.int64()),
            "payload": pa.array(out_payload, pa.binary()),
        })
