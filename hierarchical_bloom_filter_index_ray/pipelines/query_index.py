"""Membership / pattern query engine over the persisted index.

Mirrors the reference's query path (``PMIndex/HBI.report``
``PMIndex/HBI.java:415-605``) in two Ray stages:

1. **Probe** (``map_batches`` over the *index* Dataset): per (source,
   window) partition, sweep the bloom tree level by level — a vectorized
   BFS over (interval, query) pairs: one bulk ``contains`` per level
   instead of one per tree node. All-n-grams-present -> descend, first
   miss -> prune (the semantics of ``search/BlockSearch.java:15-128`` +
   ``search/IntervalScanner.java:7-89``); leaf survivors emit candidate
   doc slots. No false negatives by Bloom construction. Every query
   enters at the window's shallowest stored level and probes each node
   with its distinct n-gram keys (``search/BlockSearchCharSet.java``).
2. **Verify** (``map_batches`` over the *sequences* Dataset — a
   semi-join): each verify worker process turns the probe's materialized
   candidate blocks into compact numpy structs once, then runs the exact
   sliding-window token-sequence match against the raw rows, the analogue
   of ``search/VerifierLinearLeafProbe.java:16-150`` with the Parquet data
   as the reference's ``StreamBuffer`` ground truth.

Result: exact (query_id, doc_id) matches — false positives are pruned by
verification; the bloom tree only bounds the verify workload (that is the
reference's design too).
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..config import HbiConfig
from ..functions.tokenize import flat_tokens_and_offsets
from ..state import sketch_from_bytes
from ..state.splitmix import derive_seed, hash_u64, splitmix64

# _match_pairs full-scan threshold: a query whose candidate segments
# cover at least this share of a batch's flat token array is matched by
# one sequential sweep over the whole array instead of a segment gather
_FULLSCAN_FRAC = 0.5
# candidate hand-off threshold: up to this many candidate pairs (~400 MB
# of compact structs) every verify worker builds the exact structs from
# the probe's candidate blocks; past it, candidate keys aggregate into
# one fixed-size bloom that gates the verify stage
_BROADCAST_LIMIT = 16_000_000


def compile_queries(queries: list[tuple[str, list[int]]], cfg: HbiConfig
                    ) -> list[dict]:
    """Pattern compiler (``search/Pattern.java:22-97``): token sequence ->
    sliding n-gram keys in the same key space as the index build."""
    ngram_seed = derive_seed(cfg.seed, "ngram")
    out = []
    for qid, tokens in queries:
        toks = np.asarray(tokens, dtype=np.int32)
        if len(toks) < cfg.ngram:
            raise ValueError(
                f"query {qid!r} shorter than ngram={cfg.ngram}")
        h = hash_u64(toks.astype(np.uint64), ngram_seed)
        acc = h.copy()
        for j in range(1, cfg.ngram):
            shifted = np.empty_like(h)
            shifted[:-j] = h[j:]
            shifted[-j:] = 0
            acc = splitmix64(acc ^ shifted)
        keys = acc[: len(toks) - cfg.ngram + 1]
        out.append({"query_id": qid, "tokens": toks, "ngram_keys": keys})
    return out


def _grouped_arange(starts: np.ndarray, lens: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for per-pair key segments + segment offsets.

    Built as a strided cumsum (ones + boundary scatter + one cumsum pass)
    rather than arange minus two ``np.repeat``s — three memory passes
    instead of five over what is the hot path's largest temporary."""
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    total = int(offs[-1])
    if not total:
        return np.empty(0, np.int64), offs
    nz = lens > 0
    starts_nz = starts[nz]
    offs_nz = offs[:-1][nz]
    # int32 gather indices when they fit: this array is the verify hot
    # path's largest temporary, and the fancy-index reads it end to end —
    # halving its width measurably cuts DRAM pressure at high worker
    # counts (the single-box scaling ceiling)
    hi = int(starts_nz.max()) + int(lens.max())
    dt = np.int32 if hi < 2**31 - 1 and total < 2**31 - 1 else np.int64
    idx = np.ones(total, dtype=dt)
    # at each segment boundary, jump from the previous segment's last
    # index (+1 already applied by the ones) to the next segment's start
    idx[offs_nz[0]] = starts_nz[0]
    if len(starts_nz) > 1:
        prev_last = starts_nz[:-1] + np.diff(offs_nz) - 1
        idx[offs_nz[1:]] = starts_nz[1:] - prev_last
    np.cumsum(idx, out=idx)
    return idx, offs


class BloomProbe:
    """Index-partition probe (vectorized level-sweep BFS).

    One probe policy: every query enters each window at its shallowest
    stored level and probes each node with its DISTINCT n-gram keys —
    the node test is an AND over set membership, so duplicate keys add
    nothing (the reference's ``search/BlockSearchCharSet.java``)."""

    def __init__(self, cfg: HbiConfig, queries_ref, prune_ref=None):
        self.cfg = cfg
        # super-level descend result (pipelines/super_index.py), or an
        # ObjectRef to it: the ASYNC descend running on the coordinator
        # actor is resolved lazily on the worker, so constructing this
        # probe on the driver never blocks on the descend
        lazy = isinstance(prune_ref, ray.ObjectRef)
        self._prune_ref = prune_ref if lazy else None
        self.prune = None if lazy else prune_ref
        qs = ray.get(queries_ref) if not isinstance(queries_ref, list) \
            else queries_ref
        self.queries = qs
        key_segs = [np.unique(q["ngram_keys"]) for q in qs]
        self.q_keys = (np.concatenate(key_segs)
                       if qs else np.empty(0, dtype=np.uint64))
        self.q_lens = np.array([len(k) for k in key_segs], dtype=np.int64)
        self.q_bounds = np.zeros(len(qs) + 1, dtype=np.int64)
        np.cumsum(self.q_lens, out=self.q_bounds[1:])
        self.level_salts = np.array(
            [derive_seed(cfg.seed, "interval_salt", lv) & 0xFFFFFFFFFFFFFFFF
             for lv in range(cfg.num_levels)], dtype=np.uint64)
        self.probe_key_count = 0  # bloom keys probed (cost instrumentation)

    def _sweep(self, blooms: dict, qis: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """BFS over (interval, query) pairs from the shallowest stored
        level down to the leaves; returns surviving leaf pairs (slots,
        query_idx). Levels the index does not store (``stored_levels``)
        are skipped."""
        wb = self.cfg.window_bits
        n_iv = 1 << min(blooms)
        cur_iv = np.repeat(np.arange(n_iv, dtype=np.int64), len(qis))
        cur_qi = np.tile(qis, n_iv)
        for lv in range(min(blooms), wb + 1):
            if not len(cur_iv):
                break
            bloom = blooms.get(lv)
            if bloom is not None:
                lens = self.q_lens[cur_qi]
                key_idx, offs = _grouped_arange(self.q_bounds[cur_qi], lens)
                salts = splitmix64(cur_iv.astype(np.uint64)
                                   ^ self.level_salts[lv])
                keys = self.q_keys[key_idx] ^ np.repeat(salts, lens)
                self.probe_key_count += len(keys)
                ok = np.logical_and.reduceat(bloom.contains(keys), offs[:-1])
                cur_iv, cur_qi = cur_iv[ok], cur_qi[ok]
            if lv == wb:
                break
            cur_iv = np.concatenate([cur_iv * 2, cur_iv * 2 + 1])
            cur_qi = np.tile(cur_qi, 2)
        return cur_iv, cur_qi

    def _descend(self):
        """The descend result once it has landed, else None. NON-blocking:
        batches probed before the async descend finishes use every query
        (same exact results — verify is exact either way), so the probe
        pipeline never stalls behind the coordinator."""
        if self._prune_ref is not None:
            ready, _ = ray.wait([self._prune_ref], timeout=0)
            if ready:
                self.prune = ray.get(self._prune_ref)
                self._prune_ref = None
        return self.prune

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list[tuple[str, int, np.ndarray, np.ndarray]] = []
        if self.queries and batch.num_rows:
            sources = batch["source"].to_pylist()
            windows = batch["window_id"].to_pylist()
            all_q = np.arange(len(self.queries), dtype=np.int64)
            qsets = [all_q] * len(sources)
            rows = range(len(sources))
            res = self._descend()
            if res is not None:
                qsets = [res.queries_for(str(s), w)
                         for s, w in zip(sources, windows)]
                qsets = [all_q if q is None else q for q in qsets]
                # keep-mask first: skipped rows' blobs are never read
                rows = [i for i, q in enumerate(qsets) if len(q)]
                if len(rows) < len(qsets):
                    batch = batch.take(pa.array(rows, pa.int64()))
            blobs = batch["bloom_tree"].to_pylist()
            for i, blob in zip(rows, blobs):
                if blob is None:
                    raise ValueError(
                        f"index row ({sources[i]}, {windows[i]}) has no "
                        "bloom_tree: it cannot answer membership queries")
                blooms = {int(lv): sketch_from_bytes(b)
                          for lv, b in pickle.loads(blob).items()}
                slots, qi = self._sweep(blooms, qsets[i])
                if len(slots):
                    out.append((sources[i], windows[i], slots, qi))
        if not out:
            return pa.table({
                "query_idx": pa.array([], pa.int32()),
                "source": pa.array([], pa.string()),
                "window_id": pa.array([], pa.int64()),
                "slot": pa.array([], pa.int32()),
            })
        srcs = np.concatenate([[s] * len(sl) for s, _, sl, _ in out])
        wins = np.concatenate([np.full(len(sl), w, dtype=np.int64)
                               for _, w, sl, _ in out])
        slots = np.concatenate([sl for _, _, sl, _ in out])
        qis = np.concatenate([qi for _, _, _, qi in out])
        return pa.table({
            "query_idx": pa.array(qis.astype(np.int32), pa.int32()),
            "source": pa.array(srcs.tolist(), pa.string()),
            "window_id": pa.array(wins, pa.int64()),
            "slot": pa.array(slots.astype(np.int32), pa.int32()),
        })


def _match_pairs(flat: np.ndarray, offsets: np.ndarray,
                 pair_rows: np.ndarray, pair_qis: np.ndarray,
                 q_tokens: list[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact sliding-window match for a set of (row, query) candidate
    pairs, adaptive per query:

    - **full-scan** (high-cardinality queries): when a query's candidate
      segments cover >= ``_FULLSCAN_FRAC`` (0.5) of the
      batch's flat token array, the shifted-compare sweep runs over the
      WHOLE flat array sequentially and the matched rows are intersected
      with the candidate row set afterwards. The per-pair segment gather
      is skipped entirely — for frequent patterns it was re-reading each
      row's tokens once per candidate query (~5 GB of random gathers per
      288-query batch at sf0.1x4), which saturated the memory bus and
      capped multi-worker scaling; the flat array is a few MB and
      streams through cache. Intersecting afterwards keeps results
      identical: candidates are a superset of true matches (bloom
      no-false-negative) and the intersection re-applies any upstream
      per-query scope filtering exactly.
    - **gather** (selective queries): candidate segments are gathered in
      ONE global fancy-index across all such queries (round-4 perf: the
      old per-query gather rebuilt arange/repeat index arrays 288x per
      batch — ~70% of verify CPU was index construction, not matching),
      and each query runs its sweep over its own contiguous slice.

    Per-row tail positions are killed by L-1 sparse scatters instead of
    materializing a per-token local-position array. Returns (matched row
    indices, matched query indices, per-pair occurrence counts —
    overlapping starts each count, matching the reference's
    per-position ``report``)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int32),
             np.empty(0, np.int64))
    if not len(pair_rows):
        return empty
    offsets = np.asarray(offsets)
    order = np.argsort(pair_qis, kind="stable")
    pr, pq = pair_rows[order], pair_qis[order]
    seg_lens = offsets[pr + 1] - offsets[pr]
    qlens = np.array([len(q) for q in q_tokens], dtype=np.int64)
    fits = seg_lens >= qlens[pq]
    pr, pq, seg_lens = pr[fits], pq[fits], seg_lens[fits]
    if not len(pr):
        return empty
    uq = np.unique(pq)
    qbounds = np.searchsorted(pq, uq)
    qbounds = np.concatenate([qbounds, [len(pq)]])
    qcounts = qbounds[1:] - qbounds[:-1]
    n_flat = len(flat)
    n_rows = len(offsets) - 1
    seg_cum = np.concatenate([[0], np.cumsum(seg_lens)])
    scan_q = ((seg_cum[qbounds[1:]] - seg_cum[qbounds[:-1]])
              >= _FULLSCAN_FRAC * max(1, n_flat))
    # one global gather over the pairs of gather-path queries only
    pair_scan = np.repeat(scan_q, qcounts)
    pr_g, seg_g = pr[~pair_scan], seg_lens[~pair_scan]
    if len(pr_g):
        take, sub_offs = _grouped_arange(offsets[pr_g], seg_g)
        sub = flat[take]
    else:
        sub = flat[:0]
        sub_offs = np.zeros(1, np.int64)
    qb_g = np.concatenate(
        [[0], np.cumsum(np.where(scan_q, 0, qcounts))])
    # reused full-scan buffers (allocated once per batch, not per query)
    m_buf = tmp_buf = None
    out_row_parts: list[np.ndarray] = []
    out_qi_parts: list[np.ndarray] = []
    out_cnt_parts: list[np.ndarray] = []
    for t, qi in enumerate(uq):
        a, b = int(qbounds[t]), int(qbounds[t + 1])
        q = q_tokens[qi]
        L = len(q)
        if scan_q[t]:
            if m_buf is None:
                m_buf = np.empty(n_flat, dtype=bool)
                tmp_buf = np.empty(n_flat, dtype=bool)
            m = m_buf
            np.equal(flat, q[0], out=m)
            for j in range(1, L):
                m[n_flat - j:] = False
                np.equal(flat[j:], q[j], out=tmp_buf[:n_flat - j])
                m[:n_flat - j] &= tmp_buf[:n_flat - j]
            # kill in-row tail starts (t + L <= row_len); the guard keeps
            # a short row's scatter from reaching into the previous row
            for j in range(1, L):
                idx = offsets[1:] - j
                ok = idx >= offsets[:-1]
                m[idx[ok]] = False
            posm = np.nonzero(m)[0]
            if not len(posm):
                continue
            rowm = np.searchsorted(offsets, posm, side="right") - 1
            counts = np.bincount(rowm, minlength=n_rows)
            hit = np.nonzero(counts)[0]
            cand = np.unique(pr[a:b])
            pos = np.searchsorted(cand, hit)
            okc = pos < len(cand)
            okc[okc] = cand[pos[okc]] == hit[okc]
            sel = hit[okc]
            if len(sel):
                out_row_parts.append(sel.astype(np.int64))
                out_qi_parts.append(np.full(len(sel), qi, dtype=np.int32))
                out_cnt_parts.append(counts[sel].astype(np.int64))
            continue
        ga, gb = int(qb_g[t]), int(qb_g[t + 1])
        s0, s1 = int(sub_offs[ga]), int(sub_offs[gb])
        subq = sub[s0:s1]
        offsq = sub_offs[ga:gb + 1] - s0
        n = len(subq)
        m = subq == q[0]
        for j in range(1, L):
            m[n - j:] = False
            m[:n - j] &= subq[j:] == q[j]
        # a match starting at local position t needs t + L <= row_len:
        # zero the last L-1 start positions of every row (each row fits,
        # so these scatters never cross into the previous row)
        for j in range(1, L):
            m[offsq[1:] - j] = False
        posm = np.nonzero(m)[0]
        if not len(posm):
            continue
        rowm = np.searchsorted(offsq, posm, side="right") - 1
        counts = np.bincount(rowm, minlength=gb - ga)
        hit = np.nonzero(counts)[0]
        if len(hit):
            out_row_parts.append(pr_g[ga:gb][hit])
            out_qi_parts.append(np.full(len(hit), qi, dtype=np.int32))
            out_cnt_parts.append(counts[hit].astype(np.int64))
    if not out_row_parts:
        return empty
    return (np.concatenate(out_row_parts), np.concatenate(out_qi_parts),
            np.concatenate(out_cnt_parts))


class _HoldOne:
    """Per-worker-process cache holding ONE value, keyed by the refs it
    is built from. map_batches with a plain callable instance runs as a
    TASK pool: every task deserializes a fresh verifier and would re-fetch
    and rebuild the same value (measured ~35 core-s per 288-query batch
    at 8 workers — plasma fetch contention, not compute). Worker
    processes are reused across tasks, so caching cuts the fetches from
    O(tasks) to O(workers); holding one value pins at most one batch's
    inputs per worker until the next query batch replaces them."""

    def __init__(self):
        self._key = self._value = None

    def get(self, key, build):
        if key != self._key:
            self._key = self._value = None  # release before building
            self._value = build()
            self._key = key
        return self._value


_STRUCT_CACHE = _HoldOne()  # ExactVerifier: candidate structs
_GATE_CACHE = _HoldOne()    # BloomGateVerifier: candidate-gate bloom


def _candidate_structs(blocks: list[pa.Table], window_bits: int) -> dict:
    """Probe candidate blocks (query_idx, source, window_id, slot) -> the
    verify structs ``{source: (sorted doc_idx, offsets, query_idx)}``:
    each source's distinct candidate doc indices, and per doc the sorted
    indices of the queries that reached it."""
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        return {}
    t = pa.concat_tables(blocks)
    src = t["source"].cast(pa.string()).combine_chunks().dictionary_encode()
    codes = src.indices.to_numpy(zero_copy_only=False)
    di = ((t["window_id"].to_numpy().astype(np.int64) << window_bits)
          | t["slot"].to_numpy())
    qi = t["query_idx"].to_numpy().astype(np.int64)
    order = np.lexsort((qi, di, codes))
    codes, di, qi = codes[order], di[order], qi[order]
    bounds = np.searchsorted(codes, np.arange(len(src.dictionary) + 1))
    structs: dict[str, tuple] = {}
    for c, name in enumerate(src.dictionary.to_pylist()):
        a, b = int(bounds[c]), int(bounds[c + 1])
        if a == b:
            continue
        uniq, starts = np.unique(di[a:b], return_index=True)
        structs[name] = (uniq, np.append(starts, b - a).astype(np.int64),
                         qi[a:b])
    return structs


class ExactVerifier:
    """Sequences-side exact verification (semi-join on compact candidate
    structs ``{source: (sorted_doc_idx, offsets, query_idx)}``).

    ``cands`` is that struct dict, or the refs of the probe's
    materialized candidate blocks. Refs resolve LAZILY at the first batch
    into structs built once per worker process (``_candidate_structs``,
    held in ``_STRUCT_CACHE``): ``__init__`` runs on the DRIVER when the
    instance is passed to map_batches, and resolving there would ship
    every candidate inside each task's closure."""

    def __init__(self, cfg: HbiConfig, cands, compiled: list[dict],
                 with_counts: bool = False):
        self.cfg = cfg
        lazy = not isinstance(cands, dict)
        self.cands = None if lazy else cands
        self._block_refs = list(cands) if lazy else None
        self.q_tokens = [np.asarray(q["tokens"], dtype=np.int32)
                         for q in compiled]
        self.with_counts = with_counts

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.window import doc_index
        if self.cands is None:
            refs = self._block_refs
            self.cands = _STRUCT_CACHE.get(
                tuple(r.hex() for r in refs),
                lambda: _candidate_structs(ray.get(refs),
                                           self.cfg.window_bits))
        di = doc_index(batch)
        srcs = np.asarray(batch["source"].to_pylist(), dtype=object)
        # 1) collect all candidate (row, query) pairs of this batch
        pr_parts: list[np.ndarray] = []
        pq_parts: list[np.ndarray] = []
        for src in set(srcs.tolist()):
            if src not in self.cands:
                continue
            uniq_di, offs, qi_flat = self.cands[src]
            rows = np.nonzero(srcs == src)[0]
            pos = np.searchsorted(uniq_di, di[rows])
            pos_ok = pos < len(uniq_di)
            match = np.zeros(len(rows), dtype=bool)
            match[pos_ok] = uniq_di[pos[pos_ok]] == di[rows[pos_ok]]
            m_rows = rows[match]
            m_pos = pos[match]
            if not len(m_rows):
                continue
            lens = offs[m_pos + 1] - offs[m_pos]
            take, _ = _grouped_arange(offs[m_pos], lens)
            pr_parts.append(np.repeat(m_rows, lens))
            pq_parts.append(qi_flat[take])
        def empty():
            cols = {
                "query_idx": pa.array([], pa.int32()),
                "doc_id": pa.array([], batch["doc_id"].type
                                   if batch.num_rows else pa.string()),
            }
            if self.with_counts:
                cols["n_matches"] = pa.array([], pa.int64())
            return pa.table(cols)

        if not pr_parts:
            return empty()
        pair_rows = np.concatenate(pr_parts)
        pair_qis = np.concatenate(pq_parts)
        flat, offsets = flat_tokens_and_offsets(batch["tokens"])
        out_rows, out_qis, out_cnts = _match_pairs(
            flat, offsets, pair_rows, pair_qis, self.q_tokens)
        if not len(out_rows):
            return empty()
        cols = {
            "query_idx": pa.array(out_qis, pa.int32()),
            "doc_id": batch["doc_id"].take(
                pa.array(out_rows, pa.int64())),
        }
        if self.with_counts:
            cols["n_matches"] = pa.array(out_cnts, pa.int64())
        return pa.table(cols)


def _gate_keys(source: pa.ChunkedArray, doc_index: np.ndarray,
               key_seed: int) -> np.ndarray:
    """Candidate-gate key of each (source, doc_index) row:
    ``splitmix64(hash_str_u64(source, key_seed) ^ doc_index)``. The gate
    bloom is built (``_verify_distributed``) and probed
    (``BloomGateVerifier``) with these keys; any divergence between the
    two would silently drop true hits."""
    from ..state.splitmix import hash_str_u64

    enc = pc.dictionary_encode(source.combine_chunks())
    src_hash = np.array([hash_str_u64(str(s), key_seed)
                         for s in enc.dictionary.to_pylist()],
                        dtype=np.uint64)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return splitmix64(src_hash[codes] ^ doc_index.astype(np.uint64))


class BloomGateVerifier:
    """Sequences-side verification gated by a broadcast FIXED-SIZE bloom
    over candidate (source, doc_index) keys — the distributed candidate
    exchange. The driver never materializes the candidate set; a frequent
    token whose candidates approach corpus size costs one bloom (MBs), not
    a corpus-sized broadcast. Rows passing the gate are exact-verified
    against every query (gate false positives and cross-query admissions
    only add verify work; results stay exact). Emits (query_idx, doc_id,
    source, window_id) so scope filters can re-apply exactly after the
    (lossy) gate."""

    def __init__(self, cfg: HbiConfig, bloom_ref, queries_ref,
                 key_seed: int, with_counts: bool = False):
        self.cfg = cfg
        # hold REFS only: this instance is cloudpickled as the UDF, so
        # resolving here would inline the gate bloom into every task's
        # payload (observed 128 MB/task at the sf1 soak — the bloom is
        # sized to the candidate count). Resolve lazily on the worker,
        # once per process (_GATE_CACHE), zero-copy from local plasma.
        self._bloom_ref = bloom_ref
        self._queries_ref = queries_ref
        self.bloom = None
        self.q_tokens = None
        self.key_seed = key_seed
        self.with_counts = with_counts

    def _resolve(self):
        if self.bloom is not None:
            return
        if isinstance(self._bloom_ref, bytes):
            self.bloom = sketch_from_bytes(self._bloom_ref)
        else:
            self.bloom = _GATE_CACHE.get(
                self._bloom_ref.hex(),
                lambda: sketch_from_bytes(ray.get(self._bloom_ref)))
        qs = self._queries_ref if isinstance(self._queries_ref, list) \
            else ray.get(self._queries_ref)
        self.q_tokens = [np.asarray(q["tokens"], dtype=np.int32) for q in qs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.window import doc_index

        def empty():
            cols = {
                "query_idx": pa.array([], pa.int32()),
                "doc_id": pa.array([], batch["doc_id"].type
                                   if batch.num_rows else pa.string()),
                "source": pa.array([], pa.string()),
                "window_id": pa.array([], pa.int64()),
            }
            if self.with_counts:
                cols["n_matches"] = pa.array([], pa.int64())
            return pa.table(cols)

        if not batch.num_rows:
            return empty()
        self._resolve()
        di = doc_index(batch)
        keys = _gate_keys(batch["source"], di, self.key_seed)
        rows = np.nonzero(self.bloom.contains(keys))[0]
        if not len(rows):
            return empty()
        n_q = len(self.q_tokens)
        pair_rows = np.repeat(rows, n_q)
        pair_qis = np.tile(np.arange(n_q, dtype=np.int64), len(rows))
        flat, offsets = flat_tokens_and_offsets(batch["tokens"])
        out_rows, out_qis, out_cnts = _match_pairs(
            flat, offsets, pair_rows, pair_qis, self.q_tokens)
        if not len(out_rows):
            return empty()
        take = pa.array(out_rows, pa.int64())
        cols = {
            "query_idx": pa.array(out_qis, pa.int32()),
            "doc_id": batch["doc_id"].take(take),
            "source": batch["source"].take(take).cast(pa.string()),
            "window_id": pa.array(
                di[out_rows] >> self.cfg.window_bits, pa.int64()),
        }
        if self.with_counts:
            cols["n_matches"] = pa.array(out_cnts, pa.int64())
        return pa.table(cols)


def _prune_files_by_windows(sequences_meta: list[dict],
                            w: np.ndarray) -> list[str]:
    if not len(w):
        return []
    los = np.array([m["window_lo"] for m in sequences_meta],
                   dtype=np.int64)
    his = np.array([m["window_hi"] for m in sequences_meta],
                   dtype=np.int64)
    # file needed iff some candidate window w satisfies lo <= w < hi:
    # the smallest candidate >= lo must be < hi
    pos = np.searchsorted(w, los, side="left")
    ok = (pos < len(w)) & (np.where(pos < len(w), w[np.minimum(
        pos, len(w) - 1)], np.iinfo(np.int64).max) < his)
    return [m["path"] for m, keep in zip(sequences_meta, ok) if keep]


def window_aligned_layout(path: str, rows_per_file: int,
                          docs_per_file_per_source: int,
                          cfg: HbiConfig) -> list[dict]:
    """Layout metadata for a corpus written as equal-row window-aligned
    files in sorted order (e.g. the bench synth corpus: sources
    interleaved round-robin, ``rows_per_file`` rows each -> every source
    advances ``docs_per_file_per_source`` docs per file)."""
    from pathlib import Path as _P
    files = sorted(str(p) for p in _P(path).glob("*.parquet"))
    if docs_per_file_per_source % cfg.docs_per_window:
        raise ValueError("files must hold whole windows per source")
    span = docs_per_file_per_source >> cfg.window_bits
    return [{"path": f, "window_lo": i * span, "window_hi": (i + 1) * span}
            for i, f in enumerate(files)]


def _scope_filter_fn(sources, window_range, per_query_scope):
    """Vectorized (source, window, per-query) scope re-check as a
    map_batches callable over verified-hit blocks carrying ``source`` /
    ``window_id`` columns — the exact re-application after a lossy
    admitting gate, distributed instead of driver-side. None when no
    scoping is active."""
    if sources is None and window_range is None and per_query_scope is None:
        return None
    src_set = set(sources) if sources is not None else None
    if per_query_scope is not None:
        q_src = np.array([s if s is not None else "" for s, _ in
                          per_query_scope], dtype=object)
        q_win = np.array([w if w is not None else -1 for _, w in
                          per_query_scope], dtype=np.int64)

    def f(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        keep = np.ones(t.num_rows, dtype=bool)
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        win = t["window_id"].to_numpy(zero_copy_only=False)
        if src_set is not None:
            keep &= np.array([s in src_set for s in src], dtype=bool)
        if window_range is not None:
            keep &= (win >= window_range[0]) & (win < window_range[1])
        if per_query_scope is not None:
            qi = t["query_idx"].to_numpy(zero_copy_only=False)
            keep &= ((q_src[qi] == "") | (q_src[qi] == src))
            keep &= (q_win[qi] == -1) | (q_win[qi] == win)
        return t.filter(pa.array(keep))

    return f


def _verify_distributed(cand_mat: "rd.Dataset", sequences_ds: "rd.Dataset",
                        compiled: list[dict], cfg: HbiConfig, q_ref,
                        n_cand: int, *, sources, window_range,
                        per_query_scope, with_counts: bool = False):
    """Distributed candidate exchange: aggregate candidate (source,
    doc_index) keys into ONE fixed-size bloom (a distributed tree reduce —
    candidates never reach the driver), broadcast it to the verify stage,
    and re-apply every scope filter exactly on the verified hits (the gate
    is lossy in the admitting direction only). Returns a LAZY Dataset of
    (query_idx, doc_id[, n_matches]) — hits never pass through the driver
    (VERDICT r3 #1) — or None when there are no candidates."""
    from ..stages.aggregate import BloomAgg

    if n_cand == 0:
        return None
    key_seed = derive_seed(cfg.seed, "cand_gate")

    def to_keys(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"ckey": pa.array([], pa.uint64())})
        di = ((t["window_id"].to_numpy(zero_copy_only=False)
               << cfg.window_bits)
              | t["slot"].to_numpy(zero_copy_only=False))
        keys = _gate_keys(t["source"], di, key_seed)
        return pa.table({"ckey": pa.array(keys, pa.uint64())})

    agg = cand_mat.map_batches(to_keys, batch_format="pyarrow").aggregate(
        BloomAgg(cfg.seed, n=max(int(n_cand), 1024), fp=1e-3, on="ckey",
                 alias_name="cand_bloom"))
    bloom_ref = ray.put(agg["cand_bloom"])
    hits_ds = sequences_ds.map_batches(
        BloomGateVerifier(cfg, bloom_ref, q_ref, key_seed,
                          with_counts=with_counts),
        batch_format="pyarrow", zero_copy_batch=True)
    scope = _scope_filter_fn(sources, window_range, per_query_scope)
    if scope is not None:
        hits_ds = hits_ds.map_batches(scope, batch_format="pyarrow")
    return hits_ds.select_columns(
        ["query_idx", "doc_id"] + (["n_matches"] if with_counts else []))


def _membership_hits(index_ds: "rd.Dataset", sequences_ds: "rd.Dataset",
                     queries: list[tuple[str, list[int]]], cfg: HbiConfig,
                     *, sources: list[str] | None = None,
                     window_range: tuple[int, int] | None = None,
                     per_query_scope: list[tuple] | None = None,
                     super_dir: str | None = None,
                     with_counts: bool = False,
                     sequences_meta: list[dict] | None = None,
                     stats: dict | None = None):
    """Shared front of the membership query: compile -> async super
    descend -> partition-pruned bloom probe -> one candidate hand-off ->
    LAZY verified-hits Dataset of (query_idx, doc_id[, n_matches]).

    Returns ``(hits_ds | None, compiled)``. Nothing hit-sized touches
    the driver here (VERDICT r3 #1): the hits stay a Dataset for the
    caller to collect (``membership_query``, the small-result
    convenience path) or keep distributed (``membership_query_ds``,
    the scale path).

    ``sources`` / ``window_range`` scope the query (FIXTURES.md F3): index
    partitions outside the scope are pruned before any probe — the Ray
    analogue of the reference's window-horizon partition pruning
    (``PMIndex/HBI.java:263-266``).

    ``super_dir``: an index directory holding cross-window super levels
    (``pipelines/super_index.py``, the reference's across-trees pruning
    ``PMIndex/HBI.java:207-266``): the whole batch descends on one
    coordinator actor, asynchronously next to the probe; once its
    ``SuperPruneResult`` lands, each window probes only the queries that
    reached it and windows no query reached are skipped — probe work
    drops from O(windows) to O(log windows) for absent tokens. A store
    that does not summarize the current manifest prunes nothing.

    ``stats``: optional dict filled with probe telemetry
    (candidates, n_queries, super_probes, mode) for benchmarking —
    the Ray analogue of the reference's perf counters
    (``utilities/BenchmarkOrchestrator.java`` CSV columns).

    The candidate hand-off: up to ``_BROADCAST_LIMIT`` candidate pairs,
    the verify stage takes the refs of the probe's materialized candidate
    blocks, and each verify worker process builds the exact per-source
    structs from them once (``ExactVerifier``); past it, one fixed-size
    candidate bloom gates the verify (``_verify_distributed``).

    ``sequences_meta``: optional window-aligned file layout of the
    sequences corpus — ``[{"path": ..., "window_lo": L, "window_hi": H}]``
    (half-open window range per file, any source). When given, the verify
    stage reads these files instead of ``sequences_ds``: ONLY those whose
    window range intersects a window the super descend reached (a
    superset of every true hit's window), or every file when no usable
    store covers the scoped sources. For selective queries the verify
    cost stops being O(corpus) and becomes O(reached windows), the
    sequences-side analogue of the super-level index pruning. Results
    are identical either way.
    """
    if "bloom_tree" not in cfg.sketches:
        raise ValueError(
            "membership queries need a bloom_tree index; this config "
            f"builds only {list(cfg.sketches)}")
    compiled = compile_queries(queries, cfg)
    # async descend: dispatched to the coordinator actor; the driver
    # proceeds to schedule the probe pipeline and every consumer resolves
    # the ref lazily on its worker (VERDICT r2 #1: no driver-serial
    # descend on the query critical path)
    sprune_ref = None
    if super_dir is not None:
        from .super_index import super_prune_async
        sprune_ref = super_prune_async(super_dir, cfg, compiled,
                                       sources=sources,
                                       window_range=window_range)
    if sources is not None:
        keep = pa.array(sorted(sources))
        index_ds = index_ds.map_batches(
            lambda t: t.filter(pc.is_in(t["source"], value_set=keep)),
            batch_format="pyarrow")
    if window_range is not None:
        lo, hi = window_range
        index_ds = index_ds.map_batches(
            lambda t: t.filter(pc.and_(
                pc.greater_equal(t["window_id"], lo),
                pc.less(t["window_id"], hi))),
            batch_format="pyarrow")
    # plain callable INSTANCES -> elastic task pool (no actor-pool startup
    # cost; compiled queries ride along in the serialized closure).
    # batch_size=None: batches follow the read's block layout, which lets
    # Ray FUSE ReadParquet->Project->BloomProbe into one task — the
    # bloom blobs (the index's dominant bytes) never round-trip through
    # the object store between read and probe
    cand_ds = index_ds.select_columns(
        ["source", "window_id", "bloom_tree"]).map_batches(
        BloomProbe(cfg, compiled, prune_ref=sprune_ref),
        batch_format="pyarrow")

    if per_query_scope is not None:
        # (source|None, window_id|None) per query: filter candidates the
        # scoped query may not see (FIXTURES.md F3 per-query scoping)
        cand_ds = cand_ds.map_batches(
            _scope_filter_fn(None, None, per_query_scope),
            batch_format="pyarrow")

    import time as _time
    _t0 = _time.perf_counter()
    cand_mat = cand_ds.materialize()
    n_cand = cand_mat.count()
    if stats is not None:
        stats["t_probe"] = round(_time.perf_counter() - _t0, 3)
        stats["candidates"] = n_cand
        stats["n_queries"] = len(compiled)
        if sprune_ref is not None:
            res = ray.get(sprune_ref)
            stats["super_probes"] = 0 if res is None else res.probes
    mode = "broadcast" if n_cand <= _BROADCAST_LIMIT else "distributed"
    if stats is not None:
        stats["mode"] = mode
    if mode == "distributed":
        hits_ds = _verify_distributed(cand_mat, sequences_ds, compiled,
                                      cfg, ray.put(compiled), n_cand,
                                      sources=sources,
                                      window_range=window_range,
                                      per_query_scope=per_query_scope,
                                      with_counts=with_counts)
        return hits_ds, compiled
    verify_ds = sequences_ds if n_cand else None
    if sequences_meta is not None:
        # file-pruning windows: the descend's, or None (read every file)
        wins = np.empty(0, np.int64) if not n_cand else None
        if n_cand and sprune_ref is not None:
            from .build_index import load_manifest
            res = ray.get(sprune_ref)
            man = load_manifest(super_dir)
            if res is not None and man and man.get("sources"):
                wins = res.windows(
                    [s for s in man["sources"]
                     if sources is None or s in sources])
        paths = ([m["path"] for m in sequences_meta] if wins is None
                 else _prune_files_by_windows(sequences_meta, wins))
        if stats is not None:
            # verify-stage read telemetry (the reference's
            # BenchmarkOrchestrator bytes-scanned counters): how much of
            # the corpus the candidate-file pruning let the verify skip
            import os as _os
            stats["verify_files"] = len(paths)
            stats["verify_files_total"] = len(sequences_meta)
            try:
                stats["verify_bytes"] = sum(
                    _os.path.getsize(p) for p in paths)
                stats["verify_bytes_total"] = sum(
                    _os.path.getsize(m["path"]) for m in sequences_meta)
            except OSError:
                pass
        # one block per file: stops the read from SplitBlocks-ing (which
        # breaks Read->ExactVerifier fusion) — the token stream then
        # never round-trips through the object store
        verify_ds = (rd.read_parquet(paths, override_num_blocks=len(paths))
                     if paths else None)
    if verify_ds is None:
        return None, compiled
    hits_ds = verify_ds.map_batches(
        ExactVerifier(cfg, cand_mat.to_arrow_refs(), compiled,
                      with_counts=with_counts),
        batch_format="pyarrow", zero_copy_batch=True)
    return hits_ds, compiled


def _empty_result(with_counts: bool) -> pa.Table:
    cols = {"query_id": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.string())}
    if with_counts:
        cols["n_matches"] = pa.array([], pa.int64())
    return pa.table(cols)


def _expand_qids_fn(compiled: list[dict], with_counts: bool,
                    block_sort: bool):
    """(query_idx, doc_id[, n_matches]) -> (query_id, doc_id[,
    n_matches]) per block: dictionary expansion in C instead of a Python
    .tolist() over every hit row; optional per-block sort (sorted-run
    output for merge-on-read consumers)."""
    qids = pa.array([q["query_id"] for q in compiled], pa.string())

    def f(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _empty_result(with_counts)
        qi_idx = t["query_idx"].combine_chunks().cast(pa.int32())
        cols = {
            "query_id": pa.DictionaryArray.from_arrays(
                qi_idx, qids).cast(pa.string()),
            "doc_id": t["doc_id"].combine_chunks(),
        }
        if with_counts:
            cols["n_matches"] = t["n_matches"].combine_chunks().cast(
                pa.int64())
        out = pa.table(cols)
        if block_sort:
            out = out.sort_by([("query_id", "ascending"),
                               ("doc_id", "ascending")])
        return out

    return f


def membership_query(index_ds: "rd.Dataset", sequences_ds: "rd.Dataset",
                     queries: list[tuple[str, list[int]]], cfg: HbiConfig,
                     *, with_counts: bool = False,
                     stats: dict | None = None, **kwargs) -> pa.Table:
    """Exact pattern-membership results for a batch of queries, collected
    to ONE pyarrow Table (query_id, doc_id[, n_matches]) sorted for
    determinism — the small-result convenience path. When the hit set can
    be large (frequent tokens x big corpus: billions of rows at 100 TB),
    use ``membership_query_ds`` instead: same pipeline, but the verified
    hits stay a Dataset end-to-end (optionally sorted per block) and
    never pass through the driver.

    See ``_membership_hits`` for the full pipeline shape and the meaning
    of the keyword options (sources/window_range/per_query_scope scoping,
    super_dir pruning, sequences_meta file pruning, stats telemetry)."""
    import time as _time

    hits_ds, compiled = _membership_hits(
        index_ds, sequences_ds, queries, cfg, with_counts=with_counts,
        stats=stats, **kwargs)
    _t1 = _time.perf_counter()
    hits = None
    if hits_ds is not None:
        # stay arrow: concat block refs zero-copy — no pandas round-trip
        blocks = [b for b in ray.get(hits_ds.to_arrow_refs())
                  if b.num_rows]
        hits = pa.concat_tables(blocks) if blocks else None
    if stats is not None:
        stats["t_verify"] = round(_time.perf_counter() - _t1, 3)
    if hits is None or not hits.num_rows:
        return _empty_result(with_counts)
    tbl = _expand_qids_fn(compiled, with_counts, block_sort=False)(hits)
    return tbl.sort_by([("query_id", "ascending"), ("doc_id", "ascending")])


def membership_query_ds(index_ds: "rd.Dataset", sequences_ds: "rd.Dataset",
                        queries: list[tuple[str, list[int]]],
                        cfg: HbiConfig, *, with_counts: bool = False,
                        sort: str | None = "block",
                        stats: dict | None = None,
                        **kwargs) -> "rd.Dataset":
    """Dataset-returning membership query — the scale path (VERDICT r3
    #1). The verified hits stay distributed: consume with
    ``write_parquet`` / ``iter_batches`` / an aggregate; a frequent-token
    batch returning billions of (query_id, doc_id) rows never flows
    through one process.

    ``sort``: ``None`` (no ordering — the reference's result
    normalization is order-insensitive, ``HBIDatasetBenchmark.java:
    156-182``), ``"block"`` (each output block sorted by (query_id,
    doc_id): sorted runs for merge-on-read consumers; the default)."""
    if sort not in (None, "block"):
        raise ValueError(f"sort must be None or 'block', got {sort!r}")
    hits_ds, compiled = _membership_hits(
        index_ds, sequences_ds, queries, cfg, with_counts=with_counts,
        stats=stats, **kwargs)
    if hits_ds is None:
        return rd.from_arrow(_empty_result(with_counts))
    return hits_ds.map_batches(
        _expand_qids_fn(compiled, with_counts, block_sort=sort == "block"),
        batch_format="pyarrow")


def membership_query_table(index_ds: "rd.Dataset",
                           sequences_ds: "rd.Dataset",
                           queries_table: pa.Table, cfg: HbiConfig,
                           **kwargs) -> pa.Table:
    """Batch query surface over a queries table (FIXTURES.md F3 schema):
    ``query_id: string, qtokens: list<int32>`` with optional per-query
    ``source: string|null`` and ``window_id: int64|null`` scope columns."""
    qids = queries_table["query_id"].to_pylist()
    qtoks = queries_table["qtokens"].to_pylist()
    queries = list(zip(qids, qtoks))
    scope = None
    names = queries_table.column_names
    if "source" in names or "window_id" in names:
        srcs = (queries_table["source"].to_pylist() if "source" in names
                else [None] * len(qids))
        wins = (queries_table["window_id"].to_pylist()
                if "window_id" in names else [None] * len(qids))
        scope = list(zip(srcs, wins))
    return membership_query(index_ds, sequences_ds, queries, cfg,
                            per_query_scope=scope, **kwargs)
