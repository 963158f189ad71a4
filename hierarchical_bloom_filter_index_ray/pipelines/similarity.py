"""Similarity search over an embedding column (``list<float>``).

Build-brief requirement: brute-force cosine top-k as the exact baseline
(numpy matmul per batch against a broadcast query matrix) and an
LSH-bucketed (random-hyperplane / SimHash-style) variant as the scale path
— probe only matching buckets instead of the full corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..state.splitmix import derive_seed, splitmix64


def _matrix(col) -> np.ndarray:
    """(n, d) float64 from a list<float> column (zero-copy flat child)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    d = int(offsets[1] - offsets[0])
    return flat.reshape(len(col), d).astype(np.float64)


class _BatchTopK:
    """Per-batch exact cosine top-k for every broadcast query vector."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) \
            else queries_ref
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        self.q = q / np.maximum(qn, 1e-30)          # (Q, d), normalized
        self.k = k
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = _matrix(batch[self.vec_col])
        xn = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.maximum(xn, 1e-30)
        sims = self.q @ x.T                          # (Q, n)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        k = min(self.k, sims.shape[1])
        # per query: local top-k (deterministic tie-break: sim desc, id asc)
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            cols = part[qi]
            out_q.extend([qi] * len(cols))
            out_id.extend(ids[cols].tolist())
            out_sim.extend(sims[qi, cols].tolist())
        return pa.table({
            "query_idx": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_id, pa.int64()),
            "cosine": pa.array(out_sim, pa.float64()),
        })


def _merge_topk(parts: pd.DataFrame, k: int) -> pd.DataFrame:
    """Vectorized driver merge of per-batch local top-k rows: global sort
    (query asc, cosine desc, neighbor asc) -> head(k) per query -> rank =
    within-group position. No per-row Python."""
    parts = parts.sort_values(["query_idx", "cosine", "neighbor_id"],
                              ascending=[True, False, True],
                              kind="stable")
    top = parts.groupby("query_idx", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_idx").cumcount() + 1
    top["query_idx"] = top["query_idx"].astype(np.int64)
    top["neighbor_id"] = top["neighbor_id"].astype(np.int64)
    return top[["query_idx", "neighbor_id", "cosine", "rank"]]


def knn_bruteforce(ds: "rd.Dataset", query_vectors: np.ndarray, k: int = 10,
                   *, id_col: str = "vec_id", vec_col: str = "embedding",
                   exclude_self: bool = True,
                   query_ids: np.ndarray | None = None,
                   concurrency=None) -> pd.DataFrame:
    """Exact cosine top-k: map side emits per-batch local top-k per query
    (bounded: Q*k rows per batch), driver merges (vectorized). ->
    (query_idx, neighbor_id, cosine, rank)."""
    from ..stages.resources import default_concurrency
    if concurrency is None:
        concurrency = default_concurrency()
    q = np.asarray(query_vectors, dtype=np.float64)
    ref = ray.put(q)
    # fetch one extra local candidate when self-matches will be dropped
    k_local = k + 1 if exclude_self else k
    parts = ds.map_batches(
        _BatchTopK, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=4096, concurrency=concurrency,
        fn_constructor_kwargs={"queries_ref": ref, "k": k_local,
                               "id_col": id_col,
                               "vec_col": vec_col}).to_pandas()
    if exclude_self and query_ids is not None:
        qi = parts["query_idx"].to_numpy()
        parts = parts[parts["neighbor_id"].to_numpy()
                      != np.asarray(query_ids)[qi]]
    return _merge_topk(parts, k)


# -------------------------------------------- embedding-cosine near-dup --
def embedding_near_dup_pairs(ds: "rd.Dataset", *, threshold: float = 0.95,
                             n_tables: int = 8, n_bits: int = 8,
                             seed: int = 42, id_col: str = "vec_id",
                             vec_col: str = "embedding",
                             all_pairs_cap: int = 16) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs (training-data dedup mode):
    multi-table random-hyperplane LSH — a pair at angle theta collides in
    one table w.p. (1 - theta/pi)^n_bits, so ``n_tables`` independent
    tables push recall toward 1 for cos >= threshold — then exact cosine
    verification of bucket-mates. Same scale shape as the MinHash path:
    the shuffle carries only (doc_id, bucket) int rows (sort + in-block
    neighbor detection, no group-count aggregate); vectors for the rare
    candidate ids are fetched in a narrow second pass."""
    from ..pipelines.dedup import _bucket_candidate_pairs

    base_seed = derive_seed(seed, "emb_dedup")

    def assign(batch: pa.Table) -> pa.Table:
        x = _matrix(batch[vec_col])
        n = x.shape[0]
        bucket_parts = []
        for t in range(n_tables):
            planes = _hyperplanes(x.shape[1], n_bits,
                                  derive_seed(base_seed, "table", t))
            b = lsh_bucket_ids(x, planes)
            # fold table id in so buckets never collide across tables
            bucket_parts.append(b | (np.int64(t) << np.int64(n_bits)))
        buckets = np.stack(bucket_parts, axis=1).reshape(-1)
        rep = np.repeat(np.arange(n), n_tables)
        return pa.table({
            "doc_id": batch[id_col].take(pa.array(rep)),
            "bucket": pa.array(buckets, pa.int64()),
        })

    band_rows = ds.map_batches(assign, batch_format="pyarrow",
                               zero_copy_batch=True)
    cand = _bucket_candidate_pairs(band_rows, "bucket",
                                   all_pairs_cap=all_pairs_cap)
    if not len(cand):
        return pd.DataFrame({"a": [], "b": [], "cosine": []})
    # narrow second pass: vectors for candidate ids only
    hot_ids = np.unique(np.concatenate([cand["a"].to_numpy(),
                                        cand["b"].to_numpy()]))
    ids_ref = pa.array(hot_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.is_in(batch[id_col], value_set=ids_ref)
        return batch.filter(m).select([id_col, vec_col])

    vec_df = ds.map_batches(fetch, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    mat = np.stack(vec_df[vec_col].to_numpy()).astype(np.float64)
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                           1e-30)
    pos = pd.Series(np.arange(len(vec_df)),
                    index=vec_df[id_col].to_numpy())
    va = mat[pos[cand["a"].to_numpy()].to_numpy()]
    vb = mat[pos[cand["b"].to_numpy()].to_numpy()]
    cos = (va * vb).sum(axis=1)
    out = pd.DataFrame({"a": cand["a"].values, "b": cand["b"].values,
                        "cosine": cos})
    out = out[out["cosine"] >= threshold]
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def embedding_sim_join(ds: "rd.Dataset", out_dir: str, *,
                       threshold: float, chunk_rows: int = 8192,
                       n_chunks: int | None = None, seed: int = 42,
                       id_col: str = "vec_id", vec_col: str = "embedding",
                       concurrency=None) -> pd.DataFrame:
    """EXACT cosine threshold self-join -> every unordered pair (a < b)
    with cosine >= threshold. The similarity-join analogue of
    ``knn_bruteforce``: answers are exact, so it doubles as the oracle for
    the subquadratic LSH path (``embedding_near_dup_pairs``).

    Two phases, neither materializes the corpus on the driver:

    1. normalize vectors (float64) and hash-partition rows into K chunk
       partitions of a parquet store (one pass, partitioned write);
    2. one task per unordered chunk pair (i <= j): read ONLY those two
       chunks, one matmul, emit qualifying id pairs. K(K+1)/2 independent
       tasks scheduled by Ray Data — O(n^2 d) total work split evenly,
       per-task memory bounded by 2 chunks. Each id pair is covered by
       exactly one task (the (min,max) of the two rows' chunk ids).
    """
    import json
    import math
    from pathlib import Path

    from ..stages.resources import default_concurrency
    from ..state.splitmix import hash_u64

    if concurrency is None:
        concurrency = default_concurrency()
    part_seed = derive_seed(seed, "simjoin_chunk")
    n = ds.count()
    k_chunks = n_chunks or max(1, math.ceil(n / chunk_rows))

    def assign(batch: pa.Table) -> pa.Table:
        x = _matrix(batch[vec_col])
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        chunk = (hash_u64(ids.astype(np.uint64), part_seed)
                 % np.uint64(k_chunks)).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "vec": pa.array(list(x), pa.list_(pa.float64())),
            "chunk": pa.array(chunk, pa.int64()),
        })

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if (out / "chunks").exists():      # a re-run must not append duplicate
        import shutil                  # chunk files (pairs would multiply)
        shutil.rmtree(out / "chunks")
    (ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
       .write_parquet(str(out / "chunks"), partition_cols=["chunk"]))
    (out / "simjoin_meta.json").write_text(json.dumps(
        {"n_chunks": k_chunks, "threshold": threshold, "seed": seed}))

    chunk_root = out / "chunks"

    def scan_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        frames = []
        for i, j in zip(batch["i"], batch["j"]):
            def load(c):
                d = chunk_root / f"chunk={c}"
                files = sorted(d.glob("*.parquet"))
                if not files:
                    return None, None
                t = pa.concat_tables([pq.read_table(f) for f in files])
                ids = t["vec_id"].to_numpy(zero_copy_only=False)
                m = _matrix(t["vec"])
                return ids, m
            ids_i, xi = load(i)
            if ids_i is None:
                continue
            if i == j:
                ids_j, xj = ids_i, xi
            else:
                ids_j, xj = load(j)
                if ids_j is None:
                    continue
            sims = xi @ xj.T
            ai, bj = np.nonzero(sims >= threshold)
            a = ids_i[ai]
            b = ids_j[bj]
            keep = a != b
            a, b = a[keep], b[keep]
            cos = sims[ai[keep], bj[keep]]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            if i == j:                       # each pair appears twice
                keep2 = a < b
                lo, hi, cos = lo[keep2], hi[keep2], cos[keep2]
            frames.append(pd.DataFrame({"a": lo, "b": hi, "cosine": cos}))
        if not frames:
            return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                                 "b": pd.Series([], dtype=np.int64),
                                 "cosine": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    tasks = [{"i": i, "j": j} for i in range(k_chunks)
             for j in range(i, k_chunks)]
    res = (rd.from_items(tasks).map_batches(
        scan_pairs, batch_format="pandas", batch_size=4).to_pandas())
    res["a"] = res["a"].astype(np.int64)
    res["b"] = res["b"].astype(np.int64)
    return res.sort_values(["a", "b"]).reset_index(drop=True)


def embedding_dedup(ds: "rd.Dataset", **kwargs) -> pd.DataFrame:
    """-> (vec_id, cluster_id) for every vector in a near-dup cluster
    (union-find over the verified pair list, like ``minhash_dedup``)."""
    from ..pipelines.dedup import cluster_pairs

    pairs = embedding_near_dup_pairs(ds, **kwargs)
    clusters = cluster_pairs(pairs)
    return pd.DataFrame(
        {"vec_id": list(clusters), "cluster_id": list(clusters.values())}
    ).sort_values("vec_id").reset_index(drop=True)


# ---------------------------------------------------- IVF/LSH ANN index --
def build_ann_index(ds: "rd.Dataset", out_dir: str, *, n_bits: int = 8,
                    seed: int = 42, id_col: str = "vec_id",
                    vec_col: str = "embedding") -> dict:
    """Persist the embedding corpus partitioned by LSH bucket (IVF-style
    inverted listing): queries then READ only the partitions they probe —
    at corpus scale the query cost is proportional to probed buckets, not
    the corpus. One pass, no shuffle beyond the partitioned write."""
    import json
    from pathlib import Path

    probe_seed = derive_seed(seed, "ann_lsh")
    d_holder: dict = {}

    def assign(batch: pa.Table) -> pa.Table:
        x = _matrix(batch[vec_col])
        d_holder["d"] = x.shape[1]
        planes = _hyperplanes(x.shape[1], n_bits, probe_seed)
        return batch.append_column(
            "bucket", pa.array(lsh_bucket_ids(x, planes), pa.int64()))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
       .write_parquet(str(out / "buckets"), partition_cols=["bucket"]))
    meta = {"n_bits": n_bits, "seed": seed, "id_col": id_col,
            "vec_col": vec_col}
    (out / "ann_meta.json").write_text(json.dumps(meta))
    return meta


def knn_indexed(out_dir: str, query_vectors: np.ndarray, k: int = 10, *,
                multiprobe: int = 1, probe_all: bool = False,
                exclude_self: bool = False,
                query_ids: np.ndarray | None = None,
                concurrency=None) -> pd.DataFrame:
    """Exact cosine top-k over ONLY the probed bucket partitions of a
    ``build_ann_index`` store (query's bucket + Hamming-1 neighbors under
    ``multiprobe``). Same output schema as ``knn_lsh``.

    ``probe_all=True`` probes EVERY bucket partition: results are then
    provably identical to ``knn_bruteforce`` over the same corpus (the
    store is a partition of it), which makes the store's read path
    SQL-oracle-checkable while still exercising the partitioned layout."""
    import json
    from pathlib import Path

    import ray.data as rd_

    meta = json.loads((Path(out_dir) / "ann_meta.json").read_text())
    n_bits = meta["n_bits"]
    q = np.asarray(query_vectors, dtype=np.float64)
    planes = _hyperplanes(q.shape[1], n_bits,
                          derive_seed(meta["seed"], "ann_lsh"))
    qb = lsh_bucket_ids(q, planes)
    if probe_all:
        probe = {int(p.name.split("=", 1)[1])
                 for p in (Path(out_dir) / "buckets").glob("bucket=*")}
    else:
        probe = set(qb.tolist())
        if multiprobe:
            for b in qb.tolist():
                for j in range(n_bits):
                    probe.add(b ^ (1 << j))
    # read ONLY probed partitions (hive dirs exist per present bucket)
    paths = [str(f) for b in sorted(probe)
             for f in sorted((Path(out_dir) / "buckets"
                              / f"bucket={b}").glob("*.parquet"))]
    if not paths:
        return pd.DataFrame({"query_idx": [], "neighbor_id": [],
                             "cosine": [], "rank": []})
    ds = rd_.read_parquet(paths)
    from ..stages.resources import default_concurrency
    if concurrency is None:
        concurrency = default_concurrency()
    ref = ray.put(q)
    k_local = k + 1 if exclude_self else k
    parts = ds.map_batches(
        _BatchTopK, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=4096, concurrency=concurrency,
        fn_constructor_kwargs={"queries_ref": ref, "k": k_local,
                               "id_col": meta["id_col"],
                               "vec_col": meta["vec_col"]}).to_pandas()
    if exclude_self and query_ids is not None:
        qi = parts["query_idx"].to_numpy()
        parts = parts[parts["neighbor_id"].to_numpy()
                      != np.asarray(query_ids)[qi]]
    return _merge_topk(parts, k)


# ------------------------------------------------------ k-means IVF ANN --
def kmeans_fit(ds: "rd.Dataset", n_clusters: int, *, iters: int = 10,
               seed: int = 42, vec_col: str = "embedding") -> np.ndarray:
    """DISTRIBUTED Lloyd's k-means over unit-normalized vectors: each
    iteration is one map_batches (per-batch cluster sums/counts — the
    combiner) + one tiny global aggregate; only the (k, d) centroid
    matrix moves between driver and workers. Deterministic: seeded
    counter-based init, empty clusters re-seeded from the same chain."""
    import ray.data as rd_

    first = ds.take_batch(2, batch_format="pyarrow")
    d = _matrix(first[vec_col]).shape[1]
    keys = np.arange(n_clusters * d, dtype=np.uint64) ^ np.uint64(
        derive_seed(seed, "kmeans_init") & 0xFFFFFFFFFFFFFFFF)
    u = (splitmix64(keys) >> np.uint64(11)).astype(np.float64) / (1 << 53)
    cents = (u.reshape(n_clusters, d) - 0.5)
    cents /= np.maximum(np.linalg.norm(cents, axis=1, keepdims=True),
                        1e-30)
    for it in range(iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            x = _matrix(batch[vec_col])
            x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True),
                               1e-30)
            a = (x @ c.T).argmax(axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, a, x)
            cnt = np.bincount(a, minlength=len(c))
            return pa.table({
                "cluster": pa.array(np.arange(len(c)), pa.int32()),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "cnt": pa.array(cnt.astype(np.int64)),
            })

        from ray.data.aggregate import Sum

        def merge_sums(df):
            import pandas as pd
            mat = np.stack(df["vsum"].to_numpy())
            out = pd.DataFrame({"cluster": [int(df["cluster"].iloc[0])]})
            out["vsum"] = [mat.sum(axis=0)]
            out["cnt"] = int(df["cnt"].sum())
            return out

        agg = (ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby("cluster").map_groups(merge_sums,
                                              batch_format="pandas")
               .to_pandas())
        new = cents.copy()
        for _, r in agg.iterrows():
            if r["cnt"] > 0:
                v = np.asarray(r["vsum"], dtype=np.float64)
                new[int(r["cluster"])] = v / max(
                    np.linalg.norm(v), 1e-30)
        cents = new
    return cents


def build_ann_index_kmeans(ds: "rd.Dataset", out_dir: str, *,
                           n_clusters: int = 16, iters: int = 10,
                           seed: int = 42, id_col: str = "vec_id",
                           vec_col: str = "embedding") -> dict:
    """True IVF: k-means centroids (distributed fit) -> corpus written
    partitioned by nearest-centroid cluster; queries read only the
    ``nprobe`` closest clusters' partitions."""
    import json
    from pathlib import Path

    cents = kmeans_fit(ds, n_clusters, iters=iters, seed=seed,
                       vec_col=vec_col)
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        x = _matrix(batch[vec_col])
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True),
                           1e-30)
        a = (x @ c.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("cluster", pa.array(a))

    out = Path(out_dir)
    if (out / "clusters").exists():
        import shutil
        shutil.rmtree(out / "clusters")
    out.mkdir(parents=True, exist_ok=True)
    (ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
       .write_parquet(str(out / "clusters"), partition_cols=["cluster"]))
    (out / "kmeans_meta.json").write_text(json.dumps(
        {"n_clusters": n_clusters, "seed": seed, "id_col": id_col,
         "vec_col": vec_col, "centroids": cents.tolist()}))
    return {"n_clusters": n_clusters, "centroids": cents}


def knn_kmeans(out_dir: str, query_vectors: np.ndarray, k: int = 10, *,
               nprobe: int = 2, probe_all: bool = False,
               exclude_self: bool = False,
               query_ids: np.ndarray | None = None,
               concurrency=None) -> pd.DataFrame:
    """Exact cosine top-k over the ``nprobe`` nearest cluster partitions
    of a ``build_ann_index_kmeans`` store (``probe_all=True`` scans every
    cluster -> provably identical to brute force)."""
    import json
    from pathlib import Path

    import ray.data as rd_

    meta = json.loads((Path(out_dir) / "kmeans_meta.json").read_text())
    cents = np.asarray(meta["centroids"], dtype=np.float64)
    q = np.asarray(query_vectors, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    if probe_all:
        probe = set(range(meta["n_clusters"]))
    else:
        order = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]
        probe = set(order.ravel().tolist())
    paths = [str(f) for c in sorted(probe)
             for f in sorted((Path(out_dir) / "clusters"
                              / f"cluster={c}").glob("*.parquet"))]
    if not paths:
        return pd.DataFrame({"query_idx": [], "neighbor_id": [],
                             "cosine": [], "rank": []})
    ds = rd_.read_parquet(paths)
    from ..stages.resources import default_concurrency
    if concurrency is None:
        concurrency = default_concurrency()
    ref = ray.put(q)
    k_local = k + 1 if exclude_self else k
    parts = ds.map_batches(
        _BatchTopK, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=4096, concurrency=concurrency,
        fn_constructor_kwargs={"queries_ref": ref, "k": k_local,
                               "id_col": meta["id_col"],
                               "vec_col": meta["vec_col"]}).to_pandas()
    if exclude_self and query_ids is not None:
        qi = parts["query_idx"].to_numpy()
        parts = parts[parts["neighbor_id"].to_numpy()
                      != np.asarray(query_ids)[qi]]
    return _merge_topk(parts, k)


# ------------------------------------------------------- LSH-bucketed ANN --
def _hyperplanes(d: int, n_bits: int, seed: int) -> np.ndarray:
    """Deterministic random hyperplanes via counter-based gaussians."""
    n = d * n_bits
    keys = np.arange(n, dtype=np.uint64) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    u1 = (splitmix64(keys) >> np.uint64(11)).astype(np.float64) / (1 << 53)
    u2 = (splitmix64(splitmix64(keys)) >> np.uint64(11)).astype(
        np.float64) / (1 << 53)
    z = np.sqrt(-2 * np.log(np.maximum(u1, 1e-300))) * np.cos(2 * np.pi * u2)
    return z.reshape(n_bits, d)


def lsh_bucket_ids(x: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (x @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def knn_lsh(ds: "rd.Dataset", query_vectors: np.ndarray, k: int = 10, *,
            n_bits: int = 8, seed: int = 42, id_col: str = "vec_id",
            vec_col: str = "embedding", multiprobe: int = 1,
            concurrency=None) -> pd.DataFrame:
    """Approximate top-k: random-hyperplane buckets; queries probe their own
    bucket (+ Hamming-1 neighbors when ``multiprobe``). The scale path —
    each batch only scores rows whose bucket is probed."""
    q = np.asarray(query_vectors, dtype=np.float64)
    d = q.shape[1]
    planes = _hyperplanes(d, n_bits, derive_seed(seed, "ann_lsh"))
    qb = lsh_bucket_ids(q, planes)
    probe: set[int] = set(qb.tolist())
    if multiprobe:
        for b in qb.tolist():
            for j in range(n_bits):
                probe.add(b ^ (1 << j))
    probe_arr = np.array(sorted(probe), dtype=np.int64)
    planes_ref = ray.put(planes)
    q_ref = ray.put(q)

    class BucketTopK:
        def __init__(self):
            self.q = ray.get(q_ref)
            qn = np.linalg.norm(self.q, axis=1, keepdims=True)
            self.qn = self.q / np.maximum(qn, 1e-30)
            self.planes = ray.get(planes_ref)
            self.qb = qb
            self.probe = probe_arr

        def __call__(self, batch: pa.Table) -> pa.Table:
            x = _matrix(batch[vec_col])
            xb = lsh_bucket_ids(x, self.planes)
            mask = np.isin(xb, self.probe)
            empty = pa.table({"query_idx": pa.array([], pa.int64()),
                              "neighbor_id": pa.array([], pa.int64()),
                              "cosine": pa.array([], pa.float64())})
            if not mask.any():
                return empty
            x = x[mask]
            ids = batch[id_col].to_numpy(zero_copy_only=False)[mask]
            xb = xb[mask]
            xn = np.linalg.norm(x, axis=1, keepdims=True)
            x = x / np.maximum(xn, 1e-30)
            sims = self.qn @ x.T
            out_q, out_id, out_sim = [], [], []
            for qi in range(sims.shape[0]):
                # candidate rows: bucket within multiprobe distance of query
                cand = np.nonzero(np.isin(xb, np.concatenate(
                    [[self.qb[qi]],
                     self.qb[qi] ^ (1 << np.arange(n_bits))])))[0] \
                    if multiprobe else np.nonzero(xb == self.qb[qi])[0]
                if len(cand) == 0:
                    continue
                kk = min(k, len(cand))
                top = cand[np.argpartition(-sims[qi, cand], kk - 1)[:kk]]
                out_q.extend([qi] * len(top))
                out_id.extend(ids[top].tolist())
                out_sim.extend(sims[qi, top].tolist())
            return pa.table({
                "query_idx": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_sim, pa.float64()),
            })

    from ..stages.resources import default_concurrency
    if concurrency is None:
        concurrency = default_concurrency()
    parts = ds.map_batches(BucketTopK, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=4096,
                           concurrency=concurrency).to_pandas()
    return _merge_topk(parts, k)


# ------------------------------------------------ product quantization --
def pq_fit(ds: "rd.Dataset", *, m: int = 4, k: int = 16,
           iters: int = 8, seed: int = 42,
           vec_col: str = "embedding") -> np.ndarray:
    """Fit PQ codebooks: per-subspace L2 k-means, ALL ``m`` subspaces in
    one distributed pass per iteration (per-batch assignment +
    sum/count combiner over (subspace, cluster) keys, then one tiny
    groupby — only the (m, k, d/m) codebook tensor moves between
    driver and workers). Deterministic seeded init, empty clusters
    re-seeded from the same chain. Returns ``(m, k, d//m)``.

    ``k`` is capped at 256: codes are stored as uint8, so a larger
    codebook would wrap silently."""
    if not 1 <= k <= 256:
        raise ValueError(f"k={k} out of range: PQ codes are uint8 "
                         "(1 <= k <= 256)")
    first = ds.take_batch(2, batch_format="pyarrow")
    d = _matrix(first[vec_col]).shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    keys = np.arange(m * k * dsub, dtype=np.uint64) ^ np.uint64(
        derive_seed(seed, "pq_init") & 0xFFFFFFFFFFFFFFFF)
    u = (splitmix64(keys) >> np.uint64(11)).astype(np.float64) / (1 << 53)
    books = (u.reshape(m, k, dsub) - 0.5) * 0.2
    for _ in range(iters):
        ref = ray.put(books)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)                     # (m, k, dsub)
            x = _matrix(batch[vec_col]).reshape(-1, m, dsub)
            sums = np.zeros_like(c)
            cnts = np.zeros((m, k), dtype=np.int64)
            for j in range(m):
                # L2 assignment: argmin ||x_j - c_j||^2
                d2 = (np.square(x[:, j, None, :] - c[j][None]).sum(2))
                a = d2.argmin(axis=1)
                np.add.at(sums[j], a, x[:, j])
                cnts[j] = np.bincount(a, minlength=k)
            sub, cl = np.meshgrid(np.arange(m), np.arange(k),
                                  indexing="ij")
            return pa.table({
                "key": pa.array((sub * k + cl).reshape(-1), pa.int32()),
                "vsum": pa.array(list(sums.reshape(m * k, dsub)),
                                 pa.list_(pa.float64())),
                "cnt": pa.array(cnts.reshape(-1)),
            })

        def merge_sums(df: pd.DataFrame) -> pd.DataFrame:
            mat = np.stack(df["vsum"].to_numpy())
            out = pd.DataFrame({"key": [int(df["key"].iloc[0])]})
            out["vsum"] = [mat.sum(axis=0)]
            out["cnt"] = int(df["cnt"].sum())
            return out

        agg = (ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby("key").map_groups(merge_sums,
                                          batch_format="pandas")
               .to_pandas())
        new = books.copy()
        counts = np.zeros((m, k), dtype=np.int64)
        for _, r in agg.iterrows():
            j, c = divmod(int(r["key"]), k)
            counts[j, c] = r["cnt"]
            if r["cnt"] > 0:
                new[j, c] = np.asarray(r["vsum"]) / r["cnt"]
        # empty clusters: deterministic split of the largest cluster
        # (clone + tiny seeded offset) so all k codes end up used —
        # without this most of the random init never captures points
        for j in range(m):
            for c in np.flatnonzero(counts[j] == 0):
                big = int(counts[j].argmax())
                kk2 = np.arange(dsub, dtype=np.uint64) ^ np.uint64(
                    derive_seed(seed, f"pq_split_{j}_{c}")
                    & 0xFFFFFFFFFFFFFFFF)
                u2 = (splitmix64(kk2) >> np.uint64(11)).astype(
                    np.float64) / (1 << 53) - 0.5
                new[j, c] = new[j, big] + u2 * 1e-3
        books = new
    return books


def pq_encode_batch(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) float -> (n, m) uint8 nearest-centroid codes per
    subspace (the vectorized encode kernel)."""
    m, k, dsub = books.shape
    xs = x.reshape(len(x), m, dsub)
    codes = np.empty((len(x), m), dtype=np.uint8)
    for j in range(m):
        d2 = np.square(xs[:, j, None, :] - books[j][None]).sum(2)
        codes[:, j] = d2.argmin(axis=1)
    return codes


def build_ann_index_pq(ds: "rd.Dataset", out_dir: str, *, m: int = 4,
                       k: int = 16, iters: int = 8, seed: int = 42,
                       id_col: str = "vec_id",
                       vec_col: str = "embedding") -> dict:
    """Persist a product-quantized store: codebooks (fit distributed)
    plus (id, codes) parquet — d*8 bytes/vector compressed to m bytes.
    At 100 TB this is the memory-resident scan path: the ADC query
    never touches the raw vectors. ``k > 256`` raises (see ``pq_fit``)."""
    import json
    from pathlib import Path

    import pyarrow.parquet as pq_
    books = pq_fit(ds, m=m, k=k, iters=iters, seed=seed,
                   vec_col=vec_col)
    ref = ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        codes = pq_encode_batch(_matrix(batch[vec_col]), b)
        return pa.table({
            id_col: batch[id_col],
            "codes": pa.array(list(codes), pa.list_(pa.uint8())),
        })

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (ds.map_batches(encode, batch_format="pyarrow",
                    zero_copy_batch=True)
       .write_parquet(str(out / "codes")))
    mm, kk, dsub = books.shape
    pq_.write_table(pa.table({
        "subspace": pa.array(np.repeat(np.arange(mm), kk), pa.int32()),
        "cluster": pa.array(np.tile(np.arange(kk), mm), pa.int32()),
        "centroid": pa.array(list(books.reshape(mm * kk, dsub)),
                             pa.list_(pa.float64())),
    }), str(out / "codebooks.parquet"))
    meta = {"m": m, "k": k, "id_col": id_col, "vec_col": vec_col,
            "seed": seed, "dsub": dsub}
    (out / "pq_meta.json").write_text(json.dumps(meta))
    return meta


def _load_pq(out_dir: str) -> tuple[dict, np.ndarray]:
    import json
    from pathlib import Path
    import pyarrow.parquet as pq_
    meta = json.loads((Path(out_dir) / "pq_meta.json").read_text())
    t = pq_.read_table(str(Path(out_dir) / "codebooks.parquet"))
    books = np.stack(
        [np.asarray(v) for v in t["centroid"].to_pylist()]) \
        .reshape(meta["m"], meta["k"], meta["dsub"])
    return meta, books


def knn_pq(out_dir: str, query_vectors: np.ndarray, k: int = 10, *,
           concurrency=None) -> pd.DataFrame:
    """Approximate cosine top-k via asymmetric distance computation
    over the compressed code store: per batch, per query, an (m, k)
    LUT of subspace distances, then one uint8 gather-sum per code row
    — the scan reads m bytes/vector. Scores are reported as
    ``cosine`` = 1 - d^2/2 (exact for unit-normalized corpora up to
    quantization error). -> (query_idx, neighbor_id, cosine, rank)."""
    from ..stages.resources import default_concurrency
    if concurrency is None:
        concurrency = default_concurrency()
    meta, books = _load_pq(out_dir)
    q = np.asarray(query_vectors, dtype=np.float64)
    m, kk, dsub = books.shape
    luts = np.empty((len(q), m, kk), dtype=np.float64)
    qs = q.reshape(len(q), m, dsub)
    for j in range(m):
        luts[:, j, :] = np.square(
            qs[:, j, None, :] - books[j][None]).sum(2)
    lref = ray.put(luts)
    id_col = meta["id_col"]

    def score(batch: pa.Table) -> pa.Table:
        lut = ray.get(lref)                      # (Q, m, kk)
        codes_col = batch["codes"].combine_chunks() \
            if isinstance(batch["codes"], pa.ChunkedArray) \
            else batch["codes"]
        flat = codes_col.values.to_numpy(zero_copy_only=False)
        codes = flat.reshape(-1, lut.shape[1]).astype(np.int64)
        n = len(codes)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        qi_all, nid, cos = [], [], []
        gather_idx = codes + np.arange(lut.shape[1]) * lut.shape[2]
        for qi in range(len(lut)):
            d2 = lut[qi].reshape(-1)[gather_idx].sum(axis=1)
            kl = min(k, n)
            top = np.argpartition(d2, kl - 1)[:kl]
            qi_all.append(np.full(kl, qi, dtype=np.int64))
            nid.append(ids[top])
            cos.append(1.0 - d2[top] / 2.0)
        return pa.table({
            "query_idx": pa.array(np.concatenate(qi_all)),
            "neighbor_id": pa.array(np.concatenate(nid)),
            "cosine": pa.array(np.concatenate(cos)),
        })

    parts = rd.read_parquet(f"{out_dir}/codes").map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=8192, concurrency=concurrency).to_pandas()
    return _merge_topk(parts, k)
