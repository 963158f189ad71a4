"""Cross-window bloom-tree upper levels (super-window filters).

The reference's window holds ``window/tree`` trees and ``HBI.report``
prunes across them before descending any single tree
(``PMIndex/HBI.java:139,207-266``); without that layer every query probes
every (source, window) partition — O(#windows) probe work per query, the
dominant query cost once windows number in the billions.

Ray shape: the per-window level-0 ("window root") blooms all key with the
SAME constant interval salt (``stages/sketch_build.py``: at level 0 the
interval id is 0 for every slot), so OR-merging ``super_fanout`` sibling
window roots yields a TRUE union membership filter probeable with the
original level-0 keys. Build is an iterative tiny aggregate over the
(shrinking) node set:

    level 1: groupby (source, window_id // F)   OR-merge window roots
    level h: groupby (source, node_id // F)     OR-merge level h-1 nodes

Each level's total bytes shrink by F, so the whole super index costs
~1/(F-1) of ONE tree level. Fixed-size filters saturate as load doubles
per level; stacking stops at ``super_fill_cap`` mean fill (a saturated
level cannot prune — query correctness never depends on super levels,
they only bound probe work). Every window stores its level-0 filter, so
every node has a bloom; an index row without one is corrupt and fails
the build.

Query: descend from the top level, probing each frontier node with each
query's level-0 keys; survivors fan out to their F children; level-1
survivors expand to allowed (window, query) pairs that gate the per-window
tree probe. Missing tokens die at the top: O(F * levels) probes instead of
O(windows).
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..config import HbiConfig
from ..state import sketch_from_bytes
from ..state.bloom import popcount64
from ..state.splitmix import derive_seed, splitmix64

SUPER_DIR = "super"
SUPER_META = "super_meta.json"
STORE_FORMAT = 2  # 2 = raw uint64 bloom words (v1 stored write_blob blobs)


def _root_salt(cfg: HbiConfig) -> np.uint64:
    """The constant level-0 probe salt (interval id 0, level-0 salt)."""
    s = derive_seed(cfg.seed, "interval_salt", 0) & 0xFFFFFFFFFFFFFFFF
    return splitmix64(np.uint64(0) ^ np.uint64(s))


def _fill(words: np.ndarray) -> float:
    """Set-bit fraction of a raw uint64 word array."""
    return int(popcount64(words).sum()) / (len(words) * 64)


def _ref_bloom(cfg: HbiConfig):
    """The (m, k, seed) family every super node shares: identical to the
    window-root filters built by stages/sketch_build (level 0 sizing and
    seed chain)."""
    from ..state import BloomFilter
    from ..state.splitmix import derive_seed as ds_
    return BloomFilter(cfg.level_expected_distinct(0), cfg.fp,
                       ds_(cfg.seed, "bloom", 0))


def _extract_roots(batch: pd.DataFrame, fanout: int) -> pd.DataFrame:
    """Index rows -> level-0 node rows (source, node_id, bloom), from
    the dedicated ``root_bloom`` column (written by ``stages/merge.py``
    precisely so this scan reads ~1/levels of the index). A null root
    raises: every window stores level 0, so one is missing only from a
    corrupt index."""
    # super store protocol: RAW uint64 bloom words (no per-node blob
    # header/zlib — the descend decodes thousands of nodes; frombuffer is
    # free, zlib was the serial driver cost). Filter params (m, k, seed)
    # are reconstructed from the config at probe time.
    if batch["root_bloom"].isna().any():
        raise ValueError("index row without a root_bloom: the index is "
                         "corrupt; rebuild it")
    blooms = [sketch_from_bytes(b).words.tobytes()
              for b in batch["root_bloom"]]
    return pd.DataFrame({
        "source": batch["source"].astype(str),
        "node_id": (batch["window_id"].to_numpy() // fanout).astype(np.int64),
        "bloom": pd.Series(blooms, dtype=object),
    })


SUBTREE_HEIGHT = 8  # levels built per groupby round (group = F^8 children)
_LOCAL_BUILD_BYTES = 256 << 20  # index partitions built driver-locally


def _build_subtree(g: pd.DataFrame, *, base_level: int, fanout: int,
                   height: int) -> pd.DataFrame:
    """map_groups reduce: from one subtree's level-``base_level`` nodes,
    OR-merge upward ``height`` levels locally (numpy word ORs — no
    per-level Ray job). Emits rows for levels base+1..base+height."""
    cur: dict[int, np.ndarray] = {}
    src = str(g["source"].iloc[0])
    for node, blob in zip(g["node_id"], g["bloom"]):
        cur[int(node)] = np.frombuffer(blob, dtype=np.uint64)
    out_src, out_lv, out_node, out_bloom, out_fill = [], [], [], [], []
    for h in range(1, height + 1):
        nxt: dict[int, np.ndarray] = {}
        for node, words in cur.items():
            parent = node // fanout
            acc = nxt.get(parent)
            if acc is None:
                # copy-on-first-merge keeps child rows reusable
                nxt[parent] = words.copy()
            else:
                acc |= words
        for parent, acc in sorted(nxt.items()):
            out_src.append(src)
            out_lv.append(base_level + h)
            out_node.append(parent)
            out_bloom.append(acc.tobytes())
            out_fill.append(_fill(acc))
        cur = nxt
    return pd.DataFrame({
        "source": out_src,
        "level": pd.Series(out_lv, dtype="int32"),
        "node_id": pd.Series(out_node, dtype="int64"),
        "bloom": pd.Series(out_bloom, dtype=object),
        "fill": pd.Series(out_fill, dtype="float64"),
    })


def _cut_levels(meta: dict, stats: pd.DataFrame, last: int,
                n_sources: int, cfg: HbiConfig) -> tuple[int, bool]:
    """The level-cut rule: record the per-level ``stats`` (level, nodes,
    mean_fill) in ``meta["levels"]`` in level order, up to the first
    level that is saturated past ``super_fill_cap`` or down to one node
    per source. Returns (highest level to keep, whether stacking stops
    there); without a stop every level up to ``last`` is kept."""
    for _, s in stats.sort_values("level").iterrows():
        lv = int(s["level"])
        meta["levels"].append({"level": lv, "nodes": int(s["nodes"]),
                               "mean_fill": round(float(s["mean_fill"]),
                                                  4)})
        if s["mean_fill"] > cfg.super_fill_cap or s["nodes"] <= n_sources:
            return lv, True
    return last, False


def build_super_index(out_dir: str, cfg: HbiConfig) -> dict:
    """Build the super-level store from a persisted index at ``out_dir``.

    Subtree-batched: ONE groupby round builds ``SUBTREE_HEIGHT`` levels
    (each group holds at most F^8 = 256 child blooms, a bounded ~MBs
    payload at any corpus size), then recursion continues on the subtree
    roots — the node set shrinks 256x per round, so a billion windows
    need four rounds, not thirty sequential per-level jobs.

    Writes parquet rows (source, node_id, bloom, fill) under
    ``out_dir/super/level=H`` plus ``super_meta.json``; returns the meta
    dict.
    """
    from .build_index import PARTITIONS, load_manifest, write_json_atomic

    man = load_manifest(out_dir)
    if man is None:
        raise ValueError(f"no index manifest at {out_dir}")
    out = Path(out_dir)
    sup = out / SUPER_DIR
    if sup.exists():
        import shutil
        shutil.rmtree(sup)
    sup.mkdir(parents=True)
    F = cfg.super_fanout
    n_sources = len(man.get("completed_sources", [])) or 1
    import pyarrow.parquet as pq
    cols = ["source", "window_id", "root_bloom"]
    # manifest_built_unix: the manifest state this store summarizes —
    # any later manifest write (append, expiry, a resume without super
    # levels) makes the store stale, and a stale store prunes nothing
    meta: dict = {"format": STORE_FORMAT, "fanout": F, "levels": [],
                  "params_hash": cfg.params_hash(),
                  "manifest_built_unix": man["built_unix"]}

    # driver-local fast path for small stores: one pyarrow scan + in-proc
    # rollup beats several Ray jobs' fixed latency. The distributed rounds
    # below are the scale path (bounded F^8-children groups per round).
    root_bytes = sum(f.stat().st_size
                     for f in (out / PARTITIONS).rglob("*.parquet"))
    if root_bytes <= _LOCAL_BUILD_BYTES:
        import pyarrow.dataset as pads
        tbl = pads.dataset(str(out / PARTITIONS), format="parquet",
                           partitioning="hive").to_table(columns=cols)
        df = _extract_roots(tbl.to_pandas(), fanout=1)
        if len(df):
            max_win = int(df.groupby("source")["node_id"].max().max())
            height = min(cfg.super_max_levels,
                         max(1, math.ceil(math.log(max_win + 1, F))))
            frames = [
                _build_subtree(g, base_level=0, fanout=F, height=height)
                for _, g in df.groupby("source", sort=True)]
            rows_df = pd.concat(frames, ignore_index=True)
            stats = (rows_df.groupby("level")
                     .agg(nodes=("node_id", "size"),
                          mean_fill=("fill", "mean")).reset_index())
            keep_to, _ = _cut_levels(meta, stats, height, n_sources, cfg)
            for lv, g in rows_df[rows_df["level"] <= keep_to].groupby(
                    "level"):
                d = sup / f"level={int(lv)}"
                d.mkdir(parents=True, exist_ok=True)
                pq.write_table(
                    pa.table({
                        "source": pa.array(g["source"], pa.string()),
                        "node_id": pa.array(g["node_id"], pa.int64()),
                        "bloom": pa.array(list(g["bloom"]), pa.binary()),
                    }), str(d / "part-0.parquet"))
        write_json_atomic(out / SUPER_META, meta)
        return meta

    index_ds = rd.read_parquet(str(out / PARTITIONS), columns=cols)
    child = index_ds.map_batches(_extract_roots, batch_format="pandas",
                                 fn_kwargs={"fanout": 1})
    base = 0
    while base < cfg.super_max_levels:
        height = min(SUBTREE_HEIGHT, cfg.super_max_levels - base)
        span = F ** height

        def to_group_key(df: pd.DataFrame, *, span=span) -> pd.DataFrame:
            return df.assign(_grp=df["node_id"].to_numpy() // span)

        rows = (child.map_batches(to_group_key, batch_format="pandas")
                .groupby(["source", "_grp"])
                .map_groups(_build_subtree, batch_format="pandas",
                            fn_kwargs={"base_level": base, "fanout": F,
                                       "height": height})
                ).materialize()
        if rows.count() == 0:
            break
        # per-level stats (one tiny aggregate for all levels of the round)
        from ray.data.aggregate import Count, Mean
        stats = (rows.groupby("level")
                 .aggregate(Count(alias_name="nodes"),
                            Mean("fill", alias_name="mean_fill"))
                 .to_pandas())
        keep_to, stopped = _cut_levels(meta, stats, base + height,
                                       n_sources, cfg)
        import pyarrow.compute as pc
        (rows.map_batches(
            lambda t: t.filter(pc.less_equal(t["level"], keep_to)),
            batch_format="pyarrow")
         .drop_columns(["fill"])
         .write_parquet(str(sup), partition_cols=["level"], mode="append"))
        if stopped:
            break
        top = base + height
        child = rows.map_batches(
            lambda t, lv=top: t.filter(pc.equal(t["level"], lv)),
            batch_format="pyarrow").drop_columns(["level", "fill"])
        base = top
    write_json_atomic(out / SUPER_META, meta)
    return meta


def load_super_meta(out_dir: str) -> dict | None:
    p = Path(out_dir) / SUPER_META
    if not p.exists():
        return None
    return json.loads(p.read_text())


class SuperPruneResult:
    """Per-query allowed windows after the super-level descend — the one
    owner of the pruning rule (which (window, query) pairs the probe
    runs, which windows the verify may read).

    - ``allowed``: {source: (win_sorted, offsets, qi_flat)} — the queries
      that survived the descend down to each window.
    - ``covered_sources``: sources the store summarizes. A source outside
      it was never descended, so nothing about it may be pruned.
    - ``probes``: number of (node, query) bloom probes performed — the
      quantity the super levels exist to bound (asserted in tests).
    """

    def __init__(self, allowed: dict, probes: int,
                 covered_sources: set[str]):
        self.allowed = allowed
        self.probes = probes
        self.covered_sources = covered_sources

    @property
    def window_union(self) -> dict[str, np.ndarray]:
        """{covered source: sorted window ids some query reached}."""
        empty = np.empty(0, np.int64)
        return {s: self.allowed[s][0] if s in self.allowed else empty
                for s in self.covered_sources}

    def queries_for(self, source: str, window: int) -> np.ndarray | None:
        """Sorted query indices to probe in (source, window): None when
        the store does not cover the source (probe every query), empty
        when no query survived to the window (skip it)."""
        if source not in self.covered_sources:
            return None
        if source not in self.allowed:
            return np.empty(0, np.int64)
        wins, offs, qi = self.allowed[source]
        pos = int(np.searchsorted(wins, window))
        if pos >= len(wins) or wins[pos] != window:
            return np.empty(0, np.int64)
        return np.unique(qi[offs[pos]:offs[pos + 1]])

    def windows(self, sources) -> np.ndarray | None:
        """Sorted union of the windows any query reached in ``sources`` —
        a superset of every true hit's window. None when a source is not
        covered: its windows were never descended, so none may be
        pruned."""
        if any(s not in self.covered_sources for s in sources):
            return None
        parts = [self.allowed[s][0] for s in sources if s in self.allowed]
        return (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, np.int64))


_LOCAL_CACHE: dict[tuple, dict] = {}
_CACHE_BYTES = 1 << 30  # super stores up to this size descend from the cache


class _Level:
    """Probe-ready representation of one super level: all node blooms
    stacked into ONE uint64 word matrix at load time (stacking once per
    store open amortizes across every query batch — the per-descend
    ``np.stack`` was the dominant serial probe cost), plus a per-source
    sorted node index for vectorized (source, node) -> row lookup."""

    __slots__ = ("index", "mat", "sources", "nodes")

    def __init__(self, df: pd.DataFrame):
        srcs = df["source"].astype(str).to_numpy(dtype=object)
        nodes = df["node_id"].to_numpy().astype(np.int64)
        blobs = list(df["bloom"])
        n_words = len(blobs[0]) // 8 if blobs else 0
        mat = np.zeros((len(blobs), max(n_words, 1)), dtype=np.uint64)
        for i, b in enumerate(blobs):
            mat[i] = np.frombuffer(b, dtype=np.uint64)
        self.mat = mat
        self.sources = srcs
        self.nodes = nodes
        self.index: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for s in np.unique(srcs) if len(srcs) else []:
            rows = np.nonzero(srcs == s)[0]
            order = np.argsort(nodes[rows])
            self.index[str(s)] = (nodes[rows[order]], rows[order])

    def lookup(self, src: np.ndarray, node: np.ndarray
               ) -> np.ndarray:
        """Row index per (source, node) pair; -1 where absent."""
        out = np.full(len(src), -1, dtype=np.int64)
        for s in np.unique(src) if len(src) else []:
            ent = self.index.get(str(s))
            if ent is None:
                continue
            nodes_sorted, rows = ent
            m = src == s
            pos = np.searchsorted(nodes_sorted, node[m])
            ok = pos < len(nodes_sorted)
            hit = np.zeros(int(m.sum()), dtype=bool)
            hit[ok] = nodes_sorted[pos[ok]] == node[m][ok]
            tgt = np.nonzero(m)[0][hit]
            out[tgt] = rows[pos[hit]]
        return out


def _load_super_local(sup_path: str) -> dict[int, "_Level"]:
    """One plain-pyarrow read of the whole (small) super store, split per
    level into probe-ready ``_Level`` structs. Cached across calls keyed
    by (path, latest parquet mtime) — in the query-coordinator actor this
    cache makes the store open a once-per-index cost, not per-batch."""
    import pyarrow.dataset as pads
    files = sorted(Path(sup_path).rglob("*.parquet"))
    stamp = (sup_path, max((f.stat().st_mtime_ns for f in files),
                           default=0), len(files))
    hit = _LOCAL_CACHE.get(sup_path)
    if hit is not None and hit[0] == stamp:
        return hit[1]
    tbl = pads.dataset(sup_path, format="parquet",
                       partitioning="hive").to_table()
    df = tbl.to_pandas()
    df["source"] = df["source"].astype(str)
    out = {int(lv): _Level(g.drop(columns=["level"]))
           for lv, g in df.groupby("level")}
    _LOCAL_CACHE.clear()  # bound memory: keep one store at a time
    _LOCAL_CACHE[sup_path] = (stamp, out)
    return out


def _usable_meta(out_dir: str, cfg: HbiConfig) -> dict | None:
    """The super meta when the store at ``out_dir`` may prune queries
    under ``cfg``; None when it must prune nothing: absent or empty,
    another store layout (``STORE_FORMAT``), filters sized and seeded
    under other params (probing them with this cfg's key family would
    mis-index), or STALE — built from another manifest state than the
    current one (a later append, expiry or resume without super levels
    added windows the store has never seen; pruning by it would drop
    true hits)."""
    from .build_index import load_manifest
    meta = load_super_meta(out_dir)
    if (meta is None or not meta["levels"]
            or meta.get("format") != STORE_FORMAT
            or meta.get("params_hash") != cfg.params_hash()):
        return None
    man = load_manifest(out_dir)
    if man is None or meta.get("manifest_built_unix") != man["built_unix"]:
        return None
    return meta


def _load_level(sup_path: str, lv: int, nodes: np.ndarray | None
                ) -> "_Level":
    """One super level for the uncached descend: a plain-pyarrow read of
    ``level=lv`` with the frontier's node ids pushed down as a filter
    (``nodes`` None reads the whole level)."""
    import pyarrow.dataset as pads
    filt = (None if nodes is None
            else pads.field("node_id").isin(pa.array(nodes, pa.int64())))
    return _Level(pads.dataset(f"{sup_path}/level={lv}", format="parquet")
                  .to_table(filter=filt).to_pandas())


def super_prune(out_dir: str, cfg: HbiConfig, compiled: list[dict], *,
                sources: list[str] | None = None,
                window_range: tuple[int, int] | None = None
                ) -> SuperPruneResult | None:
    """Descend the super levels for a compiled query batch; None when the
    store cannot prune (``_usable_meta``).

    One descend (``_descend``) over one of two level sources: a store up
    to ``_CACHE_BYTES`` is read once into the probe-ready cache
    (``_load_super_local`` — the upper tree is tiny relative to the
    index, and the coordinator actor keeps it across batches); a larger
    one is read level by level, each read filtered to the frontier's
    nodes (``_load_level``), so the frontier (true regions + FPR * nodes)
    is the only resident state at any scale.
    """
    meta = _usable_meta(out_dir, cfg)
    if meta is None:
        return None
    F = meta["fanout"]
    sup_path = str(Path(out_dir) / SUPER_DIR)
    store_bytes = sum(f.stat().st_size
                      for f in Path(sup_path).rglob("*.parquet"))
    if store_bytes <= _CACHE_BYTES:
        levels = _load_super_local(sup_path)
        load = lambda lv, _nodes: levels[lv]  # noqa: E731
    else:
        load = partial(_load_level, sup_path)
    f_src, f_node, f_qi, covered, probes = _descend(
        load, meta["levels"][-1]["level"], F, cfg, compiled,
        sources=sources, window_range=window_range)
    allowed = _expand_allowed(f_src, f_node, f_qi, F, window_range)
    return SuperPruneResult(allowed, probes, covered)


def _query_bit_positions(cfg: HbiConfig, compiled: list[dict]
                         ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-query bloom (word, bit) positions, computed ONCE per descend —
    every super node shares the window-root (m, k, seed) family."""
    salt = _root_salt(cfg)
    ref = _ref_bloom(cfg)
    widx: list[np.ndarray] = []
    bbits: list[np.ndarray] = []
    for q in compiled:
        idx = ref._indices(
            np.asarray(q["ngram_keys"], dtype=np.uint64) ^ salt)
        widx.append((idx >> np.uint64(6)).ravel().astype(np.int64))
        bbits.append((idx & np.uint64(63)).ravel())
    return widx, bbits


def _descend(load, top: int, F: int, cfg: HbiConfig,
             compiled: list[dict], *, sources, window_range
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, set, int]:
    """Vectorized descend over probe-ready ``_Level`` structs, where
    ``load(level, nodes)`` returns a level holding at least the sorted
    node ids ``nodes`` (None: the whole level). The frontier is three
    parallel pair arrays (source, node, query); each level costs one
    (source, node) -> row lookup plus ONE fancy-index bit gather per
    distinct query — no per-pair Python."""
    widx, bbits = _query_bit_positions(cfg, compiled)
    n_q = len(compiled)
    lvl_top = load(top, None)
    src_parts: list[np.ndarray] = []
    node_parts: list[np.ndarray] = []
    allowed_src = None if sources is None else set(sources)
    for s, (nodes_sorted, _rows) in sorted(lvl_top.index.items()):
        if allowed_src is not None and s not in allowed_src:
            continue
        node_parts.append(nodes_sorted)
        src_parts.append(np.full(len(nodes_sorted), s, dtype=object))
    covered = set(lvl_top.index)
    if allowed_src is not None:
        covered &= allowed_src
    empty = (np.empty(0, dtype=object), np.empty(0, np.int64),
             np.empty(0, np.int64))
    if not node_parts:
        return (*empty, covered, 0)
    t_src = np.concatenate(src_parts)
    t_node = np.concatenate(node_parts)
    if window_range is not None:
        span = F ** top
        keep = ((t_node + 1) * span > window_range[0]) \
            & (t_node * span < window_range[1])
        t_src, t_node = t_src[keep], t_node[keep]
    f_src = np.repeat(t_src, n_q)
    f_node = np.repeat(t_node, n_q)
    f_qi = np.tile(np.arange(n_q, dtype=np.int64), len(t_node))
    probes = 0
    for lv in range(top, 0, -1):
        if not len(f_src):
            return (*empty, covered, probes)
        L = lvl_top if lv == top else load(lv, np.unique(f_node))
        rows = L.lookup(f_src, f_node)
        present = rows >= 0
        f_src, f_node, f_qi, rows = (f_src[present], f_node[present],
                                     f_qi[present], rows[present])
        ok = np.zeros(len(rows), dtype=bool)
        for qi in np.unique(f_qi):
            sel = f_qi == qi
            r = rows[sel]
            vals = ((L.mat[r[:, None], widx[qi][None, :]]
                     >> bbits[qi][None, :]) & np.uint64(1))
            ok[sel] = vals.all(axis=1)
            probes += len(r)
        f_src, f_node, f_qi = f_src[ok], f_node[ok], f_qi[ok]
        if lv == 1:
            break
        f_src = np.repeat(f_src, F)
        f_qi = np.repeat(f_qi, F)
        f_node = (f_node[:, None] * F
                  + np.arange(F, dtype=np.int64)).ravel()
    return f_src, f_node, f_qi, covered, probes


def _expand_allowed(f_src: np.ndarray, f_node: np.ndarray,
                    f_qi: np.ndarray, F: int, window_range) -> dict:
    """Level-1 survivor pairs -> per-source allowed-window structs
    (vectorized: one factorize + one lexsort, no per-pair Python)."""
    allowed: dict[str, tuple] = {}
    if not len(f_src):
        return allowed
    w = (f_node[:, None] * F + np.arange(F, dtype=np.int64)).ravel()
    s = np.repeat(f_src, F)
    q = np.repeat(f_qi, F)
    if window_range is not None:
        keep = (w >= window_range[0]) & (w < window_range[1])
        w, s, q = w[keep], s[keep], q[keep]
    if not len(w):
        return allowed
    uniq_src, codes = np.unique(s, return_inverse=True)
    order = np.lexsort((q, w, codes))
    codes, w, q = codes[order], w[order], q[order]
    bounds = np.searchsorted(codes, np.arange(len(uniq_src) + 1))
    for i, src in enumerate(uniq_src):
        wi = w[bounds[i]:bounds[i + 1]]
        qi = q[bounds[i]:bounds[i + 1]]
        wins, starts = np.unique(wi, return_index=True)
        offs = np.concatenate([starts, [len(wi)]]).astype(np.int64)
        allowed[str(src)] = (wins, offs, qi)
    return allowed


_COORD_NAME = "hbi_super_coordinator"


@ray.remote(num_cpus=0)
class _SuperCoordinator:
    """Long-lived query-coordinator actor: holds the probe-ready super
    store cache (``_load_super_local``) so repeated query batches pay the
    store open/stack cost once per index, and the DESCEND RUNS OFF THE
    DRIVER — the driver dispatches the whole batch to this one actor and
    immediately proceeds to schedule the probe pipeline, whose tasks
    resolve the result lazily from the object store (reference semantics
    preserved: this is purely an execution change of
    ``PMIndex/HBI.java:207-266`` across-trees pruning). ``num_cpus=0``:
    the descend is a brief numpy burst; never reserve a slot from the
    worker pool for it."""

    def prune(self, out_dir: str, cfg: HbiConfig, compiled: list[dict],
              sources, window_range):
        return super_prune(out_dir, cfg, compiled, sources=sources,
                           window_range=window_range)

    def warm(self, out_dir: str) -> bool:
        # run one throwaway descend: the FIRST prune in a fresh actor
        # pays ~1-2 s of store open + import/setup (measured) that would
        # otherwise land inside the first query's timed path
        from .build_index import load_manifest
        from .query_index import compile_queries
        man = load_manifest(out_dir)
        if man is not None and man.get("config"):
            cfg = HbiConfig.from_json(man["config"])
            dummy = compile_queries(
                [("__warm", [1] * max(1, cfg.ngram))], cfg)
            super_prune(out_dir, cfg, dummy)
        return True


def _coordinator():
    return _SuperCoordinator.options(name=_COORD_NAME,
                                     get_if_exists=True).remote()


def super_prune_async(out_dir: str, cfg: HbiConfig, compiled: list[dict],
                      *, sources: list[str] | None = None,
                      window_range: tuple[int, int] | None = None):
    """Dispatch the descend of the whole batch to the coordinator actor;
    returns an ``ObjectRef[SuperPruneResult]`` — or None when the store
    cannot prune (``_usable_meta``), checked driver-side from the tiny
    meta and manifest files so the cheap no-op cases stay synchronous."""
    if _usable_meta(out_dir, cfg) is None:
        return None
    return _coordinator().prune.remote(out_dir, cfg, compiled, sources,
                                       window_range)


def warm_super_coordinator(out_dir: str) -> bool:
    """Open the super store inside the coordinator actor (one-time,
    untimed cost per index — the bench/driver analogue of query
    coordinators keeping the upper tree resident)."""
    return ray.get(_coordinator().warm.remote(out_dir))
