"""Index build pipeline: sequences Dataset -> persisted hierarchical sketch
index + manifest (resumable).

Ray shape (SURVEY.md §3.1 "Ray shape"):

    read_parquet -> map_batches(add_window_columns)                 [stateless]
                 -> map_batches(PartialSketchBuilder, actor pool)   [stateful]
                 -> groupby(source, window_id).map_groups(Merge)    [shuffle of
                                                                     sketches]
                 -> write_parquet(out/partitions,
                                  partition_cols=[source, shard])

The shuffle moves only serialized partial sketches (the map stage is the
combiner), mirroring the reference's per-tree locality where tokens never
leave the tree that indexed them (``PMIndex/HBI.java:230-261``).

Checkpoint/resume (north_rule "resumable from checkpoint with per-partition
lineage + metrics"): rows live under ``partitions/source=S/shard=K``;
completed (source, shard) pairs are recorded in ``manifest.json`` with
per-source row/token/byte metrics; a resumed build drops the rows of
completed shards and appends only the missing ones. Shard dirs the
manifest does not record are deleted before building.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from pathlib import Path
from urllib.parse import unquote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..config import HbiConfig
from ..stages.merge import merge_partials_group
from ..stages.resources import (check_pool_fits, cluster_cpus,
                                default_concurrency)
from ..stages.sketch_build import PartialSketchBuilder
from ..stages.window import add_window_columns

MANIFEST = "manifest.json"
PARTITIONS = "partitions"

# On-disk index format version. Bump whenever the (window, slot) <-
# doc_id derivation or the partition schema changes in a way that makes
# indexes persisted by older code silently incompatible (ADVICE r3: the
# doc_index derivation gained 12-digit/2^40 ordinal caps, '#s'/':n' id
# forms and OOB-int hashing while format_version stayed 1 — a resumed or
# loaded v1 index would mix old/new slot assignments and return false
# negatives). params_hash covers CONFIG drift; FORMAT_VERSION covers
# CODE drift at identical config. v3: every index is sharded
# (``source=S/shard=K``); v2 kept unsharded rows under ``source=S``.
# v4: a bloom tree stores only ``HbiConfig.stored_levels``, and every
# level but 0 is folded to its fill (v3 stored all levels at one m).
# v5: the stored config has no memory-policy keys, so every window
# stores exactly ``stored_levels`` and ``params_hash`` changed.
FORMAT_VERSION = 5


def load_manifest(out_dir: str) -> dict | None:
    """Read + validate the index manifest; None if absent.

    Raises on a format_version mismatch: every consumer (resume, query,
    expiry, stats) would silently mis-derive doc slots against an index
    persisted by an older code generation, so loading one is an error,
    not a degraded mode."""
    p = Path(out_dir) / MANIFEST
    if not p.exists():
        return None
    man = json.loads(p.read_text())
    ver = man.get("format_version")
    if ver != FORMAT_VERSION:
        raise ValueError(
            f"index at {out_dir} has format_version={ver}, this code "
            f"writes {FORMAT_VERSION}; rebuild it (build_index with "
            "resume=False) — resuming or querying across format "
            "versions can silently mix (window, slot) assignments")
    return man


def write_json_atomic(path: Path, obj) -> None:
    """Write ``obj`` as JSON to ``path`` through a temp file in the same
    directory and ``os.replace``: a process killed mid-write leaves the
    previous file whole, never a truncated resume record."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(obj, indent=2))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _shard_of(window_id, shard_windows: int | None):
    """Shard of a window id (an int, numpy array or pandas Series):
    ``window_id // shard_windows``, or 0 for every window when
    ``shard_windows`` is None (one shard per source)."""
    return window_id // shard_windows if shard_windows else window_id * 0


def _shard_dirs(out: Path):
    """(source, shard, dir) of every ``source=S/shard=K`` partition dir,
    in (source, shard) order."""
    dirs = ((unquote(d.parent.name.split("=", 1)[1]),
             int(d.name.split("=", 1)[1]), d)
            for d in (out / PARTITIONS).glob("source=*/shard=*"))
    return sorted(dirs, key=lambda t: t[:2])


def _remove_unrecorded(out: Path, done: dict[str, list[int]]) -> None:
    """Delete everything under ``source=*`` except the shard dirs that
    ``done`` (the manifest's ``completed_shards``) records: a crashed
    run's partial shards and, with no manifest, every earlier row —
    including the files of the pre-v3 unsharded layout."""
    for p in (out / PARTITIONS).glob("source=*/*"):
        src = unquote(p.parent.name.split("=", 1)[1])
        if (p.name.startswith("shard=")
                and int(p.name.split("=", 1)[1]) in done.get(src, ())):
            continue
        if p.is_dir():
            shutil.rmtree(p)
        else:
            p.unlink()


def _drop_done(t: pa.Table, done: dict[str, list[int]],
               shard_windows: int | None) -> pa.Table:
    """Resume filter: drop the rows of completed (source, shard) pairs —
    one ``np.isin`` per distinct source of the batch."""
    enc = pc.dictionary_encode(t["source"].combine_chunks())
    codes = enc.indices.to_numpy(zero_copy_only=False)
    shard = _shard_of(t["window_id"].to_numpy(zero_copy_only=False),
                      shard_windows)
    drop = np.zeros(t.num_rows, dtype=bool)
    for code, src in enumerate(enc.dictionary.to_pylist()):
        if str(src) in done:
            rows = codes == code
            drop[rows] = np.isin(shard[rows], done[str(src)])
    return t.filter(pa.array(~drop))


def _with_shard(df, shard_windows: int | None):
    return df.assign(
        shard=_shard_of(df["window_id"], shard_windows).astype("int64"))


def build_index(ds: "rd.Dataset", cfg: HbiConfig, out_dir: str, *,
                batch_size: int = 1024, concurrency=None,
                num_cpus: float = 1.0, resume: bool = True,
                super_levels: bool = True,
                shard_windows: int | None = None) -> dict:
    """Build (or resume) the index; returns the manifest dict.

    ``super_levels``: also (re)build the cross-window super-level store
    (``pipelines/super_index.py``) — a tiny iterative aggregate over the
    per-window root blooms that bounds query probe work at O(log windows).
    A config without ``bloom_tree`` has no roots, so it builds no store.

    ``shard_windows``: the resume and expiry unit. ``K`` partitions each
    source by ``shard = window_id // K`` — resume granularity becomes a
    window RANGE instead of a whole source, so restarting a crashed
    100-TB build skips finished shards of every source (a source at that
    scale is far too big a unit to redo). ``None`` puts every window of a
    source in ``shard=0``.
    """
    if concurrency is None:
        concurrency = default_concurrency()
    else:
        check_pool_fits(concurrency, num_cpus, cluster_cpus())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    manifest = load_manifest(out_dir) if resume else None
    if manifest is not None and manifest["params_hash"] != cfg.params_hash():
        raise ValueError(
            f"existing index at {out_dir} was built with different params "
            f"({manifest['params_hash']} != {cfg.params_hash()}); "
            "pass resume=False to rebuild")
    if manifest is not None and manifest["shard_windows"] != shard_windows:
        raise ValueError(
            f"existing index at {out_dir} uses shard_windows="
            f"{manifest['shard_windows']}, not {shard_windows}")
    done = manifest["completed_shards"] if manifest else {}
    _remove_unrecorded(out, done)

    chain = ds.map_batches(add_window_columns, batch_format="pyarrow",
                           zero_copy_batch=True, fn_kwargs={"cfg": cfg})
    if done:
        chain = chain.map_batches(
            _drop_done, batch_format="pyarrow",
            fn_kwargs={"done": done, "shard_windows": shard_windows})
    # materialize() ends the map execution before the shuffle: one fused
    # execution (the builder pool likely keeps its CPUs meanwhile) lost 4/4
    # perfbench build pairs on a 2-CPU Ray, -12% tok/s and +14% call p50
    (chain
     .map_batches(PartialSketchBuilder, batch_format="pyarrow",
                  zero_copy_batch=True, batch_size=batch_size,
                  fn_constructor_kwargs={"cfg": cfg},
                  concurrency=concurrency, num_cpus=num_cpus)
     .materialize()
     .groupby(["source", "window_id"])
     .map_groups(merge_partials_group, batch_format="pandas",
                 fn_kwargs={"params_hash": cfg.params_hash()})
     .map_batches(_with_shard, batch_format="pandas",
                  fn_kwargs={"shard_windows": shard_windows})
     .write_parquet(str(out / PARTITIONS),
                    partition_cols=["source", "shard"], mode="append"))
    # Ray Data holds the partials' block refs, which pin the builder pool,
    # in a reference cycle: uncollected, the pool keeps its CPUs after this
    # call and the next build's read waits (17-28 s calls on a 2-CPU Ray)
    gc.collect()

    manifest = _write_manifest(out, cfg, shard_windows,
                               round(time.perf_counter() - t0, 3), done)
    if super_levels and "bloom_tree" in cfg.sketches:
        from .super_index import build_super_index
        manifest["super"] = build_super_index(out_dir, cfg)
    return manifest


def _write_manifest(out: Path, cfg: HbiConfig, shard_windows: int | None,
                    build_seconds: float, done: dict[str, list[int]],
                    **extra) -> dict:
    """Lineage + per-source metrics read back from the partitions, plus
    the ``extra`` fields.

    ``completed_shards`` records every (source, shard) with rows on disk
    plus ``done``, the previous manifest's record: expiry deletes data
    but must NOT un-complete the expired ranges — not in its own write,
    nor in any later build's — or a resumed build over the same input
    would silently re-ingest (resurrect) them.
    """
    import pandas as pd

    cols = ["source", "window_id", "n_docs", "n_tokens", "index_bytes"]
    pdir = out / PARTITIONS
    # every window expired (or nothing built yet): an empty frame keeps
    # the manifest write total-zero instead of crashing after the data is
    # already gone
    df = (pq.read_table(str(pdir), columns=cols).to_pandas()
          if pdir.exists() and any(pdir.rglob("*.parquet"))
          else pd.DataFrame(columns=cols))
    per_source: dict[str, dict] = {}
    shards = {s: set(ks) for s, ks in done.items()}
    df["source"] = df["source"].astype(str)
    for s, g in df.groupby("source"):
        per_source[s] = {
            "windows": int(g["window_id"].nunique()),
            "n_docs": int(g["n_docs"].sum()),
            "n_tokens": int(g["n_tokens"].sum()),
            "index_bytes": int(g["index_bytes"].sum()),
        }
        shards.setdefault(s, set()).update(
            _shard_of(g["window_id"], shard_windows).unique().tolist())
    manifest = {
        "format_version": FORMAT_VERSION,
        "params_hash": cfg.params_hash(),
        "config": cfg.to_json(),
        "completed_sources": sorted(shards),
        "completed_shards": {s: sorted(ks)
                             for s, ks in sorted(shards.items())},
        "shard_windows": shard_windows,
        "sources": per_source,
        "built_unix": time.time(),
        "build_seconds": build_seconds,
        "total_windows": int(df["window_id"].count()),
        "total_docs": int(df["n_docs"].sum()),
        "total_tokens": int(df["n_tokens"].sum()),
        "total_index_bytes": int(df["index_bytes"].sum()),
        **extra,
    }
    write_json_atomic(out / MANIFEST, manifest)
    return manifest


def expire_windows(out_dir: str, cfg: HbiConfig, *, before_window: int,
                   super_levels: bool = True) -> dict:
    """Retention at rest — the reference's sliding-window expiry
    (``PMIndex/HBI.java`` tree rollover) applied to the persisted index:
    drop every index row whose ``window_id < before_window``; returns the
    refreshed manifest.

    Shard dirs wholly below the cutoff just UNLINK (O(expired shards), no
    data rewrite); only the single boundary shard per source rewrites —
    with one shard per source (``shard_windows=None``) that is the
    source's only shard. The super store rebuilds from the remaining
    window roots; queries never see expired windows (the same result as
    ``window_range=(before_window, inf)`` on the full index).
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    manifest = load_manifest(out_dir)
    if manifest is None:
        raise ValueError(f"no index at {out_dir}")
    if manifest["params_hash"] != cfg.params_hash():
        raise ValueError("config mismatch with the existing index")
    shard_windows = manifest["shard_windows"]
    cut = _shard_of(before_window, shard_windows)
    for _, k, shdir in _shard_dirs(out):
        if k < cut:
            shutil.rmtree(shdir)                # wholly expired: unlink
        elif k == cut:                          # the boundary shard
            for f in sorted(shdir.glob("*.parquet")):
                t = pq.read_table(str(f))
                kept = t.filter(pc.greater_equal(t["window_id"],
                                                 before_window))
                if kept.num_rows == 0:
                    f.unlink()
                elif kept.num_rows < t.num_rows:
                    pq.write_table(kept, str(f))
            if not any(shdir.iterdir()):
                shdir.rmdir()
    for sdir in (out / PARTITIONS).glob("source=*"):
        if not any(sdir.iterdir()):
            sdir.rmdir()

    # completion state survives expiry: the expired ranges were BUILT —
    # deleting their data must not invite a resumed build to re-ingest them
    manifest = _write_manifest(out, cfg, shard_windows,
                               round(time.perf_counter() - t0, 3),
                               manifest["completed_shards"],
                               expired_before_window=before_window)
    if (super_levels and "bloom_tree" in cfg.sketches
            and (out / "super").exists()):
        if manifest["total_windows"] == 0:
            shutil.rmtree(out / "super")    # nothing left to summarize
            manifest["super"] = None
        else:
            from .super_index import build_super_index
            manifest["super"] = build_super_index(out_dir, cfg)
    return manifest


def _snapshot_paths(out_dir: str, manifest: dict) -> list[str] | None:
    """Parquet files of the manifest's completed (source, shard) dirs,
    listed NOW. Files inside those dirs are immutable once the manifest
    records them (builds only write into shard dirs absent from
    ``completed_shards``), so the returned list is a consistent
    snapshot. None when nothing is completed yet."""
    done = manifest["completed_shards"]
    paths = [str(p) for s, k, d in _shard_dirs(Path(out_dir))
             if k in done.get(s, ()) for p in sorted(d.glob("*.parquet"))]
    return paths or None


def load_index(out_dir: str, columns: list[str] | None = None, *,
               snapshot: bool = True) -> "rd.Dataset":
    """The persisted index as a Dataset (hive partition cols `source`
    and `shard` restored as columns).

    ``snapshot=True`` (default) pins the read to the manifest's completed
    partition list resolved at CALL time — the reference's
    query-during-ingest contract (``ProcessStream.java:70-75``) for the
    batch world: a query planned against this Dataset sees exactly the
    windows the manifest recorded, even if a concurrent ``build_index``
    append lands new shards (new files) before the lazy read executes,
    and it can never observe a half-written in-flight file (those live
    only in dirs the manifest does not list yet). Concurrent
    ``expire_windows`` is NOT isolated: it unlinks shard dirs, so a
    pinned query started before the expiry fails loudly (missing file)
    rather than returning partial data. ``snapshot=False`` reads
    whatever is on disk at execution time."""
    if snapshot:
        man = load_manifest(out_dir)
        if man is not None:
            paths = _snapshot_paths(out_dir, man)
            if paths:
                from ray.data.datasource.partitioning import Partitioning
                return rd.read_parquet(
                    paths, columns=columns,
                    partitioning=Partitioning(
                        "hive", base_dir=str(Path(out_dir) / PARTITIONS)))
    return rd.read_parquet(str(Path(out_dir) / PARTITIONS), columns=columns)


def index_fpr_stats(out_dir: str) -> "rd.Dataset":
    """Bloom health of a persisted index, per (source, level): window
    count, mean set-bit fill and mean fill-based point-FPR estimate
    rho^k (the reference's empirical check,
    ``membership/BloomFilter.java:52-59``). Map-side partial sums per
    batch -> tiny groupby over #sources x #levels rows; the realized
    FPR must sit at or below the configured ``fp`` (pinned in pytest)."""
    import pickle

    import pandas as pd

    from ..state import sketch_from_bytes

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        src_l, lv_l, n_l, fill_l, fpr_l = [], [], [], [], []
        for src, blob in zip(batch["source"], batch["bloom_tree"]):
            if blob is None:
                continue
            tree = pickle.loads(blob)
            if not isinstance(tree, dict):
                continue
            for lv, b in tree.items():
                if b is None:
                    continue
                bf = sketch_from_bytes(b)
                src_l.append(str(src))
                lv_l.append(int(lv))
                n_l.append(1)
                fill_l.append(bf.fill_ratio)
                fpr_l.append(bf.fp_rate())
        df = pd.DataFrame({"source": src_l, "level": lv_l,
                           "n_windows": n_l, "fill_sum": fill_l,
                           "fpr_sum": fpr_l})
        return df.groupby(["source", "level"], as_index=False).sum()

    from ray.data.aggregate import Sum

    def finish(t) -> "pd.DataFrame":
        t = t.copy()
        t["mean_fill"] = t["fill_sum"] / t["n_windows"]
        t["mean_fpr"] = t["fpr_sum"] / t["n_windows"]
        return t[["source", "level", "n_windows", "mean_fill",
                  "mean_fpr"]]

    return (load_index(out_dir, columns=["source", "bloom_tree"])
            .map_batches(partial, batch_format="pandas")
            .groupby(["source", "level"])
            .aggregate(Sum("n_windows", alias_name="n_windows"),
                       Sum("fill_sum", alias_name="fill_sum"),
                       Sum("fpr_sum", alias_name="fpr_sum"))
            .map_batches(finish, batch_format="pandas"))
