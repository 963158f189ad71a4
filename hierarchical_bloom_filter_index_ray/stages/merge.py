"""Reduce side of the sketch UDAF: merge serialized partials per
``(source, window_id)`` group.

Runs inside ``groupby(["source","window_id"]).map_groups(...)`` — the one
shuffle of the build, keyed exactly like the reference's per-tree locality
(``PMIndex/HBI.java:230-261``). Merges are the sketch kernels' associative
``merge`` (Bloom OR, CMS add, HLL max, HOPS min-select, bottom-k re-top-k,
KLL/t-digest compaction), so partial arrival order is irrelevant.

Partials carry every stored bloom level at its start size, so they
OR-merge; ``_index_row`` then folds each finished level but 0 to its fill
(``BloomFilter.fold_to_fill``). Level 0 keeps the start size, because the
super levels OR-merge window roots.
"""

from __future__ import annotations

import pickle

import pandas as pd

from ..config import HbiConfig
from ..state import sketch_from_bytes

INDEX_BLOB_COLS = ("bloom_tree", "hll", "cms", "kll_ntok", "tdigest_ntok",
                   "hops", "bottomk")


def merge_payloads(payloads) -> dict:
    """Merge a sequence of pickled sketch-dict payloads into live sketches.

    ``bloom_tree`` payloads are ``{level: bytes}`` dicts, merged level by
    level. Every partial of a window carries ``stored_levels()``; two
    partials with different level sets raise ``ValueError``, because a
    level missing from one partial would lack that partial's keys and
    probing it would yield false negatives."""
    acc: dict[str, object] = {}
    for raw in payloads:
        blob = pickle.loads(raw)
        for kind, data in blob.items():
            if isinstance(data, dict):  # bloom tree: {level: bytes}
                levels = {int(lv): sketch_from_bytes(b)
                          for lv, b in data.items()}
                if kind not in acc:
                    acc[kind] = levels
                    continue
                mine = acc[kind]
                if set(mine) != set(levels):
                    raise ValueError(
                        f"partials carry different {kind} levels: "
                        f"{sorted(mine)} != {sorted(levels)}")
                for lv, bloom in levels.items():
                    mine[lv].merge(bloom)
            else:
                sk = sketch_from_bytes(data)
                if kind not in acc:
                    acc[kind] = sk
                else:
                    acc[kind].merge(sk)
    return acc


def finalize_unique_partials(group: pd.DataFrame, *,
                             params_hash: str) -> pd.DataFrame:
    """Finalize of a (source, window) that received exactly ONE partial
    (the common case when batch boundaries align with windows): no merge;
    every blob but the bloom levels that fold is reused as it is."""
    blobs = {k: ({int(lv): bytes(b) for lv, b in v.items()}
                 if isinstance(v, dict) else bytes(v))
             for k, v in pickle.loads(group["payload"].iloc[0]).items()}
    return _index_row(group, blobs, params_hash)


def merge_partials_group(group: pd.DataFrame, *,
                         params_hash: str) -> pd.DataFrame:
    """map_groups fn (plain function -> elastic task pool, no CPU pinning):
    partial rows of one (source, window) -> one index row with per-kind blob
    columns + stats. The ``bloom_tree`` column holds a pickled
    ``{level: bytes}`` dict of ``stored_levels()``. A single partial takes
    ``finalize_unique_partials``.
    """
    if len(group) == 1:
        return finalize_unique_partials(group, params_hash=params_hash)
    merged = merge_payloads(group["payload"].tolist())
    blobs = {k: v if isinstance(v, dict) else v.to_bytes()
             for k, v in merged.items()}
    return _index_row(group, blobs, params_hash)


def _finish_level(lv: int, bloom) -> bytes:
    """One finished bloom level (a blob or a live filter) -> its stored
    blob: folded to its fill unless it is level 0."""
    if lv == 0:
        return bloom if isinstance(bloom, bytes) else bloom.to_bytes()
    if isinstance(bloom, bytes):
        bloom = sketch_from_bytes(bloom)
    return bloom.fold_to_fill().to_bytes()


def _index_row(group: pd.DataFrame, blobs: dict,
               params_hash: str) -> pd.DataFrame:
    """The one index row of a (source, window) group from its finished
    per-kind blobs (``bloom_tree`` as a ``{level: blob or filter}`` dict,
    whose levels are folded here)."""
    if "bloom_tree" in blobs:
        blobs = {**blobs, "bloom_tree": {
            lv: _finish_level(lv, b)
            for lv, b in blobs["bloom_tree"].items()}}
    row = {
        "source": [group["source"].iloc[0]],
        "window_id": [int(group["window_id"].iloc[0])],
        "n_docs": [int(group["n_docs"].sum())],
        "n_tokens": [int(group["n_tokens"].sum())],
        "params_hash": [params_hash],
    }
    total_bytes = 0
    for kind in INDEX_BLOB_COLS:
        if kind in blobs:
            obj = blobs[kind]
            blob = (pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                    if isinstance(obj, dict) else obj)
            total_bytes += len(blob)
            row[kind] = [blob]
        else:
            row[kind] = [None]
    # window-root (level-0) bloom as its own column: the super-level build
    # (pipelines/super_index.py) reads ONLY this column instead of
    # deserializing the whole tree blob per window
    tree = blobs.get("bloom_tree")
    row["root_bloom"] = [tree.get(0) if isinstance(tree, dict) else None]
    row["index_bytes"] = [total_bytes]
    return pd.DataFrame(row)
