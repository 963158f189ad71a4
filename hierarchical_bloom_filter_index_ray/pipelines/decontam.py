"""Benchmark decontamination — the flagship index applied to the
training-data-pipeline question it is shaped for: *which training
documents contain text from my eval benchmark?*

The classic recipe (GPT-3 appendix C and successors) flags a document
when it shares any N-token contiguous window with a benchmark item.
That is exactly a batch of pattern-membership queries: each benchmark
text is tokenized WITH THE INDEX'S OWN seed chain (``hash_words`` is
deterministic, so no shared vocabulary table is needed), sliced into
sliding windows, and probed through the hierarchical bloom index; the
exact-verify stage then removes every false positive, so the output
has NO false flags by construction — the index only bounds the verify
workload, per the repo's core contract.

Scale posture: the benchmark side is small (thousands of windows — it
rides the normal query batch path, broadcast or bloom-gated exchange);
the corpus side stays the indexed Dataset and is never scanned beyond
the candidate windows the tree admits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa

from ..config import HbiConfig
from ..functions.tokenize import hash_words, split_words


def _index_cfg(index_dir: str) -> HbiConfig:
    man = Path(index_dir) / "manifest.json"
    stored = json.loads(man.read_text()).get("config")
    if stored is None:
        raise ValueError(f"{index_dir} has no manifest config")
    return HbiConfig.from_json(stored)


def benchmark_windows(texts: list[str], seed: int, *, window: int = 8,
                      stride: int = 1, ids: list | None = None
                      ) -> list[tuple[str, list[int]]]:
    """Tokenize benchmark texts with the index's seed and slice into
    sliding windows -> membership-query batch. Window ids are
    ``{bench_id}\\x00{start}`` so hits fold back per benchmark item.
    Texts shorter than ``window`` become one whole-text query.

    ``stride`` defaults to 1, so a span shared at ANY offset is found; a
    larger stride probes fewer windows but misses a shared span of
    exactly ``window`` tokens that starts between two probed offsets."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if ids is None:
        ids = list(range(len(texts)))
    arr = pa.array(texts, pa.string())
    words = split_words(arr)
    toks_flat = hash_words(words.values, seed)
    offs = words.offsets.to_numpy(zero_copy_only=False)
    out: list[tuple[str, list[int]]] = []
    for i in range(len(texts)):
        toks = toks_flat[offs[i]:offs[i + 1]]
        if not len(toks):
            continue
        if len(toks) <= window:
            out.append((f"{ids[i]}\x00{0}", [int(t) for t in toks]))
            continue
        for s in range(0, len(toks) - window + 1, stride):
            out.append((f"{ids[i]}\x00{s}",
                        [int(t) for t in toks[s:s + window]]))
    return out


def decontaminate(index_dir: str, sequences_ds, texts: list[str], *,
                  ids: list | None = None, window: int = 8,
                  stride: int = 1, min_windows: int = 1,
                  cfg: HbiConfig | None = None,
                  **query_kwargs) -> pa.Table:
    """Flag corpus documents sharing >= ``min_windows`` exact
    ``window``-token spans with any benchmark text. Returns
    ``(bench_id, doc_id, windows_matched, total_matches)`` sorted —
    exact (zero false positives; the bloom tree only prunes work).

    ``query_kwargs`` pass through to ``membership_query`` (sources /
    window_range scoping, super_dir, sequences_meta, ...)."""
    from .build_index import load_index
    from .query_index import membership_query
    cfg = cfg or _index_cfg(index_dir)
    queries = benchmark_windows(texts, cfg.seed, window=window,
                                stride=stride, ids=ids)
    if not queries:
        return pa.table({"bench_id": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.string()),
                         "windows_matched": pa.array([], pa.int64()),
                         "total_matches": pa.array([], pa.int64())})
    query_kwargs.setdefault("super_dir", index_dir)
    hits = membership_query(load_index(index_dir), sequences_ds,
                            queries, cfg, with_counts=True,
                            **query_kwargs)
    bench = pa.array([q.split("\x00", 1)[0]
                      for q in hits["query_id"].to_pylist()],
                     pa.string())
    t = pa.table({"bench_id": bench, "doc_id": hits["doc_id"],
                  "n_matches": hits["n_matches"]})
    df = t.to_pandas()
    agg = (df.groupby(["bench_id", "doc_id"], as_index=False)
           .agg(windows_matched=("n_matches", "size"),
                total_matches=("n_matches", "sum")))
    agg = agg[agg["windows_matched"] >= min_windows]
    agg = agg.sort_values(["bench_id", "doc_id"]).reset_index(drop=True)
    return pa.Table.from_pandas(agg, preserve_index=False).cast(
        pa.schema([("bench_id", pa.string()),
                   ("doc_id", t.schema.field("doc_id").type),
                   ("windows_matched", pa.int64()),
                   ("total_matches", pa.int64())]))
