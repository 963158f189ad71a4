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

import pyarrow as pa
import pyarrow.compute as pc

from ..config import HbiConfig
from ..functions.tokenize import hash_words, split_words
from .build_index import load_manifest


def _index_cfg(index_dir: str) -> HbiConfig:
    man = load_manifest(index_dir)
    stored = None if man is None else man.get("config")
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
    exact (zero false positives; the bloom tree only prunes work). The
    per-window hits are folded per (bench_id, doc_id) on the cluster;
    only the flagged pairs reach the driver.

    ``query_kwargs`` pass through to ``membership_query_ds`` (sources /
    window_range scoping, super_dir, sequences_meta, ...)."""
    import ray
    from ray.data.aggregate import Count, Sum

    from .build_index import load_index
    from .query_index import membership_query_ds
    cfg = cfg or _index_cfg(index_dir)
    queries = benchmark_windows(texts, cfg.seed, window=window,
                                stride=stride, ids=ids)
    flagged = pa.table({"bench_id": pa.array([], pa.string()),
                        "doc_id": pa.array([], pa.string()),
                        "windows_matched": pa.array([], pa.int64()),
                        "total_matches": pa.array([], pa.int64())})
    if not queries:
        return flagged
    query_kwargs.setdefault("super_dir", index_dir)
    hits = membership_query_ds(load_index(index_dir), sequences_ds,
                               queries, cfg, with_counts=True, sort=None,
                               **query_kwargs)

    def bench_hits(t: pa.Table) -> pa.Table:
        bench = pc.list_element(
            pc.split_pattern(t["query_id"], "\x00", max_splits=1), 0)
        return pa.table({"bench_id": bench, "doc_id": t["doc_id"],
                         "n_matches": t["n_matches"]})

    def enough(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["windows_matched"], min_windows))

    folded = (hits.map_batches(bench_hits, batch_format="pyarrow")
              .groupby(["bench_id", "doc_id"])
              .aggregate(Count(alias_name="windows_matched"),
                         Sum("n_matches", alias_name="total_matches"))
              .map_batches(enough, batch_format="pyarrow"))
    # materialized first, so listing the blocks re-runs nothing; a block
    # that kept no rows still carries the hits' doc_id type
    blocks = [b for b in ray.get(folded.materialize().to_arrow_refs())
              if b.num_columns]
    if blocks:
        t = pa.concat_tables([b for b in blocks if b.num_rows]
                             or blocks[:1]).select(flagged.column_names)
        flagged = t.sort_by([("bench_id", "ascending"),
                             ("doc_id", "ascending")]).cast(
            flagged.schema.set(1, t.schema.field("doc_id")))
    return flagged
