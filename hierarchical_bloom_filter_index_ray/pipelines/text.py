"""Text-analysis pipelines over the ``documents`` table (SQL-oracle-able
shapes; the vectorized kernels live in ``functions/``)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.textstats import lang_id, quality_stats
from ..functions.tokenize import split_words, tokenize_documents


def read_documents(sf_dir: str, columns=None) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def token_counts(sf_dir: str) -> "rd.Dataset":
    """(doc_id, n_tok, source): whitespace token count per document."""
    def fn(batch: pa.Table) -> pa.Table:
        words = split_words(batch["text"])
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tok": pc.cast(pc.list_value_length(words), pa.int64()),
            "source": batch["source"],
        })
    return read_documents(sf_dir, ["doc_id", "text", "source"]).map_batches(
        fn, batch_format="pyarrow")


def source_token_totals(sf_dir: str) -> "rd.Dataset":
    """(source, n_docs, total_tokens): pre-aggregated inside map_batches,
    tiny groupby of partials (one row per source per batch)."""
    def partial(batch: pa.Table) -> pa.Table:
        words = split_words(batch["text"])
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        sd = src.dictionary_encode()
        if isinstance(sd, pa.ChunkedArray):
            sd = sd.combine_chunks()
        codes = sd.indices.to_numpy(zero_copy_only=False)
        names = sd.dictionary.to_pylist()
        docs = np.bincount(codes, minlength=len(names))
        toks = np.bincount(codes, weights=counts,
                           minlength=len(names)).astype(np.int64)
        return pa.table({"source": pa.array(names, pa.string()),
                         "n_docs": pa.array(docs.astype(np.int64)),
                         "total_tokens": pa.array(toks)})

    from ray.data.aggregate import Sum
    return (read_documents(sf_dir, ["text", "source"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("source")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("total_tokens", alias_name="total_tokens")))


def word_frequencies(sf_dir: str) -> "rd.Dataset":
    """(word, cnt): per-batch partial counts (combiner) -> small groupby."""
    def partial(batch: pa.Table) -> pa.Table:
        words = split_words(batch["text"]).values
        de = words.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        idx = de.indices.to_numpy(zero_copy_only=False)
        counts = np.bincount(idx, minlength=len(de.dictionary))
        return pa.table({"word": de.dictionary,
                         "cnt": pa.array(counts.astype(np.int64))})

    from ray.data.aggregate import Sum
    return (read_documents(sf_dir, ["text"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("word").aggregate(Sum("cnt", alias_name="cnt")))


def top_words(sf_dir: str, k: int = 20) -> "rd.Dataset":
    """Global top-k words, deterministic tie-break (cnt desc, word asc)."""
    return word_frequencies(sf_dir).sort(
        ["cnt", "word"], descending=[True, False]).limit(k)


def trigram_frequencies(sf_dir: str) -> "rd.Dataset":
    """(trigram, cnt): word trigrams as strings, never crossing doc
    boundaries — the STRING-side differential twin of the hashed
    ``ngram_keys`` pipeline (same sliding-window/boundary semantics,
    SQL-checkable)."""
    def partial(batch: pa.Table) -> pa.Table:
        words = split_words(batch["text"])
        flat = words.values
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(flat)
        if n < 3:
            return pa.table({"trigram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        tri = pc.binary_join_element_wise(
            flat.slice(0, n - 2), flat.slice(1, n - 2),
            flat.slice(2, n - 2), " ")
        # drop starts within 2 positions of any doc boundary (the trigram
        # would cross into the next doc) — vectorized boundary mask
        bounds = offs[1:-1]
        bad = np.concatenate([bounds - 1, bounds - 2])
        bad = bad[(bad >= 0) & (bad < n - 2)]
        valid = np.ones(n - 2, dtype=bool)
        valid[bad] = False
        tri = tri.filter(pa.array(valid))
        de = tri.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        idx = de.indices.to_numpy(zero_copy_only=False)
        counts = np.bincount(idx, minlength=len(de.dictionary))
        return pa.table({"trigram": de.dictionary,
                         "cnt": pa.array(counts.astype(np.int64))})

    from ray.data.aggregate import Sum
    return (read_documents(sf_dir, ["text"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("trigram").aggregate(Sum("cnt", alias_name="cnt")))


def top_trigrams(sf_dir: str, k: int = 20) -> "rd.Dataset":
    """Global top-k word trigrams (cnt desc, trigram asc)."""
    return trigram_frequencies(sf_dir).sort(
        ["cnt", "trigram"], descending=[True, False]).limit(k)


def bigram_frequencies(sf_dir: str) -> "rd.Dataset":
    """(bigram, cnt): word bigrams, boundary-safe (same shape as
    ``trigram_frequencies``)."""
    def partial(batch: pa.Table) -> pa.Table:
        words = split_words(batch["text"])
        flat = words.values
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(flat)
        if n < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        bg = pc.binary_join_element_wise(
            flat.slice(0, n - 1), flat.slice(1, n - 1), " ")
        bounds = offs[1:-1]
        bad = bounds - 1
        bad = bad[(bad >= 0) & (bad < n - 1)]
        valid = np.ones(n - 1, dtype=bool)
        valid[bad] = False
        bg = bg.filter(pa.array(valid))
        de = bg.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        idx = de.indices.to_numpy(zero_copy_only=False)
        counts = np.bincount(idx, minlength=len(de.dictionary))
        return pa.table({"bigram": de.dictionary,
                         "cnt": pa.array(counts.astype(np.int64))})

    from ray.data.aggregate import Sum
    return (read_documents(sf_dir, ["text"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("bigram").aggregate(Sum("cnt", alias_name="cnt")))


def doc_frequent_bigrams(sf_dir: str, *, min_count: int = 20
                         ) -> "rd.Dataset":
    """Per-doc count of adjacent word pairs that are corpus-frequent
    (bigram count >= ``min_count``) — an n-gram-LM-flavored fluency
    score with exact integer semantics. Two passes: (1) distributed
    bigram counting (combiner + groupby), keep the frequent set — small
    BY CONSTRUCTION (<= corpus_bigrams / min_count), so it broadcasts;
    (2) per-batch membership count, no second shuffle (each doc lives in
    one batch). Docs with no frequent bigram emit 0 (LEFT semantics)."""
    import ray

    freq = bigram_frequencies(sf_dir)
    freq_set = (freq.filter(expr=f"cnt >= {min_count}")
                .select_columns(["bigram"]).to_pandas())
    freq_ref = ray.put(pa.array(freq_set["bigram"].to_numpy(), pa.string()))

    class CountFrequent:
        def __init__(self):
            self.freq = ray.get(freq_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            words = split_words(batch["text"])
            flat = words.values
            offs = words.offsets.to_numpy(
                zero_copy_only=False).astype(np.int64)
            n_docs = batch.num_rows
            out = np.zeros(n_docs, dtype=np.int64)
            n = len(flat)
            if n >= 2:
                bg = pc.binary_join_element_wise(
                    flat.slice(0, n - 1), flat.slice(1, n - 1), " ")
                bounds = offs[1:-1]
                bad = bounds - 1
                bad = bad[(bad >= 0) & (bad < n - 1)]
                valid = np.ones(n - 1, dtype=bool)
                valid[bad] = False
                bgv = bg.filter(pa.array(valid))
                # bgv is per-doc contiguous: max(len_d - 1, 0) entries each
                parent = np.repeat(np.arange(n_docs),
                                   np.maximum(np.diff(offs) - 1, 0))
                hit = pc.is_in(bgv, value_set=self.freq).to_numpy(
                    zero_copy_only=False)
                out = np.bincount(parent[hit],
                                  minlength=n_docs).astype(np.int64)
            return pa.table({
                "doc_id": batch["doc_id"],
                "n_freq_bigrams": pa.array(out.astype(np.int64)),
            })

    return (read_documents(sf_dir, ["doc_id", "text"])
            .map_batches(CountFrequent, batch_format="pyarrow",
                         concurrency=(1, 8)))


def quality_pipeline(sf_dir: str) -> "rd.Dataset":
    return read_documents(sf_dir).map_batches(
        quality_stats, batch_format="pyarrow")


def lang_id_pipeline(sf_dir: str) -> "rd.Dataset":
    return read_documents(sf_dir).map_batches(lang_id, batch_format="pyarrow")


def sequences_table(sf_dir: str, seed: int = 42) -> "rd.Dataset":
    """documents -> north-rule sequences shape (passthrough pipeline; the
    per-row token-array equality invariant is tested on this)."""
    return read_documents(sf_dir, ["doc_id", "text", "source"]).map_batches(
        tokenize_documents, batch_format="pyarrow", fn_kwargs={"seed": seed})


# ---------------------------------------------------------------------------
# BPE tokenizer training (byte-level, GPT-2-shaped)
# ---------------------------------------------------------------------------

def train_bpe(sf_dir: str, *, n_merges: int = 64,
              max_words: int = 1_000_000) -> pa.Table:
    """Train a byte-level BPE merge table over the corpus.

    100-TB posture: the O(corpus) work — scanning every document and
    counting distinct words — is fully distributed (the
    ``word_frequencies`` combiner + one groupby); the merge loop then
    runs over the BOUNDED distinct-word table (O(vocabulary), the same
    state every production BPE trainer holds in memory), vectorized
    with numpy over a flat symbol array. ``max_words`` caps the word
    table by frequency (deterministic tie-break) as a skew guard.

    Returns a merge table ``(rank, left, right, merged, pair_count)``
    with ``left/right/merged`` as binary symbol byte strings (initial
    alphabet = the 256 byte values; 0x00-free words use an implicit
    end-of-word boundary — pairs never cross words).
    """
    tbl = (word_frequencies(sf_dir)
           .sort(["cnt", "word"], descending=[True, False])
           .limit(max_words).to_pandas())
    words = [w.encode("utf-8") for w in tbl["word"]]
    cnts = tbl["cnt"].to_numpy().astype(np.int64)
    return _bpe_merge_loop(words, cnts, n_merges)


def _bpe_merge_loop(words: list[bytes], cnts: np.ndarray,
                    n_merges: int) -> pa.Table:
    """Greedy BPE merges over a (distinct word, count) table; fully
    vectorized pair counting and non-overlapping left-to-right merge
    application (run-parity trick for aaa-style overlaps)."""
    lens = np.fromiter((len(w) for w in words), dtype=np.int64,
                       count=len(words))
    sym = np.frombuffer(b"".join(words), dtype=np.uint8) \
        .astype(np.int32)
    word_id = np.repeat(np.arange(len(words)), lens)
    weight = np.repeat(cnts, lens)
    vocab: list[bytes] = [bytes([i]) for i in range(256)]
    out_rank, out_l, out_r, out_m, out_c = [], [], [], [], []
    for rank in range(n_merges):
        if len(sym) < 2:
            break
        same = word_id[:-1] == word_id[1:]
        a = sym[:-1][same].astype(np.int64)
        b = sym[1:][same].astype(np.int64)
        wts = weight[:-1][same]
        if not len(a):
            break
        key = a * np.int64(len(vocab) + 1) + b
        uniq, inv = np.unique(key, return_inverse=True)
        pc_ = np.bincount(inv, weights=wts)
        # deterministic argmax: count desc, then (a, b) asc == key asc
        best = int(np.flatnonzero(pc_ == pc_.max())[0])
        best_cnt = int(pc_[best])
        if best_cnt < 1:
            break
        ba = int(uniq[best] // (len(vocab) + 1))
        bb = int(uniq[best] % (len(vocab) + 1))
        new_id = len(vocab)
        vocab.append(vocab[ba] + vocab[bb])
        out_rank.append(rank)
        out_l.append(vocab[ba])
        out_r.append(vocab[bb])
        out_m.append(vocab[new_id])
        out_c.append(best_cnt)
        # hit positions (start of pair), non-overlapping left-to-right:
        # within each run of consecutive hits keep even run offsets
        hits = np.flatnonzero((sym[:-1] == ba) & (sym[1:] == bb)
                              & (word_id[:-1] == word_id[1:]))
        if len(hits):
            run_start = np.flatnonzero(
                np.concatenate([[True], np.diff(hits) > 1]))
            run_of = np.cumsum(
                np.concatenate([[0], (np.diff(hits) > 1)]))
            off_in_run = np.arange(len(hits)) - run_start[run_of]
            keep = hits[off_in_run % 2 == 0]
            sym[keep] = new_id
            mask = np.ones(len(sym), dtype=bool)
            mask[keep + 1] = False
            sym = sym[mask]
            word_id = word_id[mask]
            weight = weight[mask]
    return pa.table({
        "rank": pa.array(out_rank, pa.int32()),
        "left": pa.array(out_l, pa.binary()),
        "right": pa.array(out_r, pa.binary()),
        "merged": pa.array(out_m, pa.binary()),
        "pair_count": pa.array(out_c, pa.int64()),
    })


def apply_bpe(word: bytes, merges: pa.Table) -> list[bytes]:
    """Segment one word with a trained merge table (rank order, the
    standard greedy application). Small helper for tests and per-batch
    encode stages (cache per distinct word when batching)."""
    ranks = {(l_.as_py(), r.as_py()): i for i, (l_, r) in enumerate(
        zip(merges["left"], merges["right"]))}
    parts = [bytes([c]) for c in word]
    while len(parts) > 1:
        cand = [(ranks.get((parts[i], parts[i + 1]), None), i)
                for i in range(len(parts) - 1)]
        cand = [(r, i) for r, i in cand if r is not None]
        if not cand:
            break
        r, i = min(cand)
        parts[i:i + 2] = [parts[i] + parts[i + 1]]
    return parts


# ---------------------------------------------------------------------------
# corpus mixture sampling (per-source token budgets)
# ---------------------------------------------------------------------------

def sample_mixture(ds: "rd.Dataset", budgets: dict[str, float], *,
                   seed: int = 42, token_col: str = "n_tok",
                   source_col: str = "source",
                   id_col: str = "doc_id") -> "rd.Dataset":
    """Deterministic per-source corpus resampling to hit a token
    mixture: for each source with ``budgets[source]`` target tokens, a
    doc is kept iff ``hash(doc_id) < rate * 2^64`` with ``rate =
    min(1, budget / actual_tokens)`` — a pure per-row predicate, so
    the sample is identical under any partitioning, retry, or
    cluster size (no shuffle, no RNG state). Sources absent from
    ``budgets`` are dropped; budgets >= the source's actual token
    count keep every doc. Two passes over the corpus: one aggregate
    for per-source totals (map-side combiner + tiny groupby), one
    streaming filter. Expected sampled tokens per source =
    ``min(budget, actual)``; the realized count concentrates around
    it (docs are the sampling unit)."""
    from ray.data.aggregate import Sum

    from ..state.splitmix import hash_str_u64, splitmix64

    def totals_partial(batch: pa.Table) -> pa.Table:
        src = batch[source_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        sd = src.dictionary_encode()
        if isinstance(sd, pa.ChunkedArray):
            sd = sd.combine_chunks()
        codes = sd.indices.to_numpy(zero_copy_only=False)
        names = sd.dictionary.to_pylist()
        ntok = batch[token_col].to_numpy(zero_copy_only=False)
        return pa.table({
            source_col: pa.array(names, pa.string()),
            "_tt": pa.array(np.bincount(
                codes, weights=ntok,
                minlength=len(names)).astype(np.int64)),
        })

    totals = {r[source_col]: r["_tt"] for r in
              ds.map_batches(totals_partial, batch_format="pyarrow")
              .groupby(source_col)
              .aggregate(Sum("_tt", alias_name="_tt")).take_all()}
    rates = {s: min(1.0, float(b) / max(1, totals.get(s, 0)))
             for s, b in budgets.items()}
    thresholds = {s: np.uint64(min(int(r * 2.0**64), 2**64 - 1))
                  for s, r in rates.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if pa.types.is_integer(ids.type):
            h = splitmix64(
                ids.to_numpy(zero_copy_only=False).astype(np.uint64)
                ^ np.uint64(hash_str_u64("mixture", seed)
                            & 0xFFFFFFFFFFFFFFFF))
        else:
            h = np.fromiter(
                (hash_str_u64(str(v), seed) for v in ids.to_pylist()),
                dtype=np.uint64, count=len(ids))
        enc = pc.dictionary_encode(batch[source_col].combine_chunks(),
                                   null_encoding="encode")
        per_code = np.array([thresholds.get(s, np.uint64(0))
                             for s in enc.dictionary.to_pylist()],
                            dtype=np.uint64)
        thr = per_code[enc.indices.to_numpy(zero_copy_only=False)]
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)
