"""End-to-end: build the hierarchical sketch index on Ray, query it, and
compare everything against exact oracles (SURVEY.md §5.2 differential
strategy; the reference's exact baselines RegexIndex/SuffixTree are played
by numpy/pyarrow exact computations)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hierarchical_bloom_filter_index_ray import HbiConfig
from hierarchical_bloom_filter_index_ray.functions import (
    flat_tokens_and_offsets, tokenize_documents)
from hierarchical_bloom_filter_index_ray.pipelines import (
    build_index, load_index, load_manifest, membership_query)
from hierarchical_bloom_filter_index_ray.pipelines.build_index import \
    PARTITIONS
from hierarchical_bloom_filter_index_ray.sources import (
    documents_as_sequences, synth_sequences)
from hierarchical_bloom_filter_index_ray.state import sketch_from_bytes

CFG = HbiConfig(seed=42, docs_per_window=64, fp=0.01, ngram=1,
                expected_tokens_per_doc=64, expected_distinct_per_doc=48,
                hll_p=12, cms_eps=0.02, cms_delta=0.05)


@pytest.fixture(scope="module")
def seq_table(ray_session):
    """Exact-oracle copy of the tokenized sf0.001 documents."""
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    return tokenize_documents(tbl, seed=CFG.seed)


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    out = tmp_path_factory.mktemp("index")
    ds = documents_as_sequences("/root/testdata/sf0.001", seed=CFG.seed)
    build_index(ds, CFG, str(out), batch_size=128, concurrency=2)
    return str(out)


class TestBuild:
    def test_index_fpr_within_configured_bound(self, index_dir):
        """Fill-based realized FPR (rho^k) of every (source, level) stays
        at/below the configured p — pow2-m rounding only ever over-sizes
        (BloomFilter.java:52-59 empirical check, per-level sizing
        HBI.java:693-702)."""
        from hierarchical_bloom_filter_index_ray.pipelines import \
            index_fpr_stats
        stats = index_fpr_stats(index_dir).to_pandas()
        assert len(stats) > 0
        assert set(stats["source"]) == {"src0", "src1", "src2", "src3"} \
            or len(set(stats["source"])) >= 1
        assert (stats["n_windows"] > 0).all()
        assert (stats["mean_fill"] > 0).all()
        assert (stats["mean_fpr"] <= CFG.fp * 1.05).all()

    def test_manifest_counts_match_exact(self, index_dir, seq_table):
        man = load_manifest(index_dir)
        assert man["total_docs"] == seq_table.num_rows
        assert man["total_tokens"] == int(
            np.sum(seq_table["n_tok"].to_numpy()))
        assert man["params_hash"] == CFG.params_hash()
        assert man["completed_sources"]

    def test_stale_format_version_rejected(self, index_dir, tmp_path):
        """ADVICE r3: an index persisted by an older code generation
        (doc_index derivation changed, format_version didn't) must be
        rejected on load/resume, not silently mixed with new (window,
        slot) assignments."""
        import json
        import shutil

        from hierarchical_bloom_filter_index_ray.pipelines.build_index \
            import FORMAT_VERSION, MANIFEST
        assert load_manifest(index_dir)["format_version"] == FORMAT_VERSION
        stale = tmp_path / "stale_idx"
        shutil.copytree(index_dir, stale)
        man_p = stale / MANIFEST
        man = json.loads(man_p.read_text())
        man["format_version"] = FORMAT_VERSION - 1
        man_p.write_text(json.dumps(man))
        with pytest.raises(ValueError, match="format_version"):
            load_manifest(str(stale))

    def test_v3_index_asks_for_a_rebuild(self, index_dir, tmp_path):
        """A v3 index stores every level at one m; this code stores folded
        stored levels, so loading a v3 manifest asks for a rebuild."""
        import json
        import shutil

        from hierarchical_bloom_filter_index_ray.pipelines.build_index \
            import MANIFEST
        stale = tmp_path / "v3_idx"
        shutil.copytree(index_dir, stale)
        man = json.loads((stale / MANIFEST).read_text())
        man["format_version"] = 3
        (stale / MANIFEST).write_text(json.dumps(man))
        with pytest.raises(ValueError, match="format_version=3.*rebuild"):
            load_manifest(str(stale))

    def test_v4_manifest_asks_for_a_rebuild_in_every_reader(self,
                                                             tmp_path):
        """A v4 manifest stores memory-policy config keys that
        ``HbiConfig`` no longer has. ``load_manifest``, the CLI's config
        read and decontam's config read all give the "rebuild" error,
        not a ``TypeError`` from ``HbiConfig.from_json``."""
        import argparse
        import json

        from hierarchical_bloom_filter_index_ray.cli import _cfg_for_index
        from hierarchical_bloom_filter_index_ray.pipelines.build_index \
            import MANIFEST
        from hierarchical_bloom_filter_index_ray.pipelines.decontam import \
            _index_cfg
        config = {**CFG.to_json(), "policy_quantile": None,
                  "policy_conf": 0.95, "policy_mode": "reactive"}
        (tmp_path / MANIFEST).write_text(json.dumps(
            {"format_version": 4, "config": config}))
        readers = (load_manifest, _index_cfg,
                   lambda d: _cfg_for_index(argparse.Namespace(index=d)))
        for read in readers:
            with pytest.raises(ValueError, match="format_version=4.*rebuild"):
                read(str(tmp_path))

    def test_index_stores_folded_levels_over_an_unfolded_root(
            self, index_dir):
        """Every window stores exactly ``stored_levels()``; level 0 (and
        ``root_bloom``) keeps its start m for the super OR-merge, and
        every deeper level that folded sits at or below p."""
        import pickle

        from hierarchical_bloom_filter_index_ray.state.bloom import \
            bloom_dimensions
        idx = load_index(index_dir, columns=["bloom_tree", "root_bloom"]
                         ).to_pandas()
        folded = 0
        for blob, root in zip(idx["bloom_tree"], idx["root_bloom"]):
            tree = pickle.loads(blob)
            assert tuple(sorted(tree)) == CFG.stored_levels()
            assert root == tree[0]
            for lv, b in tree.items():
                bf = sketch_from_bytes(b)
                start_m = bloom_dimensions(CFG.level_expected_distinct(lv),
                                           CFG.fp)[0]
                assert bf.m <= start_m
                if lv == 0:
                    assert bf.m == start_m
                elif bf.m < start_m:
                    folded += 1
                    assert bf.fp_rate() <= CFG.fp
        assert folded

    def test_window_partition_stats(self, index_dir, seq_table, ray_session):
        idx = load_index(index_dir, columns=["source", "window_id", "n_docs",
                                             "n_tokens"]).to_pandas()
        idx["source"] = idx["source"].astype(str)
        import pandas as pd
        df = seq_table.select(["doc_id", "n_tok", "source"]).to_pandas()
        df["window_id"] = df["doc_id"] // CFG.docs_per_window
        exact = df.groupby(["source", "window_id"]).agg(
            n_docs=("doc_id", "count"), n_tokens=("n_tok", "sum")
        ).reset_index()
        m = exact.merge(idx, on=["source", "window_id"],
                        suffixes=("_x", "_y"))
        assert len(m) == len(exact) == len(idx)
        assert (m["n_docs_x"] == m["n_docs_y"]).all()
        assert (m["n_tokens_x"] == m["n_tokens_y"]).all()

    def test_hll_per_window_within_bound(self, index_dir, seq_table):
        idx = load_index(index_dir).to_pandas()
        idx["source"] = idx["source"].astype(str)
        df = seq_table.to_pandas()
        df["window_id"] = df["doc_id"] // CFG.docs_per_window
        for _, row in idx.iterrows():
            h = sketch_from_bytes(row["hll"])
            g = df[(df["source"] == row["source"])
                   & (df["window_id"] == row["window_id"])]
            true = len({t for toks in g["tokens"] for t in toks})
            assert abs(h.estimate() - true) / max(true, 1) < 4 * h.rel_error

    def test_cms_heavy_hitter_bound(self, index_dir, seq_table):
        """The window CMS counts NGRAM KEYS (the probe-key space, like
        the reference tree estimator fed per inserted ngram)."""
        from hierarchical_bloom_filter_index_ray.functions.tokenize import \
            ngram_keys
        from hierarchical_bloom_filter_index_ray.state import derive_seed

        idx = load_index(index_dir).to_pandas()
        row = idx.iloc[0]
        cms = sketch_from_bytes(row["cms"])
        df = seq_table.to_pandas()
        df["window_id"] = df["doc_id"] // CFG.docs_per_window
        g = df[(df["source"].astype(str) == str(row["source"]))
               & (df["window_id"] == row["window_id"])]
        toks = np.concatenate([np.asarray(t) for t in g["tokens"]])
        offs = np.concatenate(
            [[0], np.cumsum([len(t) for t in g["tokens"]])])
        keys, _ = ngram_keys(toks.astype(np.int32), offs, CFG.ngram,
                             derive_seed(CFG.seed, "ngram"))
        uk, counts = np.unique(keys, return_counts=True)
        est = cms.estimate(uk)
        n = len(keys)
        assert (est >= counts).all()
        assert ((est - counts) <= CFG.cms_eps * n * 2).all()

    def test_ntok_quantile_sketches(self, index_dir, seq_table):
        idx = load_index(index_dir).to_pandas()
        df = seq_table.to_pandas()
        df["window_id"] = df["doc_id"] // CFG.docs_per_window
        row = idx.iloc[0]
        g = df[(df["source"].astype(str) == str(row["source"]))
               & (df["window_id"] == row["window_id"])]
        vals = np.sort(g["n_tok"].to_numpy())
        kll = sketch_from_bytes(row["kll_ntok"])
        td = sketch_from_bytes(row["tdigest_ntok"])
        assert kll.n == len(vals)
        for q in (0.1, 0.5, 0.9):
            for est in (kll.quantile(q), td.quantile(q)):
                # ties make a value cover a rank interval; require the
                # interval (±tol) to contain q
                r_lo = np.searchsorted(vals, est, side="left") / len(vals)
                r_hi = np.searchsorted(vals, est, side="right") / len(vals)
                assert r_lo - 0.12 <= q <= r_hi + 0.12, (q, est, r_lo, r_hi)

    def test_merge_order_irrelevant_across_batch_sizes(self, ray_session,
                                                       tmp_path):
        """Same data, different batch partitioning -> byte-identical bloom
        trees, HLL registers and CMS tables (north_rule merge-associativity
        evidence at the pipeline level). The whole-dataset batch gives
        every window ONE partial, so its rows take the verbatim finalize
        while the other two merge several partials per window."""
        outs = []
        for bs in (32, 257, 1 << 20):
            out = tmp_path / f"idx_{bs}"
            ds = documents_as_sequences("/root/testdata/sf0.001",
                                        seed=CFG.seed)
            build_index(ds, CFG, str(out), batch_size=bs, concurrency=2)
            idx = load_index(str(out)).to_pandas()
            idx["source"] = idx["source"].astype(str)
            outs.append(idx.sort_values(["source", "window_id"])
                        .reset_index(drop=True))
        a = outs[0]
        for b in outs[1:]:
            assert len(a) == len(b)
            # kll_ntok is left out: its compaction depends on merge order
            for col in ("bloom_tree", "hll", "cms", "hops", "bottomk",
                        "tdigest_ntok", "root_bloom", "n_docs", "n_tokens",
                        "index_bytes"):
                assert (a[col] == b[col]).all(), col


class TestStoredLevels:
    def test_stored_levels(self, monkeypatch):
        from hierarchical_bloom_filter_index_ray import config
        assert HbiConfig(docs_per_window=256).stored_levels() == (0, 3, 6, 8)
        assert HbiConfig(docs_per_window=4096).stored_levels() == (
            0, 3, 6, 9, 12)
        monkeypatch.setattr(config, "LEVEL_STRIDE", 1)
        assert HbiConfig(docs_per_window=256).stored_levels() == tuple(
            range(9))

    def test_full_tree_answers_identically(self, monkeypatch):
        """Ray-free build + probe at LEVEL_STRIDE 1 (the reference's full
        tree) and at the default stride: the full tree's candidates are a
        subset of the strided ones (it checks the same filters and more),
        and both keep every true hit, so exact verify answers the same."""
        import pickle

        import pandas as pd

        from hierarchical_bloom_filter_index_ray import config
        from hierarchical_bloom_filter_index_ray.pipelines.query_index \
            import BloomProbe, compile_queries
        from hierarchical_bloom_filter_index_ray.stages.merge import \
            merge_partials_group
        from hierarchical_bloom_filter_index_ray.stages.sketch_build import \
            PartialSketchBuilder
        from hierarchical_bloom_filter_index_ray.stages.window import \
            add_window_columns

        cfg = HbiConfig(seed=3, docs_per_window=64, fp=0.01,
                        expected_tokens_per_doc=64,
                        expected_distinct_per_doc=48,
                        sketches=("bloom_tree",))
        rng = np.random.default_rng(8)
        n = 1024                    # 16 full windows over 4 sources
        docs = [(rng.zipf(1.3, rng.integers(8, 80)) % 3000).astype(np.int32)
                for _ in range(n)]
        table = pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "tokens": pa.array(docs, pa.list_(pa.int32())),
            "n_tok": pa.array([len(d) for d in docs], pa.int32()),
            "source": pa.array([f"s{(i >> 6) % 4}" for i in range(n)]),
        })
        queries = []
        for i in range(40):
            d = docs[int(rng.integers(n))]
            k = int(rng.integers(1, 4))
            s = int(rng.integers(len(d) - k + 1))
            queries.append((f"p{i}", d[s:s + k].tolist()))
        queries += [(f"m{i}", [5000 + i, 5001 + i]) for i in range(10)]
        win = add_window_columns(table, cfg)
        where = list(zip(win["source"].to_pylist(),
                         win["window_id"].to_pylist(),
                         win["slot"].to_pylist()))

        def occurs(q, d):
            L = len(q)
            return any(d[j:j + L].tolist() == q
                       for j in range(len(d) - L + 1))

        oracle = {(qi, *where[r]) for qi, (_, q) in enumerate(queries)
                  for r in range(n) if occurs(q, docs[r])}

        def build_and_probe(stride):
            monkeypatch.setattr(config, "LEVEL_STRIDE", stride)
            builder = PartialSketchBuilder(cfg)
            # 96-row batches split windows, so both finalize paths run
            parts = pd.concat([
                builder(add_window_columns(table.slice(s, 96), cfg))
                .to_pandas() for s in range(0, n, 96)])
            rows = pd.concat([
                merge_partials_group(g, params_hash=cfg.params_hash())
                for _, g in parts.groupby(["source", "window_id"])])
            levels = {tuple(sorted(pickle.loads(b)))
                      for b in rows["bloom_tree"]}
            cands = BloomProbe(cfg, compile_queries(queries, cfg))(
                pa.Table.from_pandas(
                    rows[["source", "window_id", "bloom_tree"]],
                    preserve_index=False))
            return levels, set(zip(cands["query_idx"].to_pylist(),
                                   cands["source"].to_pylist(),
                                   cands["window_id"].to_pylist(),
                                   cands["slot"].to_pylist()))

        full_levels, full = build_and_probe(1)
        strided_levels, strided = build_and_probe(3)
        assert full_levels == {tuple(range(cfg.num_levels))}
        assert strided_levels == {(0, 3, 6)}
        assert oracle and oracle <= full <= strided
        hits = {c for c in strided
                if occurs(queries[c[0]][1], docs[where.index(c[1:])])}
        assert hits == oracle

    def test_merge_rejects_partials_with_different_levels(self):
        """Every partial of a window carries ``stored_levels()``. Two
        partials whose level sets differ make the merge raise: keeping
        only their common levels would silently drop a level."""
        from hierarchical_bloom_filter_index_ray.stages.merge import \
            merge_payloads
        from hierarchical_bloom_filter_index_ray.stages.sketch_build import \
            PartialSketchBuilder
        cfg = HbiConfig(docs_per_window=64, sketches=("bloom_tree",))
        builder = PartialSketchBuilder(cfg)
        short = builder._new_sketches()
        del short["bloom_tree"][3]
        full = builder.serialize(builder._new_sketches())
        short = builder.serialize(short)
        for payloads in ([full, short], [short, full]):
            with pytest.raises(ValueError, match="different bloom_tree"):
                merge_payloads(payloads)
        merged = merge_payloads([full, full])["bloom_tree"]
        assert tuple(sorted(merged)) == cfg.stored_levels()

    def test_merged_window_stores_the_unmerged_bytes(self):
        """A 256-doc window (stored levels 0, 3, 6, 8) built from one
        partial or merged from three stores the same ``bloom_tree``
        bytes: the merged tree keeps the partials' level order."""
        import pandas as pd

        from hierarchical_bloom_filter_index_ray.stages.merge import \
            merge_partials_group
        from hierarchical_bloom_filter_index_ray.stages.sketch_build import \
            PartialSketchBuilder
        from hierarchical_bloom_filter_index_ray.stages.window import \
            add_window_columns
        cfg = HbiConfig(seed=3, docs_per_window=256, sketches=("bloom_tree",))
        rng = np.random.default_rng(1)
        docs = [rng.integers(0, 5000, rng.integers(8, 64)).astype(np.int32)
                for _ in range(256)]
        table = add_window_columns(pa.table({
            "doc_id": pa.array(np.arange(256), pa.int64()),
            "tokens": pa.array(docs, pa.list_(pa.int32())),
            "n_tok": pa.array([len(d) for d in docs], pa.int32()),
            "source": pa.array(["s0"] * 256)}), cfg)
        builder = PartialSketchBuilder(cfg)

        def tree(batch_rows):
            parts = pd.concat([builder(table.slice(s, batch_rows)).to_pandas()
                               for s in range(0, 256, batch_rows)])
            assert len(parts) == -(-256 // batch_rows)
            return merge_partials_group(
                parts, params_hash=cfg.params_hash())["bloom_tree"].iloc[0]

        assert tree(100) == tree(256)


class TestBloomlessIndex:
    """A config without ``bloom_tree`` builds an index of the other
    sketches only; it has nothing to answer membership queries with."""

    CFG_NB = replace(CFG, sketches=("hll",))

    def test_membership_query_needs_bloom_tree(self):
        with pytest.raises(ValueError, match="bloom_tree"):
            membership_query(None, None, [("q0", [1, 2])], self.CFG_NB)

    def test_probe_rejects_a_row_without_bloom_tree(self):
        from hierarchical_bloom_filter_index_ray.pipelines.query_index \
            import BloomProbe, compile_queries
        rows = pa.table({"source": ["s0"], "window_id": [0],
                         "bloom_tree": pa.array([None], pa.binary())})
        probe = BloomProbe(CFG, compile_queries([("q0", [1, 2])], CFG))
        with pytest.raises(ValueError, match="no bloom_tree"):
            probe(rows)

    def test_build_skips_the_super_store(self, ray_session, tmp_path):
        out = tmp_path / "nobloom"
        man = build_index(synth_sequences(256, seed=3, n_sources=2),
                          self.CFG_NB, str(out), batch_size=128)
        assert man["total_windows"] > 0
        assert "super" not in man
        assert not (out / "super").exists()


class TestQuery:
    def _oracle_hits(self, seq_table, pattern):
        flat, offsets = flat_tokens_and_offsets(seq_table["tokens"])
        doc_ids = seq_table["doc_id"].to_pylist()
        q = np.asarray(pattern, dtype=np.int32)
        hits = []
        for r in range(seq_table.num_rows):
            toks = flat[offsets[r]:offsets[r + 1]]
            if len(toks) >= len(q):
                sw = np.lib.stride_tricks.sliding_window_view(toks, len(q))
                if (sw == q).all(axis=1).any():
                    hits.append(doc_ids[r])
        return sorted(hits)

    def test_membership_exact_vs_oracle(self, index_dir, seq_table,
                                        ray_session):
        flat, offsets = flat_tokens_and_offsets(seq_table["tokens"])
        # present unigram + present trigram + missing token
        t0 = int(flat[0])
        tri = [int(x) for x in flat[offsets[3]:offsets[3] + 3]]
        queries = [("q_uni", [t0]), ("q_tri", tri), ("q_missing", [2**30 + 7])]
        idx = load_index(index_dir)
        seqs = documents_as_sequences("/root/testdata/sf0.001", seed=CFG.seed)
        res = membership_query(idx, seqs, queries, CFG).to_pandas()
        got = {qid: sorted(g["doc_id"].tolist())
               for qid, g in res.groupby("query_id")}
        assert got.get("q_uni", []) == self._oracle_hits(seq_table, [t0])
        assert got.get("q_tri", []) == self._oracle_hits(seq_table, tri)
        assert got.get("q_missing", []) == []

    def test_membership_query_ds_matches_table_path(self, index_dir,
                                                    seq_table, ray_session,
                                                    monkeypatch):
        """The Dataset-returning scale path (hits never collected on the
        driver) must agree row-for-row with the collected pa.Table path,
        for every sort mode, in both exchange modes, with and without
        per-position counts."""
        from hierarchical_bloom_filter_index_ray.pipelines import (
            membership_query_ds, query_index)

        flat, offsets = flat_tokens_and_offsets(seq_table["tokens"])
        t0 = int(flat[0])
        tri = [int(x) for x in flat[offsets[3]:offsets[3] + 3]]
        queries = [("q_uni", [t0]), ("q_tri", tri), ("q_missing", [991])]
        idx = load_index(index_dir)
        seqs = documents_as_sequences("/root/testdata/sf0.001",
                                      seed=CFG.seed)
        limit = query_index._BROADCAST_LIMIT
        for with_counts in (False, True):
            monkeypatch.setattr(query_index, "_BROADCAST_LIMIT", limit)
            want = membership_query(idx, seqs, queries, CFG,
                                    with_counts=with_counts).to_pandas()
            for mode, sort in (("broadcast", "block"), ("broadcast", None),
                               ("distributed", "block")):
                # a zero broadcast limit forces the bloom-gate exchange
                monkeypatch.setattr(query_index, "_BROADCAST_LIMIT",
                                    limit if mode == "broadcast" else 0)
                ds = membership_query_ds(idx, seqs, queries, CFG,
                                         with_counts=with_counts,
                                         sort=sort)
                got = (ds.to_pandas()
                       .sort_values(["query_id", "doc_id"])
                       .reset_index(drop=True))
                assert got.equals(want.reset_index(drop=True)), (
                    mode, sort, with_counts)
        with pytest.raises(ValueError, match="sort must be"):
            membership_query_ds(idx, seqs, queries, CFG, sort="global")


class TestResume:
    def test_resume_equals_full_build(self, ray_session, tmp_path):
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds_full = synth_sequences(400, seed=9, n_sources=4, vocab=512)
        build_index(ds_full, cfg, str(full_dir), batch_size=64)
        # partial build: only 2 sources, then resume with everything
        import pyarrow.compute as pc
        two = ds_full.map_batches(
            lambda t: t.filter(pc.is_in(t["source"],
                                        value_set=pa.array(["src00", "src01"]))),
            batch_format="pyarrow")
        build_index(two, cfg, str(part_dir), batch_size=64)
        man1 = load_manifest(str(part_dir))
        assert sorted(man1["completed_sources"]) == ["src00", "src01"]
        build_index(ds_full, cfg, str(part_dir), batch_size=64, resume=True)
        man2 = load_manifest(str(part_dir))
        assert len(man2["completed_sources"]) == 4
        a = load_index(str(full_dir)).to_pandas()
        b = load_index(str(part_dir)).to_pandas()
        for df in (a, b):
            df["source"] = df["source"].astype(str)
            df.sort_values(["source", "window_id"], inplace=True)
            df.reset_index(drop=True, inplace=True)
        assert len(a) == len(b)
        for col in ("source", "window_id", "n_docs", "n_tokens",
                    "bloom_tree", "hll", "cms"):
            assert (a[col] == b[col]).all(), col

    def test_sharded_resume_equals_full_build(self, ray_session, tmp_path):
        """shard_windows: resume granularity = window range. A partial
        build completes shard 0 only; resume rebuilds exactly the missing
        shard (after wiping a fabricated crashed-run leftover) and the
        result matches a one-shot sharded build row for row; queries over
        the sharded layout equal the unsharded index's."""
        import shutil as sh

        import pyarrow.compute as pc

        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index as di_fn

        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds_full = synth_sequences(512, seed=9, n_sources=4, vocab=512)
        full = tmp_path / "full"
        build_index(ds_full, cfg, str(full), batch_size=64,
                    shard_windows=2)
        man_f = load_manifest(str(full))
        assert man_f["shard_windows"] == 2
        assert all(ks == [0, 1]
                   for ks in man_f["completed_shards"].values())

        part = tmp_path / "part"

        def first_shard(t):
            return t.filter(pa.array((di_fn(t) >> 5) < 2))

        build_index(ds_full.map_batches(first_shard,
                                        batch_format="pyarrow"),
                    cfg, str(part), batch_size=64, shard_windows=2,
                    super_levels=False)
        man1 = load_manifest(str(part))
        assert all(ks == [0] for ks in man1["completed_shards"].values())
        # fabricate a crashed-run leftover: a shard dir the manifest does
        # not record — resume must wipe and rebuild it
        src_dir = part / "partitions" / "source=src00"
        sh.copytree(src_dir / "shard=0", src_dir / "shard=1")
        build_index(ds_full, cfg, str(part), batch_size=64,
                    shard_windows=2)
        man2 = load_manifest(str(part))
        assert all(ks == [0, 1]
                   for ks in man2["completed_shards"].values())
        a = load_index(str(full)).to_pandas()
        b = load_index(str(part)).to_pandas()
        for df in (a, b):
            df["source"] = df["source"].astype(str)
            df.sort_values(["source", "window_id"], inplace=True)
            df.reset_index(drop=True, inplace=True)
        assert len(a) == len(b)
        for col in ("source", "window_id", "n_docs", "n_tokens",
                    "bloom_tree", "hll", "cms"):
            assert (a[col] == b[col]).all(), col
        # resume with everything complete: a no-op that stays identical
        build_index(ds_full, cfg, str(part), batch_size=64,
                    shard_windows=2, super_levels=False)
        assert len(load_index(str(part)).to_pandas()) == len(a)
        # shard_windows mismatch on an existing index refuses
        with pytest.raises(ValueError):
            build_index(ds_full, cfg, str(part), batch_size=64,
                        shard_windows=4)
        # queries over the sharded layout == unsharded index
        plain = tmp_path / "plain"
        build_index(ds_full, cfg, str(plain), batch_size=64)
        rows = ds_full.take(3)
        pats = [(f"p{i}", [int(t) for t in r["tokens"][2:6]])
                for i, r in enumerate(rows)]
        pats.append(("missing", [2**30 + 3, 2**30 + 4]))
        r_plain = membership_query(load_index(str(plain)), ds_full, pats,
                                   cfg, super_dir=str(plain))
        r_shard = membership_query(load_index(str(full)), ds_full, pats,
                                   cfg, super_dir=str(full))
        assert r_plain.num_rows > 0
        assert r_plain.equals(r_shard)

    def test_rolling_append_then_expire(self, ray_session, tmp_path):
        """Incremental append story (the batch analogue of the
        reference's rolling stream, ``PMIndex/HBI.java:263-266``):
        build windows [0,8), APPEND [8,12) via sharded resume, EXPIRE
        [0,4) — membership results equal a fresh build of the surviving
        range [4,12), and a later resumed build does NOT resurrect the
        expired windows."""
        from hierarchical_bloom_filter_index_ray.pipelines import \
            expire_windows
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index as di_fn

        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds_full = synth_sequences(768, seed=9, n_sources=2, vocab=512)

        def win_range(lo, hi):
            def f(t):
                w = di_fn(t) >> 5
                return t.filter(pa.array((w >= lo) & (w < hi)))
            return f

        roll = tmp_path / "roll"
        build_index(ds_full.map_batches(win_range(0, 8),
                                        batch_format="pyarrow"),
                    cfg, str(roll), batch_size=64, shard_windows=4)
        # append the newer range: resume skips the completed shards
        build_index(ds_full, cfg, str(roll), batch_size=64,
                    shard_windows=4)
        man = expire_windows(str(roll), cfg, before_window=4)
        assert man["expired_before_window"] == 4
        fresh = tmp_path / "fresh"
        build_index(ds_full.map_batches(win_range(4, 10**9),
                                        batch_format="pyarrow"),
                    cfg, str(fresh), batch_size=64, shard_windows=4)
        a = load_index(str(roll)).to_pandas()
        b = load_index(str(fresh)).to_pandas()
        for df in (a, b):
            df["source"] = df["source"].astype(str)
            df.sort_values(["source", "window_id"], inplace=True)
            df.reset_index(drop=True, inplace=True)
        assert len(a) == len(b) and int(a["window_id"].min()) == 4
        for col in ("source", "window_id", "n_docs", "bloom_tree"):
            assert (a[col] == b[col]).all(), col
        # patterns anchored in SURVIVING windows (plus a missing one)
        rows = ds_full.take_all()
        tbl = pa.Table.from_pylist(rows)
        wins = di_fn(tbl) >> 5
        picks = [i for i in range(len(rows)) if wins[i] >= 4][:3]
        pats = [(f"p{j}", [int(t) for t in rows[i]["tokens"][2:6]])
                for j, i in enumerate(picks)]
        pats.append(("missing", [2**30 + 3, 2**30 + 4]))
        r_roll = membership_query(load_index(str(roll)), ds_full, pats,
                                  cfg, super_dir=str(roll)).to_pandas()
        r_fresh = membership_query(load_index(str(fresh)), ds_full, pats,
                                   cfg, super_dir=str(fresh)).to_pandas()
        assert len(r_roll) > 0
        assert r_roll.reset_index(drop=True).equals(
            r_fresh.reset_index(drop=True))
        # resume over the same input must not re-ingest expired ranges,
        # however many resumes follow the expiry
        for _ in range(2):
            man = build_index(ds_full, cfg, str(roll), batch_size=64,
                              shard_windows=4, super_levels=False)
            idx = load_index(str(roll)).to_pandas()
            assert int(idx["window_id"].min()) >= 4
            assert len(idx) == len(a)
            assert all(ks == [0, 1, 2]
                       for ks in man["completed_shards"].values())

    def test_rebuild_replaces_rows(self, ray_session, tmp_path):
        """``resume=False`` into an existing index dir replaces its rows
        instead of appending a second copy, and an unsharded build keeps
        every row under ``source=S/shard=0``."""
        import shutil

        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds = synth_sequences(256, seed=9, n_sources=2, vocab=512)
        out = tmp_path / "idx"
        first = build_index(ds, cfg, str(out), batch_size=64, resume=False)
        pdir = out / "partitions"
        # a part file directly under source=S (the pre-v3 layout) is an
        # old row too
        old = next(pdir.glob("source=src00/shard=0/*.parquet"))
        shutil.copy(old, pdir / "source=src00" / old.name)
        second = build_index(ds, cfg, str(out), batch_size=64,
                             resume=False)
        for key in ("total_docs", "total_tokens", "total_windows",
                    "total_index_bytes", "completed_shards"):
            assert second[key] == first[key], key
        assert first["total_docs"] == 256
        assert len(load_index(str(out)).to_pandas()) == \
            first["total_windows"]
        assert sorted(p.relative_to(pdir).as_posix()
                      for p in pdir.glob("source=*/*")) == \
            ["source=src00/shard=0", "source=src01/shard=0"]
        assert not list(pdir.glob("source=*/*.parquet"))

    def test_drop_done_matches_row_loop(self):
        """The vectorized resume filter drops exactly the rows a per-row
        (source, shard) lookup drops, for both kinds of shard_windows."""
        from hierarchical_bloom_filter_index_ray.pipelines.build_index \
            import _drop_done

        rng = np.random.default_rng(3)
        src = rng.choice(["a", "b", "c"], 500).tolist()
        win = rng.integers(0, 40, 500).tolist()
        t = pa.table({"source": src, "window_id": pa.array(win, pa.int64())})
        t = pa.concat_tables([t.slice(0, 200), t.slice(200)])  # 2 chunks
        for shard_windows, done in ((4, {"a": [0, 3], "c": [9]}),
                                    (None, {"b": [0]})):
            keep = [not (s in done and (w // shard_windows if shard_windows
                                        else 0) in done[s])
                    for s, w in zip(src, win)]
            assert _drop_done(t, done, shard_windows).equals(
                t.filter(pa.array(keep)))

    def test_manifest_write_killed_midway_keeps_previous(self, tmp_path,
                                                         monkeypatch):
        """A manifest write that dies after half its bytes leaves the
        previous manifest loadable (Ray-free: an index with no rows)."""
        from pathlib import Path

        from hierarchical_bloom_filter_index_ray.pipelines.build_index \
            import _write_manifest
        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12)
        _write_manifest(tmp_path, cfg, None, 1.0, {"a": [0]})
        before = load_manifest(str(tmp_path))
        real_write_text = Path.write_text

        def dies_midway(self, data, *args, **kwargs):
            real_write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("killed mid-write")
        monkeypatch.setattr(Path, "write_text", dies_midway)
        with pytest.raises(OSError, match="killed mid-write"):
            _write_manifest(tmp_path, cfg, None, 2.0, {"a": [0, 1]})
        monkeypatch.undo()
        assert load_manifest(str(tmp_path)) == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_interleaved_ingest_and_query(self, ray_session, tmp_path):
        """Interleaved ingest/query (the reference queries every
        windowLength tokens mid-stream, ``ProcessStream.java:70-75``):
        append one shard at a time and query BETWEEN appends — each
        round's results equal a fresh build over the data ingested so
        far, and hits accumulate monotonically."""
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index as di_fn

        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds_full = synth_sequences(768, seed=9, n_sources=2, vocab=512)
        rows = ds_full.take_all()
        tbl = pa.Table.from_pylist(rows)
        wins = di_fn(tbl) >> 5
        # one pattern per window tier + a missing one
        picks = [next(i for i in range(len(rows)) if wins[i] == w)
                 for w in (0, 4, 8)]
        pats = [(f"p{j}", [int(t) for t in rows[i]["tokens"][2:6]])
                for j, i in enumerate(picks)]
        pats.append(("missing", [2**30 + 3, 2**30 + 4]))

        def win_lt(hi):
            def f(t):
                return t.filter(pa.array((di_fn(t) >> 5) < hi))
            return f

        live = tmp_path / "live"
        n_hits = []
        for hi in (4, 8, 12):
            build_index(ds_full.map_batches(win_lt(hi),
                                            batch_format="pyarrow"),
                        cfg, str(live), batch_size=64, shard_windows=4)
            got = membership_query(load_index(str(live)), ds_full, pats,
                                   cfg, super_dir=str(live)).to_pandas()
            fresh = tmp_path / f"fresh{hi}"
            build_index(ds_full.map_batches(win_lt(hi),
                                            batch_format="pyarrow"),
                        cfg, str(fresh), batch_size=64, shard_windows=4)
            want = membership_query(load_index(str(fresh)), ds_full,
                                    pats, cfg,
                                    super_dir=str(fresh)).to_pandas()
            assert got.reset_index(drop=True).equals(
                want.reset_index(drop=True))
            n_hits.append(len(got))
        assert n_hits[0] < n_hits[-1]  # later appends add hits
        assert n_hits == sorted(n_hits)

    def test_snapshot_isolated_query_during_append(self, ray_session,
                                                   tmp_path):
        """VERDICT r3 #6: a query pinned by load_index's manifest
        snapshot must see exactly the pre-append index, even though its
        LAZY read resolves files AFTER a concurrent sharded append has
        landed new shard files and an in-flight (torn) file exists on
        disk; snapshot=False sees the appended windows."""
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index as di_fn

        cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds_full = synth_sequences(768, seed=9, n_sources=2, vocab=512)

        def win_lt(hi):
            def f(t):
                return t.filter(pa.array((di_fn(t) >> 5) < hi))
            return f

        live = tmp_path / "live"
        build_index(ds_full.map_batches(win_lt(6),
                                        batch_format="pyarrow"),
                    cfg, str(live), batch_size=64, shard_windows=2)
        rows = ds_full.take_all()
        tbl = pa.Table.from_pylist(rows)
        wins = di_fn(tbl) >> 5
        # one pattern in the pinned range, one only in the appended range
        lo = next(i for i in range(len(rows)) if wins[i] == 1)
        hi = next(i for i in range(len(rows)) if wins[i] == 9)
        pats = [("old", [int(t) for t in rows[lo]["tokens"][2:6]]),
                ("new", [int(t) for t in rows[hi]["tokens"][2:6]])]
        want = membership_query(load_index(str(live)), ds_full, pats,
                                cfg).to_pandas()
        # pin a snapshot BEFORE the append; nothing executes yet
        pinned = load_index(str(live))
        # concurrent writer lands the append of windows [6, 12) ...
        build_index(ds_full, cfg, str(live), batch_size=64,
                    shard_windows=2, super_levels=False)
        # ... and has a torn in-flight file on disk (unrecorded shard)
        torn = live / "partitions" / "source=src00" / "shard=99"
        torn.mkdir(parents=True)
        (torn / "part.parquet").write_bytes(b"PAR1\x00garbage")
        # the pinned query executes NOW — post-append, torn file present
        # — yet must equal the pre-append result
        got = membership_query(pinned, ds_full, pats, cfg).to_pandas()
        assert got.reset_index(drop=True).equals(
            want.reset_index(drop=True))
        assert set(got["query_id"]) == {"old"}
        # a NEW snapshot load sees the appended windows but still skips
        # the torn unrecorded file
        snap2 = membership_query(load_index(str(live)), ds_full, pats,
                                 cfg).to_pandas()
        assert set(snap2["query_id"]) == {"old", "new"}
        assert len(snap2) > len(got)
        # snapshot=False reads raw disk state (works once the torn
        # leftover is gone) and matches the new snapshot
        import shutil as sh
        sh.rmtree(torn)
        fresh = membership_query(load_index(str(live), snapshot=False),
                                 ds_full, pats, cfg).to_pandas()
        assert fresh.reset_index(drop=True).equals(
            snap2.reset_index(drop=True))

    def test_cli_build_and_query(self, ray_session, tmp_path):
        """`python -m hierarchical_bloom_filter_index_ray build|query`
        round-trip (the ray-job-submit entrypoint), sharded + counts."""
        import json

        import pyarrow.parquet as pq2

        from hierarchical_bloom_filter_index_ray.cli import main
        ds = synth_sequences(256, seed=11, n_sources=2, vocab=256)
        seqs = tmp_path / "seqs"
        ds.write_parquet(str(seqs))
        row = ds.take(1)[0]
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(
            [{"id": "hit", "tokens": [int(t) for t in row["tokens"][:3]]},
             {"id": "miss", "tokens": [2**30 + 11]}]))
        rc = main(["build", "--input", str(seqs),
                   "--out", str(tmp_path / "idx"),
                   "--docs-per-window", "32", "--batch-size", "64",
                   "--shard-windows", "2"])
        assert rc == 0
        rc = main(["query", "--index", str(tmp_path / "idx"),
                   "--sequences", str(seqs), "--queries", str(qfile),
                   "--out", str(tmp_path / "hits.parquet"),
                   "--docs-per-window", "32", "--counts"])
        assert rc == 0
        hits = pq2.read_table(str(tmp_path / "hits.parquet")).to_pandas()
        assert set(hits.columns) == {"query_id", "doc_id", "n_matches"}
        assert (hits["query_id"] == "hit").any()
        assert not (hits["query_id"] == "miss").any()
        assert row["doc_id"] in set(hits["doc_id"])

    def test_params_mismatch_refuses_resume(self, ray_session, tmp_path):
        cfg1 = HbiConfig(seed=1, docs_per_window=32, hll_p=12)
        cfg2 = HbiConfig(seed=2, docs_per_window=32, hll_p=12)
        ds = synth_sequences(100, seed=3, n_sources=2, vocab=128)
        build_index(ds, cfg1, str(tmp_path / "i"), batch_size=64)
        with pytest.raises(ValueError, match="different params"):
            build_index(ds, cfg2, str(tmp_path / "i"), batch_size=64)


class TestSynthSource:
    def test_deterministic_across_block_layouts(self, ray_session):
        a = synth_sequences(300, seed=5, vocab=256,
                            override_num_blocks=2).to_pandas()
        b = synth_sequences(300, seed=5, vocab=256,
                            override_num_blocks=7).to_pandas()
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert (a["doc_id"] == b["doc_id"]).all()
        assert all(np.array_equal(x, y) for x, y in
                   zip(a["tokens"], b["tokens"]))

    def test_schema_and_invariant(self, ray_session):
        t = synth_sequences(50, seed=5, vocab=256).take_all()
        for row in t:
            assert row["n_tok"] == len(row["tokens"])
            assert row["source"].startswith("src")


def test_default_concurrency_never_starves_the_read(ray_session,
                                                    monkeypatch):
    """Round-4 regression: at 2 cluster CPUs the pool must leave a slot
    for the upstream read (max(2, cpus-2) handed BOTH cpus to the pool
    and the build wedged at 0 blocks)."""
    import ray as ray_mod

    from hierarchical_bloom_filter_index_ray.stages import \
        default_concurrency
    for cpus, want_max in ((1, 1), (2, 1), (3, 2), (4, 2), (8, 6),
                           (32, 30)):
        monkeypatch.setattr(ray_mod, "cluster_resources",
                            lambda c=cpus: {"CPU": c})
        n = default_concurrency()
        assert 1 <= n <= max(1, cpus - 1), (cpus, n)
        assert n == want_max, (cpus, n)


def test_pool_that_takes_every_cpu_is_rejected():
    """A builder pool holding every cluster CPU starves the read: a 2-cpu
    build with concurrency=2 sat at 0 blocks. Ray-free: the helper gets
    the CPU count as an argument."""
    from hierarchical_bloom_filter_index_ray.stages.resources import \
        check_pool_fits
    for conc, ncpu, cpus in ((2, 1.0, 2), ((1, 2), 1.0, 2), (1, 1.0, 1),
                             (2, 2.0, 4), (3, 1.0, 2)):
        with pytest.raises(ValueError, match="cluster CPUs"):
            check_pool_fits(conc, ncpu, cpus)
    for conc, ncpu, cpus in ((1, 1.0, 2), ((1, 1), 1.0, 2), (2, 0.5, 2),
                             (3, 1.0, 4), (64, 1.0, None)):
        check_pool_fits(conc, ncpu, cpus)


def test_build_rejects_a_wedging_pool_before_any_work(ray_session,
                                                      tmp_path):
    """build_index refuses an explicit pool of every session CPU before
    it deletes a file or touches the Dataset (``ds`` is not a Dataset,
    so any Dataset call would fail with AttributeError, not hang)."""
    import ray as ray_mod
    cpus = int(ray_mod.cluster_resources()["CPU"])
    stray = tmp_path / PARTITIONS / "source=a" / "part-0.parquet"
    stray.parent.mkdir(parents=True)
    stray.write_bytes(b"x")
    with pytest.raises(ValueError, match="cluster CPUs"):
        build_index(object(), CFG, str(tmp_path), concurrency=cpus)
    assert stray.exists()


def test_build_releases_its_actor_pool(ray_session, tmp_path):
    """No builder actor outlives build_index. Ray Data keeps the partials'
    block refs, which pin the pool, in a reference cycle; with automatic
    GC off the pool would keep its CPUs after the call returned."""
    import gc
    import time

    import ray as ray_mod

    def settled_free_cpus(want):
        deadline = time.monotonic() + 10
        free = ray_mod.available_resources().get("CPU", 0)
        while free != want and time.monotonic() < deadline:
            time.sleep(0.2)
            free = ray_mod.available_resources().get("CPU", 0)
        return free
    gc.collect()
    before = settled_free_cpus(ray_mod.cluster_resources()["CPU"])
    cfg = HbiConfig(seed=7, docs_per_window=32, hll_p=12, cms_eps=0.05,
                    cms_delta=0.1)
    gc.disable()
    try:
        build_index(synth_sequences(256, seed=9, n_sources=2, vocab=256),
                    cfg, str(tmp_path), batch_size=64, concurrency=2,
                    super_levels=False)
        assert settled_free_cpus(before) == before
    finally:
        gc.enable()


class TestMediaCli:
    def test_cli_media_ops(self, ray_session, tmp_path):
        """`python -m hierarchical_bloom_filter_index_ray media` over a
        directory of raw files: features (undecodable rows skipped),
        frames (containers only) and resize (stills re-encoded)."""
        import numpy as np
        import pyarrow.parquet as pq2

        from hierarchical_bloom_filter_index_ray.cli import main
        from hierarchical_bloom_filter_index_ray.functions import h264
        from hierarchical_bloom_filter_index_ray.functions.codecs import \
            encode_png
        files = tmp_path / "files"
        files.mkdir()
        rng = np.random.default_rng(31)
        for i in range(4):
            (files / f"img{i}.png").write_bytes(encode_png(
                rng.integers(0, 256, (20, 20)).astype(np.uint8)))
        (files / "vid.mp4").write_bytes(h264.encode_mp4_h264_ipcm(
            rng.integers(0, 256, (4, 32, 32)).astype(np.uint8)))
        (files / "junk.bin").write_bytes(b"not a media file")

        rc = main(["media", "--input", str(files), "--format", "files",
                   "--op", "features", "--out", str(tmp_path / "feat"),
                   "--feature-dim", "8"])
        assert rc == 0
        feat = pq2.read_table(str(tmp_path / "feat")).to_pandas()
        assert len(feat) == 5            # junk row skipped
        assert all(len(f) == 8 for f in feat["features"])

        rc = main(["media", "--input", str(files), "--format", "files",
                   "--op", "frames", "--out", str(tmp_path / "frames"),
                   "--n-frames", "2"])
        assert rc == 0
        fr = pq2.read_table(str(tmp_path / "frames")).to_pandas()
        assert len(fr) == 2              # only the container splits
        for _, row in fr.iterrows():
            d = h264.decode_h264_ipcm(bytes(row["payload"]))
            assert d["y"].shape == (1, 32, 32)

        rc = main(["media", "--input", str(files), "--format", "files",
                   "--op", "resize", "--out", str(tmp_path / "rs"),
                   "--width", "8", "--height", "8"])
        assert rc == 0
        rs = pq2.read_table(str(tmp_path / "rs")).to_pandas()
        assert len(rs) == 4              # junk AND the container skipped
        assert (rs["width"] == 8).all() and (rs["height"] == 8).all()
