"""Cross-window super levels: build, probe-count bounds, and result
invariance (the across-trees pruning of ``PMIndex/HBI.java:139,207-266``;
SURVEY §7.1 step 4)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from hierarchical_bloom_filter_index_ray import HbiConfig
from hierarchical_bloom_filter_index_ray.pipelines import (
    build_index, compile_queries, load_index, load_super_meta,
    membership_query, super_prune)
from hierarchical_bloom_filter_index_ray.sources import synth_sequences

CFG = HbiConfig(seed=42, docs_per_window=64, fp=0.01, ngram=1,
                expected_tokens_per_doc=64, expected_distinct_per_doc=48,
                hll_p=12, cms_eps=0.02, cms_delta=0.05)
N_ROWS = 4096  # 2 sources x 32 windows of 64 docs
N_SOURCES = 2
CORPUS_ROWS_PER_FILE = 1024  # 512 docs/source/file = 8 whole windows


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    path = tmp_path_factory.mktemp("superdata") / "seqs"
    synth_sequences(N_ROWS, seed=7, n_sources=N_SOURCES, vocab=200_000,
                    len_min=8, len_max=64,
                    override_num_blocks=N_ROWS // CORPUS_ROWS_PER_FILE
                    ).write_parquet(
        str(path), min_rows_per_file=CORPUS_ROWS_PER_FILE,
        max_rows_per_file=CORPUS_ROWS_PER_FILE)
    return str(path)


@pytest.fixture(scope="module")
def index_dir(ray_session, corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("superindex")
    build_index(rd.read_parquet(corpus), CFG, str(out), batch_size=512)
    return str(out)


@pytest.fixture(scope="module")
def sample_tokens(ray_session, corpus):
    # deterministic: Dataset.take() returns whichever block lands first
    # (scheduling-dependent), which made scoped-query hit sets vary
    import pyarrow.parquet as pq
    from pathlib import Path
    first = sorted(Path(corpus).glob("*.parquet"))[0]
    rows = pq.read_table(first).slice(0, 4).to_pylist()
    return [[int(t) for t in r["tokens"][:3]] for r in rows]


class TestSuperBuild:
    def test_meta_levels_stack(self, index_dir):
        meta = load_super_meta(index_dir)
        assert meta is not None and meta["fanout"] == CFG.super_fanout
        # 32 windows/source at fanout 2: up to 5 levels before 1 node/src
        assert len(meta["levels"]) >= 2
        nodes = [lv["nodes"] for lv in meta["levels"]]
        assert all(a > b for a, b in zip(nodes, nodes[1:]))

    def test_index_row_without_a_root_is_rejected(self):
        """Every window stores its level-0 bloom, so a null
        ``root_bloom`` means a corrupt index: the super build raises
        instead of summarizing the window as an always-pass node."""
        from hierarchical_bloom_filter_index_ray.pipelines.super_index \
            import _extract_roots
        rows = pd.DataFrame({"source": ["s0"], "window_id": [0],
                             "root_bloom": pd.Series([None], dtype=object)})
        with pytest.raises(ValueError, match="root_bloom"):
            _extract_roots(rows, fanout=2)

    def test_missing_token_dies_at_top(self, index_dir):
        """The headline property: an absent token probes O(levels) super
        nodes instead of O(windows) window trees."""
        compiled = compile_queries(
            [("missing", [2**30 + 5, 2**30 + 6])], CFG)
        res = super_prune(index_dir, CFG, compiled)
        assert res is not None
        total_windows = 2 * (N_ROWS // 2 // CFG.docs_per_window)
        assert res.probes < total_windows // 2
        # every source's allowed-window union should be (near-)empty;
        # bloom FPR can leak a handful, never the full window set
        leaked = sum(len(w) for w in res.window_union.values())
        assert leaked <= max(4, total_windows // 8)

    def test_present_token_reaches_its_windows(self, index_dir,
                                               sample_tokens):
        compiled = compile_queries([("q0", sample_tokens[0])], CFG)
        res = super_prune(index_dir, CFG, compiled)
        assert res is not None
        assert sum(len(w) for w in res.window_union.values()) >= 1

    def test_distributed_build_matches_local(self, index_dir, corpus,
                                             sample_tokens, tmp_path,
                                             monkeypatch):
        """The Ray-rounds build path (forced by a zero
        ``_LOCAL_BUILD_BYTES``) produces the same levels/nodes and the
        same prune decisions as the driver-local fast path."""
        import shutil

        from hierarchical_bloom_filter_index_ray.pipelines import \
            super_index
        local_meta = load_super_meta(index_dir)
        dup = tmp_path / "dup"
        shutil.copytree(index_dir, dup)
        monkeypatch.setattr(super_index, "_LOCAL_BUILD_BYTES", 0)
        dist_meta = super_index.build_super_index(str(dup), CFG)
        assert [(lv["level"], lv["nodes"]) for lv in dist_meta["levels"]] \
            == [(lv["level"], lv["nodes"]) for lv in local_meta["levels"]]
        queries = [("q0", sample_tokens[0]),
                   ("missing", [2**28 + 1, 2**28 + 2])]
        compiled = compile_queries(queries, CFG)
        a = super_prune(index_dir, CFG, compiled)
        b = super_prune(str(dup), CFG, compiled)
        assert a.probes == b.probes
        for src in set(a.allowed) | set(b.allowed):
            assert np.array_equal(a.allowed[src][0], b.allowed[src][0])

    @pytest.mark.parametrize("sources,window_range", [
        (None, None), (["src00"], None), (None, (8, 24)),
        (["src00"], (8, 24))],
        ids=["unscoped", "source", "window_range", "source_window_range"])
    def test_distributed_descend_matches_local(self, index_dir,
                                               sample_tokens, monkeypatch,
                                               sources, window_range):
        """The uncached descend (forced by a zero ``_CACHE_BYTES``: every
        level a frontier-filtered pyarrow read) gives the cached
        descend's result, scoped or not, and runs no Ray Data job."""
        from hierarchical_bloom_filter_index_ray.pipelines import \
            super_index
        queries = [("q0", sample_tokens[0]),
                   ("missing", [2**29 + 1, 2**29 + 2])]
        compiled = compile_queries(queries, CFG)
        a = super_prune(index_dir, CFG, compiled, sources=sources,
                        window_range=window_range)

        def no_ray_data(*args, **kwargs):
            raise AssertionError("uncached descend started a Ray Data job")

        monkeypatch.setattr(super_index, "_CACHE_BYTES", 0)
        monkeypatch.setattr(super_index.rd, "read_parquet", no_ray_data)
        b = super_prune(index_dir, CFG, compiled, sources=sources,
                        window_range=window_range)
        assert a.probes == b.probes
        assert a.covered_sources == b.covered_sources
        assert set(a.allowed) == set(b.allowed)
        for src in a.allowed:
            wa, oa, qa = a.allowed[src]
            wb, ob, qb = b.allowed[src]
            assert np.array_equal(wa, wb)
            assert np.array_equal(oa, ob)
            assert np.array_equal(qa, qb)


class TestSuperQuery:
    def test_results_invariant_under_super_pruning(self, index_dir, corpus,
                                                   sample_tokens):
        """Super levels bound COST only — verified results are identical
        with and without them (no false negatives by Bloom construction)."""
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        queries.append(("missing", [2**30 + 5, 2**30 + 6]))
        idx = load_index(index_dir)
        seqs = rd.read_parquet(corpus)
        base = membership_query(idx, seqs, queries, CFG)
        pruned = membership_query(load_index(index_dir),
                                  rd.read_parquet(corpus), queries, CFG,
                                  super_dir=index_dir)
        assert base.num_rows > 0
        assert base.equals(pruned)

    def test_distributed_candidate_exchange_matches_broadcast(
            self, index_dir, corpus, sample_tokens, monkeypatch):
        """The distributed exchange (fixed-size bloom gate, no driver
        candidate materialization; forced by a zero broadcast limit)
        returns exactly the broadcast path's results — including under
        global source/window scoping, where the gate's false positives
        must be re-filtered exactly."""
        from hierarchical_bloom_filter_index_ray.pipelines import \
            query_index
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        queries.append(("missing", [2**30 + 9, 2**30 + 10]))
        base = membership_query(load_index(index_dir),
                                rd.read_parquet(corpus), queries, CFG)
        base_s = membership_query(load_index(index_dir),
                                  rd.read_parquet(corpus), queries, CFG,
                                  sources=["src01"], window_range=(2, 20))
        monkeypatch.setattr(query_index, "_BROADCAST_LIMIT", 0)
        dist = membership_query(load_index(index_dir),
                                rd.read_parquet(corpus), queries, CFG)
        assert base.num_rows > 0
        assert base.equals(dist)
        dist_s = membership_query(load_index(index_dir),
                                  rd.read_parquet(corpus), queries, CFG,
                                  sources=["src01"], window_range=(2, 20))
        assert base_s.num_rows > 0
        assert base_s.equals(dist_s)

    def test_with_counts_exact_occurrences(self, index_dir, corpus,
                                           sample_tokens, monkeypatch):
        """with_counts=True returns per-(query, doc) occurrence counts ==
        a numpy sliding-window oracle (overlapping starts each count),
        identical through the broadcast AND distributed verify paths."""
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        queries.append(("missing", [2**30 + 7, 2**30 + 8]))
        idx = load_index(index_dir)
        seqs = rd.read_parquet(corpus)
        from hierarchical_bloom_filter_index_ray.pipelines import \
            query_index
        got = membership_query(idx, seqs, queries, CFG,
                               with_counts=True).to_pandas()
        monkeypatch.setattr(query_index, "_BROADCAST_LIMIT", 0)
        dist = membership_query(load_index(index_dir),
                                rd.read_parquet(corpus), queries, CFG,
                                with_counts=True).to_pandas()
        pd.testing.assert_frame_equal(got, dist)
        raw = rd.read_parquet(corpus).to_pandas()
        toks_by_doc = dict(zip(raw["doc_id"],
                               (np.asarray(t) for t in raw["tokens"])))
        want = {}
        for name, q in queries:
            q = np.asarray(q)
            for did, arr in toks_by_doc.items():
                if len(arr) < len(q):
                    continue
                wins = np.lib.stride_tricks.sliding_window_view(
                    arr, len(q))
                c = int((wins == q).all(axis=1).sum())
                if c:
                    want[(name, did)] = c
        assert {(r["query_id"], r["doc_id"]): r["n_matches"]
                for _, r in got.iterrows()} == want
        assert (got["n_matches"] >= 1).all()

    def test_expire_windows(self, index_dir, corpus, sample_tokens,
                            tmp_path):
        """Retention: expiring windows < W drops exactly those rows
        (sharded layout unlinks whole shard dirs, boundary shard
        rewrites), refreshes manifest + super store, and queries equal a
        window_range=(W, inf) scope on the un-expired index."""
        import shutil as sh

        from hierarchical_bloom_filter_index_ray.pipelines import (
            expire_windows, load_manifest)
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        cutoff = 10
        want = membership_query(load_index(index_dir),
                                rd.read_parquet(corpus), queries, CFG,
                                window_range=(cutoff, 1 << 60))
        for shard in (None, 4):
            d = tmp_path / f"exp{shard}"
            if shard is None:
                sh.copytree(index_dir, d)
            else:
                build_index(rd.read_parquet(corpus), CFG, str(d),
                            batch_size=512, shard_windows=shard)
            man = expire_windows(str(d), CFG, before_window=cutoff)
            assert man["expired_before_window"] == cutoff
            left = load_index(str(d)).to_pandas()
            assert int(left["window_id"].min()) == cutoff
            # 32 windows/source, 2 sources -> 22 left each
            assert man["total_windows"] == 2 * (32 - cutoff)
            if shard is not None:
                # shards 0,1 wholly expired -> dirs gone; shard 2 boundary
                src_dirs = sorted((d / "partitions").glob("source=*"))
                assert src_dirs
                names = sorted(p.name for p in src_dirs[0].glob("shard=*"))
                assert names == [f"shard={k}" for k in range(2, 8)]
            got = membership_query(load_index(str(d)),
                                   rd.read_parquet(corpus), queries, CFG,
                                   super_dir=str(d))
            assert got.equals(want)

    def test_sequences_file_pruning(self, index_dir, corpus,
                                    sample_tokens, tmp_path):
        """sequences_meta: verify reads only candidate-window files.
        Results identical to the full scan; a one-window candidate set
        keeps exactly one file; missing-everywhere queries keep none."""
        from hierarchical_bloom_filter_index_ray.pipelines import \
            window_aligned_layout
        from hierarchical_bloom_filter_index_ray.pipelines.query_index \
            import _prune_files_by_windows
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        queries.append(("missing", [2**30 + 21, 2**30 + 22]))
        idx = load_index(index_dir)
        seqs = rd.read_parquet(corpus)
        meta = window_aligned_layout(corpus, CORPUS_ROWS_PER_FILE,
                                     CORPUS_ROWS_PER_FILE // N_SOURCES,
                                     CFG)
        assert len(meta) > 1
        base = membership_query(load_index(index_dir),
                                rd.read_parquet(corpus), queries, CFG)
        pruned = membership_query(idx, seqs, queries, CFG,
                                  sequences_meta=meta)
        assert base.num_rows > 0
        assert base.equals(pruned)
        # selectivity: candidates in window 0 only -> exactly file 0
        assert _prune_files_by_windows(meta, np.array([0])) == \
            [meta[0]["path"]]
        last_win = meta[-1]["window_lo"]
        assert _prune_files_by_windows(meta, np.array([last_win])) == \
            [meta[-1]["path"]]
        assert _prune_files_by_windows(meta, np.empty(0, np.int64)) == []

    def test_scoped_query_with_super(self, index_dir, corpus,
                                     sample_tokens):
        queries = [("q0", sample_tokens[0])]
        idx = load_index(index_dir)
        seqs = rd.read_parquet(corpus)
        base = membership_query(idx, seqs, queries, CFG, sources=["src00"],
                                window_range=(0, 16))
        pruned = membership_query(load_index(index_dir),
                                  rd.read_parquet(corpus), queries, CFG,
                                  sources=["src00"], window_range=(0, 16),
                                  super_dir=index_dir)
        assert base.num_rows > 0
        assert base.equals(pruned)


class TestSuperCombinedModes:
    def test_candidate_structs_match_serial_build(self):
        """The verify workers' one-pass struct build from the probe's
        candidate blocks reproduces exactly the serial per-source
        construction: same sources, same sorted (doc_idx, offsets,
        query_idx) arrays, same candidate windows — including an empty
        block and sources spread over several blocks."""
        import pyarrow as pa
        from hierarchical_bloom_filter_index_ray.pipelines.query_index \
            import _candidate_structs

        rng = np.random.default_rng(3)
        window_bits = 5
        blocks = []
        for _ in range(4):
            n = 500
            blocks.append(pa.table({
                "source": pa.array(rng.choice(
                    ["s0", "s1", "s2"], n).tolist()),
                "window_id": pa.array(
                    rng.integers(0, 16, n), pa.int64()),
                "slot": pa.array(rng.integers(0, 32, n), pa.int64()),
                "query_idx": pa.array(rng.integers(0, 7, n), pa.int64()),
            }))
        blocks.append(blocks[0].slice(0, 0))  # empty block
        structs = _candidate_structs(blocks, window_bits)
        got_wins = np.unique(np.concatenate(
            [u >> window_bits for u, _, _ in structs.values()]))
        # serial reference construction
        import pandas as pd
        df = pd.concat([b.to_pandas() for b in blocks])
        df["di"] = (df["window_id"].to_numpy() << window_bits) \
            | df["slot"].to_numpy()
        want_wins = np.unique(df["window_id"].to_numpy())
        assert np.array_equal(got_wins, want_wins)
        assert set(structs) == set(df["source"].unique())
        for src, g in df.groupby("source"):
            di = g["di"].to_numpy()
            qi = g["query_idx"].to_numpy().astype(np.int64)
            order = np.lexsort((qi, di))
            di, qi = di[order], qi[order]
            uniq, starts = np.unique(di, return_index=True)
            offs = np.concatenate([starts, [len(di)]]).astype(np.int64)
            gu, go, gq = structs[src]
            assert np.array_equal(gu, uniq)
            assert np.array_equal(go, offs)
            assert np.array_equal(gq, qi)
        assert _candidate_structs(blocks[-1:], window_bits) == {}

    def test_per_query_scope_distributed_mode(self, index_dir, corpus,
                                              sample_tokens, monkeypatch):
        """Per-query (source, window) scoping must survive the lossy bloom
        gate of the distributed candidate exchange (re-applied exactly on
        verified hits)."""
        from hierarchical_bloom_filter_index_ray.pipelines import (
            membership_query_table, query_index)
        import pyarrow as pa
        qt = pa.table({
            "query_id": pa.array(["q0", "q1"]),
            "qtokens": pa.array([sample_tokens[0], sample_tokens[1]],
                                pa.list_(pa.int32())),
            "source": pa.array(["src00", None]),
            "window_id": pa.array([None, 3], pa.int64()),
        })
        base = membership_query_table(load_index(index_dir),
                                      rd.read_parquet(corpus), qt, CFG)
        monkeypatch.setattr(query_index, "_BROADCAST_LIMIT", 0)
        dist = membership_query_table(load_index(index_dir),
                                      rd.read_parquet(corpus), qt, CFG)
        assert base.num_rows > 0
        assert base.equals(dist)


class TestRound4FloorCuts:
    """Round-4 query-path floor work: the async descend on the one
    coordinator actor and the descend-union file pruning."""

    def test_async_descend_equals_serial(self, index_dir, corpus,
                                         sample_tokens):
        """A 192-query batch descended on the coordinator actor returns
        bit-identical prune state to the in-process descend."""
        import ray

        from hierarchical_bloom_filter_index_ray.pipelines.super_index \
            import super_prune, super_prune_async
        queries = []
        for i in range(192):
            toks = sample_tokens[i % len(sample_tokens)]
            queries.append((f"q{i}", [int(t) + (i // len(sample_tokens))
                                      for t in toks]))
        queries.append(("missing", [2**30 + 1, 2**30 + 2]))
        compiled = compile_queries(queries, CFG)
        serial = super_prune(index_dir, CFG, compiled)
        remote = ray.get(super_prune_async(index_dir, CFG, compiled))
        assert serial is not None and remote is not None
        assert remote.probes == serial.probes
        assert remote.covered_sources == serial.covered_sources
        assert set(remote.window_union) == set(serial.window_union)
        for s, w in serial.window_union.items():
            np.testing.assert_array_equal(remote.window_union[s], w)
        assert set(remote.allowed) == set(serial.allowed)
        for s, (wins, offs, qi) in serial.allowed.items():
            w2, o2, q2 = remote.allowed[s]
            np.testing.assert_array_equal(w2, wins)
            np.testing.assert_array_equal(o2, offs)
            np.testing.assert_array_equal(q2, qi)

    def test_prune_result_windows_and_queries_for(self, index_dir,
                                                  sample_tokens):
        """``SuperPruneResult`` owns the pruning rule: ``windows`` is the
        union of the windows ``queries_for`` lets any query probe, and
        both refuse to prune (None) for a source the store does not
        cover."""
        from hierarchical_bloom_filter_index_ray.pipelines.super_index \
            import super_prune
        compiled = compile_queries(
            [("q0", sample_tokens[0]),
             ("missing", [2**30 + 1, 2**30 + 2])], CFG)
        res = super_prune(index_dir, CFG, compiled)
        assert res is not None
        srcs = sorted(res.covered_sources)
        wins = res.windows(srcs)
        assert wins is not None and len(wins)
        n_win = N_ROWS // N_SOURCES // CFG.docs_per_window
        reached = set()
        for s in srcs:
            for w in range(n_win):
                q = res.queries_for(s, w)
                assert set(q.tolist()) <= {0, 1}
                if len(q):
                    reached.add(w)
                assert (w in set(res.window_union[s].tolist())) == \
                    bool(len(q))
        np.testing.assert_array_equal(wins, sorted(reached))
        # an uncovered relevant source forbids pruning entirely
        assert res.windows(srcs + ["not_in_store"]) is None
        assert res.queries_for("not_in_store", 0) is None
        # scoping to covered sources restores pruning
        assert res.windows(srcs[:1]) is not None


class TestPruneSafety:
    """The super levels may only bound cost: a store that does not
    summarize the queried index, or a source the descend never saw, must
    never drop a true hit."""

    def test_stale_store_prunes_nothing(self, ray_session, tmp_path):
        """Windows 4-7 appended by a sharded resume WITHOUT super levels
        (the CLI's --no-super) are unknown to the store built for windows
        0-3. Queries whose documents sit in windows 4-7 must return the
        same hits with ``super_dir`` as without."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        from pathlib import Path

        from hierarchical_bloom_filter_index_ray.pipelines import \
            window_aligned_layout
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index
        rows_per_file = 256  # 128 docs/source/file = 2 whole windows
        n_rows = 4 * rows_per_file  # 2 sources x 8 windows
        corpus = tmp_path / "seqs"
        synth_sequences(n_rows, seed=5, n_sources=N_SOURCES, vocab=200_000,
                        len_min=8, len_max=64, override_num_blocks=4
                        ).write_parquet(str(corpus),
                                        min_rows_per_file=rows_per_file,
                                        max_rows_per_file=rows_per_file)
        meta = window_aligned_layout(str(corpus), rows_per_file,
                                     rows_per_file // N_SOURCES, CFG)

        def first_windows(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(doc_index(t) >> CFG.window_bits < 4))

        out = tmp_path / "idx"
        build_index(rd.read_parquet(str(corpus)).map_batches(
            first_windows, batch_format="pyarrow"),
            CFG, str(out), batch_size=512, shard_windows=2)
        assert load_super_meta(str(out)) is not None
        build_index(rd.read_parquet(str(corpus)), CFG, str(out),
                    batch_size=512, shard_windows=2, super_levels=False)
        tbl = pa.concat_tables(
            pq.read_table(f) for f in sorted(Path(corpus).glob("*.parquet")))
        late = np.nonzero(doc_index(tbl) >> CFG.window_bits >= 4)[0]
        toks = tbl["tokens"].to_pylist()

        def rare_span(t: list) -> list:
            # the doc's 3-token span of highest-rank (rarest Zipf) tokens
            p = max(range(len(t) - 2), key=lambda i: min(t[i:i + 3]))
            return [int(x) for x in t[p:p + 3]]

        queries = [(f"q{i}", rare_span(toks[r]))
                   for i, r in enumerate(late[::len(late) // 20][:20])]
        want = membership_query(load_index(str(out)),
                                rd.read_parquet(str(corpus)), queries, CFG)
        got = membership_query(load_index(str(out)),
                               rd.read_parquet(str(corpus)), queries, CFG,
                               super_dir=str(out), sequences_meta=meta)
        assert set(want["query_id"].to_pylist()) == {q for q, _ in queries}
        assert got.equals(want), (got.num_rows, want.num_rows)

    def test_uncovered_source_probes_every_query(self, index_dir,
                                                 sample_tokens):
        """A descend result that covers only src00 gates src00's windows
        and leaves src01's candidates exactly as an ungated probe finds
        them."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray

        from hierarchical_bloom_filter_index_ray.pipelines import BloomProbe
        from hierarchical_bloom_filter_index_ray.pipelines.super_index \
            import SuperPruneResult
        queries = [(f"q{i}", toks) for i, toks in enumerate(sample_tokens)]
        queries.append(("missing", [2**30 + 3, 2**30 + 4]))
        compiled = compile_queries(queries, CFG)
        res = super_prune(index_dir, CFG, compiled, sources=["src00"])
        assert res.covered_sources == {"src00"}
        idx = pa.concat_tables(ray.get(load_index(index_dir).select_columns(
            ["source", "window_id", "bloom_tree"]).to_arrow_refs()))

        def cands(t: pa.Table, src: str) -> set:
            d = t.filter(pc.equal(t["source"], src)).to_pydict()
            return set(zip(d["query_idx"], d["window_id"], d["slot"]))

        plain = BloomProbe(CFG, compiled)(idx)
        gated = BloomProbe(CFG, compiled, prune_ref=res)(idx)
        assert cands(plain, "src01")
        assert cands(gated, "src01") == cands(plain, "src01")
        assert cands(gated, "src00") <= cands(plain, "src00")
        # a descend no query survived: every row is skipped unread
        dead = SuperPruneResult({}, 0, {"src00", "src01"})
        assert BloomProbe(CFG, compiled, prune_ref=dead)(idx).num_rows == 0
