"""n-gram index configs, repeated-key probing, scoped queries, and
adversarial corpora (FIXTURES.md F2) — membership stays exact in every
mode."""

from __future__ import annotations

import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray import HbiConfig
from hierarchical_bloom_filter_index_ray.functions import (
    flat_tokens_and_offsets)
from hierarchical_bloom_filter_index_ray.pipelines import (
    BloomProbe, build_index, compile_queries, linear_scan_membership,
    load_index, membership_query)
from hierarchical_bloom_filter_index_ray.sources import (synth_adversarial,
                                                         synth_sequences)


def oracle_hits(rows, pattern):
    q = np.asarray(pattern, dtype=np.int32)
    hits = []
    for row in rows:
        toks = np.asarray(row["tokens"], dtype=np.int32)
        if len(toks) >= len(q):
            sw = np.lib.stride_tricks.sliding_window_view(toks, len(q))
            if (sw == q).all(axis=1).any():
                hits.append(row["doc_id"])
    return sorted(hits)


def probe_keys(out, cfg, queries):
    """(bloom keys probed, per-query probe key counts) of one
    ``BloomProbe`` pass over every row of the index at ``out``."""
    import pyarrow.parquet as pq

    from hierarchical_bloom_filter_index_ray.pipelines.build_index import \
        PARTITIONS
    index = pq.read_table(f"{out}/{PARTITIONS}")
    index = index.set_column(index.column_names.index("source"), "source",
                             index["source"].cast("string"))
    probe = BloomProbe(cfg, compile_queries(queries, cfg))
    probe(index)
    return probe.probe_key_count, probe.q_lens.tolist()


class TestNgramIndex:
    @pytest.fixture(scope="class")
    def built(self, ray_session, tmp_path_factory):
        cfg = HbiConfig(seed=21, docs_per_window=32, fp=0.01, ngram=3,
                        hll_p=12, cms_eps=0.05, cms_delta=0.1)
        ds = synth_sequences(256, seed=13, n_sources=2, vocab=128)
        out = tmp_path_factory.mktemp("ng3")
        build_index(ds, cfg, str(out), batch_size=64)
        return cfg, ds, str(out), ds.take_all()

    def test_trigram_index_exact(self, built):
        cfg, ds, out, rows = built
        idx = load_index(out)
        pats = []
        for i in (0, 7, 100):
            toks = rows[i]["tokens"][:5]
            pats.append((f"p{i}", [int(t) for t in toks]))
        pats.append(("missing", [999, 998, 997, 996]))
        res = membership_query(idx, ds, pats, cfg).to_pandas()
        got = {q: sorted(g["doc_id"]) for q, g in res.groupby("query_id")}
        for qid, pat in pats:
            assert got.get(qid, []) == oracle_hits(rows, pat), qid

    def test_repeated_ngram_keys_probed_once(self, built):
        """The probe tests each node with a pattern's DISTINCT trigram
        keys: ``[a]*5`` probes exactly like ``[a]*3`` (one key) and
        ``[a, b]*3`` like ``[a, b, a, b]`` (keys aba, bab) — and the
        verified answers stay exact."""
        cfg, ds, out, rows = built
        toks = [int(t) for t in rows[1]["tokens"]]
        a = toks[0]
        b = next(t for t in toks if t != a)
        pats = [("run", [a] * 5), ("alt", [a, b] * 3)]
        res = membership_query(load_index(out), ds, pats, cfg).to_pandas()
        got = {q: sorted(g["doc_id"]) for q, g in res.groupby("query_id")}
        for qid, pat in pats:
            assert got.get(qid, []) == oracle_hits(rows, pat), qid
        keys, lens = probe_keys(out, cfg, pats)
        assert lens == [1, 2]
        assert (keys, lens) == probe_keys(
            out, cfg, [("run", [a] * 3), ("alt", [a, b, a, b])])

    def test_query_shorter_than_ngram_raises(self, built):
        cfg, ds, out, rows = built
        with pytest.raises(ValueError, match="shorter than ngram"):
            membership_query(load_index(out), ds, [("q", [1, 2])], cfg)


class TestScopedQueries:
    def test_source_and_window_scope(self, ray_session, tmp_path):
        cfg = HbiConfig(seed=5, docs_per_window=32, fp=0.01, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds = synth_sequences(512, seed=9, n_sources=4, vocab=64)
        build_index(ds, cfg, str(tmp_path / "idx"), batch_size=64)
        idx = load_index(str(tmp_path / "idx"))
        rows = ds.take_all()
        tok = int(rows[0]["tokens"][0])
        full = membership_query(idx, ds, [("q", [tok])], cfg).to_pandas()
        scoped = membership_query(idx, ds, [("q", [tok])], cfg,
                                  sources=["src01"]).to_pandas()
        assert set(scoped["doc_id"]) == {
            d for d in full["doc_id"] if d.startswith("src01")}
        win = membership_query(idx, ds, [("q", [tok])], cfg,
                               window_range=(0, 2)).to_pandas()
        by_doc = {r["doc_id"]: int(r["doc_id"].split("doc")[1])
                  for r in rows}
        assert set(win["doc_id"]) == {
            d for d in full["doc_id"] if by_doc[d] // 32 < 2}


class TestQueryTable:
    def test_per_query_scope(self, ray_session, tmp_path):
        import pyarrow as pa

        from hierarchical_bloom_filter_index_ray.pipelines import \
            membership_query_table
        cfg = HbiConfig(seed=6, docs_per_window=32, fp=0.01, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds = synth_sequences(256, seed=8, n_sources=2, vocab=32)
        build_index(ds, cfg, str(tmp_path / "idx"), batch_size=64)
        idx = load_index(str(tmp_path / "idx"))
        rows = ds.take_all()
        tok = int(rows[0]["tokens"][0])
        qt = pa.table({
            "query_id": pa.array(["global", "only_src01", "only_win0"]),
            "qtokens": pa.array([[tok]] * 3, pa.list_(pa.int32())),
            "source": pa.array([None, "src01", None], pa.string()),
            "window_id": pa.array([None, None, 0], pa.int64()),
        })
        res = membership_query_table(idx, ds, qt, cfg).to_pandas()
        by_q = {q: set(g["doc_id"]) for q, g in res.groupby("query_id")}
        assert by_q["only_src01"] <= by_q["global"]
        assert all(d.startswith("src01") for d in by_q["only_src01"])
        assert all(int(d.split("doc")[1]) < 32 for d in by_q["only_win0"])
        # scoped results are exactly the global results restricted to scope
        assert by_q["only_src01"] == {d for d in by_q["global"]
                                      if d.startswith("src01")}


class TestAdversarial:
    def test_debruijn_every_kgram_found_once_per_cycle(self, ray_session,
                                                       tmp_path):
        cfg = HbiConfig(seed=31, docs_per_window=16, fp=0.01, ngram=1,
                        hll_p=12, cms_eps=0.05, cms_delta=0.1)
        ds = synth_adversarial(64, kind="debruijn", k=6, sigma=4,
                               doc_len=128)
        build_index(ds, cfg, str(tmp_path / "db"), batch_size=32)
        idx = load_index(str(tmp_path / "db"))
        rows = ds.take_all()
        # a k-gram pattern from the middle of doc 3
        pat = [int(t) for t in rows[3]["tokens"][40:46]]
        res = membership_query(idx, ds, [("q", pat)], cfg).to_pandas()
        assert sorted(res["doc_id"]) == oracle_hits(rows, pat)
        assert len(res) >= 1
        # repeated-token patterns (every one is a <= k-gram, so each
        # occurs in the cycle): exact against the index-free linear scan,
        # and probed with their distinct keys only — the same bloom keys
        # as the deduplicated pattern
        reps = [("t3", [2, 2, 2]), ("ab2", [0, 1, 0, 1]),
                ("t6", [3] * 6), ("ab3", [1, 2] * 3)]
        got = membership_query(idx, ds, reps, cfg).to_pandas()
        lin = linear_scan_membership(ds, reps).to_pandas()
        assert got.reset_index(drop=True).equals(lin.reset_index(drop=True))
        assert set(got["query_id"]) == {q for q, _ in reps}
        keys, lens = probe_keys(str(tmp_path / "db"), cfg, reps)
        assert lens == [1, 2, 1, 2]
        assert (keys, lens) == probe_keys(
            str(tmp_path / "db"), cfg,
            [("t3", [2]), ("ab2", [0, 1]), ("t6", [3]), ("ab3", [1, 2])])

    def test_blocks_membership_exact(self, ray_session, tmp_path):
        cfg = HbiConfig(seed=32, docs_per_window=16, fp=0.01, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        ds = synth_adversarial(64, kind="blocks", run_len=64, doc_len=128)
        build_index(ds, cfg, str(tmp_path / "bl"), batch_size=32)
        idx = load_index(str(tmp_path / "bl"))
        rows = ds.take_all()
        # run-straddling pattern [0,1] and missing token
        res = membership_query(idx, ds, [("straddle", [0, 1]),
                                         ("missing", [7])], cfg).to_pandas()
        got = {q: sorted(g["doc_id"]) for q, g in res.groupby("query_id")}
        assert got.get("straddle", []) == oracle_hits(rows, [0, 1])
        assert got.get("missing", []) == []

    def test_union_with_normal_corpus(self, ray_session, tmp_path):
        cfg = HbiConfig(seed=33, docs_per_window=16, fp=0.01, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        normal = synth_sequences(64, seed=2, n_sources=2, vocab=64)
        adv = synth_adversarial(32, kind="debruijn")
        ds = normal.union(adv)
        man = build_index(ds, cfg, str(tmp_path / "u"), batch_size=32)
        assert "adv_debruijn" in man["sources"]
        assert len(man["completed_sources"]) == 3


class TestMarkovCorpus:
    """Markov-chain conformance family (reference
    datagenerators/MarkovChainGenerator.java — the natural-text-like
    corpus): deterministic generation, transition-law fidelity, and exact
    membership over the built index."""

    def test_deterministic_and_transition_law(self, ray_session):
        from hierarchical_bloom_filter_index_ray.sources import (
            markov_model, markov_sequences)
        a = markov_sequences(256, seed=5, sigma=8, order=1,
                             doc_len=64).take_all()
        b = markov_sequences(256, seed=5, sigma=8, order=1,
                             doc_len=64).take_all()
        # take_all() block order is not guaranteed (preserve_order=False);
        # determinism is per doc_id
        key_a = {r["doc_id"]: r["tokens"] for r in a}
        key_b = {r["doc_id"]: r["tokens"] for r in b}
        assert len(key_a) == len(a)
        assert key_a == key_b
        _, trans = markov_model(5, 8, 1)
        # empirical transition frequencies track the configured matrix
        counts = np.zeros_like(trans)
        for r in a:
            t = np.asarray(r["tokens"])
            np.add.at(counts, (t[:-1], t[1:]), 1)
        emp = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        tv = 0.5 * np.abs(emp - trans).sum(axis=1)
        assert tv.max() < 0.1  # ~16k transitions per context row

    def test_markov_index_membership_exact(self, ray_session,
                                           tmp_path_factory):
        from hierarchical_bloom_filter_index_ray.sources import \
            markov_sequences
        cfg = HbiConfig(seed=23, docs_per_window=32, fp=0.01, ngram=2,
                        hll_p=12, cms_eps=0.05, cms_delta=0.1)
        ds = markov_sequences(256, seed=7, sigma=16, order=2, doc_len=96)
        out = tmp_path_factory.mktemp("mkv")
        build_index(ds, cfg, str(out), batch_size=64)
        rows = ds.take_all()
        idx = load_index(str(out))
        pats = [(f"p{i}", [int(t) for t in rows[i]["tokens"][3:9]])
                for i in (0, 50, 200)]
        pats.append(("missing", [17, 17, 17, 17]))  # sigma=16: token 17 absent
        res = membership_query(idx, ds, pats, cfg).to_pandas()
        got = {q: sorted(g["doc_id"]) for q, g in res.groupby("query_id")}
        for qid, pat in pats:
            assert got.get(qid, []) == oracle_hits(rows, pat), qid
