"""File-format readers (text/JSONL/CSV) and the segment splitter.

Pins: (a) every format normalizes to the same documents schema and
tokenizes identically to the parquet path; (b) segmentation is exact —
concatenating a doc's segments reproduces its token stream; (c) ids are
deterministic under block-layout changes.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hierarchical_bloom_filter_index_ray.functions.tokenize import \
    tokenize_documents
from hierarchical_bloom_filter_index_ray.sources import (
    read_documents_csv, read_documents_jsonl, read_documents_text,
    segment_sequences, synth_sequences)

LINES_A = ["the quick brown fox", "jumps over the lazy dog", "",
           "  padded   line  "]
LINES_B = ["second file first line", "tail line"]


@pytest.fixture()
def text_dir(tmp_path):
    d = tmp_path / "txt"
    d.mkdir()
    (d / "a.txt").write_text("\n".join(LINES_A))
    (d / "b.txt").write_text("\n".join(LINES_B))
    return d


def _docs_df(ds):
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(df.columns) == ["doc_id", "text", "source"]
    return df


class TestTextReader:
    def test_line_mode(self, ray_session, text_dir):
        df = _docs_df(read_documents_text(str(text_dir), source="s"))
        # empty line dropped; line numbers survive the filter
        want = {
            "a.txt:00000000": "the quick brown fox",
            "a.txt:00000001": "jumps over the lazy dog",
            "a.txt:00000003": "  padded   line  ",
            "b.txt:00000000": "second file first line",
            "b.txt:00000001": "tail line",
        }
        assert dict(zip(df.doc_id, df.text)) == want
        assert set(df.source) == {"s"}

    def test_file_mode(self, ray_session, text_dir):
        df = _docs_df(read_documents_text(str(text_dir), mode="file"))
        assert list(df.doc_id) == ["a.txt", "b.txt"]
        assert df.text[0] == "\n".join(LINES_A)
        assert set(df.source) == {"text"}

    def test_tokenize_parity_with_parquet_path(self, ray_session, text_dir,
                                               tmp_path):
        """text reader -> tokenize == parquet documents -> tokenize."""
        ds = read_documents_text(str(text_dir))
        got = ds.map_batches(tokenize_documents, batch_format="pyarrow",
                             fn_kwargs={"seed": 7}).to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)

        docs = _docs_df(read_documents_text(str(text_dir)))
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       tmp_path / "docs.parquet")
        import ray.data as rd
        want = rd.read_parquet(str(tmp_path / "docs.parquet")).map_batches(
            tokenize_documents, batch_format="pyarrow",
            fn_kwargs={"seed": 7}).to_pandas()
        want = want.sort_values("doc_id").reset_index(drop=True)
        assert got.doc_id.tolist() == want.doc_id.tolist()
        assert [list(t) for t in got.tokens] == [list(t) for t in want.tokens]


class TestTabularReaders:
    def test_jsonl(self, ray_session, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [{"id": "x1", "body": "alpha beta", "src": "w"},
                {"id": "x2", "body": "gamma", "src": "w"}]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        df = _docs_df(read_documents_jsonl(
            str(p), text_col="body", id_col="id", source_col="src"))
        assert df.doc_id.tolist() == ["x1", "x2"]
        assert df.text.tolist() == ["alpha beta", "gamma"]
        assert set(df.source) == {"w"}

    def test_jsonl_content_hash_ids(self, ray_session, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(json.dumps({"text": t}) for t in
                               ["one two", "three"]))
        df = _docs_df(read_documents_jsonl(str(p)))
        assert len(df) == 2 and df.doc_id.str.startswith("jsonl-").all()
        # deterministic: same content -> same ids on a re-read
        df2 = _docs_df(read_documents_jsonl(str(p)))
        assert df.doc_id.tolist() == df2.doc_id.tolist()

    def test_csv(self, ray_session, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,text\n1,hello world\n2,bye\n")
        df = _docs_df(read_documents_csv(str(p), id_col="id"))
        assert df.doc_id.tolist() == ["1", "2"]
        assert df.text.tolist() == ["hello world", "bye"]
        assert set(df.source) == {"csv"}


class TestCliIngest:
    def test_build_from_jsonl_and_query(self, ray_session, tmp_path):
        """`build --format jsonl --seg-len` ingests raw docs end-to-end and
        the built index answers a membership query for a present word."""
        from hierarchical_bloom_filter_index_ray.cli import main
        from hierarchical_bloom_filter_index_ray.functions.tokenize import \
            hash_words

        p = tmp_path / "d.jsonl"
        rows = [{"id": f"d{i}", "text": f"common filler w{i} common"}
                for i in range(8)]
        rows.append({"id": "hit", "text": "needle in the stack " * 3})
        p.write_text("\n".join(json.dumps(r) for r in rows))

        idx = tmp_path / "idx"
        rc = main(["build", "--input", str(p), "--format", "jsonl",
                   "--id-col", "id", "--out", str(idx), "--seg-len", "4",
                   "--docs-per-window", "4", "--seed", "7"])
        assert rc == 0 and (idx / "manifest.json").exists()

        # query path needs the tokenized sequences on disk too
        import ray.data as rd
        from hierarchical_bloom_filter_index_ray.cli import _read_input
        import argparse
        ns = argparse.Namespace(format="jsonl", input=str(p), text_col="text",
                                id_col="id", source_col=None, seed=7,
                                seg_len=4, text_mode="line")
        seqs = tmp_path / "seqs"
        _read_input(ns).write_parquet(str(seqs))

        tok = int(hash_words(pa.array(["needle"]), 7)[0])
        qf = tmp_path / "q.json"
        qf.write_text(json.dumps([{"id": "q0", "tokens": [tok]}]))
        out = tmp_path / "hits.parquet"
        rc = main(["query", "--index", str(idx), "--sequences", str(seqs),
                   "--queries", str(qf), "--out", str(out), "--seed", "7"])
        assert rc == 0
        hits = pq.read_table(out).to_pandas()
        assert set(hits.doc_id.str.rsplit("#s", n=1).str[0]) == {"hit"}


class TestNonNumericDocIds:
    def test_doc_index_hash_fallback(self):
        """Ids with no trailing decimal index get a stable 40-bit hash
        index; ids with one keep the exact ordinal (regression: build
        crashed on user-supplied ids like 'hit')."""
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index

        t = pa.table({"doc_id": pa.array(
            ["d11", "hit", "report.txt", "x90"])})
        di = doc_index(t)
        assert di.dtype == np.int64
        assert di[0] == 11 and di[3] == 90
        assert 0 <= di[1] < (1 << 40) and 0 <= di[2] < (1 << 40)
        assert di[1] != di[2]
        di2 = doc_index(t)  # deterministic across calls
        assert (di == di2).all()

    def test_doc_index_never_exceeds_40_bits(self):
        """Regression (round-2 ADVICE high): content-hash ids whose hex tail
        is a long decimal-digit run must NOT yield ordinals >= 2^40 — that
        corrupted the (src_code << 40 | window_id) group packing. Integer ids
        out of range are hashed into the 40-bit space too."""
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index

        t = pa.table({"doc_id": pa.array(
            ["jsonl-f874530126598421",      # 15 decimal digits inside hex
             "csv-99999999999999999999x1",  # absurd run then small ordinal
             "jsonl-abcdeadbeef00h"])})     # new reader format (no digit tail)
        di = doc_index(t)
        assert ((0 <= di) & (di < (1 << 40))).all()
        assert len(set(di.tolist())) == 3
        ti = pa.table({"doc_id": pa.array([7, -1, 1 << 52], pa.int64())})
        d2 = doc_index(ti)
        assert d2[0] == 7 and ((0 <= d2) & (d2 < (1 << 40))).all()

    def test_doc_index_segment_and_line_ids_do_not_collapse(self):
        """Regression (round-2 ADVICE medium): segment ids '{doc}#s{k}' and
        line ids '{file}:{lineno}' previously collapsed onto the bare k /
        lineno ordinal, piling the whole corpus into a handful of windows.
        Now: segments fold the parent doc index into high bits (dense and
        distinct per doc); lines fold a file hash (dense per file)."""
        from hierarchical_bloom_filter_index_ray.stages.window import \
            doc_index

        seg = pa.table({"doc_id": pa.array(
            ["src00-doc00000041#s0003", "src00-doc00000042#s0003",
             "src00-doc00000042#s0004"])})
        ds = doc_index(seg)
        assert ds[0] != ds[1]                 # same k, different doc
        assert ds[2] == ds[1] + 1             # same doc: dense in k
        assert ds[1] == (42 << 12) | 3        # parent ordinal in high bits

        lines = pa.table({"doc_id": pa.array(
            ["a.txt:00000005", "b.txt:00000005", "a.txt:00000006"])})
        dl = doc_index(lines)
        assert dl[0] != dl[1]                 # same lineno, different file
        assert dl[2] == dl[0] + 1             # same file: dense in lineno
        assert ((0 <= dl) & (dl < (1 << 40))).all()

    def test_build_and_query_user_ids(self, ray_session, tmp_path):
        """End-to-end build + membership query over docs whose ids carry
        no ordinal at all (every window is hash-assigned)."""
        import ray.data as rd

        from hierarchical_bloom_filter_index_ray import HbiConfig
        from hierarchical_bloom_filter_index_ray.pipelines import (
            build_index, load_index, membership_query)

        rng = np.random.default_rng(3)
        names = ["alpha", "beta", "report.txt", "notes", "hit", "readme",
                 "summary", "final", "draft", "misc"]
        toks = {n: rng.integers(0, 500, size=30).tolist() for n in names}
        toks["hit"] = [901, 902, 903] * 5
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(names, pa.string()),
            "tokens": pa.array([toks[n] for n in names],
                               pa.list_(pa.int32())),
            "n_tok": pa.array([len(toks[n]) for n in names], pa.int32()),
            "source": pa.array(["s0"] * len(names), pa.string()),
        }))
        cfg = HbiConfig(seed=7, docs_per_window=4, hll_p=12,
                        cms_eps=0.05, cms_delta=0.1)
        build_index(ds, cfg, str(tmp_path / "idx"), batch_size=64)
        hits = membership_query(
            load_index(str(tmp_path / "idx")), ds,
            [("q0", [901, 902, 903]), ("miss", [777777, 888888])],
            cfg).to_pandas()
        assert hits.doc_id.tolist() == ["hit"]
        assert hits.query_id.tolist() == ["q0"]


class TestSegmenter:
    def test_exact_reassembly(self, ray_session):
        ds = synth_sequences(300, seed=11, len_min=1, len_max=100,
                             len_mu=3.0, len_sigma=1.0)
        orig = {r["doc_id"]: list(r["tokens"]) for r in ds.take_all()}
        seg = segment_sequences(ds, seg_len=16).take_all()
        assert all(len(r["tokens"]) <= 16 and
                   len(r["tokens"]) == r["n_tok"] for r in seg)
        rebuilt: dict[str, list] = {}
        for r in sorted(seg, key=lambda r: r["doc_id"]):
            base = r["doc_id"].rsplit("#s", 1)[0]
            rebuilt.setdefault(base, []).extend(r["tokens"])
        assert rebuilt == orig
        # all but the last segment of each doc is full-length
        from collections import Counter
        per_doc = Counter(r["doc_id"].rsplit("#s", 1)[0] for r in seg)
        for r in seg:
            base, k = r["doc_id"].rsplit("#s", 1)
            if int(k) < per_doc[base] - 1:
                assert len(r["tokens"]) == 16

    def test_layout_invariance(self, ray_session):
        a = segment_sequences(
            synth_sequences(200, seed=5, override_num_blocks=1),
            seg_len=32).take_all()
        b = segment_sequences(
            synth_sequences(200, seed=5, override_num_blocks=7),
            seg_len=32).take_all()
        ka = sorted((r["doc_id"], tuple(r["tokens"])) for r in a)
        kb = sorted((r["doc_id"], tuple(r["tokens"])) for r in b)
        assert ka == kb

    def test_empty_docs_dropped_and_validation(self, ray_session):
        import ray.data as rd
        t = pa.table({
            "doc_id": pa.array(["e", "f"]),
            "tokens": pa.array([[], [1, 2, 3]], pa.list_(pa.int32())),
            "n_tok": pa.array([0, 3], pa.int32()),
            "source": pa.array(["s", "s"]),
        })
        out = segment_sequences(rd.from_arrow(t), seg_len=2).take_all()
        assert [r["doc_id"] for r in out] == ["f#s0000", "f#s0001"]
        assert [list(r["tokens"]) for r in out] == [[1, 2], [3]]
        with pytest.raises(ValueError):
            segment_sequences(rd.from_arrow(t), seg_len=0)


class TestCompressedInputs:
    """Crawl corpora arrive gzip/zstd-compressed; Ray's readers infer
    the codec from the file extension and every documents reader must
    produce IDENTICAL rows from compressed and plain copies."""

    @pytest.fixture()
    def corpus(self, tmp_path):
        import gzip
        import pyarrow as pa
        jl = '{"text": "hello world"}\n{"text": "second doc"}\n'
        tx = "line one\n\nline two\n"
        (tmp_path / "a.jsonl").write_text(jl)
        (tmp_path / "b.txt").write_text(tx)
        with gzip.open(tmp_path / "a.jsonl.gz", "wt") as f:
            f.write(jl)
        with gzip.open(tmp_path / "b.txt.gz", "wt") as f:
            f.write(tx)
        for name, payload in (("a.jsonl.zst", jl), ("b.txt.zst", tx)):
            buf = pa.BufferOutputStream()
            with pa.CompressedOutputStream(buf, "zstd") as f:
                f.write(payload.encode())
            (tmp_path / name).write_bytes(buf.getvalue().to_pybytes())
        return tmp_path

    @pytest.mark.parametrize("ext", ["gz", "zst"])
    def test_jsonl_compressed_matches_plain(self, ray_session, corpus,
                                            ext):
        plain = read_documents_jsonl(str(corpus / "a.jsonl")).to_pandas()
        comp = read_documents_jsonl(
            str(corpus / f"a.jsonl.{ext}")).to_pandas()
        assert sorted(comp["text"]) == sorted(plain["text"])
        # content-hash ids are path-independent -> identical
        assert sorted(comp["doc_id"]) == sorted(plain["doc_id"])

    @pytest.mark.parametrize("ext", ["gz", "zst"])
    def test_text_compressed_matches_plain(self, ray_session, corpus,
                                           ext):
        plain = read_documents_text(str(corpus / "b.txt")).to_pandas()
        comp = read_documents_text(
            str(corpus / f"b.txt.{ext}")).to_pandas()
        assert comp["text"].tolist() == plain["text"].tolist()
        # line numbers survive decompression (ids differ only in the
        # basename prefix)
        assert [d.split(":")[1] for d in comp["doc_id"]] \
            == [d.split(":")[1] for d in plain["doc_id"]]


class TestPackSequences:
    """Cross-document sequence packing: token stream preserved in
    order, rows exactly seq_len, provenance counts correct."""

    def test_pack_preserves_token_stream(self, ray_session):
        import ray.data as rd
        from hierarchical_bloom_filter_index_ray.sources import \
            pack_sequences
        rows = [{"doc_id": i, "tokens": list(range(i * 100, i * 100 + n)),
                 "n_tok": n, "source": "s0"}
                for i, n in enumerate([7, 3, 12, 5, 9, 2])]
        ds = rd.from_items(rows).repartition(1)
        out = pack_sequences(ds, seq_len=8).take_all()
        flat_in = [t for r in rows for t in r["tokens"]]
        packed = [t for r in sorted(out, key=lambda r: r["seq_id"])
                  for t in r["tokens"]]
        assert packed == flat_in[:len(packed)]
        assert all(len(r["tokens"]) == 8 for r in out)
        assert len(packed) == (len(flat_in) // 8) * 8
        # row 0 covers docs 0 (7 toks) + 1 -> n_docs 2
        r0 = next(r for r in out if r["seq_id"] == 0)
        assert r0["n_docs"] == 2 and r0["source"] == "s0"

    def test_boundary_token_and_padding(self, ray_session):
        import ray.data as rd
        from hierarchical_bloom_filter_index_ray.sources import \
            pack_sequences
        docs = {"a": [1, 2, 3], "empty": [], "b": [4, 5]}

        def packed(names):
            rows = [{"doc_id": i, "tokens": docs[n], "n_tok": len(docs[n]),
                     "source": "a"} for i, n in enumerate(names)]
            ds = rd.from_items(rows).repartition(1)
            out = pack_sequences(ds, seq_len=4, boundary_id=-1,
                                 drop_last=False).take_all()
            return [t for r in sorted(out, key=lambda r: r["seq_id"])
                    for t in r["tokens"]]

        # stream: 1 2 3 -1 4 5 -1 (+ zero pad to 8)
        assert packed(["a", "b"]) == [1, 2, 3, -1, 4, 5, -1, 0]
        # an empty document still gets its separator
        assert packed(["a", "empty", "b"]) == [1, 2, 3, -1, -1, 4, 5, -1]
