"""Job entrypoints for running the library under ``ray job submit``.

On a real cluster:

    ray job submit --working-dir . -- \
        python -m hierarchical_bloom_filter_index_ray build \
        --input s3://corpus/sequences --out s3://indexes/run1 \
        --docs-per-window 4096 --fp 0.01 --shard-windows 64

    ray job submit --working-dir . -- \
        python -m hierarchical_bloom_filter_index_ray query \
        --index s3://indexes/run1 --sequences s3://corpus/sequences \
        --queries queries.json --out hits.parquet

The CLI owns the Ray session (``ray.init`` guarded on
``ray.is_initialized`` — under ``ray job submit`` the runtime
pre-initializes and the guard makes this a no-op); the library itself
never calls ``ray.init`` (driver contract).
"""

from __future__ import annotations

import argparse
import json


def _ensure_ray(address: str | None = None) -> None:
    """Own the Ray session. ``address`` comes from the real ``--address``
    CLI option (``auto`` to join an existing cluster, e.g. under
    ``ray job submit``; default ``local``) — it is threaded through the
    parsed namespace, so programmatic ``main(argv=...)`` calls work too."""
    import ray
    if not ray.is_initialized():
        ray.init(address=address or "local", include_dashboard=False,
                 ignore_reinit_error=True)


def _cfg_from_args(a: argparse.Namespace):
    from .config import HbiConfig
    return HbiConfig(seed=a.seed, docs_per_window=a.docs_per_window,
                     fp=a.fp, ngram=a.ngram, hll_p=a.hll_p,
                     cms_eps=a.cms_eps, cms_delta=a.cms_delta)


def _read_input(a: argparse.Namespace):
    """--format selects the ingest path; everything lands on the
    north-rule sequences shape before the build."""
    import ray.data as rd

    from .functions.tokenize import tokenize_documents
    from .sources import (read_documents_csv, read_documents_jsonl,
                          read_documents_text, segment_sequences)
    if a.format == "sequences":
        ds = rd.read_parquet(a.input)
    else:
        if a.format == "text":
            docs = read_documents_text(a.input, mode=a.text_mode)
        elif a.format == "jsonl":
            docs = read_documents_jsonl(a.input, text_col=a.text_col,
                                        id_col=a.id_col,
                                        source_col=a.source_col)
        elif a.format == "csv":
            docs = read_documents_csv(a.input, text_col=a.text_col,
                                      id_col=a.id_col,
                                      source_col=a.source_col)
        else:
            raise ValueError(f"unknown --format {a.format!r}")
        ds = docs.map_batches(tokenize_documents, batch_format="pyarrow",
                              fn_kwargs={"seed": a.seed})
    if a.seg_len:
        ds = segment_sequences(ds, seg_len=a.seg_len)
    return ds


def cmd_build(a: argparse.Namespace) -> int:
    from .pipelines import build_index
    _ensure_ray(a.address)
    ds = _read_input(a)
    man = build_index(ds, _cfg_from_args(a), a.out,
                      batch_size=a.batch_size,
                      shard_windows=a.shard_windows,
                      super_levels=not a.no_super)
    print(json.dumps({"out": a.out,
                      "total_tokens": man["total_tokens"],
                      "total_windows": man["total_windows"],
                      "build_seconds": man["build_seconds"]}))
    return 0


def _cfg_for_index(a: argparse.Namespace):
    """Query must probe with the EXACT config the index was built with;
    prefer the manifest's stored config over re-typed CLI args."""
    from .pipelines import load_manifest
    man = load_manifest(a.index)
    if man is not None and man.get("config") is not None:
        from .config import HbiConfig
        return HbiConfig.from_json(man["config"])
    return _cfg_from_args(a)


def cmd_query(a: argparse.Namespace) -> int:
    import ray.data as rd

    from .pipelines import load_index, membership_query
    _ensure_ray(a.address)
    cfg = _cfg_for_index(a)
    queries = [(q["id"], [int(t) for t in q["tokens"]])
               for q in json.loads(open(a.queries).read())]
    hits = membership_query(load_index(a.index),
                            rd.read_parquet(a.sequences), queries, cfg,
                            super_dir=a.index, with_counts=a.counts)
    import pyarrow.parquet as pq
    pq.write_table(hits, a.out)
    print(json.dumps({"out": a.out, "hits": hits.num_rows,
                      "queries": len(queries)}))
    return 0


def _read_media(a: argparse.Namespace):
    """Media input: a parquet dir with (media_id, payload[, media_type])
    — the canonical shape — or a directory/glob of raw files read as
    binary payloads (``media_id`` = stable row index, original path
    kept)."""
    import pyarrow as pa

    import ray.data as rd
    if a.format == "parquet":
        return rd.read_parquet(a.input)

    def attach_ids(batch: pa.Table) -> pa.Table:
        import mimetypes
        import zlib
        paths = batch["path"].to_pylist()
        ids = [zlib.crc32(p.encode()) for p in paths]
        types = [mimetypes.guess_type(p)[0]
                 or "application/octet-stream" for p in paths]
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "payload": batch["bytes"],
            "media_type": pa.array(types, pa.string()),
            "path": batch["path"],
        })

    return rd.read_binary_files(a.input, include_paths=True) \
        .map_batches(attach_ids, batch_format="pyarrow")


def cmd_media(a: argparse.Namespace) -> int:
    """Run one media stage over a corpus of binary payloads — the
    actor-pool decode surface (README media matrix) as a job
    entrypoint: features (decode → pooled feature vector), resize
    (own-format re-encode), or frames (container demux + keyframe
    sampling, one output row per sampled frame)."""
    from .pipelines.multimodal import (FrameSampler, ImageResizer,
                                       extract_features)
    _ensure_ray(a.address)
    ds = _read_media(a)
    if a.op == "features":
        out = extract_features(ds, decoder="real",
                               feature_dim=a.feature_dim,
                               batch_size=a.batch_size,
                               concurrency=a.concurrency,
                               on_error=a.on_error)
    elif a.op == "resize":
        out = ds.map_batches(
            ImageResizer, batch_format="pyarrow",
            batch_size=a.batch_size, concurrency=a.concurrency,
            fn_constructor_kwargs={"width": a.width, "height": a.height,
                                   "decoder": "real",
                                   "on_error": a.on_error})
    else:                               # frames
        out = ds.map_batches(
            FrameSampler, batch_format="pyarrow",
            batch_size=a.batch_size, concurrency=a.concurrency,
            fn_constructor_kwargs={"n_frames": a.n_frames,
                                   "decoder": "real",
                                   "snap_to_sync": a.snap_to_sync,
                                   "on_error": a.on_error})
    out.write_parquet(a.out)
    import ray.data as rd
    n = rd.read_parquet(a.out).count()
    print(json.dumps({"out": a.out, "op": a.op, "rows": n}))
    return 0


def cmd_decontam(a: argparse.Namespace) -> int:
    """Flag indexed documents sharing exact token windows with a
    benchmark set (zero false positives — see pipelines/decontam.py)."""
    import ray.data as rd

    from .pipelines.decontam import decontaminate
    _ensure_ray(a.address)
    texts, ids = [], []
    with open(a.benchmark) as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            if a.benchmark_format == "jsonl":
                row = json.loads(line)
                texts.append(row[a.text_col])
                ids.append(str(row.get(a.id_col, i))
                           if a.id_col else str(i))
            else:
                texts.append(line)
                ids.append(str(i))
    res = decontaminate(a.index, rd.read_parquet(a.sequences), texts,
                        ids=ids, window=a.window, stride=a.stride,
                        min_windows=a.min_windows)
    import pyarrow.parquet as pq
    pq.write_table(res, a.out)
    print(json.dumps({"out": a.out, "benchmark_items": len(texts),
                      "flagged_pairs": res.num_rows,
                      "flagged_docs": len(set(
                          res["doc_id"].to_pylist()))}))
    return 0


def _add_cfg_args(p: argparse.ArgumentParser) -> None:
    from .config import HbiConfig
    d = HbiConfig()
    p.add_argument("--address", default=None,
                   help="Ray address ('auto' joins an existing cluster; "
                        "default: local single-node session)")
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--docs-per-window", type=int, default=d.docs_per_window)
    p.add_argument("--fp", type=float, default=d.fp)
    p.add_argument("--ngram", type=int, default=d.ngram)
    p.add_argument("--hll-p", type=int, default=12)
    p.add_argument("--cms-eps", type=float, default=d.cms_eps)
    p.add_argument("--cms-delta", type=float, default=d.cms_delta)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="hierarchical_bloom_filter_index_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the hierarchical sketch index")
    b.add_argument("--input", required=True,
                   help="parquet dir of (doc_id, tokens, n_tok, source), "
                        "or raw files per --format")
    b.add_argument("--out", required=True)
    b.add_argument("--format", default="sequences",
                   choices=["sequences", "text", "jsonl", "csv"],
                   help="input format (non-sequences inputs are tokenized "
                        "with --seed)")
    b.add_argument("--text-mode", default="line", choices=["line", "file"],
                   help="text format: one doc per line or per file")
    b.add_argument("--text-col", default="text")
    b.add_argument("--id-col", default=None)
    b.add_argument("--source-col", default=None)
    b.add_argument("--seg-len", type=int, default=None,
                   help="split each doc into fixed-length token segments")
    b.add_argument("--batch-size", type=int, default=2048)
    b.add_argument("--shard-windows", type=int, default=None,
                   help="windows per resume/expiry shard (default: one "
                        "shard per source)")
    b.add_argument("--no-super", action="store_true",
                   help="skip the cross-window super-level store")
    _add_cfg_args(b)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="batch membership queries")
    q.add_argument("--index", required=True)
    q.add_argument("--sequences", required=True)
    q.add_argument("--queries", required=True,
                   help='JSON list of {"id": ..., "tokens": [...]}')
    q.add_argument("--out", required=True)
    q.add_argument("--counts", action="store_true",
                   help="include per-(query, doc) occurrence counts")
    _add_cfg_args(q)
    q.set_defaults(fn=cmd_query)

    dc = sub.add_parser(
        "decontam",
        help="flag indexed docs sharing token windows with a benchmark")
    dc.add_argument("--index", required=True)
    dc.add_argument("--sequences", required=True)
    dc.add_argument("--benchmark", required=True,
                    help="benchmark file: one text per line, or JSONL "
                         "per --benchmark-format")
    dc.add_argument("--benchmark-format", default="text",
                    choices=["text", "jsonl"])
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--id-col", default=None)
    dc.add_argument("--window", type=int, default=8,
                    help="token-window length (GPT-3 used 13)")
    dc.add_argument("--stride", type=int, default=1,
                    help="window stride (default 1: every offset)")
    dc.add_argument("--min-windows", type=int, default=1)
    dc.add_argument("--out", required=True)
    dc.add_argument("--address", default=None)
    dc.set_defaults(fn=cmd_decontam)

    m = sub.add_parser(
        "media", help="media decode stages over binary payloads")
    m.add_argument("--input", required=True,
                   help="parquet dir of (media_id, payload[, ...]) or "
                        "a directory of raw media files per --format")
    m.add_argument("--out", required=True)
    m.add_argument("--op", default="features",
                   choices=["features", "resize", "frames"])
    m.add_argument("--format", default="parquet",
                   choices=["parquet", "files"])
    m.add_argument("--feature-dim", type=int, default=16)
    m.add_argument("--width", type=int, default=64)
    m.add_argument("--height", type=int, default=64)
    m.add_argument("--n-frames", type=int, default=4)
    m.add_argument("--snap-to-sync", action="store_true",
                   help="snap sampled frames to container keyframes")
    m.add_argument("--batch-size", type=int, default=64)
    m.add_argument("--concurrency", type=int, default=2)
    m.add_argument("--on-error", default="skip",
                   choices=["skip", "raise"],
                   help="crawl posture: drop undecodable rows (skip) "
                        "or fail the job (raise)")
    m.add_argument("--address", default=None,
                   help="Ray address ('auto' joins an existing cluster)")
    m.set_defaults(fn=cmd_media)

    a = ap.parse_args(argv)
    return a.fn(a)


if __name__ == "__main__":
    raise SystemExit(main())
