"""File-format readers: raw text / JSONL / CSV -> documents shape, plus the
segment splitter.

Reference analogues: ``utilities/DatasetReader.java:97-167`` reads raw text
files (whole-file and per-line modes) and ``utilities/SegmentReader.java:14-64``
re-chunks a stream into fixed-size segments. Here each format lands on the
same normalized ``documents`` schema ``(doc_id: string, text: string,
source: string)`` so every downstream pipeline (tokenize -> build -> query,
dedup, text stats) is format-agnostic, and segmentation is a vectorized
Arrow transform over the north-rule sequences shape.

Scale notes: all readers are ``ray.data`` file datasources (streaming,
block-per-file-group); the line splitter and the segmenter are pure Arrow /
numpy offset math — no per-row Python in the hot path except the
unavoidable per-OUTPUT-row doc-id string format.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.tokenize import flat_tokens_and_offsets
from ..state.splitmix import hash_str_u64

DOC_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("text", pa.string()),
    ("source", pa.string()),
])


def _basename(path: str) -> str:
    return os.path.basename(path.rstrip("/"))


def _decode_text_batch(batch: pa.Table, *, mode: str, source: str | None,
                       encoding: str) -> pa.Table:
    """(bytes, path) file batch -> documents rows.

    ``mode="file"``: one doc per file, doc_id = file basename.
    ``mode="line"``: one doc per non-empty line, doc_id =
    ``{basename}:{lineno:08d}`` (line numbers are per-file, so output is
    deterministic under any block layout — Ray reads each text file in one
    task, so a file's lines always share a batch).
    """
    raw = batch["bytes"]
    if isinstance(raw, pa.ChunkedArray):
        raw = raw.combine_chunks()
    paths = [str(p) for p in batch["path"].to_pylist()]
    texts = [memoryview(b).tobytes().decode(encoding) for b in
             raw.to_pylist()]
    names = [_basename(p) for p in paths]
    if mode == "file":
        return pa.table({
            "doc_id": pa.array(names, pa.string()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array([source or "text"] * len(texts), pa.string()),
        })
    if mode != "line":
        raise ValueError(f"unknown text mode {mode!r}")
    arr = pa.array(texts, pa.string())
    lines = pc.split_pattern(arr, "\n")
    flat = lines.flatten()
    keep = pc.not_equal(pc.utf8_trim_whitespace(flat), "")
    parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    keep_np = keep.to_numpy(zero_copy_only=False)
    # per-file line numbers BEFORE the empty-line filter (stable ids even if
    # blank lines are later edited out of the middle of a file)
    counts = np.bincount(parents, minlength=len(texts))
    starts = np.zeros(len(texts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    linenos = np.arange(len(parents), dtype=np.int64) - starts[parents]
    kept_parents = parents[keep_np]
    kept_linenos = linenos[keep_np]
    doc_ids = [f"{names[p]}:{ln:08d}" for p, ln in
               zip(kept_parents.tolist(), kept_linenos.tolist())]
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "text": flat.filter(keep),
        "source": pa.array([source or "text"] * len(doc_ids), pa.string()),
    })


def read_documents_text(paths: str | list[str], *, mode: str = "line",
                        source: str | None = None, encoding: str = "utf-8",
                        **read_kwargs) -> "rd.Dataset":
    """Raw text file(s)/dir -> documents Dataset (DatasetReader role).

    ``mode="line"`` (default): one document per non-empty line;
    ``mode="file"``: one document per file. ``source`` defaults to
    ``"text"``. Uses ``read_binary_files(include_paths=True)`` so doc ids
    carry the originating file name.
    """
    ds = rd.read_binary_files(paths, include_paths=True, **read_kwargs)
    return ds.map_batches(
        _decode_text_batch, batch_format="pyarrow",
        fn_kwargs=dict(mode=mode, source=source, encoding=encoding))


def _normalize_docs(batch: pa.Table, *, text_col: str, id_col: str | None,
                    source_col: str | None, default_source: str) -> pa.Table:
    """Arbitrary tabular batch -> documents schema.

    When ``id_col`` is None, doc_id is a content hash
    ``{default_source}-{blake2(text):016x}h`` — deterministic under any block
    layout, but duplicate texts collapse to one id (documented; pass an
    ``id_col`` when the input has one). The trailing ``h`` keeps the id from
    ending in a decimal-digit run, so ``stages/window.py:doc_index`` always
    takes its full-id hash path instead of misreading part of the hex hash
    as a tiny (massively colliding) ordinal.
    """
    text = pc.cast(batch[text_col], pa.string())
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if id_col is not None:
        doc_id = pc.cast(batch[id_col], pa.string())
    else:
        de = text.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        vocab = de.dictionary.to_pylist()
        uniq = [f"{default_source}-{hash_str_u64(t, 7):016x}h" for t in vocab]
        idx = de.indices.to_numpy(zero_copy_only=False)
        doc_id = pa.array([uniq[i] for i in idx.tolist()], pa.string())
    if source_col is not None:
        src = pc.cast(batch[source_col], pa.string())
    else:
        src = pa.array([default_source] * len(batch), pa.string())
    return pa.table({"doc_id": doc_id, "text": text, "source": src})


def read_documents_jsonl(paths: str | list[str], *, text_col: str = "text",
                         id_col: str | None = None,
                         source_col: str | None = None,
                         default_source: str = "jsonl",
                         **read_kwargs) -> "rd.Dataset":
    """JSON-lines file(s) -> documents Dataset (one doc per JSON object)."""
    ds = rd.read_json(paths, **read_kwargs)
    return ds.map_batches(
        _normalize_docs, batch_format="pyarrow",
        fn_kwargs=dict(text_col=text_col, id_col=id_col,
                       source_col=source_col, default_source=default_source))


def read_documents_csv(paths: str | list[str], *, text_col: str = "text",
                       id_col: str | None = None,
                       source_col: str | None = None,
                       default_source: str = "csv",
                       **read_kwargs) -> "rd.Dataset":
    """CSV file(s) -> documents Dataset."""
    ds = rd.read_csv(paths, **read_kwargs)
    return ds.map_batches(
        _normalize_docs, batch_format="pyarrow",
        fn_kwargs=dict(text_col=text_col, id_col=id_col,
                       source_col=source_col, default_source=default_source))


def _segment_batch(batch: pa.Table, *, seg_len: int) -> pa.Table:
    """Split each sequence row into consecutive ``seg_len``-token segments.

    Pure offset math (``SegmentReader.java:14-64`` semantics over the
    tokens column): doc j with L tokens yields ceil(L / seg_len) rows
    ``{doc_id}#s{k}``; concatenating a doc's segments in k-order
    reproduces its token stream exactly. Empty docs are dropped.
    """
    flat, offsets = flat_tokens_and_offsets(batch["tokens"])
    lengths = np.diff(offsets)
    nseg = -(-lengths // seg_len)  # ceil; 0 for empty docs
    total_rows = int(nseg.sum())
    if total_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.string()),
                         "tokens": pa.array([], pa.list_(pa.int32())),
                         "n_tok": pa.array([], pa.int32()),
                         "source": pa.array([], pa.string())})
    parent = np.repeat(np.arange(len(lengths)), nseg)
    seg_idx = np.arange(total_rows, dtype=np.int64)
    first_of_doc = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(nseg, out=first_of_doc[1:])
    k = seg_idx - first_of_doc[parent]  # segment number within its doc
    starts = offsets[:-1][parent] + k * seg_len
    seg_lens = np.minimum(seg_len, offsets[1:][parent] - starts)
    out_offsets = np.zeros(total_rows + 1, dtype=np.int64)
    np.cumsum(seg_lens, out=out_offsets[1:])
    gather = (np.arange(int(out_offsets[-1]), dtype=np.int64)
              - np.repeat(out_offsets[:-1], seg_lens)
              + np.repeat(starts, seg_lens))
    doc_ids = batch["doc_id"].to_pylist()
    sources = batch["source"].to_pylist()
    out_ids = [f"{doc_ids[p]}#s{int(j):04d}" for p, j in
               zip(parent.tolist(), k.tolist())]
    return pa.table({
        "doc_id": pa.array(out_ids, pa.string()),
        "tokens": pa.ListArray.from_arrays(
            pa.array(out_offsets, pa.int64()).cast(pa.int32()),
            pa.array(flat[gather], pa.int32())),
        "n_tok": pa.array(seg_lens.astype(np.int32), pa.int32()),
        "source": pa.array([sources[p] for p in parent.tolist()],
                           pa.string()),
    })


def segment_sequences(ds: "rd.Dataset", *, seg_len: int) -> "rd.Dataset":
    """Sequences Dataset -> fixed-length segment rows (SegmentReader role;
    the training-pipeline "chunk long docs" op). Streaming map_batches;
    segments never cross document boundaries."""
    if seg_len < 1:
        raise ValueError("seg_len >= 1 required")
    return ds.map_batches(_segment_batch, batch_format="pyarrow",
                          fn_kwargs=dict(seg_len=seg_len))


def pack_sequences(ds: "rd.Dataset", *, seq_len: int,
                   boundary_id: int | None = None,
                   drop_last: bool = True) -> "rd.Dataset":
    """Sequences Dataset -> fixed-length TRAINING rows by concatenating
    documents across row boundaries (the "sequence packing" op every
    LLM pre-training pipeline runs after tokenization; the complement
    of ``segment_sequences``, whose chunks never cross documents).

    Packing is BLOCK-LOCAL: tokens are concatenated within each
    map_batches block and chunked to ``seq_len``; the per-block
    remainder (< seq_len tokens) is dropped when ``drop_last`` (at
    most one partial row's worth per block — at production block
    sizes a <0.1% loss, counted in the output's provenance columns).
    Block-local packing is what keeps the op a streaming map with no
    shuffle and no cross-task carry; the packed-row CONTENT depends
    on block layout, which is deterministic for a given read plan.
    ``boundary_id`` optionally inserts a separator token between
    documents (the usual EOS-joint convention).

    Output rows: ``seq_id`` (within-block index), ``tokens``
    (list<int32>, exactly seq_len), ``n_docs`` (documents touching
    the row), ``source`` (of the row's first token).
    """
    if seq_len < 1:
        raise ValueError("seq_len >= 1 required")

    def pack(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values.to_numpy(zero_copy_only=False) \
            .astype(np.int32, copy=False)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        src = batch["source"].to_pylist()
        if boundary_id is not None:
            # one separator token after each document: document d's
            # tokens shift right by d, separators fill the gaps
            lens = np.diff(offs)
            offs = np.concatenate([[0], np.cumsum(lens + 1)])
            sep_flat = np.full(offs[-1], boundary_id, dtype=np.int32)
            sep_flat[np.arange(flat.size)
                     + np.repeat(np.arange(len(lens)), lens)] = flat
            flat = sep_flat
        n_rows = flat.size // seq_len
        used = n_rows * seq_len
        if not drop_last and flat.size % seq_len:
            pad = np.zeros(seq_len - flat.size % seq_len, np.int32)
            flat = np.concatenate([flat, pad])
            n_rows += 1
            used = flat.size
        rows = flat[:used].reshape(n_rows, seq_len)
        # provenance: docs overlapping each packed row
        starts = np.arange(n_rows, dtype=np.int64) * seq_len
        ends = starts + seq_len
        first_doc = np.searchsorted(offs, starts, side="right") - 1
        last_doc = np.searchsorted(offs, ends - 1, side="right") - 1
        first_doc = np.clip(first_doc, 0, len(src) - 1)
        last_doc = np.clip(last_doc, 0, len(src) - 1)
        return pa.table({
            "seq_id": pa.array(np.arange(n_rows, dtype=np.int64)),
            "tokens": pa.array(list(rows), pa.list_(pa.int32())),
            "n_docs": pa.array((last_doc - first_doc + 1)
                               .astype(np.int32)),
            "source": pa.array([src[i] for i in first_doc],
                               pa.string()),
        })

    return ds.map_batches(pack, batch_format="pyarrow")
