"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...extras}

``--scaling`` runs the same bench in two fresh subprocesses
(RAY_GRAFT_CPUS=8 and =32) and reports both throughputs + scaling
efficiency (the sandbox substitute for the N vs 4N cluster criterion —
BASELINE.md "Scaling-evidence protocol").
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42
# scratch on tmpfs: on a real cluster every node contributes local disk;
# a single box's one virtual disk would otherwise serialize the index write
SCRATCH = "/dev/shm/hbi_bench" if Path("/dev/shm").exists() else "/tmp"


def _noise_probe() -> float:
    """Single-threaded numpy sort timing (seconds): a host-noise
    self-check recorded with every bench/scaling result. This box's calm
    value is ~0.3 s; CPU-steal episodes push it 3-30x higher, which
    flags the run's absolute numbers as unreliable (BASELINE.md
    "Host-noise protocol")."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.random(1 << 22)
    t0 = time.perf_counter()
    for _ in range(3):
        np.sort(a)
    return round(time.perf_counter() - t0, 3)


def _sf() -> float:
    name = Path(SF_DIR).name
    try:
        return float(name.replace("sf", ""))
    except ValueError:
        return 0.01


def synth_rows() -> int:
    env = os.environ.get("GRAFT_SYNTH_ROWS")
    n = int(env) if env else max(16_384, int(2_000_000 * _sf()))
    # round to a multiple of 16384 so file/block/batch/window boundaries
    # align (2048-row batches = 8 whole windows, 1 partial per window)
    return max(16_384, (n // 16_384) * 16_384)


def bench_config():
    from hierarchical_bloom_filter_index_ray import HbiConfig

    return HbiConfig(seed=SEED, docs_per_window=256, fp=0.01, ngram=1,
                     hll_p=12, cms_eps=0.02, cms_delta=0.05,
                     expected_tokens_per_doc=128,
                     expected_distinct_per_doc=96)


STAGES = set((os.environ.get("GRAFT_BENCH_STAGES") or
              "build,docs,query,sketch,dedup,joins,simjoin,media").split(","))


def _media_decode_stage(extras: dict) -> None:
    """Per-codec decode throughput, SINGLE-THREADED (= per core): the
    VERDICT r4 #2 number that sizes ``media_features`` against the text
    pipelines at 100 TB. Two kernels are timed per codec:

    - ``media_mbps_<kind>``: the feature-stage kernel exactly as the
      actor pool runs it (``MediaFeatureExtractor._real_features`` =
      decode + 16-dim featurize; for containers that is demux + middle
      keyframe, the stage's real per-item cost), in compressed input
      MB/s per core.
    - ``media_mbps_<kind>_full`` (containers only): demux + decode of
      EVERY sample — the frame-sampling pipeline's worst case.

    Each kernel loops over a deterministic ``synth_media`` corpus until
    >= 0.25 s has elapsed (min one full pass), so slow pure-Python
    entropy decoders and fast raw formats are measured equally well.
    Corpus generation is untimed."""
    from hierarchical_bloom_filter_index_ray.pipelines.multimodal import (
        MediaFeatureExtractor, _container_module, synth_media)
    ex = MediaFeatureExtractor(decoder="real", feature_dim=16)

    def full_video(payload: bytes) -> None:
        from hierarchical_bloom_filter_index_ray.functions.jpeg import \
            decode_jpeg
        mod = _container_module(payload)
        trk = mod.video_track(payload)
        for s in range(trk.n_samples):
            decode_jpeg(mod.extract_sample(payload, trk, s))

    # (kind, synth kwargs, n items); image kinds at 96x96, videos 8
    # frames of 64x64, audio 9216 samples — big enough to swamp per-call
    # overhead, small enough that the whole stage stays a few seconds
    kinds = [
        ("jpeg", dict(width=96, height=96), 12),
        ("jpeg_dri", dict(width=96, height=96), 12),
        ("jpeg_rgb", dict(width=96, height=96), 6),
        ("jpeg_ll", dict(width=96, height=96), 6),
        ("jpeg_arith", dict(width=96, height=96), 6),
        ("jpeg_hier", dict(width=96, height=96), 6),
        ("jpeg_hier_arith", dict(width=96, height=96), 6),
        ("png", dict(width=96, height=96), 32),
        ("bmp", dict(width=96, height=96), 48),
        ("tiff", dict(width=96, height=96), 8),
        ("gif", dict(width=96, height=96, frames=1), 8),
        ("flac", dict(width=96, height=96), 6),
        ("mp3", dict(width=96, height=96), 4),
        ("ogg", dict(width=96, height=96), 4),
        ("wav", dict(width=96, height=96), 48),
        ("mp4", dict(width=64, height=64, frames=8), 3),
        ("webm", dict(width=64, height=64, frames=8), 3),
        ("avi", dict(width=64, height=64, frames=8), 3),
        ("h264", dict(width=64, height=64, frames=8), 3),
    ]
    for kind, kw, n in kinds:
        rows = synth_media(n, seed=SEED, kind=kind, **kw).take_all()
        payloads = [r["payload"] for r in rows]
        nbytes = sum(len(p) for p in payloads)
        fns = [("", ex._real_features)]
        if kind in ("mp4", "webm", "avi"):
            fns.append(("_full", full_video))
        for suffix, fn in fns:
            fn(payloads[0])                       # warm imports/tables
            done, t0 = 0, time.perf_counter()
            while True:
                for p in payloads:
                    fn(p)
                done += nbytes
                dt = time.perf_counter() - t0
                if dt >= 0.25:
                    break
            extras[f"media_mbps_{kind}{suffix}"] = done / dt / 1e6

    # MP3 sample decode is a declared seam, so the structural layer is
    # what ships (``functions/mp3.py``); time it on a synthetic 500-frame
    # 128 kbps CBR stream with an ID3v2.3 tag — frame-header chain walk,
    # CRC fields, tag parse and VBR-header probe per call.
    from hierarchical_bloom_filter_index_ray.functions.mp3 import mp3_info
    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])         # MPEG-1 L3 128k/44.1
    frame = hdr + bytes(413)                       # 417-byte CBR frame
    tag = (b"ID3\x03\x00\x00\x00\x00\x00\x26TIT2\x00\x00\x00\x0c\x00\x00"
           b"\x00bench titleTPE1\x00\x00\x00\x06\x00\x00\x00bench")
    payload = tag + frame * 500
    mp3_info(payload)                              # warm
    done, t0 = 0, time.perf_counter()
    while True:
        mp3_info(payload)
        done += len(payload)
        dt = time.perf_counter() - t0
        if dt >= 0.25:
            break
    extras["media_mbps_mp3_demux"] = done / dt / 1e6

    # Ogg-Opus sample decode is likewise a declared seam; time the
    # structural layer (page walk + CRC verify + codec ident + granule
    # duration) on a synthetic 500-packet Opus stream — the per-byte
    # cost is dominated by the slice-by-4 page CRC.
    from hierarchical_bloom_filter_index_ray.functions.ogg import (
        mux_ogg, ogg_info)
    head = (b"OpusHead" + bytes([1, 2]) + struct.pack("<HIhB", 312,
                                                      48000, 0, 0))
    tags = b"OpusTags" + struct.pack("<I", 0) + struct.pack("<I", 0)
    toc = bytes([(19 << 3)])                       # CELT 20 ms mono
    pkts = [head, tags] + [toc + bytes(160) for _ in range(500)]
    grans = [0, 0] + [312 + 960 * (i + 1) for i in range(500)]
    payload = mux_ogg(pkts, serial=1, granules=grans)
    ogg_info(payload)                              # warm
    done, t0 = 0, time.perf_counter()
    while True:
        ogg_info(payload)
        done += len(payload)
        dt = time.perf_counter() - t0
        if dt >= 0.25:
            break
    extras["media_mbps_ogg_demux"] = done / dt / 1e6

    # H.264 slice decode is a declared seam; time the structural layer
    # (Annex B NAL walk + SPS parse + IDR cut points) on a synthetic
    # 300-NAL stream — the per-byte cost is the start-code scan.
    from hierarchical_bloom_filter_index_ray.functions.h264 import (
        cut_points as h264_cuts, h264_info)
    # SPS for 320x240 baseline (Exp-Golomb-assembled per §7.3.2.1.1,
    # pinned by the parse assertion below)
    sps = bytes([103, 66, 0, 31, 242, 2, 131, 242])
    pps = bytes([0x68, 0xce, 0x38, 0x80])
    idr = bytes([0x65, 0x88]) + bytes(1024)
    sl = bytes([0x41, 0x9a]) + bytes(1024)
    sc = b"\x00\x00\x00\x01"
    gop = sc + sps + sc + pps + sc + idr + (sc + sl) * 9
    payload = gop * 30
    info = h264_info(payload)                      # warm
    assert (info["width"], info["height"]) == (320, 240), info
    done, t0 = 0, time.perf_counter()
    while True:
        h264_info(payload)
        h264_cuts(payload)
        done += len(payload)
        dt = time.perf_counter() - t0
        if dt >= 0.25:
            break
    extras["media_mbps_h264_parse"] = done / dt / 1e6

    # VP9/AV1 structural parse: per-block frame headers over a
    # synthetic V_VP9 WebM (superframe split + header walk per sample)
    from hierarchical_bloom_filter_index_ray.functions.vp9av1 import (
        vp9_frame_info, webm_video_info)
    from hierarchical_bloom_filter_index_ray.functions.webm import (
        encode_webm_video)
    # hand-assembled VP9 headers (same bit layout the tests pin)
    key = bytes([130, 73, 131, 66, 32, 19, 240, 11, 48]) + bytes(2048)
    inter = bytes([134]) + bytes(2048)
    ki = vp9_frame_info(key)
    assert ki["keyframe"] and (ki["width"], ki["height"]) == (320, 180)
    wb = encode_webm_video([key] + [inter] * 9 + [key] + [inter] * 9,
                           codec="V_VP9", width=320, height=180,
                           sync_every=10)
    webm_video_info(wb)                            # warm
    done, t0 = 0, time.perf_counter()
    while True:
        webm_video_info(wb)
        done += len(wb)
        dt = time.perf_counter() - t0
        if dt >= 0.25:
            break
    extras["media_mbps_vp9_parse"] = done / dt / 1e6


def main(gen_only: bool = False) -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from hierarchical_bloom_filter_index_ray.functions import hash_words
    from hierarchical_bloom_filter_index_ray.pipelines import (
        build_index, distinct_tokens, heavy_hitters, load_index,
        membership_query, membership_query_ds, minhash_lsh_pairs,
        ntok_quantiles)
    from hierarchical_bloom_filter_index_ray.pipelines.text import \
        sequences_table
    from hierarchical_bloom_filter_index_ray.sources import synth_sequences

    cfg = bench_config()
    timings: dict[str, float] = {}
    extras: dict[str, float] = {}

    # -- synth corpus: generate once to parquet (untimed; also warms cache)
    n_rows = synth_rows()
    synth_path = f"{SCRATCH}/synth_{SEED}_{n_rows}"
    if not Path(synth_path).exists():
        tmp = synth_path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        # file/block layout aligned to window boundaries (16384 rows = 8
        # sources x 8 windows x 256 docs): each build batch then covers
        # whole windows -> exactly one partial sketch per window
        synth_sequences(n_rows, seed=SEED, n_sources=8, vocab=131072,
                        override_num_blocks=max(1, n_rows // 16384),
                        ).write_parquet(tmp, min_rows_per_file=16384,
                                        max_rows_per_file=16384)
        os.rename(tmp, synth_path)
    if gen_only:
        print(json.dumps({"generated": synth_path}))
        ray.shutdown()
        return
    warm = rd.read_parquet(synth_path).count()  # warm page cache (untimed)
    probe_pre = _noise_probe()

    # -- headline: sketch-index build over the pre-tokenized synth corpus
    if "build" in STAGES:
        idx_dir = f"{SCRATCH}/index"
        shutil.rmtree(idx_dir, ignore_errors=True)
        t0 = time.perf_counter()
        # explicit block count keeps Ray's auto-split from producing
        # window-misaligned blocks (which would double the partial count)
        man = build_index(rd.read_parquet(synth_path,
                                          override_num_blocks=n_rows // 2048),
                          cfg, idx_dir, batch_size=2048)
        timings["build_synth"] = time.perf_counter() - t0
        extras["synth_rows"] = warm
        extras["synth_tokens"] = man["total_tokens"]
        extras["build_tokens_per_sec"] = man["total_tokens"] / \
            timings["build_synth"]

    # -- build over the tokenized driver documents table
    if "docs" in STAGES:
        docs_dir = f"{SCRATCH}/docs_index"
        shutil.rmtree(docs_dir, ignore_errors=True)
        t0 = time.perf_counter()
        man_docs = build_index(sequences_table(SF_DIR, seed=SEED), cfg,
                               docs_dir, batch_size=1024)
        timings["build_docs"] = time.perf_counter() - t0
        extras["docs_tokens"] = man_docs["total_tokens"]

    # -- membership query QPS over the synth index; mixed selectivity like
    # the reference's UNIFORM/RARE/MISSING query types
    # (utilities/BenchmarkOrchestrator.java:32-34)
    if "query" in STAGES:
        import pyarrow.parquet as pq_

        rng = np.random.default_rng(7)
        # deterministic query selection: Dataset.take() returns whichever
        # block lands first (scheduling-dependent); read the first file
        # directly so every run probes the same patterns. Batch size
        # follows the reference's workload files (500 queries PER TYPE,
        # queries/wzipf_21_e13_128/3/*.txt) — per_type below keeps the
        # same uniform/rare/missing mix at a size the sandbox sustains.
        per_type = int(os.environ.get("GRAFT_QUERY_PER_TYPE", "96"))
        first = sorted(Path(synth_path).glob("*.parquet"))[0]
        head = pq_.read_table(first).slice(0, 3 * per_type + 64).to_pylist()
        queries = []
        for i, row in enumerate(head[:per_type]):  # short frequent
            toks = row["tokens"]
            start = int(rng.integers(0, max(1, len(toks) - 3)))
            queries.append((f"present{i}", [int(t) for t in
                                            toks[start:start + 3]]))
        n_rare = 0
        for i, row in enumerate(head[per_type:]):  # longer, selective
            if n_rare >= per_type:
                break
            toks = row["tokens"]
            if len(toks) < 8:
                continue
            start = int(rng.integers(0, len(toks) - 8))
            queries.append((f"rare{i}", [int(t) for t in
                                         toks[start:start + 8]]))
            n_rare += 1
        for i in range(per_type):
            queries.append((f"missing{i}",
                            [int(2**30 + i), int(2**30 + i + 1)]))
        idx = load_index(f"{SCRATCH}/index")
        seqs = rd.read_parquet(synth_path)
        # open the index once (untimed): the query-coordinator ACTOR caches
        # the probe-ready super store across query batches; its one-time
        # load is not per-batch query cost
        from hierarchical_bloom_filter_index_ray.pipelines.super_index import \
            warm_super_coordinator
        warm_super_coordinator(f"{SCRATCH}/index")
        # window-aligned file layout -> the verify stage reads only
        # candidate files (validated; falls back to the full scan when a
        # cached corpus predates the aligned-write guarantee)
        import pyarrow.parquet as pqf

        from hierarchical_bloom_filter_index_ray.pipelines import \
            window_aligned_layout
        meta = window_aligned_layout(synth_path, 16384, 16384 // 8, cfg)
        if (len(meta) != max(1, n_rows // 16384)
                or any(pqf.ParquetFile(m["path"]).metadata.num_rows
                       != 16384 for m in meta)):
            meta = None
        # one untimed warmup batch: QPS is the STEADY-STATE service
        # metric — the warmup absorbs one-time worker imports and page
        # cache fill, the sandbox analogue of the reference's resident
        # JVM answering its second query batch. Cold time is reported
        # separately for transparency.
        t0 = time.perf_counter()
        membership_query(idx, seqs, queries, cfg,
                         super_dir=f"{SCRATCH}/index",
                         sequences_meta=meta)
        extras["query_cold_sec"] = time.perf_counter() - t0
        reps = int(os.environ.get("GRAFT_QUERY_REPS", "2"))
        # steady-state metric = the SCALE path: hits stay a Dataset end
        # to end (membership_query_ds, VERDICT r3 #1) and are consumed by
        # a distributed count — no driver-side collection or global sort
        # in the measured service loop (the reference's normalization is
        # order-insensitive, HBIDatasetBenchmark.java:156-182)
        best = None
        n_hits = 0
        for _ in range(reps):
            t0 = time.perf_counter()
            n_hits = membership_query_ds(
                idx, seqs, queries, cfg, super_dir=f"{SCRATCH}/index",
                sequences_meta=meta, sort=None).count()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        # min over reps: the standard noise-robust estimator on a shared
        # host — rep-to-rep swings here are co-tenant steal, not the
        # engine (every rep computes the identical result)
        timings["query_membership"] = best
        extras["membership_qps"] = len(queries) / best
        extras["membership_hits"] = int(n_hits)
        # collected-Table convenience path kept as a separate key for
        # round-over-round comparability (same workload, plus the
        # driver-side concat + sort tail)
        t0 = time.perf_counter()
        membership_query(idx, seqs, queries, cfg,
                         super_dir=f"{SCRATCH}/index",
                         sequences_meta=meta)
        timings["query_membership_collect"] = time.perf_counter() - t0

    # -- sketch-estimate queries over the synth corpus
    if "sketch" in STAGES:
        ds = rd.read_parquet(synth_path)
        t0 = time.perf_counter()
        distinct_tokens(ds, cfg, by_source=True)
        timings["hll_distinct"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        heavy_hitters(rd.read_parquet(synth_path), cfg, k=20)
        timings["cms_heavy_hitters"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ntok_quantiles(rd.read_parquet(synth_path), cfg)
        timings["ntok_quantiles"] = time.perf_counter() - t0

    # -- near-dup pass over the documents-derived sequences
    if "dedup" in STAGES:
        t0 = time.perf_counter()
        minhash_lsh_pairs(sequences_table(SF_DIR, seed=SEED), cfg,
                          threshold=0.6)
        timings["minhash_lsh"] = time.perf_counter() - t0

    # -- time-series join operators over the events table
    if "joins" in STAGES:
        from hierarchical_bloom_filter_index_ray.pipelines.events import (
            band_join_count, clicks_last_purchase, hopping_window_agg)
        t0 = time.perf_counter()
        clicks_last_purchase(SF_DIR).materialize()
        timings["asof_join"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        band_join_count(SF_DIR).materialize()
        timings["band_join"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        hopping_window_agg(SF_DIR).materialize()
        timings["hopping_window"] = time.perf_counter() - t0

    # -- exact cosine similarity threshold join (chunk-pair tasks)
    if "simjoin" in STAGES:
        from hierarchical_bloom_filter_index_ray.pipelines import \
            embedding_sim_join
        sj_dir = f"{SCRATCH}/simjoin"
        shutil.rmtree(sj_dir, ignore_errors=True)
        t0 = time.perf_counter()
        embedding_sim_join(
            rd.read_parquet(f"{SF_DIR}/embeddings.parquet"), sj_dir,
            threshold=0.45, chunk_rows=512, seed=SEED)
        timings["emb_sim_join"] = time.perf_counter() - t0

    # -- per-codec single-thread decode throughput (extras only: the
    # stage self-tunes its own duration, so it must not perturb the
    # round-comparable headline total)
    if "media" in STAGES:
        t0 = time.perf_counter()
        _media_decode_stage(extras)
        extras["media_decode_sec"] = time.perf_counter() - t0

    # memory posture evidence (sf1 soak, VERDICT r4 #3): driver peak
    # RSS plus the max/sum of per-worker peak RSS (VmHWM) across live
    # Ray workers — a stage that materialized the corpus would show up
    # as a worker (or driver) high-water mark tracking the input size
    import resource
    extras["driver_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hwm = []
    for pid_dir in Path("/proc").iterdir():
        if not pid_dir.name.isdigit():
            continue
        try:
            cmd = (pid_dir / "cmdline").read_bytes()
            if b"ray::" not in cmd and b"raylet" not in cmd:
                continue
            for line in (pid_dir / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    hwm.append(int(line.split()[1]) / 1024.0)
                    break
        except OSError:
            continue
    if hwm:
        extras["worker_peak_rss_mb_max"] = max(hwm)
        extras["worker_peak_rss_mb_sum"] = sum(hwm)

    total = sum(timings.values())
    # probe at BOTH ends: a round-4 run's 16-cpu leg collapsed 1.8x
    # across all stages while a clean END-of-run probe said calm — a
    # single probe can miss mid-run steal; the reported scalar is the
    # worse of the two (pre kept separately for transparency)
    probe_post = _noise_probe()
    extras["noise_probe_pre_sec"] = probe_pre
    extras["noise_probe_sec"] = max(probe_pre, probe_post)
    print(json.dumps({
        "metric": "hbi_ray_build_query_bench",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": _sf(),
        "num_cpus": NUM_CPUS,
        **{k: round(v, 3) if isinstance(v, float) else v
           for k, v in extras.items()},
    }))
    ray.shutdown()


def scaling() -> None:
    """Same headline build at N and 4N CPUs in fresh processes on the same
    (4x-sized) input; efficiency = (T_N / T_4N) / 4.

    Defaults to N=4, 4N=16 (env ``GRAFT_SCALING_CPUS="4,16"``): raw-kernel
    multiprocessing scaling shows this box's memory bandwidth saturates
    past ~16 workers (per-proc throughput drops ~20-50%), which a real
    4x-node cluster — 4x memory buses, 4x disks — would not; the 4->16
    pair measures the engine, not the box. The 4x input amortizes the
    fixed single-box floor (Ray session startup, driver coordination).
    Both throughputs + the 8/32 pair belong in BASELINE.md.
    """
    lo, hi = (int(x) for x in os.environ.get("GRAFT_SCALING_CPUS",
                                             "4,16").split(","))
    rows = int(os.environ.get("GRAFT_SCALING_ROWS", 4 * synth_rows()))
    base_env = dict(os.environ, GRAFT_SYNTH_ROWS=str(rows),
                    GRAFT_BENCH_STAGES="build,query")
    # generate the shared corpus once with all CPUs, untimed
    subprocess.run([sys.executable, __file__, "--gen-only"],
                   env=dict(base_env, RAY_GRAFT_CPUS="32"),
                   capture_output=True, text=True, check=True)
    results = {}
    for ncpu in (lo, hi):
        env = dict(base_env, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True)
        results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
    t_lo = results[lo]["queries"]["build_synth"]
    t_hi = results[hi]["queries"]["build_synth"]
    q_lo = results[lo]["queries"].get("query_membership")
    q_hi = results[hi]["queries"].get("query_membership")
    out = {
        "metric": "hbi_ray_scaling",
        "noise_probe_sec": {str(n): r.get("noise_probe_sec")
                            for n, r in results.items()},
        "scaling_rows": rows,
        "synth_tokens": results[hi]["synth_tokens"],
        "num_cpus_lo": lo, "num_cpus_hi": hi,
        f"build_sec_{lo}": t_lo, f"build_sec_{hi}": t_hi,
        f"build_tps_{lo}": results[lo]["build_tokens_per_sec"],
        f"build_tps_{hi}": results[hi]["build_tokens_per_sec"],
        "scaling_efficiency_build": round((t_lo / t_hi) / (hi / lo), 3),
        "sf": results[hi]["sf"],
    }
    if q_lo and q_hi:
        out.update({
            f"query_qps_{lo}": results[lo]["membership_qps"],
            f"query_qps_{hi}": results[hi]["membership_qps"],
            "scaling_efficiency_query": round((q_lo / q_hi) / (hi / lo), 3),
        })
    print(json.dumps(out))


def sweep() -> None:
    """Multi-configuration sweep, the Ray analogue of the reference's
    ``utilities/BenchmarkOrchestrator.java:22-66`` grid (FPR x ngram x
    query type, full index rebuild per cell): for each cell it rebuilds
    the index at that (fp, ngram), runs the mixed present/rare/missing
    query set, and reports build seconds, query QPS, candidate counts
    and super-descend probe counts — demonstrating the super levels'
    probe-count advantage at low fp exactly as the reference's bench
    does. Prints ONE JSON line with the whole grid."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np
    import pyarrow.parquet as pq_

    import ray.data as rd

    from hierarchical_bloom_filter_index_ray import HbiConfig
    from hierarchical_bloom_filter_index_ray.pipelines import (
        build_index, load_index, membership_query)
    from hierarchical_bloom_filter_index_ray.pipelines.super_index import \
        warm_super_coordinator
    from hierarchical_bloom_filter_index_ray.sources import synth_sequences

    n_rows = int(os.environ.get("GRAFT_SWEEP_ROWS",
                                min(synth_rows(), 262_144)))
    n_rows = max(16_384, (n_rows // 16_384) * 16_384)
    synth_path = f"{SCRATCH}/sweep_synth_{SEED}_{n_rows}"
    if not Path(synth_path).exists():
        tmp = synth_path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        synth_sequences(n_rows, seed=SEED, n_sources=8, vocab=131072,
                        override_num_blocks=max(1, n_rows // 16384),
                        ).write_parquet(tmp, min_rows_per_file=16384,
                                        max_rows_per_file=16384)
        os.rename(tmp, synth_path)

    rng = np.random.default_rng(7)
    first = sorted(Path(synth_path).glob("*.parquet"))[0]
    head = pq_.read_table(first).slice(0, 48).to_pylist()
    query_sets: dict[str, list] = {"present": [], "rare": [],
                                   "missing": []}
    for i, row in enumerate(head[:16]):
        toks = row["tokens"]
        start = int(rng.integers(0, max(1, len(toks) - 3)))
        query_sets["present"].append(
            (f"present{i}", [int(t) for t in toks[start:start + 3]]))
    for i, row in enumerate(head[16:40]):
        toks = row["tokens"]
        if len(toks) < 8:
            continue
        start = int(rng.integers(0, len(toks) - 8))
        query_sets["rare"].append(
            (f"rare{i}", [int(t) for t in toks[start:start + 8]]))
    for i in range(24):
        query_sets["missing"].append(
            (f"missing{i}", [int(2**30 + 4 * i + j) for j in range(4)]))

    fps = [float(x) for x in os.environ.get(
        "GRAFT_SWEEP_FP", "0.25,0.01,0.001").split(",")]
    ngrams = [int(x) for x in os.environ.get(
        "GRAFT_SWEEP_NGRAM", "1,3").split(",")]
    cells = []
    for fp in fps:
        for ng in ngrams:
            cfg = HbiConfig(seed=SEED, docs_per_window=256, fp=fp,
                            ngram=ng, hll_p=12, cms_eps=0.02,
                            cms_delta=0.05, expected_tokens_per_doc=128,
                            expected_distinct_per_doc=96)
            idx_dir = f"{SCRATCH}/sweep_index"
            shutil.rmtree(idx_dir, ignore_errors=True)
            t0 = time.perf_counter()
            man = build_index(
                rd.read_parquet(synth_path,
                                override_num_blocks=n_rows // 2048),
                cfg, idx_dir, batch_size=2048)
            build_sec = time.perf_counter() - t0
            idx = load_index(idx_dir)
            seqs = rd.read_parquet(synth_path)
            warm_super_coordinator(idx_dir)
            # realized bloom FPR at this (fp, ngram) — the reference
            # sweep's empirical-FPR column (BloomFilter.java:52-59)
            from hierarchical_bloom_filter_index_ray.pipelines import (
                index_fpr_stats, window_aligned_layout)
            fdf = index_fpr_stats(idx_dir).to_pandas()
            realized_fpr = float(np.average(
                fdf["mean_fpr"], weights=fdf["n_windows"])) \
                if len(fdf) else None
            meta = window_aligned_layout(synth_path, 16384, 16384 // 8,
                                         cfg)
            if (len(meta) != max(1, n_rows // 16384)
                    or any(pq_.ParquetFile(m["path"]).metadata.num_rows
                           != 16384 for m in meta)):
                meta = None
            cell = {"fp": fp, "ngram": ng,
                    "build_sec": round(build_sec, 3),
                    "index_bytes": int(man.get("total_index_bytes", 0)),
                    "realized_fpr": realized_fpr,
                    "query_types": {}}
            for qtype, queries in query_sets.items():
                st: dict = {}
                t0 = time.perf_counter()
                hits = membership_query(idx, seqs, queries, cfg,
                                        super_dir=idx_dir, stats=st,
                                        sequences_meta=meta)
                dt = time.perf_counter() - t0
                cell["query_types"][qtype] = {
                    "qps": round(len(queries) / dt, 3),
                    "sec": round(dt, 3),
                    "hits": hits.num_rows,
                    "candidates": st.get("candidates", 0),
                    "super_probes": st.get("super_probes", 0),
                    "mode": st.get("mode"),
                    # verify-stage read telemetry: candidate-file
                    # pruning hit rate in files and bytes
                    "verify_files": st.get("verify_files"),
                    "verify_files_total": st.get("verify_files_total"),
                    "verify_bytes": st.get("verify_bytes"),
                    "verify_bytes_total": st.get("verify_bytes_total"),
                }
            cells.append(cell)
    print(json.dumps({
        "metric": "hbi_ray_config_sweep",
        "rows": n_rows,
        "num_cpus": NUM_CPUS,
        "cells": cells,
    }))
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--sweep" in sys.argv:
        sweep()
    elif "--gen-only" in sys.argv:
        main(gen_only=True)
    else:
        main()
