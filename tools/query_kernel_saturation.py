"""Raw-kernel (no Ray) saturation probe for the QUERY-side verify
kernel: each forked worker runs an identical ``_match_pairs`` workload
(the 288-query bench shape: ~246k candidate pairs over a 16384-row
batch); per-proc wall time vs process count isolates the single box's
DRAM ceiling from the engine — the query twin of BASELINE.md's
build-kernel probe (PartialSketchBuilder fork-pool measurement).

Usage: python tools/query_kernel_saturation.py
Prints one JSON line per process count; the ratio of per-call means
between P and 4P is the kernel's own scaling-efficiency ceiling for
that CPU pair on this host.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def make_workload(seed: int = 0):
    """Bench-shaped verify call: ~122k candidate pairs over an 8192-row
    half-file batch (the sf0.1x4 scaling corpus measured 122k
    pairs/call), with the pair mass Zipf-skewed across
    the present queries exactly as a Zipf corpus skews real bloom
    candidates — the top few queries cross the kernel's full-scan
    threshold, the tail takes the gather path, so the probe exercises
    the adaptive kernel's true mix rather than a uniform all-gather."""
    rng = np.random.default_rng(seed)
    n_rows = 8192
    lens = rng.integers(32, 180, n_rows).astype(np.int64)
    offsets = np.zeros(n_rows + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    flat = rng.integers(0, 131072, offsets[-1]).astype(np.int32)
    n_q = 288
    q_tokens = []
    for qi in range(n_q):
        ln = 3 if qi < 96 else (8 if qi < 192 else 2)
        r = int(rng.integers(0, n_rows))
        s = int(rng.integers(0, max(1, lens[r] - ln)))
        q_tokens.append(flat[offsets[r] + s:offsets[r] + s + ln].copy())
    n_pairs = 122_000
    # Zipf pair mass over the 96 present queries + a selective tail
    w = 1.0 / np.arange(1, 97)
    present_counts = np.round(n_pairs * 0.95 * w / w.sum()).astype(int)
    parts_r, parts_q = [], []
    for qi, c in enumerate(present_counts):
        c = min(c, n_rows)
        parts_r.append(rng.choice(n_rows, size=c, replace=False))
        parts_q.append(np.full(c, qi, np.int32))
    tail = n_pairs - sum(len(p) for p in parts_r)
    parts_r.append(rng.integers(0, n_rows, tail))
    parts_q.append(rng.integers(96, n_q, tail).astype(np.int32))
    pair_rows = np.concatenate(parts_r).astype(np.int64)
    pair_qis = np.concatenate(parts_q)
    return flat, offsets, pair_rows, pair_qis, q_tokens


def worker(args):
    reps, seed = args
    from hierarchical_bloom_filter_index_ray.pipelines.query_index import \
        _match_pairs
    w = make_workload(seed)
    t0 = time.perf_counter()
    for _ in range(reps):
        _match_pairs(*w)
    return time.perf_counter() - t0


def main() -> None:
    reps = 6
    worker((1, 0))          # warm imports in the parent (children fork)
    for procs in (1, 2, 4, 8, 16):
        with mp.get_context("fork").Pool(procs) as pool:
            ts = pool.map(worker, [(reps, i) for i in range(procs)])
        print(json.dumps({
            "procs": procs,
            "sec_per_call_mean": round(sum(ts) / len(ts) / reps, 4),
            "sec_per_call_max": round(max(ts) / reps, 4),
        }))


if __name__ == "__main__":
    main()
