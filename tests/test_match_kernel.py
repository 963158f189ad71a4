"""The exact-match kernel's two paths (per-query full-scan over the
batch's flat token array vs candidate-segment gather) must agree with
each other and with a brute-force oracle on any pair set — including
empty/short rows, overlapping occurrences, and candidate sets that
deliberately exclude a matching row (the full-scan path must re-apply
the candidate filter; reference semantics ``PMIndex/HBI.java`` report).
Pure numpy — no Ray session needed."""
import numpy as np
import pytest

from hierarchical_bloom_filter_index_ray.pipelines import query_index
from hierarchical_bloom_filter_index_ray.pipelines.query_index import \
    _match_pairs


def _rand_case(rng):
    n_rows = int(rng.integers(1, 60))
    lens = rng.integers(0, 12, n_rows)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    flat = rng.integers(0, 5, offsets[-1]).astype(np.int32)
    n_q = int(rng.integers(1, 8))
    q_tokens = [rng.integers(0, 5, int(rng.integers(1, 4))).astype(np.int32)
                for _ in range(n_q)]
    npairs = int(rng.integers(0, n_rows * n_q))
    pr = rng.integers(0, n_rows, npairs).astype(np.int64)
    pq = rng.integers(0, n_q, npairs).astype(np.int32)
    key = pr * n_q + pq
    _, ui = np.unique(key, return_index=True)
    return flat, offsets, pr[ui], pq[ui], q_tokens


def _brute(flat, offsets, pr, pq, q_tokens):
    pairs = set(zip(pr.tolist(), pq.tolist()))
    rows, qs, cs = [], [], []
    for r in range(len(offsets) - 1):
        seg = flat[offsets[r]:offsets[r + 1]]
        for qi, q in enumerate(q_tokens):
            if (r, qi) not in pairs:
                continue
            L = len(q)
            cnt = sum(1 for s in range(len(seg) - L + 1)
                      if (seg[s:s + L] == q).all())
            if cnt:
                rows.append(r)
                qs.append(qi)
                cs.append(cnt)
    return rows, qs, cs


def _sorted(r, q, c):
    o = np.lexsort((np.asarray(r), np.asarray(q)))
    return (np.asarray(r)[o].tolist(), np.asarray(q)[o].tolist(),
            np.asarray(c)[o].tolist())


@pytest.mark.parametrize("frac", ["0.0", "1e18", "0.5"])
def test_match_pairs_agrees_with_brute_force(frac, monkeypatch):
    monkeypatch.setattr(query_index, "_FULLSCAN_FRAC", float(frac))
    rng = np.random.default_rng(0)
    for _ in range(25):
        flat, offsets, pr, pq, q_tokens = _rand_case(rng)
        got = _sorted(*_match_pairs(flat, offsets, pr, pq, q_tokens))
        exp = _sorted(*_brute(flat, offsets, pr, pq, q_tokens))
        assert got == exp


def test_fullscan_respects_candidate_exclusion(monkeypatch):
    # row 0 matches the query but is NOT a candidate pair: the full-scan
    # path must drop it (upstream scope filters depend on this)
    monkeypatch.setattr(query_index, "_FULLSCAN_FRAC", 0.0)
    flat = np.array([7, 8, 9, 7, 8, 9], dtype=np.int32)
    offsets = np.array([0, 3, 6], dtype=np.int64)
    q_tokens = [np.array([7, 8], dtype=np.int32)]
    pr = np.array([1], dtype=np.int64)
    pq = np.array([0], dtype=np.int32)
    r, q, c = _match_pairs(flat, offsets, pr, pq, q_tokens)
    assert r.tolist() == [1] and q.tolist() == [0] and c.tolist() == [1]


def test_fullscan_no_cross_row_phantom_match(monkeypatch):
    # pattern spans the boundary of rows 0|1 in the flat array: the
    # tail-kill scatter must suppress it in the full-scan path too
    monkeypatch.setattr(query_index, "_FULLSCAN_FRAC", 0.0)
    flat = np.array([1, 2, 3, 4], dtype=np.int32)
    offsets = np.array([0, 2, 4], dtype=np.int64)
    q_tokens = [np.array([2, 3], dtype=np.int32)]
    pr = np.array([0, 1], dtype=np.int64)
    pq = np.array([0, 0], dtype=np.int32)
    r, _, _ = _match_pairs(flat, offsets, pr, pq, q_tokens)
    assert r.tolist() == []
