"""MinHash signatures + LSH banding, and SimHash — near-dup primitives.

Not index sketches in the reference (which targets exact pattern matching);
added per the build brief's training-data-pipeline requirements. Public
algorithms: Broder's MinHash (one hash family per permutation, min over the
token set), banded LSH (b bands x r rows), and Charikar's SimHash (64-bit
sign-of-weighted-bit-sums). All vectorized over Arrow list-column offsets
via ``np.minimum.reduceat`` / ``np.add.reduceat`` — no per-row Python.
"""

from __future__ import annotations

import numpy as np

from .bloom import popcount64
from .splitmix import U64, derive_seed, hash_u64

_PERM_CHUNK = 16  # bound broadcast temp to chunk * n_tokens * 8 bytes


def minhash_signatures(flat_tokens: np.ndarray, offsets: np.ndarray,
                       num_perm: int, seed: int) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signatures.

    ``flat_tokens``: concatenated token ids; ``offsets``: int array of length
    n_docs+1 (Arrow ListArray offsets). Empty docs get the max sentinel.
    """
    n_docs = len(offsets) - 1
    starts = offsets[:-1].astype(np.int64)
    lengths = np.diff(offsets).astype(np.int64)
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(flat_tokens) == 0:
        return sig
    flat = flat_tokens.astype(np.uint64, copy=False)
    nonempty = lengths > 0
    red_starts = starts[nonempty]
    seeds = [derive_seed(seed, "minhash", i) for i in range(num_perm)]
    for c0 in range(0, num_perm, _PERM_CHUNK):
        chunk = seeds[c0 : c0 + _PERM_CHUNK]
        for ci, s in enumerate(chunk):
            h = hash_u64(flat, s)
            mins = np.minimum.reduceat(h, red_starts)
            sig[nonempty, c0 + ci] = mins
    return sig


def lsh_bands(sig: np.ndarray, bands: int, seed: int) -> np.ndarray:
    """(n_docs, bands) uint64 band hashes: rows-per-band = num_perm // bands;
    each band hash folds its rows with a seeded SplitMix64 chain."""
    n_docs, num_perm = sig.shape
    r = num_perm // bands
    if r * bands != num_perm:
        raise ValueError("num_perm must be divisible by bands")
    out = np.zeros((n_docs, bands), dtype=np.uint64)
    for b in range(bands):
        s = derive_seed(seed, "lsh_band", b)
        acc = np.full(n_docs, U64(s & 0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        for j in range(r):
            acc = hash_u64(acc ^ sig[:, b * r + j], s)
        out[:, b] = acc
    return out


def simhash64(flat_tokens: np.ndarray, offsets: np.ndarray, seed: int) -> np.ndarray:
    """(n_docs,) uint64 SimHash: per bit, sum of +/-1 over token hashes."""
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(flat_tokens) == 0:
        return out
    starts = offsets[:-1].astype(np.int64)
    lengths = np.diff(offsets).astype(np.int64)
    nonempty = lengths > 0
    red_starts = starts[nonempty]
    h = hash_u64(flat_tokens.astype(np.uint64, copy=False),
                 derive_seed(seed, "simhash"))
    n_ne = int(nonempty.sum())
    for bit in range(64):
        contrib = (((h >> U64(bit)) & U64(1)).astype(np.int64) * 2 - 1)
        sums = np.add.reduceat(contrib, red_starts) if n_ne else np.empty(0)
        bits = np.zeros(n_docs, dtype=np.uint64)
        bits[nonempty] = (sums > 0).astype(np.uint64)
        out |= bits << U64(bit)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays."""
    return popcount64(a ^ b)


def minhash_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard from signature agreement (rowwise)."""
    return (sig_a == sig_b).mean(axis=-1)
