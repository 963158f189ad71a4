"""Pure-numpy mergeable sketch kernels (no Ray dependency).

Each sketch: deterministic seeds, vectorized ``update``, associative
``merge`` with identity-param checks, and ``to_bytes``/``from_bytes``.
See SURVEY.md §2.4 for the reference mapping.
"""

from .base import register_sketch, sketch_class, sketch_from_bytes
from .bloom import BloomFilter, bloom_dimensions
from .bottomk import BottomK
from .cms import (CountMinSketch, CountSketch, IntCountSketch,
                  cms_dimensions)
from .hll import HyperLogLog
from .hops import HOPS
from .kll import KLL
from .minhash import (hamming64, lsh_bands, minhash_jaccard,
                      minhash_signatures, simhash64)
from .splitmix import derive_seed, hash_str_u64, hash_u64, splitmix64
from .tdigest import TDigest
from .topm import TopM

__all__ = [
    "BloomFilter", "bloom_dimensions", "BottomK", "CountMinSketch",
    "CountSketch", "IntCountSketch", "cms_dimensions", "HyperLogLog", "HOPS", "KLL", "TDigest",
    "TopM",
    "register_sketch", "sketch_class", "sketch_from_bytes",
    "minhash_signatures", "lsh_bands", "simhash64", "hamming64",
    "minhash_jaccard", "derive_seed", "hash_u64", "hash_str_u64", "splitmix64",
]
