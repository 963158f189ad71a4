"""Engine configuration — the analogue of the reference's
``PMIndex/HbiConfiguration.java:98-207`` builder, reduced to explicit
dataclass params. One master ``seed`` drives every hash function through
SplitMix64/blake2 chains (``state/splitmix.py``), replacing the reference's
``SecureRandom`` seeding so that merges and Ray task retries are
deterministic (SURVEY.md §7.0).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

# Every LEVEL_STRIDE-th bloom level of the window tree is stored, plus the
# leaf (``HbiConfig.stored_levels``). Only the leaf decides the candidates;
# intermediate levels bound the traversal, and between two stored levels
# the probe fans out 2^LEVEL_STRIDE children per surviving interval. 1 is
# the reference's full ``ImplicitTree``.
LEVEL_STRIDE = 3


@dataclass(frozen=True)
class HbiConfig:
    """Hierarchical bloom index + sketch-set build configuration.

    Windowing (SURVEY.md §7 hard part 3): the reference windows by global
    token position of a single sequential stream (``PMIndex/HBI.java:229``).
    A distributed batch engine needs a scan-free deterministic assignment, so
    windows are **doc-aligned**: ``window_id = doc_index >> log2(docs_per_window)``
    per source, and the in-window hierarchy partitions the window's
    ``docs_per_window`` doc slots (level L -> 2^L intervals of
    ``docs_per_window / 2^L`` docs; leaf = one doc). Bloom keys are
    ``mix(interval_id, ngram_key)`` exactly like the reference's packed
    ``(interval_id, token)`` keys (``membership/KeyPackingService.java:77-94``,
    ``tree/ImplicitTree.java:63-75``).
    """

    seed: int = 42
    # --- windowing / hierarchy ---
    docs_per_window: int = 256          # power of two; reference window/tree ratio
    # --- n-grams over the token sequence (reference Ngram, stride 1) ---
    ngram: int = 1
    # --- bloom sizing (per level L: n_L = min(2^L * sigma_expect, W_tok)) ---
    fp: float = 0.01                    # target FPR per filter (Main.java:31 uses 1e-3)
    expected_tokens_per_doc: int = 128  # sizing prior, not a correctness input
    expected_distinct_per_doc: int = 96 # sigma_expect prior per leaf interval
    # --- sketch params ---
    # one CMS table per (source, window) partial: 0.02/0.05 is 8192 x 3
    # int64 cells (192 KiB); 0.001/0.01 would be 4M x 5 (160 MiB)
    cms_eps: float = 0.02
    cms_delta: float = 0.05
    hll_p: int = 14
    kll_k: int = 200
    tdigest_delta: float = 200.0
    hops_buckets: int = 2048            # reference default B=2500 (SamplingSketchExperiment.java:50)
    # when set, hops_buckets is auto-designed for this rank-error target
    # via Chebyshev occupancy + DKW sizing (Utils.java:77-163 analogue,
    # pipelines/planner.design_hops_buckets)
    hops_rank_eps: float | None = None
    hops_delta_q: float = 0.05
    hops_delta_sample: float = 0.05
    bottomk_k: int = 1024
    # --- cross-window super levels (reference HBI.java:139,207-266: the
    # window holds window/tree trees and pruning descends across them;
    # SURVEY §7.1 step 4 "upper levels by re-merging child window blooms").
    # Window-root (level-0) blooms share one constant interval salt, so an
    # OR-merge of ``super_fanout`` children is a true union filter for the
    # same probe keys. Each super level multiplies the expected load of a
    # fixed-size filter by the fanout, so filters saturate going up; levels
    # stop stacking when the mean fill ratio passes ``super_fill_cap``
    # (a saturated filter prunes nothing — correctness is unaffected).
    super_fanout: int = 2
    super_max_levels: int = 24
    super_fill_cap: float = 0.9
    # --- which sketch families to build per (source, window) partition ---
    sketches: tuple[str, ...] = field(default=(
        "bloom_tree", "hll", "cms", "kll_ntok", "tdigest_ntok", "hops",
        "bottomk"))

    def __post_init__(self):
        if self.docs_per_window & (self.docs_per_window - 1):
            raise ValueError("docs_per_window must be a power of two")
        if self.ngram < 1:
            raise ValueError("ngram must be >= 1")

    @property
    def window_bits(self) -> int:
        return int(math.log2(self.docs_per_window))

    @property
    def num_levels(self) -> int:
        """Levels 0..window_bits: root (whole window) to leaf (one doc)."""
        return self.window_bits + 1

    def stored_levels(self) -> tuple[int, ...]:
        """Bloom levels the index builds and stores: ``0, s, 2s, ...`` for
        ``s = LEVEL_STRIDE``, plus the leaf. Level 0 always stays, because
        the super levels OR-merge window roots."""
        return tuple(sorted({*range(0, self.window_bits, LEVEL_STRIDE),
                             self.window_bits}))

    def level_expected_distinct(self, level: int) -> int:
        """Start size of every level's Bloom, mirroring
        ``PMIndex/HBI.java:693-702``: ``n_L = 2^L * min(sigma, span)`` with
        span measured in expected tokens of one level-L interval. Every
        level is built (and partials OR-merge) at this prior; a finished
        level other than 0 is then folded down to its fill
        (``BloomFilter.fold_to_fill``), so the prior is an upper bound,
        not the stored size."""
        docs_per_interval = self.docs_per_window >> level
        span_tokens = docs_per_interval * self.expected_tokens_per_doc
        sigma = self.expected_distinct_per_doc * docs_per_interval
        return (1 << level) * min(sigma, span_tokens)

    def effective_hops_buckets(self) -> int:
        """Explicit ``hops_buckets``, or the Chebyshev/DKW auto-design for
        ``hops_rank_eps`` using the per-window distinct prior (reference
        ``Utils.designBucketsForRankTargetChebyshev``)."""
        if self.hops_rank_eps is None:
            return self.hops_buckets
        from .pipelines.planner import design_hops_buckets
        distinct = self.docs_per_window * min(self.expected_distinct_per_doc,
                                              self.expected_tokens_per_doc)
        return design_hops_buckets(distinct, self.hops_rank_eps,
                                   self.hops_delta_q,
                                   self.hops_delta_sample)["buckets"]

    def params_hash(self) -> str:
        """Stable identity of everything that affects sketch bytes; stored in
        the manifest and checked before any merge/resume."""
        d = asdict(self)
        d["sketches"] = list(d["sketches"])
        return hashlib.blake2b(
            json.dumps(d, sort_keys=True).encode(), digest_size=8).hexdigest()

    def to_json(self) -> dict:
        d = asdict(self)
        d["sketches"] = list(d["sketches"])
        return d

    @classmethod
    def from_json(cls, d: dict) -> "HbiConfig":
        d = dict(d)
        d["sketches"] = tuple(d["sketches"])
        return cls(**d)
