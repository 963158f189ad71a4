from .build_index import (build_index, expire_windows, index_fpr_stats,
                          load_index, load_manifest)
from .dedup import (exact_dedup, exact_dedup_ids, minhash_dedup,
                    minhash_lsh_pairs, ngram_jaccard, ngram_jaccard_join,
                    simhash_pairs)
from .query_index import BloomProbe, ExactVerifier, compile_queries, \
    membership_query, membership_query_ds, membership_query_table, \
    window_aligned_layout
from .decontam import benchmark_windows, decontaminate
from .similarity import (build_ann_index, build_ann_index_kmeans,
                         build_ann_index_pq, embedding_dedup,
                         embedding_near_dup_pairs, embedding_sim_join,
                         kmeans_fit, knn_bruteforce, knn_indexed,
                         knn_kmeans, knn_lsh, knn_pq, pq_fit)
from .text import sample_mixture, train_bpe
from .stats import (build_global_sketches, distinct_tokens, heavy_hitters,
                    ntok_quantiles)
from .relational import (pricing_summary, revenue_by_nation,
                         revenue_by_priority, top_customers_by_spend)
from .suffix_baseline import (build_suffix_index, linear_scan_membership,
                              load_suffix_index, suffix_membership,
                              suffix_membership_ds)
from .super_index import build_super_index, load_super_meta, super_prune

__all__ = [
    "build_index", "load_index", "load_manifest", "index_fpr_stats",
    "expire_windows",
    "membership_query", "membership_query_ds",
    "membership_query_table", "compile_queries", "BloomProbe",
    "ExactVerifier", "window_aligned_layout",
    "exact_dedup", "exact_dedup_ids", "minhash_dedup", "minhash_lsh_pairs",
    "simhash_pairs",
    "ngram_jaccard", "ngram_jaccard_join", "knn_bruteforce", "knn_lsh",
    "build_ann_index",
    "knn_indexed", "embedding_near_dup_pairs", "embedding_dedup",
    "embedding_sim_join", "kmeans_fit", "build_ann_index_kmeans",
    "knn_kmeans", "pq_fit", "build_ann_index_pq", "knn_pq",
    "decontaminate", "benchmark_windows", "train_bpe", "sample_mixture",
    "build_global_sketches", "distinct_tokens", "heavy_hitters",
    "ntok_quantiles",
    "build_suffix_index", "load_suffix_index", "suffix_membership",
    "suffix_membership_ds", "linear_scan_membership",
    "build_super_index", "load_super_meta", "super_prune",
    "pricing_summary", "top_customers_by_spend",
    "revenue_by_priority", "revenue_by_nation",
]
