"""HOPS bucket design used by the index config.

``design_hops_buckets`` and its DKW/occupancy helpers give the HOPS
bucket count that ``HbiConfig`` derives for a rank-error target.

The build has one level rule: every window stores exactly
``HbiConfig.stored_levels``, each level but 0 folded to its fill. The
reference's memory policy (``PMIndex/HBI.java:288-323``), which drops a
window's shallow levels from a token-frequency quantile, is not carried:
fold already shrinks a level that cannot prune to a few words.

The query side has no planner: a probe enters every window at its
shallowest stored level (see ``query_index.BloomProbe``). The
reference's query-time seed-level planners change only probe cost, never
the answer, and none paid on the measured query batch.
"""

from __future__ import annotations

import math


# ------------------------------------------------- HOPS bucket auto-design --
# Re-derivation of the reference's Chebyshev bucket design
# (``utilities/Utils.java:77-163``): pick the fewest HOPS buckets whose
# occupancy (distinct balls into B bins) is, with prob 1 - delta_sample,
# at least the DKW sample size needed for a rank-eps quantile guarantee.

def dkw_required_sample_size(eps: float, delta_q: float) -> int:
    """n >= ln(2/delta)/(2 eps^2)  (``Utils.requiredSampleSizeForDKW``)."""
    return int(math.ceil(math.log(2.0 / delta_q) / (2.0 * eps * eps)))


def dkw_rank_epsilon(n: int, delta: float) -> float:
    """Rank half-width for a size-n uniform sample (DKW inequality)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * max(n, 1)))


def occupancy_expectation(distinct: int, buckets: int) -> float:
    """E[#non-empty bins], distinct balls into ``buckets`` bins
    (``Utils.occupancyExpectation``)."""
    if buckets <= 0:
        return 0.0
    return buckets * (1.0 - (1.0 - 1.0 / buckets) ** distinct)


def occupancy_variance(distinct: int, buckets: int) -> float:
    """Var[#non-empty bins] including bin-bin covariance
    (``Utils.occupancyVariance``)."""
    if buckets <= 0:
        return 0.0
    t1 = (1.0 - 1.0 / buckets) ** distinct
    t2 = (1.0 - 2.0 / buckets) ** distinct
    q = 1.0 - t1
    var = (buckets * q * (1.0 - q)
           + buckets * (buckets - 1.0) * (1.0 - 2.0 * t1 + t2 - q * q))
    return max(0.0, var)


def occupancy_lower_bound_chebyshev(distinct: int, buckets: int,
                                    delta_sample: float) -> int:
    """One-sided Chebyshev lower bound on occupancy at prob 1-delta
    (``Utils.occupancyLowerBoundChebyshev``)."""
    mu = occupancy_expectation(distinct, buckets)
    var = occupancy_variance(distinct, buckets)
    return int(math.floor(max(0.0, mu - math.sqrt(
        var / max(1e-12, delta_sample)))))


def design_hops_buckets(distinct_estimate: int, eps_target: float,
                        delta_q: float = 0.05,
                        delta_sample: float = 0.05) -> dict:
    """Smallest bucket count whose Chebyshev-guaranteed occupancy meets the
    DKW sample size for ``eps_target`` rank error
    (``Utils.designBucketsForRankTargetChebyshev``). Returns a dict with
    ``buckets, required_sample, occupancy_lb, expected_nonempty, variance,
    feasible``; infeasible targets (too few distinct keys) fall back to
    2x distinct, matching the reference."""
    if distinct_estimate <= 0:
        raise ValueError("distinct_estimate must be > 0")
    for name, v in (("eps_target", eps_target), ("delta_q", delta_q),
                    ("delta_sample", delta_sample)):
        if not (0.0 < v < 1.0):
            raise ValueError(f"{name} must be in (0,1)")
    required = dkw_required_sample_size(eps_target, delta_q)

    def result(buckets: int, feasible: bool) -> dict:
        return {
            "buckets": buckets,
            "required_sample": required,
            "occupancy_lb": occupancy_lower_bound_chebyshev(
                distinct_estimate, buckets, delta_sample),
            "expected_nonempty": occupancy_expectation(distinct_estimate,
                                                       buckets),
            "variance": occupancy_variance(distinct_estimate, buckets),
            "feasible": feasible,
        }

    if distinct_estimate < required:
        return result(min(1 << 22, max(16, 2 * distinct_estimate)), False)
    cap = 1 << 24
    hi = 1
    while (occupancy_lower_bound_chebyshev(distinct_estimate, hi,
                                           delta_sample) < required
           and hi < cap):
        hi <<= 1
    if hi >= cap:
        return result(cap, False)
    lo, best = 1, hi
    while lo <= hi:
        mid = (lo + hi) // 2
        if occupancy_lower_bound_chebyshev(distinct_estimate, mid,
                                           delta_sample) >= required:
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return result(best, True)
