"""SketchAgg aggregate-adapter tests and the HOPS bucket design
(Chebyshev occupancy + DKW sizing) that ``HbiConfig`` derives its
bucket count from."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from hierarchical_bloom_filter_index_ray.stages.aggregate import (
    CmsAgg, HllAgg, KllQuantileAgg, KmvDistinctAgg, TDigestQuantileAgg)
from hierarchical_bloom_filter_index_ray.state import sketch_from_bytes


class TestSketchAgg:
    def test_groupby_aggregate_sketches(self, ray_session):
        rng = np.random.default_rng(5)
        rows = []
        for g in ("a", "b"):
            hi = 200 if g == "a" else 1000
            for i in range(50):
                rows.append({"grp": g,
                             "tokens": rng.integers(0, hi, 30).tolist(),
                             "n_tok": 30 + i})
        tbl = pa.table({
            "grp": pa.array([r["grp"] for r in rows]),
            "tokens": pa.array([r["tokens"] for r in rows],
                               pa.list_(pa.int32())),
            "n_tok": pa.array([r["n_tok"] for r in rows], pa.int32()),
        })
        ds = rd.from_arrow(tbl)
        out = ds.groupby("grp").aggregate(
            HllAgg(7, p=12), KmvDistinctAgg(7),
            KllQuantileAgg(7, on="n_tok", q=0.5),
            TDigestQuantileAgg(on="n_tok", q=0.5),
            CmsAgg(7)).to_pandas().set_index("grp")
        import pandas as pd
        df = pd.DataFrame(rows)
        for g in ("a", "b"):
            true = len({t for toks in df[df.grp == g]["tokens"]
                        for t in toks})
            assert abs(out.loc[g, "hll_distinct"] - true) / true < 0.1
            assert abs(out.loc[g, "kmv_distinct"] - true) / true < 0.05
            med = float(np.median(df[df.grp == g]["n_tok"]))
            assert abs(out.loc[g, "kll_q0.5"] - med) <= 2
            assert abs(out.loc[g, "tdigest_q0.5"] - med) <= 2
        cms = sketch_from_bytes(out.loc["a", "cms"])
        toks_a = np.concatenate(
            [np.asarray(t) for t in df[df.grp == "a"]["tokens"]])
        uk, counts = np.unique(toks_a, return_counts=True)
        est = cms.estimate(uk.astype(np.uint64))
        assert (est >= counts).all()


class TestHopsDesign:
    """Chebyshev bucket auto-design + DKW sizing (reference
    Utils.java:77-163; acceptance mirrors
    SamplingSketchExperiment.java:869-907)."""

    def test_design_meets_dkw_requirement(self):
        from hierarchical_bloom_filter_index_ray.pipelines.planner import (
            design_hops_buckets, dkw_required_sample_size)
        d = design_hops_buckets(200_000, eps_target=0.05, delta_q=0.05,
                                delta_sample=0.05)
        assert d["feasible"]
        assert d["occupancy_lb"] >= dkw_required_sample_size(0.05, 0.05)
        # minimality: half the buckets must miss the requirement
        from hierarchical_bloom_filter_index_ray.pipelines.planner import \
            occupancy_lower_bound_chebyshev
        assert occupancy_lower_bound_chebyshev(
            200_000, d["buckets"] - 1, 0.05) < d["required_sample"]

    def test_infeasible_falls_back_to_2x_distinct(self):
        from hierarchical_bloom_filter_index_ray.pipelines.planner import \
            design_hops_buckets
        d = design_hops_buckets(50, eps_target=0.05)
        assert not d["feasible"]
        assert d["buckets"] == 100

    def test_occupancy_and_dkw_band_on_real_sampler(self):
        """Run HOPS with designed buckets over a zipf stream: observed
        occupancy >= Chebyshev LB, and the quantile-of-frequency estimate
        falls in the DKW value band (the reference's occLBMet +
        mpqInDKWValueBand checks)."""
        import numpy as np
        from hierarchical_bloom_filter_index_ray.pipelines.planner import (
            design_hops_buckets, dkw_rank_epsilon)
        from hierarchical_bloom_filter_index_ray.state import HOPS

        rng = np.random.default_rng(99)
        sigma = 60_000
        ranks = np.arange(1, sigma + 1, dtype=np.float64)
        p = ranks ** -1.1
        p /= p.sum()
        stream = rng.choice(sigma, size=400_000, p=p).astype(np.uint64)
        distinct = len(np.unique(stream))
        eps = 0.08
        d = design_hops_buckets(distinct, eps_target=eps, delta_q=0.05,
                                delta_sample=0.05)
        assert d["feasible"]
        h = HOPS(d["buckets"], seed=4242)
        h.update(stream)
        nb = len(h.sample_keys())
        assert nb >= d["occupancy_lb"]
        # DKW value band at the realized sample size
        uk, freq = np.unique(stream, return_counts=True)
        lookup = dict(zip(uk.tolist(), freq.tolist()))
        truth = np.sort(freq)
        for q in (0.25, 0.5, 0.9):
            est = h.quantile_of_freq(
                q, lambda ks: np.array([lookup.get(int(k), 0) for k in ks]))
            e = dkw_rank_epsilon(nb, 0.05)
            lo = truth[max(0, int(np.ceil(max(0.0, q - e) * len(truth))) - 1)]
            hi = truth[min(len(truth) - 1,
                           int(np.ceil(min(1.0, q + e) * len(truth))) - 1)]
            assert lo <= est <= hi
