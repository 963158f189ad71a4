"""Level-choice math (pruning level, memory policy, HOPS design) and
SketchAgg aggregate-adapter tests."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from hierarchical_bloom_filter_index_ray import HbiConfig
from hierarchical_bloom_filter_index_ray.pipelines import (build_index,
                                                           load_index,
                                                           membership_query)
from hierarchical_bloom_filter_index_ray.pipelines.planner import (
    memory_policy_level, pruning_level_bloom)
from hierarchical_bloom_filter_index_ray.sources import synth_sequences
from hierarchical_bloom_filter_index_ray.stages.aggregate import (
    CmsAgg, HllAgg, KllQuantileAgg, KmvDistinctAgg, TDigestQuantileAgg)
from hierarchical_bloom_filter_index_ray.state import sketch_from_bytes


class TestPruningMath:
    def test_level_monotone_in_prob(self):
        # frequent tokens make shallow levels uninformative -> seed deeper;
        # rare tokens discriminate at the root -> seed shallow
        levels = [pruning_level_bloom(128, 8, 0.95, p, 0.01)
                  for p in (0.5, 0.1, 0.01, 0.001, 1e-6)]
        assert levels == sorted(levels, reverse=True)
        assert 0 <= levels[-1] and levels[0] <= 8

    def test_conf_below_beta_goes_deepest(self):
        assert pruning_level_bloom(128, 8, 0.005, 0.1, 0.01) == 8


class TestMemoryPolicy:
    def test_policy_drops_shallow_levels_and_queries_still_exact(
            self, ray_session, tmp_path):
        cfg_pol = HbiConfig(seed=11, docs_per_window=64, fp=0.01, hll_p=12,
                            cms_eps=0.02, cms_delta=0.05,
                            policy_quantile=0.5, policy_conf=0.95)
        ds = synth_sequences(512, seed=3, n_sources=2, vocab=4)
        # tiny vocab -> every token very frequent -> shallow levels useless
        build_index(ds, cfg_pol, str(tmp_path / "pol"), batch_size=128)
        idx_pd = load_index(str(tmp_path / "pol")).to_pandas()
        import pickle
        trees = [pickle.loads(b) for b in idx_pd["bloom_tree"]]
        assert any(min(t) > 0 for t in trees)  # some shallow level dropped
        for t in trees:
            assert max(t) == cfg_pol.window_bits  # leaves always kept
        # queries remain exact
        idx = load_index(str(tmp_path / "pol"))
        rows = ds.take(3)
        queries = [(f"q{i}", [int(r["tokens"][0])])
                   for i, r in enumerate(rows)]
        res = membership_query(idx, ds, queries, cfg_pol).to_pandas()
        assert len(res) > 0

    def test_predictive_policy_predrops_and_queries_still_exact(
            self, ray_session, tmp_path):
        """PREDICTIVE (HBI.java:241-242,317-318): the previous window's Lp
        pre-drops the next window's shallow filters at BUILD time — dropped
        levels are never built; queries stay exact (probe enters at the
        shallowest surviving level)."""
        import pickle
        cfg_pred = HbiConfig(seed=11, docs_per_window=64, fp=0.01, hll_p=12,
                             cms_eps=0.02, cms_delta=0.05,
                             policy_quantile=0.5, policy_conf=0.95,
                             policy_mode="predictive")
        ds = synth_sequences(512, seed=3, n_sources=2, vocab=4)
        build_index(ds, cfg_pred, str(tmp_path / "pred"), batch_size=128)
        idx_pd = load_index(str(tmp_path / "pred")).to_pandas()
        trees = [pickle.loads(b) for b in idx_pd["bloom_tree"]]
        # windows after the first per (source, batch) chain were pre-dropped
        assert any(min(t) > 0 for t in trees)
        for t in trees:
            assert max(t) == cfg_pred.window_bits  # leaf always survives
        # results identical to an unpolicied index
        cfg_plain = HbiConfig(seed=11, docs_per_window=64, fp=0.01,
                              hll_p=12, cms_eps=0.02, cms_delta=0.05)
        build_index(ds, cfg_plain, str(tmp_path / "plain"), batch_size=128)
        rows = ds.take(3)
        queries = [(f"q{i}", [int(r["tokens"][0])])
                   for i, r in enumerate(rows)]
        res_pred = membership_query(load_index(str(tmp_path / "pred")), ds,
                                    queries, cfg_pred)
        res_plain = membership_query(load_index(str(tmp_path / "plain")),
                                     ds, queries, cfg_plain)
        assert res_plain.num_rows > 0
        assert res_pred.equals(res_plain)

    def test_memory_policy_level_bounds(self):
        freqs = np.full(100, 50.0)
        lp = memory_policy_level(freqs, 1000, quantile=0.5, conf=0.95,
                                 fp=0.01, max_depth=8)
        assert 0 <= lp <= 8
        # very frequent tokens -> deeper lp than very rare ones
        lp_rare = memory_policy_level(np.full(100, 0.001), 10**6,
                                      quantile=0.5, conf=0.95, fp=0.01,
                                      max_depth=8)
        assert lp >= lp_rare


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
