import math

import numpy as np
import pytest

from bplt import gibbs
from bplt.errors import SizeGuardError
from bplt.generators import random_k_uniform, random_multihypergraph
from bplt.gibbs import (
    ModelParams,
    glauber_marginals,
    glauber_sample,
    lower_tail_exact,
    mc_lower_tail,
    partition_function,
    summarize,
    verify_identities,
)
from bplt.hypergraph import Multihypergraph
from bplt.progressions import ap_hypergraph

from conftest import naive_log_z, naive_marginal

TRIPLE = Multihypergraph(3, [[0, 1, 2]])


class TestPartitionFunction:
    def test_single_free_vertex(self):
        g = Multihypergraph(1, [])
        lam = 0.7
        assert partition_function(g, ModelParams(lam, 1.0)) == pytest.approx(
            math.log(1 + lam), rel=1e-15
        )

    def test_unit_edge(self):
        g = Multihypergraph(1, [[0]])
        lam, zeta = 0.9, 0.4
        expected = math.log(1 + lam * (1 - zeta))
        assert partition_function(g, ModelParams(lam, zeta)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_triple_edge_hardcore(self):
        # the 7 proper subsets of {0,1,2} at lam = 1
        assert partition_function(TRIPLE, ModelParams(1.0, 1.0)) == pytest.approx(
            math.log(7), rel=1e-15
        )

    def test_against_naive_enumeration(self, rng):
        for _ in range(40):
            g = random_multihypergraph(rng, max_vertices=7, max_edges=6, allow_empty=True)
            lam = float(rng.uniform(0.05, 2.5))
            zeta = float(rng.uniform(0, 1))
            got = partition_function(g, ModelParams(lam, zeta))
            assert got == pytest.approx(naive_log_z(g, lam, zeta), rel=1e-12)

    def test_monotone_in_zeta_and_lambda(self):
        g = Multihypergraph(4, [[0, 1, 2], [1, 2, 3]])
        zs = [partition_function(g, ModelParams(1.0, z)) for z in np.linspace(0, 1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(zs, zs[1:]))
        ls = [partition_function(g, ModelParams(l, 0.6)) for l in np.linspace(0.1, 2, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(ls, ls[1:]))

    def test_size_guard(self):
        g = Multihypergraph(27, [])
        with pytest.raises(SizeGuardError):
            partition_function(g, ModelParams(1.0, 1.0))

    def test_size_guard_beyond_mask_width(self):
        # zeta = 1 lists the support in uint64 masks, so 65 vertices is refused
        g = Multihypergraph(65, [])
        with pytest.raises(SizeGuardError):
            partition_function(g, ModelParams(1.0, 1.0))
        with pytest.raises(SizeGuardError):
            summarize(g, ModelParams(1.0, 1.0))

    def test_multiplicative_over_disjoint_union(self, rng):
        for _ in range(15):
            g1 = random_multihypergraph(rng, max_vertices=5, max_edges=4)
            g2 = random_multihypergraph(rng, max_vertices=5, max_edges=4)
            shifted = [tuple(u + g1.num_vertices for u in e) for e in g2.edges]
            union = Multihypergraph(
                g1.num_vertices + g2.num_vertices, list(g1.edges) + shifted
            )
            params = ModelParams(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0, 1)))
            assert partition_function(union, params) == pytest.approx(
                partition_function(g1, params) + partition_function(g2, params),
                rel=1e-12,
            )

    def test_marginal_ignores_other_components(self, rng):
        g1 = Multihypergraph(4, [[0, 1, 2], [1, 3]])
        g2 = Multihypergraph(3, [[0, 1], [1, 2]])
        shifted = [tuple(u + 4 for u in e) for e in g2.edges]
        union = Multihypergraph(7, list(g1.edges) + shifted)
        params = ModelParams(0.9, 0.6)
        alone = summarize(g1, params).marginals
        joint = summarize(union, params).marginals[:4]
        assert np.allclose(alone, joint, atol=1e-13)


class TestSummarize:
    def test_single_vertex_marginal(self):
        s = summarize(Multihypergraph(1, []), ModelParams(1.0, 0.5))
        assert s.marginals[0] == pytest.approx(0.5, abs=1e-15)

    def test_triple_edge_marginals(self):
        s = summarize(TRIPLE, ModelParams(1.0, 1.0))
        assert np.allclose(s.marginals, 3 / 7, atol=1e-14)

    def test_zeta_zero_is_product_measure(self):
        g = Multihypergraph(5, [[0, 1, 2], [2, 3, 4]])
        lam = 1.7
        s = summarize(g, ModelParams(lam, 0.0))
        p = lam / (1 + lam)
        assert np.allclose(s.marginals, p, atol=1e-13)
        assert s.var_size == pytest.approx(5 * p * (1 - p), rel=1e-12)

    def test_marginals_against_naive(self, rng):
        for _ in range(25):
            g = random_multihypergraph(rng, max_vertices=6, max_edges=5)
            lam = float(rng.uniform(0.1, 2.0))
            zeta = float(rng.uniform(0, 1))
            s = summarize(g, ModelParams(lam, zeta))
            v = int(rng.integers(g.num_vertices))
            assert s.marginals[v] == pytest.approx(
                naive_marginal(g, lam, zeta, v), abs=1e-13
            )

    def test_stochastic_domination(self, rng):
        # marginals never exceed the product-measure density lam/(1+lam)
        for _ in range(40):
            g = random_multihypergraph(rng, max_vertices=7, max_edges=7)
            lam = float(rng.uniform(0.05, 3.0))
            zeta = float(rng.uniform(0, 1))
            s = summarize(g, ModelParams(lam, zeta))
            assert np.all(s.marginals <= lam / (1 + lam) + 1e-12)

    def test_log_derivative_identity(self):
        # d/dlam log Z = E|S|/lam, via central differences
        g = Multihypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 4]])
        lam, zeta = 0.8, 0.7
        h = 1e-6
        dlog = (
            partition_function(g, ModelParams(lam + h, zeta))
            - partition_function(g, ModelParams(lam - h, zeta))
        ) / (2 * h)
        s = summarize(g, ModelParams(lam, zeta))
        assert dlog == pytest.approx(s.mean_size / lam, rel=1e-6)

    def test_occupation_ratios(self):
        s = summarize(TRIPLE, ModelParams(1.0, 1.0))
        r = s.occupation_ratios()
        assert r[0] == pytest.approx((3 / 7) / (4 / 7), rel=1e-12)


class TestLowerTailExact:
    def test_threshold_at_edge_count(self):
        assert lower_tail_exact(TRIPLE, 0.3, 1) == 1.0

    def test_triple_edge_half(self):
        assert lower_tail_exact(TRIPLE, 0.5, 0) == pytest.approx(7 / 8, rel=1e-15)

    def test_hardcore_bridge_identity(self, rng):
        # P(X=0) = (1-p)^N Z(lam, 1) with lam = p/(1-p)
        for _ in range(30):
            g = random_multihypergraph(rng, max_vertices=8, max_edges=7)
            p = float(rng.uniform(0.05, 0.9))
            lhs = lower_tail_exact(g, p, 0)
            log_z = partition_function(g, ModelParams(p / (1 - p), 1.0))
            rhs = math.exp(g.num_vertices * math.log1p(-p) + log_z)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestIdentities:
    def test_small_instances(self, rng):
        for _ in range(30):
            g = random_multihypergraph(rng, max_vertices=6, max_edges=5, allow_empty=True)
            if g.num_edges == 0:
                continue
            lam = float(rng.uniform(0.1, 2.0))
            zeta = float(rng.uniform(0, 1))
            v = int(rng.integers(g.num_vertices))
            e = int(rng.integers(g.num_edges))
            res = verify_identities(g, ModelParams(lam, zeta), v, e)
            assert res.max() < 1e-12

    def test_zeta_zero_edge_identity_exact(self):
        g = Multihypergraph(3, [[0, 1], [1, 2]])
        res = verify_identities(g, ModelParams(1.3, 0.0), 0, 0)
        assert res.edge_deletion < 1e-15

    def test_isolated_vertex_occupied_split(self):
        g = Multihypergraph(3, [[1, 2]])
        res = verify_identities(g, ModelParams(0.9, 0.8), 0, 0)
        assert res.occupied_split < 1e-14


class TestSamplers:
    def test_glauber_product_measure(self):
        g = Multihypergraph(4, [[0, 1], [2, 3]])
        params = ModelParams(1.0, 0.0)
        marg = glauber_marginals(g, params, num_chains=40_000, sweeps=3, seed=5)
        sigma = math.sqrt(0.25 / 40_000)
        assert np.all(np.abs(marg - 0.5) < 4 * sigma)

    def test_glauber_hard_constraint(self):
        g = Multihypergraph(2, [[0, 1]])
        state = glauber_sample(g, ModelParams(50.0, 1.0), steps=500, seed=3)
        assert state != frozenset({0, 1})

    def test_glauber_deterministic(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        a = glauber_sample(g, ModelParams(1.0, 0.8), steps=60, seed=11)
        b = glauber_sample(g, ModelParams(1.0, 0.8), steps=60, seed=11)
        assert a == b

    def test_glauber_matches_exact(self, rng):
        g = Multihypergraph(5, [[0, 1, 2], [2, 3], [3, 4]])
        params = ModelParams(0.9, 0.7)
        exact = summarize(g, params).marginals
        chains = 60_000
        marg = glauber_marginals(g, params, num_chains=chains, sweeps=40, seed=2)
        sigma = np.sqrt(exact * (1 - exact) / chains)
        assert np.all(np.abs(marg - exact) < 3.5 * sigma)

    def test_mc_trivial_threshold(self):
        est, err = mc_lower_tail(TRIPLE, 0.5, 0.999999, samples=100, seed=0)
        # eta * E[X] < |E| here, so this is a real estimate; force the trivial case
        g = Multihypergraph(3, [])
        est, err = mc_lower_tail(g, 0.5, 0.0, samples=10, seed=0)
        assert est == 1.0 and err == 0.0

    def test_mc_matches_exact(self, rng):
        for _ in range(8):
            g = random_multihypergraph(rng, max_vertices=7, max_edges=6)
            if g.num_edges == 0:
                continue
            p = float(rng.uniform(0.2, 0.7))
            eta = float(rng.uniform(0, 0.9))
            mean_edges = sum(p ** len(e) for e in g.edges)
            exact = lower_tail_exact(g, p, int(eta * mean_edges))
            est, err = mc_lower_tail(g, p, eta, samples=40_000, seed=int(rng.integers(1 << 30)))
            sigma = max(math.sqrt(exact * (1 - exact) / 40_000), 1e-9)
            assert abs(est - exact) <= 4 * sigma

    def test_mc_small_p_tends_to_one(self):
        g = Multihypergraph(6, [[0, 1, 2], [3, 4, 5]])
        est, _ = mc_lower_tail(g, 0.01, 0.0, samples=2000, seed=1)
        assert est > 0.99


def _hardcore_instances(rng):
    yield Multihypergraph(0, [])
    yield Multihypergraph(9, [])
    yield Multihypergraph(4, [[0, 1], [0, 1], [1, 2, 3], [1, 2, 3]])
    yield Multihypergraph(5, [[2], [0, 3], [2], [1, 3, 4]])
    yield Multihypergraph(4, [[], [0, 1]])
    for _ in range(60):
        yield random_multihypergraph(rng, max_vertices=12, max_edges=12, allow_empty=True)
    yield ap_hypergraph(3, 20)
    yield random_k_uniform(rng, 20, 3, 40, allow_multi=True)


class TestSupportPath:
    """The zeta = 1 support path against the 2^N enumeration it bypasses."""

    def test_matches_enumeration(self, rng):
        for g in _hardcore_instances(rng):
            n = g.num_vertices
            params = ModelParams(float(rng.uniform(0.05, 3.0)), 1.0)
            p = float(rng.uniform(0.05, 0.95))
            states = gibbs._hardcore_support(g)
            support_log_z = gibbs._log_z_from_total(
                gibbs._support_total(states, n, params.p), n, params.lam
            )
            enum_log_z = gibbs._log_z_from_total(
                gibbs._scaled_total(g, params.lam, 1.0), n, params.lam
            )
            assert partition_function(g, params) == support_log_z
            if math.isinf(enum_log_z):
                assert support_log_z == enum_log_z
                with pytest.raises(ValueError):
                    summarize(g, params)
                with pytest.raises(ValueError):
                    gibbs._enumerated_summary(g, params)
            else:
                assert support_log_z == pytest.approx(enum_log_z, rel=1e-12, abs=1e-12)
                fast = summarize(g, params)
                slow = gibbs._enumerated_summary(g, params)
                assert fast.log_z == support_log_z
                assert slow.log_z == pytest.approx(fast.log_z, rel=1e-12, abs=1e-12)
                assert np.allclose(fast.marginals, slow.marginals, rtol=0, atol=1e-12)
                assert fast.mean_size == pytest.approx(slow.mean_size, rel=1e-12, abs=1e-12)
                assert fast.var_size == pytest.approx(slow.var_size, rel=1e-12, abs=1e-12)
                assert fast.mean_edges == slow.mean_edges == 0.0
                assert fast.var_edges == slow.var_edges == 0.0
            if g.num_edges:
                fast_tail = lower_tail_exact(g, p, 0)
                assert fast_tail == gibbs._support_total(states, n, p)
                assert fast_tail == pytest.approx(
                    gibbs._enumerated_lower_tail(g, p, 0), rel=1e-12, abs=1e-300
                )

    def test_support_is_edge_free_and_complete(self, rng):
        for _ in range(20):
            g = random_multihypergraph(rng, max_vertices=10, max_edges=8)
            masks = [sum(1 << u for u in e) for e in g.edges]
            want = [s for s in range(1 << g.num_vertices) if all(s & m != m for m in masks)]
            got = gibbs._hardcore_support(g).tolist()
            assert len(got) == len(set(got))
            assert sorted(got) == want

    def test_cap_falls_back_to_enumeration(self, monkeypatch):
        g = ap_hypergraph(3, 14)
        params = ModelParams(0.4, 1.0)
        want = partition_function(g, params)
        monkeypatch.setattr(gibbs, "_SUPPORT_CAP", 1 << 6)
        assert gibbs._hardcore_support(g) is None
        assert partition_function(g, params) == pytest.approx(want, rel=1e-12)

    def test_runs_above_vertex_guard(self):
        # 3-AP on [30]: N = 30 > EXACT_GUARD, but only 880,288 subsets carry weight
        n = 30
        g = ap_hypergraph(3, n)
        p = n**-0.5
        params = ModelParams(p / (1 - p), 1.0)
        log_z = partition_function(g, params)
        bridge = math.exp(n * math.log1p(-p) + log_z)
        assert lower_tail_exact(g, p, 0) == pytest.approx(bridge, rel=1e-12)
        s = summarize(g, params)
        assert s.log_z == log_z
        assert float(s.marginals.sum()) == pytest.approx(s.mean_size, rel=1e-12)
