import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplt import gibbs, hypergraph
from bplt.errors import SizeGuardError
from bplt.generators import random_k_uniform, random_multihypergraph
from bplt.gibbs import (
    ModelParams,
    glauber_marginals,
    lower_tail_exact,
    mc_lower_tail,
    partition_function,
    summarize,
    verify_identities,
)
from bplt.hypergraph import Multihypergraph
from bplt.progressions import ap_hypergraph

from conftest import (
    loop_heat_bath,
    loop_mc_lower_tail,
    loop_tables,
    naive_log_z,
    naive_lower_tail,
    naive_marginal,
)

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
        message = r"^exact enumeration guarded at 26 vertices \(got 27\)$"
        with pytest.raises(SizeGuardError, match=message):
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

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: float(rng.uniform(0.0, 4.0)),  # fractional
            lambda rng: int(rng.integers(1, 5)),  # integer, at least 1
            lambda rng: -float(rng.uniform(0.0, 3.0)),  # negative
        ],
        ids=["fractional", "integer", "negative"],
    )
    def test_against_naive(self, rng, draw):
        for _ in range(25):
            g = random_multihypergraph(rng, max_vertices=8, max_edges=8, allow_empty=True)
            p = float(rng.uniform(0.05, 0.95))
            t = draw(rng)
            assert lower_tail_exact(g, p, t) == pytest.approx(
                naive_lower_tail(g, p, t), rel=1e-12, abs=1e-15
            )

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            lower_tail_exact(Multihypergraph(3, [[0, 1, 2]]), 0.5, math.nan)

    @pytest.mark.parametrize("n,threshold", [(30, -1), (22, -0.5)])
    def test_negative_threshold_lists_nothing(self, n, threshold):
        # X <= threshold < 0 cannot happen: 0.0 at any size, past the guard
        # too, without a listing
        g = ap_hypergraph(3, n)
        with mock.patch.object(gibbs, "_tables", side_effect=AssertionError("listed")):
            assert lower_tail_exact(g, 0.1, threshold) == 0.0


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

    def test_vertex_that_cannot_be_occupied(self):
        # the singleton edge {0} forbids v = 0 at zeta = 1: no conditional measure
        g = Multihypergraph(3, [[0], [0, 1], [1, 2]])
        res = verify_identities(g, ModelParams(0.8, 1.0), 0, 1)
        assert res.conditional == 0.0
        assert res.occupied_split == 0.0
        assert not any(math.isnan(r) for r in vars(res).values())
        assert res.max() < 1e-12

    def test_vanishing_partition_function(self):
        # two empty edges at zeta = 1: Z(G) = 0 and Z(G - e) = 0
        g = Multihypergraph(2, [[], []])
        res = verify_identities(g, ModelParams(0.7, 1.0), 0, 0)
        assert res.edge_deletion == 0.0
        assert res.max() == 0.0

    def test_max_keeps_nan(self):
        res = gibbs.IdentityResiduals(0.0, math.nan, 1e-3, 0.0)
        assert math.isnan(res.max())

    def test_isolated_vertex_occupied_split(self):
        g = Multihypergraph(3, [[1, 2]])
        res = verify_identities(g, ModelParams(0.9, 0.8), 0, 0)
        assert res.occupied_split < 1e-14


class TestEntryRefusals:
    """Each oracle refuses an out-of-range input before any listing or draw."""

    @pytest.mark.parametrize("zeta", [-0.1, 1.5, math.nan])
    def test_zeta_range(self, zeta):
        with pytest.raises(ValueError, match=r"^zeta must lie in \[0, 1\]$"):
            ModelParams(1.0, zeta)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, math.nan])
    def test_lower_tail_exact_p(self, p):
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\)$"):
            lower_tail_exact(TRIPLE, p, 0)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_verify_identities_vertex(self, v):
        with pytest.raises(ValueError, match="^vertex out of range$"):
            verify_identities(TRIPLE, ModelParams(1.0, 0.5), v, 0)

    @pytest.mark.parametrize("edge_id", [-1, 1])
    def test_verify_identities_edge(self, edge_id):
        with pytest.raises(ValueError, match="^edge id out of range$"):
            verify_identities(TRIPLE, ModelParams(1.0, 0.5), 0, edge_id)

    @pytest.mark.parametrize(
        "p,eta,samples,message",
        [
            (0.0, 0.5, 10, r"p must lie in \(0, 1\)"),
            (1.0, 0.5, 10, r"p must lie in \(0, 1\)"),
            (0.5, -0.1, 10, r"eta must lie in \[0, 1\)"),
            (0.5, 1.0, 10, r"eta must lie in \[0, 1\)"),
            (0.5, 0.5, 0, "samples must be >= 1"),
        ],
    )
    def test_mc_lower_tail(self, p, eta, samples, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc_lower_tail(TRIPLE, p, eta, samples, 0)


class TestSamplers:
    def test_glauber_product_measure(self):
        g = Multihypergraph(4, [[0, 1], [2, 3]])
        params = ModelParams(1.0, 0.0)
        marg = glauber_marginals(g, params, num_chains=40_000, sweeps=3, seed=5)
        sigma = math.sqrt(0.25 / 40_000)
        assert np.all(np.abs(marg - 0.5) < 4 * sigma)

    def test_glauber_hard_constraint(self):
        g = Multihypergraph(2, [[0, 1]])
        chains = gibbs._heat_bath(g, ModelParams(50.0, 1.0), 1, 500, 3)
        assert not chains.all(axis=1).any()

    def test_glauber_deterministic(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        a = glauber_marginals(g, ModelParams(1.0, 0.8), num_chains=1, sweeps=20, seed=11)
        b = glauber_marginals(g, ModelParams(1.0, 0.8), num_chains=1, sweeps=20, seed=11)
        assert np.array_equal(a, b)

    def test_glauber_one_chain_is_the_sample(self):
        # one replica of glauber_marginals is one _heat_bath chain
        g = Multihypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [1, 4], [5], [2, 3]])
        params = ModelParams(1.3, 0.6)
        for sweeps, seed in [(1, 0), (3, 7), (10, 42)]:
            marg = glauber_marginals(g, params, num_chains=1, sweeps=sweeps, seed=seed)
            state = gibbs._heat_bath(g, params, 1, sweeps * 6, seed)[0]
            assert marg.tolist() == state.astype(float).tolist()

    @pytest.mark.parametrize("num_chains, sweeps, name", [(0, 3, "num_chains"), (2, 0, "sweeps")])
    def test_glauber_needs_a_chain_and_a_sweep(self, num_chains, sweeps, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            glauber_marginals(TRIPLE, ModelParams(1.0, 0.5), num_chains, sweeps, seed=0)

    def test_glauber_matches_exact(self, rng):
        g = Multihypergraph(5, [[0, 1, 2], [2, 3], [3, 4]])
        params = ModelParams(0.9, 0.7)
        exact = summarize(g, params).marginals
        chains = 60_000
        marg = glauber_marginals(g, params, num_chains=chains, sweeps=40, seed=2)
        sigma = np.sqrt(exact * (1 - exact) / chains)
        assert np.all(np.abs(marg - exact) < 3.5 * sigma)

    def test_heat_bath_matches_edge_loop(self, rng):
        # the inputs of the sampler tests above (chains, steps, seed), then
        # random multihypergraphs with empty, unit and repeated edges
        path = Multihypergraph(5, [[0, 1, 2], [2, 3], [3, 4]])
        mixed = Multihypergraph(6, [[0, 1, 2], [2, 3], [3, 4, 5], [1, 4], [5], [2, 3]])
        cases = [
            (Multihypergraph(4, [[0, 1], [2, 3]]), ModelParams(1.0, 0.0), 40_000, 12, 5),
            (Multihypergraph(2, [[0, 1]]), ModelParams(50.0, 1.0), 1, 500, 3),
            (TRIPLE, ModelParams(1.0, 0.8), 1, 60, 11),
            (path, ModelParams(0.9, 0.7), 60_000, 200, 2),
            *((mixed, ModelParams(1.3, 0.6), 1, 6 * sweeps, seed)
              for sweeps, seed in [(1, 0), (3, 7), (10, 42)]),
        ]
        for i in range(20):
            g = random_multihypergraph(
                rng, max_vertices=7, max_edges=8, max_edge_size=4, allow_empty=True
            )
            params = ModelParams(float(rng.uniform(0.2, 3.0)), (0.0, 0.5, 1.0)[i % 3])
            cases.append((g, params, 50, 5 * g.num_vertices, i))
        for g, params, chains, steps, seed in cases:
            got = gibbs._heat_bath(g, params, chains, steps, seed)
            assert np.array_equal(got, loop_heat_bath(g, params, chains, steps, seed))

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

    def test_mc_matches_edge_loop(self, rng):
        # hundreds of edges, empty and repeated ones among them, so that the
        # gather's batches (at most 2^22 booleans) split the samples where
        # the reference's (2^22 draws) do not
        cases = [(ap_hypergraph(3, 60), 0.5 / math.sqrt(60), 0.0, 5000)]
        for _ in range(6):
            n = int(rng.integers(8, 31))
            edges = [
                rng.choice(n, int(rng.integers(1, 5)), replace=False).tolist()
                for _ in range(int(rng.integers(100, 250)))
            ]
            edges += [[], []] + edges[:20]
            p = float(rng.uniform(0.05, 0.3))
            cases += [(Multihypergraph(n, edges), p, float(rng.uniform(0.3, 0.9)), s)
                      for s in (1, 12_345)]
        for g, p, eta, samples in cases:
            est, err = mc_lower_tail(g, p, eta, samples, seed=7)
            assert (est, err) == loop_mc_lower_tail(g, p, eta, samples, seed=7)
            assert samples == 1 or 0 < est < 1  # a count that can go wrong

    def test_edge_table_flattened_once(self, monkeypatch):
        # degrees and both samplers read the table the first call built
        g = Multihypergraph(5, [[0, 1, 2], [2, 3], [3, 4], [], [4], [2, 3]])
        hypergraph._edge_rows(g)

        def refused(*args, **kwargs):
            raise AssertionError("edges flattened a second time")

        monkeypatch.setattr(hypergraph.np, "fromiter", refused)
        assert g.degrees() == [1, 1, 3, 3, 2]
        glauber_marginals(g, ModelParams(1.0, 0.5), 10, 2, seed=0)
        mc_lower_tail(g, 0.5, 0.5, 100, seed=0)

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
    """The zeta = 1 support listing against the 2^N listing it bypasses."""

    def test_matches_enumeration(self, rng, monkeypatch):
        for g in _hardcore_instances(rng):
            params = ModelParams(float(rng.uniform(0.05, 3.0)), 1.0)
            p = float(rng.uniform(0.05, 0.95))
            support, _ = gibbs._tables(g.num_vertices, *gibbs._listing(g, True))
            full, _ = gibbs._tables(g.num_vertices, *gibbs._listing(g, False))
            assert support.shape == (g.num_vertices + 1, 1)
            assert np.array_equal(support[:, 0], full[:, 0])

            fast = _oracle_outputs(g, params, p)
            with monkeypatch.context() as m:
                m.setattr(gibbs, "_hardcore_support", lambda graph: None)
                slow = _oracle_outputs(g, params, p)
            assert fast.keys() == slow.keys()
            for key in fast:
                assert np.array_equal(fast[key], slow[key]), key
            if "summary" not in fast:
                assert fast["log_z"] == -math.inf
            else:
                assert fast["log_z"] == fast["summary"][0]
                assert fast["summary"][3:] == (0.0, 0.0)  # no edge is ever occupied

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
        assert partition_function(g, params) == want

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


def _oracle_outputs(g, params, p):
    """Every public oracle output at zeta = 1 and P(X = 0), keyed by name."""
    out = {"log_z": partition_function(g, params)}
    if out["log_z"] > -math.inf:
        s = summarize(g, params)
        out["summary"] = (s.log_z, s.mean_size, s.var_size, s.mean_edges, s.var_edges)
        out["marginals"] = s.marginals
    else:
        with pytest.raises(ValueError):
            summarize(g, params)
    if g.num_edges:
        out["p_zero"] = lower_tail_exact(g, p, 0)
    return out


def _assert_tables_match(graph, edge_free=False, require=(), forbid=()):
    """``_tables`` equals the per-mask loop, as integers, on one listing."""
    n = graph.num_vertices
    listing = gibbs._listing(graph, edge_free, require, forbid)
    for by_vertex in (False, True):
        got = gibbs._tables(n, *listing, by_vertex=by_vertex)
        want = loop_tables(n, *listing, by_vertex=by_vertex)
        assert np.array_equal(got[0], want[0])
        if by_vertex:
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] is None


@st.composite
def _restricted_graphs(draw, max_vertices=9, max_edges=8):
    """A multihypergraph with empty, unit and repeated edges, plus disjoint
    vertex sets to require and to forbid."""
    n = draw(st.integers(0, max_vertices))
    vertex_sets = st.sets(st.integers(0, n - 1), max_size=min(n, 4)) if n else st.just(set())
    edges = draw(st.lists(vertex_sets, max_size=max_edges))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    require = draw(vertex_sets)
    forbid = draw(vertex_sets) - require
    return Multihypergraph(n, edges), sorted(require), sorted(forbid)


class TestSubsetSumKernel:
    """The transform-based 2^N count against the per-mask loop it replaced."""

    def test_hardcore_instances(self, rng):
        for g in _hardcore_instances(rng):
            _assert_tables_match(g)
            _assert_tables_match(g, edge_free=True)

    @pytest.mark.parametrize("graph", [
        Multihypergraph(0, []),
        Multihypergraph(0, [[], []]),
        Multihypergraph(1, []),
        Multihypergraph(1, [[0], [0], []]),
        Multihypergraph(2, []),
        Multihypergraph(2, [[0, 1], [0, 1], [1], []]),
        Multihypergraph(5, [[], [2], [2], [0, 3], [0, 3], [1, 3, 4], [0, 1, 2, 3, 4]]),
    ], ids=repr)
    def test_empty_unit_and_repeated_edges(self, graph):
        _assert_tables_match(graph)

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 3])
    def test_blocks_with_high_bits(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(gibbs, "_CHUNK", chunk)
        for _ in range(30):
            g = random_multihypergraph(rng, max_vertices=9, max_edges=10, allow_empty=True)
            _assert_tables_match(g)
            _assert_tables_match(g, require=(0,), forbid=(g.num_vertices - 1,))

    @pytest.mark.parametrize("chunk", [1 << 3, 1 << 16])
    def test_identity_restrictions(self, rng, monkeypatch, chunk):
        # the listings of verify_identities: subsets holding v, subsets
        # avoiding v, and supersets of e in the graph without e
        monkeypatch.setattr(gibbs, "_CHUNK", chunk)
        for _ in range(25):
            g = random_multihypergraph(rng, max_vertices=9, max_edges=8, allow_empty=True)
            for v in range(g.num_vertices):
                _assert_tables_match(g, require=(v,))
                _assert_tables_match(g, forbid=(v,))
            for e in set(g.edges):
                _assert_tables_match(g.remove_edges([e]), require=e)

    @settings(max_examples=150, deadline=None)
    @given(_restricted_graphs(), st.integers(0, 5))
    def test_matches_loop(self, case, chunk_bits):
        g, require, forbid = case
        with mock.patch.object(gibbs, "_CHUNK", 1 << chunk_bits):
            _assert_tables_match(g, require=require, forbid=forbid)
