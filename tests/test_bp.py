import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from bplt.bp import (
    BPParams,
    bethe_free_energy,
    bp_apply,
    bp_fixed_point,
    bp_log_partition,
    bp_lower_tail_rate,
    contraction_margin,
    lambert_w0,
    regular_fixed_point,
    solve_zeta,
    solve_zeta_regular,
    thresholds,
)
from bplt.errors import ConvergenceError, DomainError
from bplt.generators import random_k_uniform
from bplt.gibbs import ModelParams, partition_function
from bplt.hypergraph import Multihypergraph
from bplt.progressions import KapParams, kap_fixed_point, kap_rate, phi_fixed_point
from bplt.rates import named_graph, subgraph_hypergraph

E = math.e
OMEGA = 0.567143290409783873  # W(1), frozen from a 40-digit Newton solve


class TestLambertW:
    def test_anchors(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(E) == pytest.approx(1.0, abs=1e-15)
        assert lambert_w0(-1 / E) == pytest.approx(-1.0, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(OMEGA, abs=1e-16)

    def test_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1 / E + 1e-12, max_value=1e12))
    def test_defining_residual(self, y):
        w = lambert_w0(y)
        assert w * math.exp(w) == pytest.approx(y, rel=1e-14, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_matches_scipy(self, y):
        assert lambert_w0(y) == pytest.approx(
            scipy.special.lambertw(y).real, rel=1e-13, abs=1e-13
        )


class TestRegularFixedPoint:
    def test_k2_hardcore(self):
        assert regular_fixed_point(2, 1.0, 1.0) == pytest.approx(OMEGA, abs=1e-15)

    def test_zeta_to_zero_limit(self):
        assert regular_fixed_point(3, 1.4, 1e-12) == pytest.approx(1.4, rel=1e-9)
        assert regular_fixed_point(3, 1.4, 0.0) == 1.4

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6),
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_defining_equation(self, k, c, zeta):
        x = regular_fixed_point(k, c, zeta)
        assert x == pytest.approx(c * math.exp(-zeta * x ** (k - 1)), rel=1e-12)
        assert 0 < x <= c


class TestThresholds:
    def test_k3_eta0(self):
        t = thresholds(3, 0.0)
        assert t.c_max_regular == pytest.approx((E / 2) ** 0.5, rel=1e-15)
        assert t.c_max_general == t.c_max_regular

    def test_large_eta_unbounded(self):
        assert thresholds(3, math.exp(-1.5)) .c_max_regular == math.inf
        assert thresholds(3, 0.9).c_max_regular == math.inf

    def test_eta_crit_value(self):
        assert thresholds(3, 0.0).eta_crit == pytest.approx(math.exp(-1.5), rel=1e-15)

    def test_general_below_regular(self):
        for eta in np.linspace(0.01, 0.2, 8):
            t = thresholds(3, float(eta))
            assert t.c_max_general < t.c_max_regular


class TestApply:
    def test_constant_on_regular(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        delta = max(g.degrees())
        params = BPParams(3, 0.8, 0.9, delta)
        out = bp_apply(g, params, np.full(g.num_vertices, 0.8))
        assert np.allclose(out, 0.8 * math.exp(-0.9 * 0.8**2), atol=1e-14)

    def test_edgeless(self):
        g = Multihypergraph(4, [])
        out = bp_apply(g, BPParams(3, 1.1, 1.0, 1), np.full(4, 0.3))
        assert np.allclose(out, 1.1)

    def test_output_bounds(self, rng):
        for _ in range(20):
            g = random_k_uniform(rng, 8, 3, 6)
            delta = max(max(g.degrees()), 1)
            c, zeta = float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.1, 1.0))
            params = BPParams(3, c, zeta, delta)
            x = rng.uniform(1e-6, c, size=8)
            out = bp_apply(g, params, x)
            degs = np.array(g.degrees())
            lower = c * np.exp(-zeta * c**2 * degs / delta)
            assert np.all(out <= c + 1e-15)
            assert np.all(out >= lower - 1e-12)

    def test_nonuniform_rejected(self):
        g = Multihypergraph(3, [[0, 1], [0, 1, 2]])
        with pytest.raises(ValueError):
            bp_apply(g, BPParams(3, 1.0, 1.0, 1), np.ones(3))


class TestFixedPoint:
    def test_regular_instances_match_closed_form(self):
        cases = [
            subgraph_hypergraph(named_graph("K3"), n) for n in (5, 6, 7, 8)
        ]
        cases.append(Multihypergraph(3, [[0, 1, 2]]))  # 1-regular
        cases.append(Multihypergraph(6, [[i, (i + 1) % 6] for i in range(6)]))
        for g in cases:
            k = g.uniformity()
            delta = max(g.degrees())
            params = BPParams(k, 0.9, 1.0, delta)
            x = bp_fixed_point(g, params, tol=1e-13)
            want = regular_fixed_point(k, 0.9, 1.0)
            assert np.max(np.abs(x - want)) < 1e-8

    def test_edgeless(self):
        g = Multihypergraph(5, [])
        x = bp_fixed_point(g, BPParams(3, 0.7, 1.0, 1))
        assert np.allclose(x, 0.7)

    def test_condition_refused(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        with pytest.raises(DomainError):
            bp_fixed_point(g, BPParams(3, 2.0, 1.0, 1))

    def test_residual_after_solve(self, rng):
        g = random_k_uniform(rng, 10, 3, 12)
        delta = max(g.degrees())
        params = BPParams(3, 0.9, 0.8, delta)
        x = bp_fixed_point(g, params, tol=1e-12)
        y = bp_apply(g, params, x)
        assert np.max(np.abs(np.log(y) - np.log(x))) < 1e-12
        z = bp_apply(g, params, y)
        assert np.max(np.abs(np.log(z) - np.log(y))) < 2e-12

    def test_fixed_point_range(self, rng):
        # entries stay in (0, c] with the uniform lower bound c e^{-zeta c^(k-1)}
        for _ in range(10):
            g = random_k_uniform(rng, 9, 3, int(rng.integers(1, 12)))
            c = float(rng.uniform(0.3, 1.1))
            zeta = float(rng.uniform(0.1, 1.0))
            params = BPParams(3, c, zeta, max(max(g.degrees()), 1))
            x = bp_fixed_point(g, params, tol=1e-12)
            assert np.all(x <= c + 1e-14)
            assert np.all(x >= c * math.exp(-zeta * c**2) - 1e-10)

    def test_max_iter_reported(self):
        # every solver built on the shared iteration reports the same failure
        g = subgraph_hypergraph(named_graph("K3"), 6)
        params = BPParams(3, 0.9, 1.0, max(g.degrees()))
        solvers = [
            lambda: bp_fixed_point(g, params, max_iter=2),
            lambda: solve_zeta(g, 3, 0.9, 0.3, max_iter=2),
            lambda: bp_log_partition(g, params, method="integral", max_iter=2),
            lambda: phi_fixed_point(3, 0.9, grid_size=60, max_iter=2),
            lambda: kap_fixed_point(KapParams(3, 0.9, 1.0, grid_size=60), max_iter=2),
            lambda: kap_rate(3, 0.9, quad_nodes=4, grid_size=60, max_iter=2),
        ]
        for solve in solvers:
            with pytest.raises(ConvergenceError) as err:
                solve()
            assert err.value.residual is not None
            assert err.value.iterations == 2

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_underflow_fails_fast(self):
        # vertex 0 lies in 1500 edges and delta=1, so its message underflows to 0
        g = Multihypergraph(3001, [(0, 2 * i + 1, 2 * i + 2) for i in range(1500)])
        with pytest.raises(ConvergenceError, match="underflow") as err:
            bp_fixed_point(g, BPParams(3, 1.0, 1.0, 1), max_iter=5000)
        assert not math.isfinite(err.value.residual)
        assert err.value.iterations < 10


class TestContraction:
    def test_square_iterate_contracts(self, rng):
        # empirical log-sup contraction factor of the double step
        for _ in range(60):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 12))
            g = random_k_uniform(rng, n, k, int(rng.integers(1, 10)))
            delta = max(max(g.degrees()), 1)
            c = float(rng.uniform(0.1, 1.3))
            zeta_max = min(1.0, 0.95 * E / ((k - 1) * c ** (k - 1)))
            zeta = float(rng.uniform(0.05, zeta_max))
            params = BPParams(k, c, zeta, delta)
            margin = contraction_margin(k, c, zeta)
            x = rng.uniform(1e-3, c, size=n)
            y = rng.uniform(1e-3, c, size=n)
            fx = bp_apply(g, params, bp_apply(g, params, x))
            fy = bp_apply(g, params, bp_apply(g, params, y))
            lhs = np.max(np.abs(np.log(fx) - np.log(fy)))
            rhs = (1 - margin) * np.max(np.abs(np.log(x) - np.log(y)))
            assert lhs <= rhs + 1e-12


class TestBethe:
    def test_edgeless_constant(self):
        g = Multihypergraph(4, [])
        params = BPParams(3, 0.6, 1.0, 1)
        assert bethe_free_energy(g, params, np.full(4, 0.6)) == pytest.approx(
            4 * 0.6, rel=1e-14
        )

    def test_regular_identity(self):
        # at the constant fixed point, B/N = x + zeta (1 - 1/k) x^k
        g = subgraph_hypergraph(named_graph("K3"), 7)
        delta = max(g.degrees())
        for zeta in (1.0, 0.6):
            params = BPParams(3, 0.9, zeta, delta)
            x = bp_fixed_point(g, params, tol=1e-14)
            got = bethe_free_energy(g, params, x) / g.num_vertices
            xs = regular_fixed_point(3, 0.9, zeta)
            assert got == pytest.approx(xs + zeta * (2 / 3) * xs**3, abs=1e-10)

    def test_derivative_identity(self):
        # d/dc B(c, x*(c)) = sum_v x*_v / c by central differences
        g = Multihypergraph(6, [[0, 1, 2], [2, 3, 4], [3, 4, 5]])
        delta = max(g.degrees())
        c, zeta, h = 0.8, 0.9, 1e-5

        def b_at(cc):
            params = BPParams(3, cc, zeta, delta)
            x = bp_fixed_point(g, params, tol=1e-14)
            return bethe_free_energy(g, params, x), x

        up, _ = b_at(c + h)
        dn, _ = b_at(c - h)
        mid, x = b_at(c)
        assert (up - dn) / (2 * h) == pytest.approx(float(x.sum()) / c, rel=1e-6)


class TestZetaSolvers:
    def test_scalar_endpoints(self):
        assert solve_zeta_regular(3, 0.8, 0.0)[0] == 1.0
        assert solve_zeta_regular(3, 0.8, 1.0)[0] == 0.0

    def test_scalar_residual(self):
        for k, c, eta in [(2, 0.9, 0.2), (3, 0.8, 0.3), (4, 0.7, 0.05), (3, 1.1, 0.4)]:
            zeta, ok = solve_zeta_regular(k, c, eta)
            x = regular_fixed_point(k, c, zeta)
            assert abs((1 - zeta) * x**k - eta * c**k) < 1e-10
            if c < thresholds(k, eta).c_max_regular:
                assert ok

    def test_zeta_c_product_increasing(self):
        # zeta c^(k-1) grows with c at fixed eta
        k, eta = 3, 0.1
        cs = np.linspace(0.2, 2.5, 50)
        vals = [solve_zeta_regular(k, float(c), eta)[0] * c ** (k - 1) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_vector_trivial_eta(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        zeta, x = solve_zeta(g, 3, 0.8, 0.0)
        assert zeta == 1.0
        assert np.max(np.abs(x - regular_fixed_point(3, 0.8, 1.0))) < 1e-9

    def test_vector_matches_scalar_on_regular(self):
        g = subgraph_hypergraph(named_graph("K3"), 7)
        zeta_v, x = solve_zeta(g, 3, 0.8, 0.3, tol=1e-11)
        zeta_s, _ = solve_zeta_regular(3, 0.8, 0.3)
        assert abs(zeta_v - zeta_s) < 1e-8
        target = 0.3 * 0.8**3 * g.num_edges
        got = (1 - zeta_v) * float(x[np.array(g.edges)].prod(axis=1).sum())
        assert abs(got - target) < 1e-8 * 0.8**3 * g.num_edges

    def test_zeta_decreases_with_eta(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        zetas = [solve_zeta(g, 3, 0.7, float(eta))[0] for eta in (0.1, 0.3, 0.5, 0.7)]
        assert all(a > b for a, b in zip(zetas, zetas[1:]))

    def test_domain_check(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        with pytest.raises(DomainError):
            solve_zeta(g, 3, 5.0, 0.1)


class TestLogPartition:
    def test_bethe_vs_integral(self, rng):
        for _ in range(5):
            g = random_k_uniform(rng, 9, 3, 10)
            delta = max(max(g.degrees()), 1)
            params = BPParams(3, 0.8, 0.9, delta)
            a = bp_log_partition(g, params, method="bethe")
            b = bp_log_partition(g, params, method="integral")
            assert b == pytest.approx(a, rel=1e-6)

    def test_edgeless_scaling(self):
        g = Multihypergraph(8, [])
        for delta in (4, 16, 64):
            params = BPParams(3, 0.9, 1.0, delta)
            got = bp_log_partition(g, params)
            lam = 0.9 * delta ** (-0.5)
            exact = 8 * math.log1p(lam)
            assert got / exact == pytest.approx(1.0, abs=3 * lam)

    def test_finite_gap_on_triangle_hypergraph(self):
        # diagnostic: BP vs exact log Z at n=7 (the claim is asymptotic)
        g = subgraph_hypergraph(named_graph("K3"), 7)
        delta = max(g.degrees())
        params = BPParams(3, 0.9, 1.0, delta)
        approx = bp_log_partition(g, params)
        lam = 0.9 * delta ** (-0.5)
        exact = partition_function(g, ModelParams(lam, 1.0))
        assert abs(approx / exact - 1) < 0.2


class TestLowerTailRate:
    def test_eta_zero_regular(self):
        g = subgraph_hypergraph(named_graph("K3"), 7)
        xs = regular_fixed_point(3, 0.9, 1.0)
        want = xs + (2 / 3) * xs**3 - 0.9
        assert bp_lower_tail_rate(g, 3, 0.9, 0.0) == pytest.approx(want, abs=1e-8)

    def test_matches_closed_form_general_eta(self):
        from bplt.rates import rate_gnp

        g = subgraph_hypergraph(named_graph("K3"), 7)
        for c, eta in [(0.8, 0.3), (0.6, 0.1)]:
            assert bp_lower_tail_rate(g, 3, c, eta) == pytest.approx(
                rate_gnp(3, c, eta), abs=1e-8
            )

    def test_rate_monotone_in_eta(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        rates = [bp_lower_tail_rate(g, 3, 0.7, float(eta)) for eta in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0
