import math
from fractions import Fraction

import numpy as np
import pytest

from bplt import gibbs
from bplt.errors import DomainError
from bplt.progressions import (
    KapParams,
    ap_degree,
    ap_hypergraph,
    degree_coefficient,
    functional_apply,
    kap_fixed_point,
    kap_marginal_check,
    kap_rate,
    kap_rate_bethe,
    phi_apply,
    phi_fixed_point,
    phi_threshold,
)


class TestDegreeCoefficient:
    def test_exact_values(self):
        assert degree_coefficient(3) == 1
        assert degree_coefficient(4) == Fraction(5, 6)
        assert degree_coefficient(5) == Fraction(1, 2) * (
            Fraction(1, 4) + Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
        )

    def test_degree_formula_cross_check(self):
        # max degree / (alpha n) approaches 1; formula-only evaluation at n=1e5
        for k in (3, 4, 5):
            n = 100_000
            alpha = float(degree_coefficient(k))
            peak = max(ap_degree(k, n, t) for t in range(n // 2 - 2, n // 2 + 3))
            assert abs(peak / (alpha * n) - 1) < 0.02


class TestApHypergraph:
    def test_k3_n5(self):
        g = ap_hypergraph(3, 5)
        assert g.num_vertices == 5
        assert sorted(g.edges) == [(0, 1, 2), (0, 2, 4), (1, 2, 3), (2, 3, 4)]

    def test_degree_formula_exact(self):
        for k in (3, 4, 5):
            for n in (k, 17, 60, 213, 500):
                g = ap_hypergraph(k, n)
                deg = g.degrees()
                for t in range(1, n + 1):
                    assert deg[t - 1] == ap_degree(k, n, t)

    def test_pair_degree_bounded(self):
        from bplt.hypergraph import degree_stats

        for n in (30, 120, 500):
            r = degree_stats(ap_hypergraph(3, n), 3)
            assert r.delta_ell[2] <= math.comb(3, 2)


class TestFunctionalApply:
    def test_symmetric_point_value(self):
        # constant input, k=3, zeta=1: the exponent at t=1/2 is exactly -c^2
        c = 0.7
        params = KapParams(3, c, 1.0, 500)
        out = functional_apply(params, np.full(501, c))
        assert out[250] == pytest.approx(c * math.exp(-(c**2)), rel=1e-12)

    def test_boundary_point(self):
        # at t=0 only the leftmost-position term survives, with range 1/(k-1)
        c, k = 0.7, 3
        params = KapParams(k, c, 1.0, 500)
        out = functional_apply(params, np.full(501, c))
        assert out[0] == pytest.approx(c * math.exp(-(c**2) / (k - 1)), rel=1e-12)

    def test_symmetry_preserved(self, rng):
        params = KapParams(3, 0.9, 0.8, 400)
        half = rng.uniform(0.2, 0.9, size=201)
        f = np.concatenate([half, half[-2::-1]])
        out = functional_apply(params, f)
        assert np.max(np.abs(out - out[::-1])) < 1e-12

    def test_trapezoid_against_dense_reference(self, rng):
        # independent slow evaluation of the band integral on a smooth input
        k, c, zeta = 3, 0.8, 0.9
        m = 200
        grid = np.linspace(0, 1, m + 1)
        f = c * (0.6 + 0.3 * np.sin(2.3 * grid) ** 2)
        params = KapParams(k, c, zeta, m)
        got = functional_apply(params, f)
        alpha = float(degree_coefficient(k))

        def interp(x):
            return np.interp(x, grid, f)

        for idx in (0, 37, 100, 163, 200):
            t = grid[idx]
            total = 0.0
            for ell in range(1, k + 1):
                a, b = ell - 1, k - ell
                w = min(t / a if a else math.inf, (1 - t) / b if b else math.inf)
                ss = np.linspace(0.0, w, 4001)
                prod = np.ones_like(ss)
                for i in range(-(ell - 1), k - ell + 1):
                    if i:
                        prod = prod * interp(t + i * ss)
                total += np.trapezoid(prod, ss)
            want = c * math.exp(-zeta / alpha * total)
            assert got[idx] == pytest.approx(want, abs=5e-5)


class TestContraction:
    def test_grid_double_step_contracts(self, rng):
        # log-sup contraction of the squared operator, up to quadrature error
        for _ in range(15):
            k = int(rng.integers(3, 5))
            c = float(rng.uniform(0.2, 0.9))
            zeta_max = min(1.0, 0.9 * math.e / ((k - 1) * c ** (k - 1)))
            zeta = float(rng.uniform(0.1, zeta_max))
            params = KapParams(k, c, zeta, 300)
            margin = 1.0 - zeta * c ** (k - 1) * (k - 1) / math.e
            f = rng.uniform(0.05, c, size=301)
            g = rng.uniform(0.05, c, size=301)
            ff = functional_apply(params, functional_apply(params, f))
            gg = functional_apply(params, functional_apply(params, g))
            lhs = np.max(np.abs(np.log(ff) - np.log(gg)))
            rhs = (1 - margin) * np.max(np.abs(np.log(f) - np.log(g)))
            assert lhs <= rhs + 1e-6  # grid-error allowance

    def test_discrete_fixed_point_lipschitz_decay(self):
        # adjacent differences of the hypergraph fixed point shrink as n doubles
        from bplt.bp import BPParams, bp_fixed_point

        jumps = []
        for n in (150, 300, 600):
            g = ap_hypergraph(3, n)
            x = bp_fixed_point(g, BPParams(3, 1.0, 1.0, max(g.degrees())), tol=1e-11)
            jumps.append(float(np.max(np.abs(np.diff(x)))))
        assert jumps[0] > jumps[1] > jumps[2]


class TestFixedPoints:
    def test_fixed_point_properties(self):
        params = KapParams(3, 1.0, 1.0, 800)
        f = kap_fixed_point(params, tol=1e-12)
        # symmetric, endpoint maxima, interior minimum at the centre
        assert np.max(np.abs(f - f[::-1])) < 1e-11
        assert np.argmin(f) in (400, 401)
        assert np.argmax(f) in (0, 800)
        half = f[: 401]
        assert np.all(np.diff(half) <= 1e-12)
        # lower bound c e^{-zeta c^(k-1)}
        assert np.all(f >= 1.0 * math.exp(-1.0) - 1e-9)

    def test_grid_refinement_consistency(self):
        a = kap_fixed_point(KapParams(3, 1.0, 1.0, 400))
        b = kap_fixed_point(KapParams(3, 1.0, 1.0, 800))
        jump_a = np.max(np.abs(np.diff(a)))
        jump_b = np.max(np.abs(np.diff(b)))
        assert jump_b < jump_a
        assert abs(a[200] - b[400]) < 1e-4

    def test_condition_refused(self):
        with pytest.raises(DomainError):
            kap_fixed_point(KapParams(3, 1.5, 1.0, 200))

    def test_phi_routes_agree(self):
        for k, c in [(3, 0.9), (4, 0.55)]:
            a = phi_fixed_point(k, c, grid_size=500, method="scaled")
            b = phi_fixed_point(k, c, grid_size=500, method="direct")
            assert np.max(np.abs(a - b)) < 1e-11

    def test_phi_residual(self):
        x = phi_fixed_point(3, 1.0, grid_size=600, tol=1e-12)
        resid = phi_apply(3, 1.0, x) - x
        assert np.max(np.abs(resid)) < 1e-11

    def test_phi_threshold_value(self):
        assert phi_threshold(3) == pytest.approx(math.sqrt(math.e / 2), rel=1e-15)
        with pytest.raises(DomainError):
            phi_fixed_point(3, phi_threshold(3) + 0.01)

    def test_profile_regression_k3_c1(self):
        # frozen from this implementation at grid 2000 (shape of the
        # conditional density curve: endpoint max, centre min)
        f = phi_fixed_point(3, 1.0, grid_size=2000)
        assert f[0] == pytest.approx(0.78272217, abs=2e-6)
        assert f[1000] == pytest.approx(0.61983693, abs=2e-6)


class TestRates:
    def test_cross_formula_agreement(self):
        for k, c in [(3, 0.5), (4, 0.6)]:
            r1 = kap_rate(k, c, quad_nodes=48, grid_size=400)
            r2 = kap_rate_bethe(k, c, grid_size=800)
            assert abs(r1 - r2) < 1e-4

    def test_small_c_sign_and_order(self):
        r = kap_rate(3, 0.05, quad_nodes=24, grid_size=200)
        assert -1e-3 < r < 0

    def test_monotone_in_c(self):
        vals = [kap_rate(3, c, quad_nodes=24, grid_size=200) for c in (0.3, 0.6, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_bethe_small_c_vanishes(self):
        assert abs(kap_rate_bethe(3, 0.05, grid_size=300)) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            kap_rate(3, 1.3)


class TestMarginalCheck:
    def test_exact_symmetric(self):
        table = kap_marginal_check(3, 1.0, 12, grid_size=600)
        assert table.mode == "exact"
        assert np.max(np.abs(table.scaled - table.scaled[::-1])) < 1e-12

    def test_prediction_column_matches_profile(self):
        table = kap_marginal_check(3, 1.0, 12, grid_size=600)
        profile = phi_fixed_point(3, 1.0, grid_size=600)
        grid = np.linspace(0, 1, 601)
        want = np.interp(table.positions / 12, grid, profile)
        assert np.allclose(table.predicted, want)

    def test_gap_shrinks_with_n(self):
        gaps = [
            kap_marginal_check(3, 1.0, n, grid_size=400).mean_abs_gap
            for n in (12, 18, 24)
        ]
        assert gaps[-1] < gaps[0]

    def test_auto_exact_above_vertex_guard(self):
        table = kap_marginal_check(3, 1.0, 30, grid_size=200)
        assert table.mode == "exact"

    def test_auto_falls_back_to_mc(self, monkeypatch):
        # support cut off and 27 > EXACT_GUARD: summarize raises SizeGuardError
        monkeypatch.setattr(gibbs, "_SUPPORT_CAP", 1 << 10)
        table = kap_marginal_check(3, 1.0, 27, grid_size=200, chains=50, sweeps=2)
        assert table.mode == "mc"

    def test_mc_mode_close_to_exact(self):
        exact = kap_marginal_check(3, 1.0, 14, mode="exact", grid_size=300)
        mc = kap_marginal_check(
            3, 1.0, 14, mode="mc", grid_size=300, chains=12_000, sweeps=40, seed=4
        )
        assert np.max(np.abs(exact.scaled - mc.scaled)) < 0.15
