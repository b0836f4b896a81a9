import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bplt import gibbs, progressions
from bplt.bp import _default_delta
from bplt.errors import DomainError
from bplt.progressions import (
    _band_integral,
    _band_plan,
    _grid_loads,
    _grid_log_apply,
    ap_degree,
    ap_hypergraph,
    degree_coefficient,
    discrete_profile_gap,
    kap_marginal_check,
    kap_rate,
    kap_rate_bethe,
    phi_apply,
    phi_fixed_point,
    phi_threshold,
)
from conftest import (
    fixed_point_gap,
    log_gap,
    loop_ap_edges,
    loop_band_integral,
    naive_band_integral,
)


def _headed(value):
    """A 61-point profile of ones whose first entry is ``value``."""
    return np.r_[value, np.ones(60)]


def _bands(k):
    """The k bands (offsets, a, b) of the profile operator."""
    return tuple(
        (tuple(i for i in range(1 - ell, k - ell + 1) if i), ell - 1, k - ell)
        for ell in range(1, k + 1)
    )


def _symmetric(rng, m):
    """A random positive profile on the grid of size m, equal to its mirror image."""
    half = rng.uniform(0.2, 0.9, m // 2 + 1)
    return np.concatenate([half, half[(m - 1) // 2 :: -1]])


# inputs the grid API refuses: (call, exception type, message fragment)
REFUSED = {
    "grid-0": (lambda: phi_fixed_point(3, 1.0, grid_size=0), ValueError, "grid_size"),
    "grid-5": (lambda: phi_fixed_point(3, 1.0, grid_size=5), ValueError, "grid_size"),
    "rate-grid": (lambda: kap_rate(3, 0.5, grid_size=5), ValueError, "grid_size"),
    "gap-grid": (lambda: discrete_profile_gap(3, 5, 0.5), ValueError, "grid_size"),
    "apply-grid": (lambda: phi_apply(3, 0.5, np.ones(6)), ValueError, "grid_size"),
    "grid-float": (lambda: phi_fixed_point(3, 1.0, grid_size=200.5), ValueError, "grid_size"),
    "bethe-grid-float": (lambda: kap_rate_bethe(3, 1.0, grid_size=60.0), ValueError, "grid_size"),
    "rate-quad-float": (
        lambda: kap_rate(3, 1.0, quad_nodes=2.5, grid_size=60), ValueError, "quad_nodes"
    ),
    "apply-2d": (lambda: phi_apply(3, 0.5, np.ones((7, 2))), ValueError, "f must be one-dim"),
    "zeta-high": (lambda: phi_fixed_point(3, 0.5, zeta=1.5), DomainError, "zeta"),
    "zeta-low": (lambda: phi_fixed_point(3, 0.5, zeta=-0.1), DomainError, "zeta"),
    "zeta-nan": (lambda: phi_fixed_point(3, 0.5, zeta=math.nan), DomainError, "zeta"),
    "c-negative": (lambda: phi_fixed_point(3, -1.0), DomainError, "c="),
    "c-inf": (lambda: phi_fixed_point(3, math.inf, zeta=0.0), DomainError, "c="),
    "apply-c": (lambda: phi_apply(3, -1.0, np.full(61, 0.5)), DomainError, "c="),
    "k-2": (lambda: phi_fixed_point(2, 0.5), DomainError, "k must"),
    "f-nan": (lambda: phi_apply(3, 0.5, _headed(math.nan)), ValueError, "f must"),
    "f-inf": (lambda: phi_apply(3, 0.5, _headed(math.inf)), ValueError, "f must"),
    "f-zero": (lambda: phi_apply(3, 0.5, _headed(0.0)), ValueError, "f must"),
    "f-negative": (lambda: phi_apply(3, 0.5, _headed(-0.1)), ValueError, "f must"),
}


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

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_loop(self, k):
        # the same edges tuple, in the same order, as the progression loop
        for n in (k, k + 1, 2 * k - 1, 2 * k, 13, 31):
            g = ap_hypergraph(k, n)
            assert g.num_vertices == n
            assert g.edges == loop_ap_edges(k, n)
            assert {type(u) for e in g.edges for u in e} == {int}

    def test_degree_formula_exact(self):
        for k in (3, 4, 5):
            for n in (k, 17, 60, 213, 500):
                g = ap_hypergraph(k, n)
                deg = g.degrees()
                for t in range(1, n + 1):
                    assert deg[t - 1] == ap_degree(k, n, t)
                # the Delta that discrete_profile_gap scales by
                assert _default_delta(g, k) == max(deg)

    def test_degree_refuses_what_its_siblings_refuse(self):
        with pytest.raises(DomainError, match="k must be >= 3"):
            ap_degree(1, 10, 3)
        with pytest.raises(ValueError, match="t must be an integer in 1..n"):
            ap_degree(3, 10, 2.5)
        assert ap_degree(3, 10, np.int64(3)) == ap_degree(3, 10, 3)

    def test_pair_degree_bounded(self):
        from bplt.hypergraph import degree_stats

        for n in (30, 120, 500):
            r = degree_stats(ap_hypergraph(3, n), 3)
            assert r.delta_ell[2] <= math.comb(3, 2)


class TestFunctionalApply:
    def test_symmetric_point_value(self):
        # constant input, k=3, zeta=1: the exponent at t=1/2 is exactly -c^2
        c = 0.7
        out = phi_apply(3, c, np.full(501, c), zeta=1.0)
        assert out[250] == pytest.approx(c * math.exp(-(c**2)), rel=1e-12)

    def test_boundary_point(self):
        # at t=0 only the leftmost-position term survives, with range 1/(k-1)
        c, k = 0.7, 3
        out = phi_apply(k, c, np.full(501, c), zeta=1.0)
        assert out[0] == pytest.approx(c * math.exp(-(c**2) / (k - 1)), rel=1e-12)

    def test_symmetry_preserved(self, rng):
        half = rng.uniform(0.2, 0.9, size=201)
        f = np.concatenate([half, half[-2::-1]])
        out = phi_apply(3, 0.9, f, zeta=0.8)
        assert np.max(np.abs(out - out[::-1])) < 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_band_integral_matches_pointwise_loop(self, k, rng):
        # every band of the operator and the kap_rate_bethe edge band: bit for
        # bit the per-step loop at the points j <= last, for the half range
        # the solvers use and for every point, and within rounding the
        # per-point loop on the small grids; the points with w(t) = 0 (t = 0
        # under a left, t = 1 under a right constraint) integrate over an
        # empty range and must read exactly 0.  At M = 1000 the last block of
        # every band is partial (max R(t) = M // (k-1) is no multiple of the
        # block); M = 2000 makes many blocks
        block = max(1, progressions.CELLS // 1001)
        assert (1000 // (k - 1)) % block
        edge = ((tuple(range(k)), 0, k - 1),)
        for m in (2 * k, 2 * k + 1, 2 * k + 2, 31, 100, 501, 1000, 2000):
            f = rng.uniform(0.1, 1.2, m + 1)
            j = np.arange(m + 1)
            for last in (m // 2, m):
                for bands in (_bands(k), edge):
                    got = _band_integral(f, bands, None, last)
                    assert got.shape == (len(bands), last + 1)
                    for row, (offsets, a, b) in zip(got, bands):
                        want = loop_band_integral(f, offsets, a, b)[: last + 1]
                        assert np.array_equal(row, want)
                        if m <= 501:
                            want = naive_band_integral(f, offsets, a, b)[: last + 1]
                            np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)
                        empty = ((a > 0) & (j == 0) | (b > 0) & (j == m))[: last + 1]
                        assert np.all(row[empty] == 0) and np.all(row[~empty] > 0)

    def test_band_integral_scratch_is_bounded(self, rng):
        # k = 3 at M = 4000 takes up to 2000 steps: the whole (R, M)
        # rectangle of products would be about 64 MB, the blocks stay O(M);
        # the band plans are built inside the bound too
        m = 4000
        f = rng.uniform(0.1, 1.2, m + 1)
        _band_plan.cache_clear()
        tracemalloc.start()
        try:
            for bands, last in ((_bands(3), m // 2), (_bands(3), m), ((((0, 1, 2), 0, 2),), m)):
                _band_integral(f, bands, None, last)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_band_plan_is_read_only(self):
        *_, grid, full_at, end_at, tail = _band_plan(200, _bands(3), 100)
        for values in (grid, full_at, end_at, tail):
            with pytest.raises(ValueError, match="read-only"):
                values.flat[0] = 0

    @pytest.mark.parametrize("k", [3, 5])
    def test_band_plan_reused_across_profiles(self, k, rng):
        # one plan per operator and point range, and one for the edge band: a
        # freshly built plan and the same plan shared by a second profile
        # both give the per-step loop bit for bit
        edge = ((tuple(range(k)), 0, k - 1),)
        for m in (2 * k, 500, 2000):
            plans = [(_bands(k), m // 2), (_bands(k), m), (edge, m)]
            _band_plan.cache_clear()
            for f in rng.uniform(0.1, 1.2, (2, m + 1)):
                for bands, last in plans:
                    got = _band_integral(f, bands, None, last)
                    for row, (offsets, a, b) in zip(got, bands):
                        want = loop_band_integral(f, offsets, a, b)[: last + 1]
                        assert np.array_equal(row, want)
            assert _band_plan.cache_info().hits == len(plans)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_half_operator_matches_phi_apply(self, k, rng):
        # on a symmetric profile the solvers' loads give phi_apply's floats
        # at j <= M // 2, mirrored: within 2 ulps of phi_apply's own second
        # half, which rounds its sums in another order.  The solvers' map is
        # the log image of those loads
        for m in (2 * k, 2 * k + 1, 100, 101, 500, 501):
            f = _symmetric(rng, m)
            loads = _grid_loads(f, k, True)
            assert np.array_equal(_grid_log_apply(f, 0.9, 0.8, k), math.log(0.9) - 0.8 * loads)
            half = 0.9 * np.exp(-0.8 * loads)
            full = phi_apply(k, 0.9, f, zeta=0.8)
            last = m // 2
            assert np.array_equal(half, half[::-1])
            assert np.array_equal(half[: last + 1], full[: last + 1])
            np.testing.assert_array_max_ulp(half, full, maxulp=2)

    def test_concurrent_applications_share_plans(self, rng):
        # threads on one grid share the plans, not the buffers: each returns
        # what it returns alone, with the plans built in the race
        m, workers, reps = 500, 4, 10
        profiles = rng.uniform(0.2, 0.9, (workers, m + 1))
        alone = [phi_apply(3, 0.9, f) for f in profiles]
        _band_plan.cache_clear()
        start = threading.Barrier(workers)
        results = [None] * workers

        def run(slot):
            start.wait()
            results[slot] = [phi_apply(3, 0.9, profiles[slot]) for _ in range(reps)]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(alone, results):
            assert all(np.array_equal(out, want) for out in got)

    def test_trapezoid_against_dense_reference(self, rng):
        # independent slow evaluation of the band integral on a smooth input
        k, c, zeta = 3, 0.8, 0.9
        m = 200
        grid = np.linspace(0, 1, m + 1)
        f = c * (0.6 + 0.3 * np.sin(2.3 * grid) ** 2)
        got = phi_apply(k, c, f, zeta=zeta)

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
            want = c * math.exp(-zeta * total)
            assert got[idx] == pytest.approx(want, abs=5e-5)


class TestContraction:
    def test_grid_double_step_contracts(self, rng):
        # log-sup contraction of the squared operator, up to quadrature error,
        # by the profile operator's own factor zeta alpha (k-1) c^(k-1) / e
        for _ in range(15):
            k = int(rng.integers(3, 5))
            alpha = float(degree_coefficient(k))
            c = float(rng.uniform(0.2, 0.9))
            zeta_max = min(1.0, 0.9 * math.e / (alpha * (k - 1) * c ** (k - 1)))
            zeta = float(rng.uniform(0.1, zeta_max))
            margin = 1.0 - zeta * alpha * (k - 1) * c ** (k - 1) / math.e
            f = rng.uniform(0.05, c, size=301)
            g = rng.uniform(0.05, c, size=301)
            ff = phi_apply(k, c, phi_apply(k, c, f, zeta=zeta), zeta=zeta)
            gg = phi_apply(k, c, phi_apply(k, c, g, zeta=zeta), zeta=zeta)
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
        f = phi_fixed_point(3, 1.0, tol=1e-12, grid_size=800, method="direct")
        # exactly symmetric, endpoint maxima, interior minimum at the centre
        assert np.array_equal(f, f[::-1])
        assert np.argmin(f) in (400, 401)
        assert np.argmax(f) in (0, 800)
        half = f[: 401]
        assert np.all(np.diff(half) <= 1e-12)
        # lower bound c e^{-zeta c^(k-1)}
        assert np.all(f >= 1.0 * math.exp(-1.0) - 1e-9)

    @pytest.mark.parametrize("method", ["scaled", "direct"])
    def test_fixed_points_exactly_symmetric(self, method):
        # the solvers work on the points j <= M // 2 and mirror, so each
        # profile equals its mirror image bit for bit, and it is a fixed
        # point of the full-grid phi_apply to the solve's tolerance
        tol = 1e-12
        for zeta in (0.5, 1.0):
            for k, m in [(3, 300), (3, 301), (4, 200), (5, 151)]:
                c = 0.9 * phi_threshold(k) * zeta ** (-1.0 / (k - 1))
                f = phi_fixed_point(k, c, tol=tol, grid_size=m, method=method, zeta=zeta)
                assert np.array_equal(f, f[::-1])
                assert np.max(np.abs(np.log(phi_apply(k, c, f, zeta=zeta) / f))) < tol

    def test_integral_sizes_accepted(self):
        # numpy integers are indices, as k is; only non-integral sizes are refused
        size = np.int64(60)
        assert kap_rate_bethe(3, 1.0, grid_size=size) == kap_rate_bethe(3, 1.0, grid_size=60)
        assert kap_rate(3, 1.0, np.int64(4), size) == kap_rate(3, 1.0, 4, 60)

    def test_grid_refinement_consistency(self):
        a = phi_fixed_point(3, 1.0, grid_size=400, method="direct")
        b = phi_fixed_point(3, 1.0, grid_size=800, method="direct")
        jump_a = np.max(np.abs(np.diff(a)))
        jump_b = np.max(np.abs(np.diff(b)))
        assert jump_b < jump_a
        assert abs(a[200] - b[400]) < 1e-4

    def test_condition_refused(self):
        with pytest.raises(DomainError):
            phi_fixed_point(3, 1.5, grid_size=200, method="direct")

    def test_unknown_method_refused_first(self):
        # the method is checked before the grid and the certificate
        for c, grid_size in [(1.0, 60), (100.0, 60), (1.0, 5)]:
            with pytest.raises(ValueError, match="method must be 'scaled' or 'direct'"):
                phi_fixed_point(3, c, grid_size=grid_size, method="bogus")

    def test_phi_routes_agree(self):
        # the certificate admits c < phi_threshold(k) zeta^(-1/(k-1)); at
        # zeta = 0.5 the last k = 4 case lies above the zeta = 1 bound
        routes = ("scaled", "direct")
        for zeta in (0.5, 1.0):
            for k, fraction in [(3, 0.9), (4, 0.55), (4, 0.95)]:
                bound = phi_threshold(k) * zeta ** (-1.0 / (k - 1))
                c = fraction * bound
                a, b = (phi_fixed_point(k, c, grid_size=500, method=m, zeta=zeta) for m in routes)
                assert np.max(np.abs(a - b)) < 1e-11
                for method in routes:
                    with pytest.raises(DomainError, match=f"{bound:.12g}"):
                        phi_fixed_point(k, 1.001 * bound, grid_size=60, method=method, zeta=zeta)
        assert 0.95 * phi_threshold(4) * 0.5 ** (-1.0 / 3) > phi_threshold(4)

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_inputs_refused(self, case):
        # one guard for the grid API; a bad grid size or f is a ValueError,
        # not a DomainError, so a rate sweep does not call it out of domain
        call, error, match = REFUSED[case]
        with pytest.raises(error, match=match) as err:
            call()
        assert type(err.value) is error

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


class TestMixedIteration:
    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99, 0.999])
    def test_fixed_points_match_plain_iteration(self, plain_solvers, fraction):
        c = fraction * phi_threshold(3)
        margin = 1 - fraction**2  # 1 - the square-iterate factor (c / threshold)^(k-1)
        solves = [
            lambda: phi_fixed_point(3, c, grid_size=200),
            lambda: phi_fixed_point(3, c, grid_size=200, method="direct"),
        ]
        for solve in solves:
            assert log_gap(solve(), plain_solvers(solve)) <= fixed_point_gap(1e-12, margin)

    def test_kap_rate_matches_plain_iteration(self, plain_solvers):
        def rate():
            return kap_rate(3, 0.9, quad_nodes=4, grid_size=60)

        # each node's profile mass moves by at most expm1(gap) relative to
        # itself, and the node masses sum to the rate plus c
        margin = 1 - (0.9 / phi_threshold(3)) ** 2
        a, b = rate(), plain_solvers(rate)
        assert abs(a - b) <= math.expm1(fixed_point_gap(1e-11, margin)) * (b + 0.9)

    @pytest.mark.parametrize("quad_nodes", [1, 2, 3, 7, 16, 64])
    def test_kap_rate_matches_previous_node_starts(self, previous_node_starts, quad_nodes):
        # only the starting points differ, so each node's profile mass moves
        # by at most expm1(gap) relative to itself
        for fraction in (0.3, 0.9, 0.99):
            c = fraction * phi_threshold(3)

            def rate():
                return kap_rate(3, c, quad_nodes=quad_nodes, grid_size=60)

            a, b = rate(), previous_node_starts(rate)
            gap = fixed_point_gap(1e-11, 1 - fraction**2)
            assert abs(a - b) <= math.expm1(gap) * (b + c)

    def test_application_counts(self, count_applications):
        # the plain iteration took 91 and 458 applications here, the mixed
        # one from previous-node starts 120 for the rate; solving on half the
        # grid leaves the counts where the full-grid solves had them, the
        # 8-point predictor takes the rate from the 6-point one's 75 to 73,
        # and the mixing history carried from node to node to 67
        _, n = count_applications(lambda: phi_fixed_point(3, 1.0, grid_size=200))
        assert 0 < n <= 20
        _, n = count_applications(lambda: kap_rate(3, 1.0, quad_nodes=16, grid_size=200))
        assert n == 67
        _, n = count_applications(lambda: kap_rate_bethe(3, 1.0, grid_size=500))
        assert n == 12


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
        monkeypatch.setattr(progressions, "_MC_CHAINS", 50)
        monkeypatch.setattr(progressions, "_MC_SWEEPS", 2)
        table = kap_marginal_check(3, 1.0, 27, grid_size=200)
        assert table.mode == "mc"

    def test_mc_mode_close_to_exact(self, monkeypatch):
        exact = kap_marginal_check(3, 1.0, 14, grid_size=300)
        assert exact.mode == "exact"
        # both exact routes cut off at n = 14, so the heat-bath fallback runs
        monkeypatch.setattr(gibbs, "_SUPPORT_CAP", 1 << 4)
        monkeypatch.setattr(gibbs, "EXACT_GUARD", 13)
        mc = kap_marginal_check(3, 1.0, 14, grid_size=300)
        assert mc.mode == "mc"
        assert np.max(np.abs(exact.scaled - mc.scaled)) < 0.15


def test_diagnostics_script_runs():
    # scripts/finite_size_diagnostics.py at its smallest sizes: every section
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [
            sys.executable, str(root / "scripts" / "finite_size_diagnostics.py"),
            "--profile-sizes", "60", "--marginal-sizes", "12", "--triangle-sizes", "5",
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("== ")]
    assert headers == [
        "== grid vs hypergraph fixed point (sup-norm gap) ==",
        "== exact conditional marginals vs profile (mean |gap|) ==",
        "== exact scaled non-existence log-probability vs limiting rate ==",
        "== BP log Z and scaled marginal vs exact on triangle hypergraphs ==",
    ]


def test_import_builds_no_plan():
    # a fresh interpreter: the band plans and the quadrature rules are built
    # on first use, never at import
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "import bplt\n"
        "assert bplt.progressions._band_plan.cache_info().currsize == 0\n"
        "assert bplt.bp._leggauss.cache_info().currsize == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)
