import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import bplt.bp
from bplt.bp import (
    BPParams,
    _apply,
    _edge_sum,
    _iterate,
    _root,
    _workspace,
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
from bplt.hypergraph import Multihypergraph, _edge_rows
from bplt.progressions import discrete_profile_gap, kap_rate, phi_fixed_point, phi_threshold
from bplt.rates import named_graph, rate_gnp, subgraph_hypergraph
from conftest import (
    fixed_point_gap,
    log_gap,
    naive_bp_apply,
    reference_apply,
    reference_edge_sum,
)

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

    def test_infinite_c_refused(self):
        # an infinite c would give a NaN margin, which no certificate check refuses
        with pytest.raises(ValueError, match="c must be positive and finite"):
            BPParams(3, math.inf, 0.0, 1)

    def test_nonuniform_rejected(self):
        g = Multihypergraph(3, [[0, 1], [0, 1, 2]])
        with pytest.raises(ValueError):
            bp_apply(g, BPParams(3, 1.0, 1.0, 1), np.ones(3))

    def test_matches_edge_loop(self, rng):
        # k = 2..5; no edges, repeated edges and isolated vertices included
        for k in range(2, 6):
            for m in (0, 1, 5, 40):
                n = int(rng.integers(k, 3 * k + 8))
                g = random_k_uniform(rng, n, k, m, allow_multi=True)
                g = Multihypergraph(n, g.edges + g.edges[: m // 4])
                delta = max(max(g.degrees()), 1)
                params = BPParams(k, float(rng.uniform(0.2, 1.2)), float(rng.uniform(0, 1)), delta)
                x = rng.uniform(1e-3, params.c, size=n)
                assert bp_apply(g, params, x) == pytest.approx(
                    naive_bp_apply(g, params, x), rel=1e-14, abs=0
                )

    def test_leave_one_out_exact_when_product_underflows(self):
        # the product of all three entries underflows to 0; the one vertex 0
        # receives, 0.1 * 0.1, does not
        g = Multihypergraph(3, [[0, 1, 2]])
        out = bp_apply(g, BPParams(3, 1.0, 1.0, 1), np.array([5e-324, 0.1, 0.1]))
        assert out[0] == pytest.approx(math.exp(-0.01), rel=1e-15)
        assert out[1] == out[2] == 1.0

    def test_wrong_length_rejected(self):
        # the kernel's gather does not check its indices; this check and
        # Multihypergraph's vertex range are what keep them in range
        g = Multihypergraph(4, [[0, 1, 2], [1, 2, 3]])
        params = BPParams(3, 1.0, 1.0, 2)
        for n in (3, 5):
            for public in (bp_apply, bethe_free_energy):
                with pytest.raises(ValueError, match="one entry per vertex"):
                    public(g, params, np.full(n, 0.5))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_workspace_kernel_matches_reference(self, rng, k):
        # bit for bit against the allocating kernel, one workspace per edge
        # array reused across several (x, c, zeta) in turn, starting from
        # garbage; repeated edges, and a row whose edge products underflow
        for m in (0, 1, 5, 40):
            n = k + 6
            g = random_k_uniform(rng, n, k, m - m // 3, allow_multi=True)
            g = Multihypergraph(n, g.edges + g.edges[: m // 3])
            edges = _edge_rows(g, k)  # the graph's own array, as the solvers use it
            work = _workspace(edges)
            work.fill(np.nan)
            tiny = np.full(n, 0.1)
            tiny[::2] = 5e-324
            for x in [rng.uniform(1e-3, 1.5, size=n) for _ in range(4)] + [tiny]:
                c, zeta = float(rng.uniform(0.2, 1.2)), float(rng.uniform(0, 1))
                delta = int(rng.integers(1, 9))
                got = _apply(x, edges, work, c, zeta, delta)
                assert np.array_equal(got, reference_apply(x, edges, c, zeta, delta))
                assert _edge_sum(x, edges, work) == reference_edge_sum(x, edges)

    def test_application_allocates_no_edge_arrays(self):
        # with its workspace one application allocates only per-vertex
        # arrays: less than the edge array, where the allocating kernel
        # took about three float arrays of that size.  The edges are the
        # graph's cached array: were it read-only, numpy would copy it on
        # every gather and bincount, and this bound would fail
        g = random_k_uniform(np.random.default_rng(1), 20000, 3, 60000)
        edges = _edge_rows(g, 3)
        work = _workspace(edges)
        x, delta = np.full(g.num_vertices, 0.5), max(g.degrees())
        _apply(x, edges, work, 1.0, 1.0, delta)
        tracemalloc.start()
        try:
            _apply(x, edges, work, 1.0, 1.0, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < edges.nbytes


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

    def test_max_iter_reported(self, monkeypatch):
        # every solver built on the shared iteration reports the same failure
        g = subgraph_hypergraph(named_graph("K3"), 6)
        params = BPParams(3, 0.9, 1.0, max(g.degrees()))
        monkeypatch.setattr(bplt.bp, "_MAX_APPLICATIONS", 2)
        solvers = [
            lambda: bp_fixed_point(g, params),
            lambda: solve_zeta(g, 3, 0.9, 0.3),
            lambda: bp_log_partition(g, params, method="integral"),
            lambda: phi_fixed_point(3, 0.9, grid_size=60),
            lambda: phi_fixed_point(3, 0.9, grid_size=60, method="direct"),
            lambda: kap_rate(3, 0.9, quad_nodes=4, grid_size=60),
        ]
        for solve in solvers:
            with pytest.raises(ConvergenceError) as err:
                solve()
            assert err.value.residual is not None
            assert err.value.iterations == 2

    def test_quad_nodes_named(self):
        # both coupling-constant integrals refuse an empty rule by name
        g = subgraph_hypergraph(named_graph("K3"), 6)
        params = BPParams(3, 0.9, 1.0, max(g.degrees()))
        for solve in (
            lambda: bp_log_partition(g, params, method="integral", quad_nodes=0),
            lambda: kap_rate(3, 0.9, quad_nodes=0, grid_size=60),
        ):
            with pytest.raises(ValueError, match="quad_nodes"):
                solve()

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_underflow_fails_fast(self):
        # vertex 0 lies in 1500 edges and delta=1, so its message underflows to 0
        g = Multihypergraph(3001, [(0, 2 * i + 1, 2 * i + 2) for i in range(1500)])
        with pytest.raises(ConvergenceError, match="underflow") as err:
            bp_fixed_point(g, BPParams(3, 1.0, 1.0, 1))
        assert not math.isfinite(err.value.residual)
        assert err.value.iterations < 10


class TestMixedIteration:
    def test_solvers_match_plain_iteration(self, rng, plain_solvers):
        # each answer of the mixed iteration against the plain loop it replaced
        for _ in range(8):
            g = random_k_uniform(rng, int(rng.integers(9, 13)), 3, int(rng.integers(4, 13)))
            delta = max(g.degrees())
            c, zeta = float(rng.uniform(0.3, 1.1)), float(rng.uniform(0.1, 1.0))
            params = BPParams(3, c, zeta, delta)

            def fixed_point():
                return bp_fixed_point(g, params, tol=1e-12)

            assert log_gap(fixed_point(), plain_solvers(fixed_point)) <= fixed_point_gap(
                1e-12, params.margin
            )

            def penalty():
                return solve_zeta(g, 3, c, 0.3)

            (zeta_a, x_a), (zeta_p, x_p) = penalty(), plain_solvers(penalty)
            edges = np.array(g.edges)
            scale = c**3 * g.num_edges

            def target_gap(z, x):
                return (1 - z) * float(x[edges].prod(axis=1).sum()) - 0.3 * scale

            # each answer passes solve_zeta's own stopping test, |gap| < tol c^k |E|
            assert abs(target_gap(zeta_a, x_a)) < 1e-10 * scale
            assert abs(target_gap(zeta_p, x_p)) < 1e-10 * scale
            # so the two zetas lie within 2 tol c^k |E| / |slope| of each other,
            # the slope of the gap by a central difference; the factor 2
            # covers the difference's error and the fixed points' own error
            h = 1e-5

            def gap_at(z):
                return target_gap(z, bp_fixed_point(g, BPParams(3, c, z, delta), tol=1e-14))

            slope = (gap_at(zeta_a + h) - gap_at(zeta_a - h)) / (2 * h)
            assert abs(zeta_a - zeta_p) <= 2 * (2 * 1e-10 * scale) / abs(slope)
            assert log_gap(x_a, x_p) <= fixed_point_gap(1e-13, contraction_margin(3, c, zeta_a))

            def integral():
                return bp_log_partition(g, params, method="integral")

            # every node's mass moves by at most expm1(gap) relative to itself
            a, b = integral(), plain_solvers(integral)
            assert abs(a - b) <= math.expm1(fixed_point_gap(1e-13, params.margin)) * b

    def test_solvers_match_reference_kernel(self, reference_kernel):
        # every solver on its workspace returns exactly what _iterate returns
        # driven by the allocating kernel
        g = random_k_uniform(np.random.default_rng(5), 300, 3, 900)
        params = BPParams(3, 1.0, 0.5, max(g.degrees()))
        solves = [
            lambda: bp_fixed_point(g, params, tol=1e-13),
            lambda: solve_zeta(g, 3, 1.0, 0.3),
            lambda: bp_log_partition(g, params, method="bethe"),
            lambda: bp_log_partition(g, params, method="integral", quad_nodes=16),
            lambda: bp_lower_tail_rate(g, 3, 1.0, 0.3),
        ]

        def parts(result):  # solve_zeta returns (zeta, x)
            return result if isinstance(result, tuple) else (result,)

        for solve in solves:
            got, want = solve(), reference_kernel(solve)
            for a, b in zip(parts(got), parts(want), strict=True):
                assert np.array_equal(a, b)

    def test_integer_density_matches_float(self):
        # an int c must not make the starting vectors int arrays, which the
        # kernel cannot gather into its float buffers
        g = random_k_uniform(np.random.default_rng(5), 300, 3, 900)
        d = max(g.degrees())

        def results(c):
            params = BPParams(3, c, 1.0, d)
            return [
                bp_fixed_point(g, params),
                *solve_zeta(g, 3, c, 0.3),
                bp_lower_tail_rate(g, 3, c, 0.0),
                bp_log_partition(g, params, method="bethe"),
                bp_log_partition(g, params, method="integral", quad_nodes=8),
                bp_log_partition(Multihypergraph(4, []), BPParams(3, c, 1.0, 1)),
                *discrete_profile_gap(3, 200, c, 1),
            ]

        for a, b in zip(results(1), results(1.0), strict=True):
            assert np.array_equal(a, b)

    def test_drops_a_mixed_step_that_raises_the_residual(self, monkeypatch):
        # x -> exp(G(log x)) with G' in (-0.97, 0.99): plain iteration
        # converges, but from u = 5 the fourth point, a mixed one, raises the
        # residual and mixing on from it overflows
        s, a = np.array([1.0, 4.0, 0.25]), 0.01
        seen = []

        def apply(x):
            u = np.log(x)
            g = (1 - a) * u - (2 - a) * 0.99 * np.arctan(s * u) / s
            seen.append(float(np.max(np.abs(g - u))))
            return np.exp(g)

        monkeypatch.setattr(bplt.bp, "_MAX_APPLICATIONS", 200)
        x = _iterate(apply, np.full(3, math.exp(5.0)), 1e-12, "synthetic")
        assert log_gap(apply(x), x) < 1e-12
        assert np.max(np.abs(np.log(x))) < 1e-10  # the fixed point is u = 0
        assert any(r1 > r0 for r0, r1 in zip(seen, seen[1:]))

    def test_uncertified_delta_repro(self, monkeypatch):
        # delta = 10 < Dmax: plain iteration cycles at residual ~5.5 forever
        g = random_k_uniform(np.random.default_rng(0), 200, 3, 2000)
        assert max(g.degrees()) > 10
        params = BPParams(3, 1.1, 1.0, 10)
        monkeypatch.setattr(bplt.bp, "_MAX_APPLICATIONS", 200)
        x = bp_fixed_point(g, params)
        assert log_gap(bp_apply(g, params, x), x) < 1e-12

    def test_application_counts(self, count_applications):
        # a graph large enough that the conditioning of the least-squares
        # solve shows in the step counts; the bounds are the counts with
        # predicted starts (the previous-node starts took 84 and 567)
        g = random_k_uniform(np.random.default_rng(1), 2000, 3, 6000)
        delta = max(g.degrees())
        _, fixed = count_applications(
            lambda: bp_fixed_point(g, BPParams(3, 1.0, 1.0, delta), tol=1e-13)
        )
        _, penalty = count_applications(lambda: solve_zeta(g, 3, 1.0, 0.3))
        _, integral = count_applications(
            lambda: bp_log_partition(g, BPParams(3, 1.0, 0.5, delta), method="integral")
        )
        assert fixed <= 16
        assert penalty <= 56
        assert integral <= 224

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 14),
        st.integers(1, 30),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(1, 40),
    )
    def test_returns_only_fixed_points(self, seed, n, m, c, zeta, delta):
        # any delta >= 1, including uncertified delta < Dmax
        g = random_k_uniform(np.random.default_rng(seed), n, 3, m)
        params = BPParams(3, c, zeta, delta)
        try:
            with unittest.mock.patch.object(bplt.bp, "_MAX_APPLICATIONS", 2000):
                x = bp_fixed_point(g, params, tol=1e-12)
        except (ConvergenceError, DomainError):
            return
        assert log_gap(bp_apply(g, params, x), x) < 1e-12


class TestPredictedStarts:
    # The drivers start each solve from a start extrapolated through the
    # fixed points solved before it; only the starting points differ from
    # the previous-node starts, so every node's mass moves by at most
    # expm1(gap) relative to itself, gap = fixed_point_gap(tol, margin) at c.
    @pytest.mark.parametrize("quad_nodes", [1, 2, 3, 7, 16, 64])
    def test_integral_matches_previous_node_starts(self, rng, previous_node_starts, quad_nodes):
        for zeta in (0.0, 0.5, 1.0):
            g = random_k_uniform(rng, int(rng.integers(20, 60)), 3, int(rng.integers(20, 120)))
            delta = max(max(g.degrees()), 1)
            bound = math.sqrt(E / (2 * zeta)) if zeta else 2.0  # any c is certified at zeta = 0
            for fraction in (0.3, 0.9, 0.99):
                params = BPParams(3, fraction * bound, zeta, delta)

                def integral():
                    return bp_log_partition(g, params, method="integral", quad_nodes=quad_nodes)

                a, b = integral(), previous_node_starts(integral)
                assert abs(a - b) <= math.expm1(fixed_point_gap(1e-13, params.margin)) * b

    @pytest.mark.parametrize("wild", [1e6, -1e6])
    def test_wild_prediction_is_clipped(self, monkeypatch, previous_node_starts, wild):
        # a prediction far above the prior, or far below every fixed point,
        # costs applications and changes nothing beyond the solver tolerance
        g = random_k_uniform(np.random.default_rng(7), 40, 3, 90)
        params = BPParams(3, 1.0, 0.5, max(g.degrees()))
        c_grid = 0.99 * phi_threshold(3)

        def integral():
            return bp_log_partition(g, params, method="integral", quad_nodes=16)

        def rate():
            return kap_rate(3, c_grid, quad_nodes=7, grid_size=60)

        want_integral, want_rate = previous_node_starts(integral), previous_node_starts(rate)
        monkeypatch.setattr(bplt.bp, "_predict", lambda solved, s, size: np.full(size, wild))
        gap = fixed_point_gap(1e-13, params.margin)
        assert abs(integral() - want_integral) <= math.expm1(gap) * want_integral
        gap = fixed_point_gap(1e-11, 1 - 0.99**2)
        assert abs(rate() - want_rate) <= math.expm1(gap) * (want_rate + c_grid)
        _assert_meets_target(g, 3, 1.0, 0.3, *solve_zeta(g, 3, 1.0, 0.3))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 30),
        st.integers(1, 60),
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.95),
    )
    def test_solve_zeta_meets_its_target(self, seed, n, m, fraction, eta):
        g = random_k_uniform(np.random.default_rng(seed), n, 3, m)
        c = fraction * thresholds(3, eta).c_max_general
        _assert_meets_target(g, 3, c, eta, *solve_zeta(g, 3, c, eta))


def _assert_meets_target(g, k, c, eta, zeta, x):
    """solve_zeta's own acceptance test at its defaults: zeta in [0, 1 - eta],
    x a fixed point at zeta to fp_tol = 1e-13, and the target met to
    tol = 1e-10 of c^k |E|."""
    assert 0 <= zeta <= 1 - eta
    assert log_gap(bp_apply(g, BPParams(k, c, zeta, max(g.degrees())), x), x) < 1e-13
    scale = c**k * g.num_edges
    gap = (1 - zeta) * float(x[np.array(g.edges)].prod(axis=1).sum()) - eta * scale
    assert abs(gap) < 1e-10 * scale


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


class TestRoot:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_regular_matches_brentq(self, k):
        # scipy's Brent solver is the independent reference, at the same tolerances
        for c in np.linspace(0.1, 2.5, 25):
            c = float(c)
            for eta in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):

                def g(z):
                    return (1.0 - z) * (regular_fixed_point(k, c, z) / c) ** k - eta

                ref = scipy.optimize.brentq(g, 0.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
                assert abs(solve_zeta_regular(k, c, eta)[0] - ref) <= 1e-14

    def test_root_at_an_end_needs_no_evaluation(self):
        def f(x):
            raise AssertionError("f evaluated")

        assert _root(f, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 10) == (1.0, 0.0)
        assert _root(f, 0.0, 1.0, 1e-9, -0.5, 0.0, 0.0, 1e-8, 10) == (0.0, 1e-9)

    def test_ftol_stop(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.cos(x)

        x, fx = _root(f, 0.0, 3.0, 1.0, math.cos(3.0), 0.0, 0.0, 1e-6, 100)
        assert abs(fx) < 1e-6 and fx == math.cos(x) and x == seen[-1]
        assert abs(x - math.pi / 2) < 1e-5
        # and it stops at the first point that passes: none before it did
        assert all(abs(math.cos(y)) >= 1e-6 for y in seen[:-1])

    def test_xtol_stop_returns_the_better_end(self):
        x, fx = _root(lambda x: x**3 - 2.0, 0.0, 2.0, -2.0, 6.0, 1e-12, 0.0, 0.0, 200)
        assert abs(x - 2.0 ** (1 / 3)) <= 1e-12 and fx == x**3 - 2.0

    def test_max_iter_reported(self):
        # a root the bracket cannot reach in three steps is an error, not a point
        calls = []

        def f(x):
            calls.append(x)
            return (x - 0.3) ** 3

        with pytest.raises(ConvergenceError, match="no root after 3 evaluations") as err:
            _root(f, 0.0, 1.0, -0.027, 0.343, 0.0, 0.0, 1e-30, 3)
        assert len(calls) == 3
        assert err.value.iterations == 3 and err.value.residual > 1e-30


class TestLogPartition:
    def test_bethe_vs_integral(self, rng):
        for _ in range(5):
            g = random_k_uniform(rng, 9, 3, 10)
            delta = max(max(g.degrees()), 1)
            params = BPParams(3, 0.8, 0.9, delta)
            a = bp_log_partition(g, params, method="bethe")
            b = bp_log_partition(g, params, method="integral")
            assert b == pytest.approx(a, rel=1e-6)

    def test_unknown_method_refused_first(self):
        # the method is checked before the certificate and the graph
        g = random_k_uniform(np.random.default_rng(3), 9, 3, 10)
        for params in (BPParams(3, 2.0, 1.0, max(g.degrees())), BPParams(4, 0.5, 1.0, 3)):
            with pytest.raises(ValueError, match="method must be 'bethe' or 'integral'"):
                bp_log_partition(g, params, method="bogus")

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
        g = subgraph_hypergraph(named_graph("K3"), 7)
        for c, eta in [(0.8, 0.3), (0.6, 0.1)]:
            assert bp_lower_tail_rate(g, 3, c, eta) == pytest.approx(
                rate_gnp(3, c, eta), abs=1e-8
            )

    @pytest.mark.parametrize("eta", [0.1, 0.2, 0.3])
    def test_near_regular(self, eta):
        # a c between the general and the regular critical densities (twice
        # the general one where the regular one is infinite) is refused by
        # default; asserted near-regular, it meets the closed forms
        g = subgraph_hypergraph(named_graph("K3"), 8)
        t = thresholds(3, eta)
        c = 0.5 * (t.c_max_general + t.c_max_regular)
        if math.isinf(t.c_max_regular):
            c = 2 * t.c_max_general
        for solve in (solve_zeta, bp_lower_tail_rate):
            with pytest.raises(DomainError):
                solve(g, 3, c, eta)
        rate = bp_lower_tail_rate(g, 3, c, eta, near_regular=True)
        assert rate == pytest.approx(rate_gnp(3, c, eta), rel=0, abs=1e-12)
        zeta, _ = solve_zeta(g, 3, c, eta, near_regular=True)
        assert zeta == pytest.approx(solve_zeta_regular(3, c, eta)[0], rel=0, abs=1e-9)

    def test_rate_monotone_in_eta(self):
        g = subgraph_hypergraph(named_graph("K3"), 6)
        rates = [bp_lower_tail_rate(g, 3, 0.7, float(eta)) for eta in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0

    @pytest.mark.parametrize("delta", [0, -2])
    @pytest.mark.parametrize("eta", [0.0, 0.2])
    def test_delta_below_one_refused(self, delta, eta):
        # refused at once, before any iteration, with BPParams' own message
        g = subgraph_hypergraph(named_graph("K3"), 4)
        for solve in (solve_zeta, bp_lower_tail_rate):
            with pytest.raises(ValueError, match="delta must be >= 1"):
                solve(g, 3, 0.8, eta, delta=delta)


def run_every_public_call(g, k):
    """Every public BP function that takes a graph, once on ``g``."""
    params = BPParams(k, 0.8, 0.6, max(max(g.degrees()), 1))
    x = bp_fixed_point(g, params)
    bp_apply(g, params, x)
    bethe_free_energy(g, params, x)
    solve_zeta(g, k, 0.8, 0.3)
    bp_log_partition(g, params, "bethe")
    bp_log_partition(g, params, "integral", quad_nodes=8)
    bp_lower_tail_rate(g, k, 0.8, 0.0)


class TestEdgeRows:
    def test_public_calls_share_one_array(self, monkeypatch):
        g = random_k_uniform(np.random.default_rng(3), 40, 3, 60)
        seen = []

        def recorded(graph, k):
            seen.append(_edge_rows(graph, k))
            return seen[-1]

        monkeypatch.setattr(bplt.bp, "_edge_rows", recorded)
        run_every_public_call(g, 3)
        assert len(seen) >= 7 and all(rows is seen[0] for rows in seen)

    def test_solvers_leave_the_array_unchanged(self):
        g = random_k_uniform(np.random.default_rng(4), 40, 3, 60, allow_multi=True)
        snapshot = _edge_rows(g, 3).copy()
        run_every_public_call(g, 3)
        assert np.array_equal(_edge_rows(g, 3), snapshot)
        assert np.array_equal(snapshot, np.array(g.edges).T)

    def test_edgeless_every_k(self):
        g = Multihypergraph(4)
        for k in (2, 3, 4, 5, 3):
            params = BPParams(k, 0.9, 1.0, 1)
            x = bp_fixed_point(g, params)
            assert np.array_equal(x, np.full(4, 0.9))
            assert np.array_equal(bp_apply(g, params, x), x)
            assert bp_log_partition(g, params) == pytest.approx(4 * 0.9, rel=1e-15)
            assert bp_lower_tail_rate(g, k, 0.9, 0.0) == pytest.approx(0.0, abs=1e-15)
