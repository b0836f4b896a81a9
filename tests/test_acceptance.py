"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; criterion 11 is diagnostic only
(printed, not asserted beyond sanity).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import bplt
from bplt import (
    BPParams,
    ModelParams,
    Multihypergraph,
)
from bplt.generators import random_k_uniform, random_linear_hypertree, random_multihypergraph

SEED = 20260810


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_01_weitz_marginal_equality():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        g = random_multihypergraph(
            rng, max_vertices=9, max_edges=8, max_edge_size=3, allow_empty=True
        )
        v = int(rng.integers(g.num_vertices))
        params = ModelParams(float(rng.uniform(1e-3, 2.0)), float(rng.uniform(0.0, 1.0)))
        vo = rng.permutation(g.num_vertices).tolist()
        eo = rng.permutation(g.num_edges).tolist()
        resid = bplt.weitz_equality_residual(g, v, params, vo, eo)
        worst = max(worst, resid)
        assert resid < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"100 random marginal equalities, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_identity_suite():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    done = 0
    while done < 500:
        g = random_multihypergraph(
            rng, max_vertices=7, max_edges=6, max_edge_size=3, allow_empty=True
        )
        if g.num_edges == 0:
            continue
        params = ModelParams(float(rng.uniform(1e-2, 2.0)), float(rng.uniform(0.0, 1.0)))
        v = int(rng.integers(g.num_vertices))
        e = int(rng.integers(g.num_edges))
        resid = bplt.verify_identities(g, params, v, e).max()
        worst = max(worst, resid)
        assert resid < 1e-12
        done += 1
    _report(2, f"500 instances of the four split/deletion identities, max residual {worst:.2e}")


def test_criterion_03_tree_recursion():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        tree = random_linear_hypertree(rng, int(rng.integers(2, 15)))
        v = int(rng.integers(tree.num_vertices))
        params = ModelParams(float(rng.uniform(1e-2, 2.0)), float(rng.uniform(0.0, 1.0)))
        walk_tree = bplt.build_weitz_tree(tree, v)
        got = bplt.tree_ratio(walk_tree, params)
        summary = bplt.summarize(tree, params)
        want = summary.occupation_ratios()[v]
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-12
    _report(3, f"100 linear hypertrees, recursion vs enumeration odds, max gap {worst:.2e}")


def test_criterion_04_hardcore_bridge():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        g = random_multihypergraph(rng, max_vertices=8, max_edges=7, allow_empty=False)
        p = float(rng.uniform(0.05, 0.9))
        lhs = bplt.lower_tail_exact(g, p, 0)
        log_z = bplt.partition_function(g, ModelParams(p / (1 - p), 1.0))
        rhs = math.exp(g.num_vertices * math.log1p(-p) + log_z)
        rel = abs(lhs / rhs - 1)
        worst = max(worst, rel)
        assert rel < 1e-12
    _report(4, f"100 instances of P(X=0) = (1-p)^N Z, max relative gap {worst:.2e}")


def test_criterion_05_bp_contraction():
    rng = np.random.default_rng(SEED + 4)
    worst_excess = -math.inf
    for _ in range(200):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 13))
        g = random_k_uniform(rng, n, k, int(rng.integers(1, 11)))
        if g.num_edges == 0:
            continue
        delta = max(g.degrees())
        c = float(rng.uniform(0.1, 1.3))
        zeta_max = min(1.0, 0.95 * math.e / ((k - 1) * c ** (k - 1)))
        zeta = float(rng.uniform(0.02, zeta_max))
        params = BPParams(k, c, zeta, delta)
        margin = bplt.contraction_margin(k, c, zeta)
        x = rng.uniform(1e-3, c, size=n)
        y = rng.uniform(1e-3, c, size=n)
        fx = bplt.bp_apply(g, params, bplt.bp_apply(g, params, x))
        fy = bplt.bp_apply(g, params, bplt.bp_apply(g, params, y))
        lhs = float(np.max(np.abs(np.log(fx) - np.log(fy))))
        rhs = (1 - margin) * float(np.max(np.abs(np.log(x) - np.log(y))))
        worst_excess = max(worst_excess, lhs - rhs)
        assert lhs <= rhs + 1e-12
    _report(5, f"200 double-step contractions, worst excess over bound {worst_excess:.2e}")


def _regular_instances():
    out = [bplt.subgraph_hypergraph(bplt.named_graph("K3"), n) for n in (5, 6, 7, 8)]
    out.append(Multihypergraph(3, [[0, 1, 2]]))  # single edge, 1-regular
    out.append(Multihypergraph(6, [[0, 1, 2], [3, 4, 5]]))  # 3-uniform matching
    out.append(Multihypergraph(5, [[i, (i + 1) % 5] for i in range(5)]))  # C5
    out.append(Multihypergraph(4, list(itertools.combinations(range(4), 2))))  # K4
    out.append(
        Multihypergraph(9, [sorted([i, (i + 1) % 9, (i + 2) % 9]) for i in range(9)])
    )  # tight 3-uniform cycle, 3-regular
    return out


def test_criterion_06_regular_closed_form():
    worst_x, worst_b = 0.0, 0.0
    for g in _regular_instances():
        k = g.uniformity()
        deg = g.degrees()
        assert min(deg) == max(deg)
        delta = deg[0]
        for c, zeta in ((0.9, 1.0), (0.7, 0.6)):
            if bplt.contraction_margin(k, c, zeta) <= 0:
                continue
            params = BPParams(k, c, zeta, delta)
            x = bplt.bp_fixed_point(g, params, tol=1e-14)
            closed = bplt.regular_fixed_point(k, c, zeta)
            gap = float(np.max(np.abs(x - closed)))
            worst_x = max(worst_x, gap)
            assert gap < 1e-8
            per_vertex = bplt.bethe_free_energy(g, params, x) / g.num_vertices
            identity = closed + zeta * (1 - 1 / k) * closed**k
            worst_b = max(worst_b, abs(per_vertex - identity))
            assert abs(per_vertex - identity) < 1e-10
    _report(6, f"regular fixed points: sup gap {worst_x:.2e}, Bethe identity gap {worst_b:.2e}")


def test_criterion_07_zeta_solvers():
    worst_scalar = 0.0
    for k in (2, 3, 4):
        for c in (0.3, 0.8, 1.2):
            for eta in (0.05, 0.3, 0.6, 0.9):
                zeta, _ = bplt.solve_zeta_regular(k, c, eta)
                x = bplt.regular_fixed_point(k, c, zeta)
                resid = abs((1 - zeta) * x**k - eta * c**k)
                worst_scalar = max(worst_scalar, resid)
                assert resid < 1e-10
    rng = np.random.default_rng(SEED + 6)
    vector_cases = [
        bplt.subgraph_hypergraph(bplt.named_graph("K3"), 6),
        random_k_uniform(rng, 9, 3, 10),
    ]
    worst_vec = 0.0
    for g in vector_cases:
        for c, eta in ((0.5, 0.3), (0.8, 0.1)):
            zeta, x = bplt.solve_zeta(g, 3, c, eta, tol=1e-9)
            edges = np.array(g.edges)
            got = (1 - zeta) * float(x[edges].prod(axis=1).sum())
            resid = abs(got - eta * c**3 * g.num_edges)
            scale = c**3 * g.num_edges
            worst_vec = max(worst_vec, resid / scale)
            assert resid < 1e-8 * scale
    cs = np.linspace(0.2, 2.5, 50)
    vals = [bplt.solve_zeta_regular(3, float(c), 0.1)[0] * c**2 for c in cs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    _report(
        7,
        f"scalar residual {worst_scalar:.2e}, vector residual {worst_vec:.2e} "
        "of target scale, penalty-density product increasing on a 50-point grid",
    )


def test_criterion_08_rate_closed_forms():
    for k, b in ((2, 0.5), (3, 0.5), (4, 0.4), (5, 0.6)):
        got = bplt.rate_gnm(k, b, 0.0)
        assert got == pytest.approx(-(b**k) / k, rel=1e-15)
    for k, c in ((2, 1.0), (3, 0.9), (4, 0.6)):
        x = bplt.regular_fixed_point(k, c, 1.0)
        want = x + (1 - 1 / k) * x**k - c
        assert bplt.rate_gnp(k, c, 0.0) == pytest.approx(want, abs=1e-12)
    g = bplt.subgraph_hypergraph(bplt.named_graph("K3"), 7)
    worst = 0.0
    for c, eta in ((0.8, 0.3), (0.6, 0.1), (0.9, 0.5)):
        closed = bplt.rate_gnp(3, c, eta)
        via_bp = bplt.bp_lower_tail_rate(g, 3, c, eta)
        worst = max(worst, abs(closed - via_bp))
        assert abs(closed - via_bp) < 1e-8
    _report(8, f"fixed-size and binomial closed forms exact; BP route gap {worst:.2e}")


def _oracle_aut(graph):
    edges = set(graph.edges)
    count = 0
    for perm in itertools.permutations(range(graph.num_vertices)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges:
            count += 1
    return count


def _oracle_m2(graph):
    best = None
    for size in range(3, graph.num_vertices + 1):
        for sub in itertools.combinations(range(graph.num_vertices), size):
            s = set(sub)
            inside = sum(1 for e in graph.edges if set(e) <= s)
            ratio = Fraction(inside - 1, size - 2)
            if best is None or ratio > best:
                best = ratio
    return best


def _oracle_chromatic(graph):
    n = graph.num_vertices
    for r in range(1, n + 1):
        for colours in itertools.product(range(r), repeat=n):
            if all(colours[u] != colours[v] for u, v in graph.edges):
                return r
    return n


def test_criterion_09_subgraph_toolkit():
    k3, k4 = bplt.named_graph("K3"), bplt.named_graph("K4")
    for g, want in ((k3, (Fraction(2), True, 6, 3)), (k4, (Fraction(5, 2), True, 24, 4))):
        prof = bplt.subgraph_profile(g)
        assert (prof.m2, prof.strictly_2_balanced, prof.aut, prof.chromatic_number) == want
        assert prof.aut == _oracle_aut(g)
        assert prof.m2 == _oracle_m2(g)
        assert prof.chromatic_number == _oracle_chromatic(g)
    for n in range(3, 9):
        hyper = bplt.subgraph_hypergraph(k3, n)
        deg = hyper.degrees()
        assert min(deg) == max(deg) == bplt.copies_per_edge(k3, n)
    _report(9, "K3/K4 profiles match independent oracles; triangle hypergraph exactly regular to n=8")


def test_criterion_10_kap_suite():
    start = time.monotonic()
    assert bplt.degree_coefficient(3) == 1
    assert bplt.degree_coefficient(4) == Fraction(5, 6)
    from bplt.progressions import ap_degree

    for k in (3, 4, 5):
        for n in (k, 37, 211, 500):
            deg = bplt.ap_hypergraph(k, n).degrees()
            assert all(deg[t - 1] == ap_degree(k, n, t) for t in range(1, n + 1))

    tol = 1e-12
    f = bplt.phi_fixed_point(3, 1.0, tol=tol, grid_size=2000, method="direct")
    sym = float(np.max(np.abs(f - f[::-1])))
    assert sym < 10 * tol
    assert np.argmin(f) in (1000, 999, 1001)
    assert np.argmax(f) in (0, 2000)

    route_gap = 0.0
    for k, c in ((3, 0.9), (4, 0.55)):
        a = bplt.phi_fixed_point(k, c, tol=tol, grid_size=700, method="scaled")
        b = bplt.phi_fixed_point(k, c, tol=tol, grid_size=700, method="direct")
        route_gap = max(route_gap, float(np.max(np.abs(a - b))))
        assert route_gap < 10 * tol

    rate_gap = 0.0
    for k, c in ((3, 0.5), (3, 0.9), (4, 0.6)):
        r1 = bplt.kap_rate(k, c, quad_nodes=48, grid_size=600)
        r2 = bplt.kap_rate_bethe(k, c, grid_size=1200)
        rate_gap = max(rate_gap, abs(r1 - r2))
        assert abs(r1 - r2) < 1e-4

    shift = abs(
        bplt.kap_rate_bethe(3, 0.9, grid_size=2000)
        - bplt.kap_rate_bethe(3, 0.9, grid_size=4000)
    )
    assert shift < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        10,
        f"coefficients exact, degrees exact to n=500, symmetry {sym:.1e}, "
        f"route gap {route_gap:.1e}, cross-formula gap {rate_gap:.1e}, "
        f"refinement shift {shift:.1e}, {elapsed:.0f}s",
    )


def test_criterion_11_finite_n_diagnostics():
    # Reported only: the supporting limits are asymptotic, so no hard bounds.
    from bplt.progressions import discrete_profile_gap

    gap, _, _ = discrete_profile_gap(3, 2000, 1.0, tol=1e-10)
    assert math.isfinite(gap)
    print(f"\n  diagnostic: BP on the n=2000 progression hypergraph vs grid, sup gap {gap:.5f} (guide 0.02)")

    for n in (12, 18):
        table = bplt.kap_marginal_check(3, 1.0, n, grid_size=800)
        print(
            f"  diagnostic: exact conditional marginals n={n}: mean |gap| "
            f"{table.mean_abs_gap:.4f}, worst {float(np.max(np.abs(table.gaps))):.4f}"
        )

    g = bplt.subgraph_hypergraph(bplt.named_graph("K3"), 7)
    delta = max(g.degrees())
    params = BPParams(3, 0.9, 1.0, delta)
    approx = bplt.bp_log_partition(g, params)
    lam = 0.9 * delta ** (-0.5)
    exact = bplt.partition_function(g, ModelParams(lam, 1.0))
    print(
        f"  diagnostic: triangle hypergraph n=7 (N=21): log Z exact {exact:.6f}, "
        f"BP {approx:.6f}, relative gap {abs(approx / exact - 1):.3%}"
    )
    _report(11, "finite-size diagnostics printed (non-gating)")


def test_criterion_12_monte_carlo_validation():
    rng = np.random.default_rng(SEED + 11)
    done = 0
    worst_z = 0.0
    while done < 20:
        g = random_multihypergraph(rng, max_vertices=8, max_edges=7)
        if g.num_edges == 0:
            continue
        p = float(rng.uniform(0.15, 0.75))
        eta = float(rng.uniform(0.0, 0.9))
        mean_edges = sum(p ** len(e) for e in g.edges)
        exact = bplt.lower_tail_exact(g, p, int(eta * mean_edges))
        est, _ = bplt.mc_lower_tail(g, p, eta, samples=100_000, seed=int(rng.integers(1 << 30)))
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        if sigma == 0.0:
            assert est == exact
        else:
            z = abs(est - exact) / sigma
            worst_z = max(worst_z, z)
            assert z <= 3.0
        done += 1

    glauber_cases = [
        Multihypergraph(5, [[0, 1, 2], [2, 3], [3, 4]]),
        Multihypergraph(6, [[0, 1, 2], [2, 3, 4], [0, 4, 5]]),
    ]
    worst_g = 0.0
    for i, g in enumerate(glauber_cases):
        params = ModelParams(0.8, 0.7)
        exact = bplt.summarize(g, params).marginals
        chains = 100_000
        marg = bplt.glauber_marginals(g, params, num_chains=chains, sweeps=50, seed=SEED + i)
        sigma = np.sqrt(exact * (1 - exact) / chains)
        z = float(np.max(np.abs(marg - exact) / sigma))
        worst_g = max(worst_g, z)
        assert z <= 3.0
    _report(
        12,
        f"20 sampling estimates within 3 sigma (worst z {worst_z:.2f}); "
        f"heat-bath marginals within 3 sigma (worst z {worst_g:.2f})",
    )
