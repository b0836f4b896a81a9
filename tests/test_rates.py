import decimal
import functools
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bplt.bp import BPParams, lambert_w0, regular_fixed_point, solve_zeta_regular, thresholds
from bplt.errors import DomainError
from bplt.hypergraph import degree_stats
from bplt.progressions import ap_degree, ap_hypergraph, degree_coefficient, phi_fixed_point
from bplt.rates import (
    SimpleGraph,
    copies_per_edge,
    named_graph,
    rate_gnm,
    rate_gnp,
    rpartite_bound_gnm,
    rpartite_bound_gnp,
    subgraph_hypergraph,
    subgraph_profile,
    subgraph_rate,
)

from conftest import loop_subgraph_edges

def decimal_lambert_w(y):
    """W(y) for a decimal y > 0 by Newton in the current decimal context,
    from ln y - ln ln y when y > 3 and from y/(1+y) below."""
    w = y.ln() - y.ln().ln() if y > 3 else y / (1 + y)
    for _ in range(200):
        e = w.exp()
        step = (w * e - y) / (e * (w + 1))
        w -= step
        if abs(step) <= abs(w) * Decimal(10) ** (2 - decimal.getcontext().prec):
            return w
    raise AssertionError(f"Newton did not converge at y={y}")


def decimal_rate_gnp_eta0(k, c, digits=50):
    """``rate_gnp(k, c, 0) = x + (1 - 1/k) x^k - c`` in ``digits``-digit
    decimal arithmetic, x = (W((k-1) c^(k-1)) / (k-1))^(1/(k-1)) the root of
    x e^(x^(k-1)) = c: the reference for its cancellation-free float form,
    which a cancelling form at 50 digits still meets to about 19 digits at
    c = 1e-6, k = 6."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c = Decimal(c)  # the float's exact value
        w = decimal_lambert_w((k - 1) * c ** (k - 1))
        x = (w / (k - 1)) ** (Decimal(1) / (k - 1))
        return float(x + (1 - Decimal(1) / k) * x**k - c)


def decimal_zeta(k, c, eta):
    """The zeta in (0, 1) with (1 - zeta) (x/c)^k = eta, and 1 - zeta, for
    decimal c and eta in the current decimal context, where
    x/c = (W(y) / y)^(1/(k-1)) = exp(-W(y)/(k-1)), y = (k-1) c^(k-1) zeta:
    bisection on the logit t = log(zeta / (1 - zeta)) over [-140, 740] to a
    width of 1e-30, so that zeta and 1 - zeta are both right to about 30
    digits, from zeta = 1e-60 up to 1 - zeta = 1e-320."""

    def point(t):  # zeta and 1 - zeta at logit t
        e = t.exp()
        return e / (1 + e), 1 / (1 + e)

    def gap(t):
        z, w = point(t)
        return w * (-decimal_lambert_w((k - 1) * c ** (k - 1) * z) * k / (k - 1)).exp() - eta

    lo, hi = Decimal(-140), Decimal(740)
    assert gap(lo) > 0 > gap(hi)
    while hi - lo > Decimal(10) ** -30:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
    return point(hi)


def decimal_solve_zeta_regular(k, c, eta, digits=60):
    """``solve_zeta_regular(k, c, eta)`` in ``digits``-digit decimal
    arithmetic (``decimal_zeta``), and whether (k-1) zeta c^(k-1) < e
    there."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c = Decimal(c)
        zeta, _ = decimal_zeta(k, c, Decimal(eta))
        return float(zeta), (k - 1) * zeta * c ** (k - 1) < Decimal(1).exp()


def decimal_rate_gnp(k, c, eta, digits=60):
    """``rate_gnp(k, c, eta) = x + x^k zeta (1 - 1/k) - log(1 - zeta) eta c^k/k
    - c`` in ``digits``-digit decimal arithmetic, at the decimal zeta and
    1 - zeta of ``decimal_zeta``, never their floats, x the regular fixed
    point: the reference for rate_gnp's form, which does not cancel.  This
    one does: at c = 1e-6, k = 6 it keeps about 30 of its 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c, eta = Decimal(c), Decimal(eta)
        zeta, w = decimal_zeta(k, c, eta)
        y = (k - 1) * c ** (k - 1) * zeta
        x = c * (decimal_lambert_w(y) / y) ** (Decimal(1) / (k - 1))
        return float(x + x**k * zeta * (1 - Decimal(1) / k) - w.ln() * eta * c**k / k - c)


K3 = named_graph("K3")
K4 = named_graph("K4")
C4 = named_graph("C4")
C5 = named_graph("C5")


def brute_aut(graph):
    """Oracle: filter all vertex permutations."""
    edges = set(graph.edges)
    count = 0
    for perm in itertools.permutations(range(graph.num_vertices)):
        image = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        if image == edges:
            count += 1
    return count


def brute_m2(graph):
    """Oracle: maximise over every vertex subset and every edge subset."""
    best = None
    for size in range(3, graph.num_vertices + 1):
        for subset in itertools.combinations(range(graph.num_vertices), size):
            s = set(subset)
            inside = [e for e in graph.edges if set(e) <= s]
            for r in range(len(inside) + 1):
                ratio = Fraction(r - 1, size - 2)
                if best is None or ratio > best:
                    best = ratio
    return best


def brute_chromatic(graph):
    n = graph.num_vertices
    for r in range(1, n + 1):
        for colours in itertools.product(range(r), repeat=n):
            if all(colours[u] != colours[v] for u, v in graph.edges):
                return r
    return n


def brute_triangles_on_edge(n):
    """Oracle: count triangles of K_n through the fixed edge {0,1}."""
    return sum(1 for w in range(n) if w not in (0, 1))


class TestSimpleGraph:
    def test_named(self):
        assert K3.num_edges == 3 and K4.num_edges == 6
        assert C4.num_edges == 4 and C4.num_vertices == 4
        assert named_graph("P3").num_edges == 3

    def test_no_loops_or_multi(self):
        # loops, multi-edges, edges that are not pairs, and vertices out of range
        for edges in (
            ((0, 0),), ((0, 1), (2, 2)), ((0, 1), (1, 0)), ((1, 2), (0, 1), (2, 1)),
            ((0, 1, 2),), ((0,),), ((),), ((0, 3),), ((-1, 2),),
        ):
            with pytest.raises(ValueError):
                SimpleGraph(3, edges)

    def test_edges_canonical(self):
        g = SimpleGraph(4, ((3, 2), (1, 0), [2, 0]))
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.degrees() == [2, 1, 2, 1]


class TestProfile:
    def test_triangle(self):
        p = subgraph_profile(K3)
        assert p.m2 == 2 and p.strictly_2_balanced
        assert p.aut == 6 and p.chromatic_number == 3

    def test_k4(self):
        p = subgraph_profile(K4)
        assert p.m2 == Fraction(5, 2) and p.strictly_2_balanced
        assert p.aut == 24 and p.chromatic_number == 4

    def test_triangle_with_pendant_not_balanced(self):
        g = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        p = subgraph_profile(g)
        assert not p.strictly_2_balanced
        assert p.m2 == 2  # the triangle inside still dominates

    def test_c4(self):
        p = subgraph_profile(C4)
        assert p.m2 == Fraction(3, 2) and p.strictly_2_balanced
        assert p.aut == 8 and p.chromatic_number == 2

    def test_against_brute_force(self, rng):
        for _ in range(12):
            n = int(rng.integers(4, 7))
            pairs = list(itertools.combinations(range(n), 2))
            m = int(rng.integers(3, len(pairs) + 1))
            chosen = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
            g = SimpleGraph(n, tuple(chosen))
            p = subgraph_profile(g)
            assert p.aut == brute_aut(g)
            assert p.m2 == brute_m2(g)
            assert p.chromatic_number == brute_chromatic(g)

    def test_guard(self):
        g = SimpleGraph(11, tuple((i, i + 1) for i in range(10)))
        with pytest.raises(DomainError):
            subgraph_profile(g)


class TestCopiesPerEdge:
    def test_triangle_formula(self):
        for n in range(3, 12):
            assert copies_per_edge(K3, n) == n - 2

    def test_triangle_direct_count(self):
        assert copies_per_edge(K3, 6) == 4 == brute_triangles_on_edge(6)

    def test_minimal_n(self):
        h, k, aut = 4, 6, 24
        assert copies_per_edge(K4, 4) == 2 * k * math.factorial(h - 2) // aut

    def test_c4(self):
        # copies of C4 on a fixed edge of K_n: 2*4/8 * (n-2)(n-3) = (n-2)(n-3)
        assert copies_per_edge(C4, 6) == 12


class TestSubgraphHypergraph:
    def test_k3_n4(self):
        g = subgraph_hypergraph(K3, 4)
        assert g.num_vertices == 6 and g.num_edges == 4

    @pytest.mark.parametrize(
        "pattern, sizes", [(K3, (3, 4, 7, 9)), (K4, (4, 5, 7)), (C5, (5, 6, 8))]
    )
    def test_matches_loop(self, pattern, sizes):
        # the same edges tuple, in the same order, as the placement loop
        for n in sizes:
            g = subgraph_hypergraph(pattern, n)
            assert g.num_vertices == n * (n - 1) // 2
            assert g.edges == loop_subgraph_edges(pattern, n)

    def test_regularity(self):
        for n in (5, 6, 7, 8):
            g = subgraph_hypergraph(K3, n)
            deg = g.degrees()
            assert min(deg) == max(deg) == copies_per_edge(K3, n)

    def test_copy_count(self):
        for n in (4, 5, 6):
            g = subgraph_hypergraph(K4, n)
            total = math.comb(n, 4) * math.factorial(4) // 24
            assert g.num_edges == total

    def test_tree_like_diagnostics(self):
        from bplt.hypergraph import degree_stats

        g = subgraph_hypergraph(K3, 12)
        r = degree_stats(g, 3)
        assert r.delta == 10
        assert r.delta_ell[2] == 1  # two K_n-edges lie in at most one triangle
        assert r.gamma <= 2
        assert r.ratios["codegree_ratio"] < 0.5


class TestSolveZetaRegular:
    @pytest.mark.parametrize("c", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("k", [3, 4])
    def test_zeta_matches_decimal_reference(self, k, c):
        # zeta shrinks like c^-(k-1), to 2.9e-19 at k = 4, c = 1e6, so only
        # a relative bracket tolerance finds it; the flag is the contraction
        # condition at the root, False at eta = 0.1, where c lies past
        # c_max_regular, and True at 0.5 and 0.9, where that is infinite
        for eta in (0.1, 0.5, 0.9):
            got, ok = solve_zeta_regular(k, c, eta)
            want, want_ok = decimal_solve_zeta_regular(k, c, eta)
            assert abs(got - want) <= 1e-12 * want, (k, c, eta, got, want)
            assert ok == want_ok == (c < thresholds(k, eta).c_max_regular), (k, c, eta)
            assert ok == (eta > 0.1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_contraction_holds_in_the_admissible_range(self, k):
        # below c_max_regular (and up to 1e6 where that is infinite) the
        # flag always reads True: it adds nothing to the range check there
        for eta in np.linspace(0.01, 0.99, 20):
            c_max = thresholds(k, float(eta)).c_max_regular
            top = 1e6 if math.isinf(c_max) else 0.999 * c_max
            for c in np.geomspace(1e-6, top, 20):
                assert solve_zeta_regular(k, float(c), float(eta))[1], (k, c, eta)


class TestRateGnp:
    def test_eta_zero_closed_form(self):
        for k, c in [(2, 1.0), (3, 0.9), (4, 0.6), (5, 0.5)]:
            x = (lambert_w0((k - 1) * c ** (k - 1)) / (k - 1)) ** (1 / (k - 1))
            assert rate_gnp(k, c, 0.0) == pytest.approx(
                x + (1 - 1 / k) * x**k - c, rel=1e-12
            )

    def test_k2_unit_value(self):
        # frozen from a 40-digit evaluation of W(1) + W(1)^2/2 - 1
        assert rate_gnp(2, 1.0, 0.0) == pytest.approx(
            -0.2720309536617979, abs=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_eta_zero_matches_decimal_reference(self, k):
        # down to the Janson end c -> 0, where the rate is about -c^k/k and
        # x + (1 - 1/k) x^k - c cancels: relative error at most 1e-12 and a
        # negative log-probability at every c
        c_max = thresholds(k, 0.0).c_max_regular
        for c in np.geomspace(1e-6, 0.999 * c_max, 40):
            got, want = rate_gnp(k, float(c), 0.0), decimal_rate_gnp_eta0(k, float(c))
            assert got < 0
            assert abs(got - want) <= 1e-12 * abs(want), (k, c, got, want)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 1e-17, 1e-300])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_decimal_reference(self, k, eta):
        # at four c from the Janson end 1e-6 to 0.999 c_max_regular (1e6
        # where that is infinite): no cancellation at small c, no tail term
        # lost where zeta is below the float spacing at 1 (large c), and a
        # finite rate where zeta rounds to 1 (eta = 1e-17 and 1e-300)
        c_max = thresholds(k, eta).c_max_regular
        top = 1e6 if math.isinf(c_max) else 0.999 * c_max
        for c in np.geomspace(1e-6, top, 4):
            got, want = rate_gnp(k, float(c), eta), decimal_rate_gnp(k, float(c), eta)
            assert got <= 0
            assert abs(got - want) <= 1e-12 * abs(want), (k, c, eta, got, want)

    def test_small_c_poisson_regime(self):
        for k in (2, 3, 4):
            c = 1e-3
            assert rate_gnp(k, c, 0.0) == pytest.approx(-(c**k) / k, rel=5e-2)
            assert rate_gnp(k, c, 0.0) < 0

    def test_monotone_in_c_and_eta(self):
        cs = np.linspace(0.1, 1.1, 12)
        vals = [rate_gnp(3, float(c), 0.0) for c in cs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        etas = np.linspace(0.0, 0.8, 9)
        vals = [rate_gnp(3, 0.8, float(e)) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_gnp(3, 2.0, 0.0)
        # above eta_crit the admissible range is unbounded
        assert rate_gnp(3, 5.0, 0.5) < 0


class TestRateGnm:
    def test_eta_zero(self):
        assert rate_gnm(3, 0.5, 0.0) == -(0.5**3) / 3
        assert rate_gnm(4, 0.3, 0.0) == pytest.approx(-(0.3**4) / 4, rel=1e-15)

    def test_eta_to_one_vanishes(self):
        assert abs(rate_gnm(3, 0.5, 0.999999)) < 1e-9

    def test_poisson_shape(self):
        b, eta = 0.4, 0.3
        want = -(b**3 / 3) * (1 - eta + eta * math.log(eta))
        assert rate_gnm(3, b, eta) == pytest.approx(want, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_gnm(3, 0.9, 0.0)  # (k-1) b^(k-1) = 1.62 >= 1


class TestSubgraphRate:
    def test_triangle_matches_kernel(self):
        assert subgraph_rate(K3, 1.0, 0.0).rate == rate_gnp(3, 1.0, 0.0)

    def test_c4_threshold(self):
        r = subgraph_rate(C4, 0.5, 0.0)
        assert r.k == 4
        with pytest.raises(DomainError):
            subgraph_rate(C4, (math.e / 3) ** (1 / 3) + 0.01, 0.0)

    def test_non_balanced_rejected(self):
        g = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        with pytest.raises(DomainError):
            subgraph_rate(g, 0.5, 0.0)

    def test_gnm_model(self):
        assert subgraph_rate(K3, 0.5, 0.0, model="gnm").rate == rate_gnm(3, 0.5, 0.0)

    def test_metadata(self):
        r = subgraph_rate(K3, 0.5, 0.0)
        assert r.m2 == 2 and r.aut == 6 and r.chromatic_number == 3
        assert "n^(-1/m2)" in r.p_scaling and "binom" in r.m_scaling


class TestPartiteBounds:
    def test_values(self):
        assert rpartite_bound_gnp(K3, 0.8) == pytest.approx(-0.4)
        assert rpartite_bound_gnm(K3, 0.5) == pytest.approx(0.5 * math.log(0.5))

    def test_crossing_emerges(self):
        # the partite bound eventually beats the analytic formula
        thr = thresholds(3, 0.0).c_max_regular
        c_near = thr * 0.999
        assert rate_gnp(3, 0.2, 0.0) > rpartite_bound_gnp(K3, 0.2)
        assert rate_gnp(3, c_near, 0.0) < 0


# every entry point that checks k: (call of k, least k, error type)
K_ENTRIES = {
    "regular_fixed_point": (lambda k: regular_fixed_point(k, 0.5, 1.0), 2, DomainError),
    "thresholds": (lambda k: thresholds(k, 0.1), 2, DomainError),
    "BPParams": (lambda k: BPParams(k, 0.5, 1.0, 3), 2, ValueError),
    "solve_zeta_regular": (lambda k: solve_zeta_regular(k, 0.5, 0.3), 2, DomainError),
    "rate_gnp": (lambda k: rate_gnp(k, 0.5, 0.3), 2, DomainError),
    "rate_gnm": (lambda k: rate_gnm(k, 0.5, 0.3), 2, DomainError),
    "degree_coefficient": (degree_coefficient, 3, DomainError),
    "ap_hypergraph": (lambda k: ap_hypergraph(k, 10), 3, DomainError),
    "ap_degree": (lambda k: ap_degree(k, 10, 3), 3, DomainError),
    "phi_fixed_point": (lambda k: phi_fixed_point(k, 0.5, grid_size=60), 3, DomainError),
    "degree_stats": (lambda k: degree_stats(subgraph_hypergraph(K3, 5), k), 2, ValueError),
}
REFUSALS = {
    f"{name}-k={k!r}": (
        functools.partial(call, k),
        error,
        f"k must be >= {least}" if k == least - 1 else f"k must be an integer, got {k!r}",
    )
    for name, (call, least, error) in K_ENTRIES.items()
    for k in (3.5, 3.0, least - 1)
} | {
    "rate_gnm-b=0": (lambda: rate_gnm(3, 0.0, 0.3), DomainError, "b must be positive"),
    "rate_gnm-b=nan": (lambda: rate_gnm(3, math.nan, 0.3), DomainError, "b must be positive"),
    "rate_gnm-eta=1": (lambda: rate_gnm(3, 0.5, 1.0), DomainError, "eta must lie in [0, 1)"),
    "rate_gnm-eta=-0.1": (lambda: rate_gnm(3, 0.5, -0.1), DomainError, "eta must lie in [0, 1)"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_entry_refusals(case):
    # k is read as an index, as vertex ids are: 3.5 and 3.0 are refused, not
    # truncated or passed on, with the error type the entry point uses
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
