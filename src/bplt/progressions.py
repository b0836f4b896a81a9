"""Arithmetic-progression avoidance: the AP hypergraph, the functional
message operator on a grid, its fixed point, and the two rate formulas.

Integers 1..n become vertices 0..n-1; the k-uniform hypergraph has one edge
per k-term progression inside [n].  The position-dependent degree makes the
message fixed point a function of position t in [0, 1]; it is represented
on a uniform grid of size M and iterated with the same log-sup contraction
certificate as the finite-dimensional operator.  Inner integrals use the
composite trapezoid rule on the grid (integer shifts stay on-grid), with
linear interpolation only on the fractional tail segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bp import BPParams, _gauss_legendre, _iterate, bp_fixed_point
from .errors import DomainError, SizeGuardError
from .gibbs import ModelParams, glauber_marginals, summarize
from .hypergraph import Multihypergraph

__all__ = [
    "KapParams",
    "degree_coefficient",
    "ap_hypergraph",
    "ap_degree",
    "functional_apply",
    "phi_apply",
    "kap_fixed_point",
    "phi_fixed_point",
    "phi_threshold",
    "kap_rate",
    "kap_rate_bethe",
    "MarginalTable",
    "kap_marginal_check",
    "discrete_profile_gap",
]

def degree_coefficient(k):
    """Exact rational alpha with max degree of the AP hypergraph ~ alpha * n.

    alpha = (1/2) * sum_{i=1..k} min(1/(i-1), 1/(k-i)), the 1/0 entries
    read as +infinity so the minimum picks the finite side.
    """
    if k < 3:
        raise DomainError("k must be >= 3")
    total = Fraction(0)
    for i in range(1, k + 1):
        left = Fraction(1, i - 1) if i > 1 else None
        right = Fraction(1, k - i) if i < k else None
        if left is None:
            term = right
        elif right is None:
            term = left
        else:
            term = min(left, right)
        total += term
    return total / 2


def ap_hypergraph(k, n):
    """All k-term progressions {a, a+d, ..., a+(k-1)d} inside [n], 0-indexed."""
    if k < 3:
        raise DomainError("k must be >= 3")
    if n < k:
        raise DomainError("n must be at least k")
    edges = []
    d = 1
    while (k - 1) * d <= n - 1:
        for a in range(n - (k - 1) * d):
            edges.append(tuple(a + i * d for i in range(k)))
        d += 1
    return Multihypergraph(n, edges)


def ap_degree(k, n, t):
    """Closed-form degree of integer t (1-based) in the AP hypergraph:
    sum over positions i of min(floor((t-1)/(i-1)), floor((n-t)/(k-i)))."""
    if not 1 <= t <= n:
        raise ValueError("t must lie in 1..n")
    total = 0
    for i in range(1, k + 1):
        left = (t - 1) // (i - 1) if i > 1 else None
        right = (n - t) // (k - i) if i < k else None
        if left is None:
            total += right
        elif right is None:
            total += left
        else:
            total += min(left, right)
    return total


@dataclass(frozen=True)
class KapParams:
    """Uniformity, prior density, penalty, and grid resolution."""

    k: int
    c: float
    zeta: float = 1.0
    grid_size: int = 2000

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0 <= self.zeta <= 1:
            raise ValueError("zeta must lie in [0, 1]")
        if self.grid_size < 2 * self.k:
            raise ValueError("grid_size too small for the offsets")


def _band_integral(f, offsets, a, b):
    """Per grid point t=j/M, the integral over s in [0, w(t)] of
    prod_i f(t + offsets[i] * s), where w(t) = min(t/a, (1-t)/b) and a zero
    divisor means that side is unconstrained.

    Full grid segments use the trapezoid rule with on-grid integer shifts;
    the fractional tail uses linear interpolation of f.
    """
    m = len(f) - 1
    h = 1.0 / m
    j = np.arange(m + 1)
    acc = np.zeros(m + 1)

    def seg_product(r, lo, hi):
        out = np.ones(hi - lo + 1)
        for i in offsets:
            out = out * f[lo + i * r : hi + i * r + 1]
        return out

    lo_prev = 0
    g_prev = seg_product(0, 0, m)
    r = 0
    while True:
        r_next = r + 1
        lo = a * r_next
        hi = m - b * r_next
        if lo > hi:
            break
        g_next = seg_product(r_next, lo, hi)
        acc[lo : hi + 1] += 0.5 * h * (g_prev[lo - lo_prev : hi - lo_prev + 1] + g_next)
        g_prev, lo_prev = g_next, lo
        r = r_next

    # fractional tail [R(t)/M, w(t)]
    if a > 0 and b > 0:
        r_full = np.minimum(j // a, (m - j) // b)
        w = np.minimum(j / (a * m), (m - j) / (b * m))
    elif a > 0:
        r_full = j // a
        w = j / (a * m)
    else:
        r_full = (m - j) // b
        w = (m - j) / (b * m)
    tau = w - r_full * h
    g_full = np.ones(m + 1)
    for i in offsets:
        g_full = g_full * f[j + i * r_full]
    grid = j * h
    g_end = np.ones(m + 1)
    for i in offsets:
        g_end = g_end * np.interp(grid + i * w, grid, f)
    acc += 0.5 * tau * (g_full + g_end)
    return acc


def _grid_apply(f, c, coeff, k):
    f = np.asarray(f, dtype=float)
    total = np.zeros(len(f))
    for ell in range(1, k + 1):
        offsets = [i for i in range(-(ell - 1), k - ell + 1) if i != 0]
        total += _band_integral(f, offsets, ell - 1, k - ell)
    return c * np.exp(-coeff * total)


def functional_apply(params, f):
    """One application of the grid operator with prefactor zeta/alpha."""
    if len(f) != params.grid_size + 1:
        raise ValueError("f must have grid_size + 1 entries")
    alpha = float(degree_coefficient(params.k))
    return _grid_apply(f, params.c, params.zeta / alpha, params.k)


def phi_apply(k, c, f):
    """One application of the unscaled profile operator (prefactor 1)."""
    return _grid_apply(f, c, 1.0, k)


def _grid_fixed_point(c, coeff, k, grid_size, tol, max_iter):
    alpha = float(degree_coefficient(k))
    factor = coeff * alpha * (k - 1) * c ** (k - 1) / math.e
    if factor >= 1.0:
        raise DomainError(
            f"outside the contraction region (square-iterate factor {factor:.6g})"
        )
    f = np.full(grid_size + 1, float(c))
    return _iterate(
        lambda g: _grid_apply(g, c, coeff, k), f, tol, max_iter, "grid fixed point"
    )


def kap_fixed_point(params, tol=1e-12, max_iter=10_000):
    """Fixed point of the zeta/alpha-scaled operator, from the constant c."""
    alpha = float(degree_coefficient(params.k))
    return _grid_fixed_point(
        params.c, params.zeta / alpha, params.k, params.grid_size, tol, max_iter
    )


def phi_threshold(k):
    """Largest admissible c for the profile operator:
    (e / ((k-1) alpha))^(1/(k-1))."""
    alpha = float(degree_coefficient(k))
    return (math.e / ((k - 1) * alpha)) ** (1.0 / (k - 1))


def phi_fixed_point(k, c, tol=1e-12, grid_size=2000, method="scaled", max_iter=10_000):
    """Fixed point of the profile operator.

    ``method='scaled'`` solves the zeta=1 scaled operator at c' = gamma*c
    with gamma = alpha^(1/(k-1)) and divides by gamma (the two operators
    are conjugate under that scaling); ``method='direct'`` iterates the
    profile operator itself.  Both routes agree to solver tolerance.
    """
    if not 0 < c < phi_threshold(k):
        raise DomainError(
            f"c={c} outside the admissible range (0, {phi_threshold(k):.12g})"
        )
    if method == "direct":
        return _grid_fixed_point(c, 1.0, k, grid_size, tol, max_iter)
    if method != "scaled":
        raise ValueError("method must be 'scaled' or 'direct'")
    alpha = float(degree_coefficient(k))
    gamma = alpha ** (1.0 / (k - 1))
    scaled = _grid_fixed_point(gamma * c, 1.0 / alpha, k, grid_size, tol, max_iter)
    return scaled / gamma


def _trapz(values, h):
    return h * (values.sum() - 0.5 * (values[0] + values[-1]))


def kap_rate(k, c, quad_nodes=64, grid_size=800, tol=1e-11, max_iter=10_000):
    """Non-existence rate via the family of profile fixed points:
    integral over t in (0, c] of (1/t) * integral of the fixed point at
    parameter t, minus c.

    Outer Gauss-Legendre on [eps, c] with warm-started solves per node;
    the [0, eps) head contributes eps since the fixed point at parameter t
    approaches t uniformly.
    """
    if not 0 < c < phi_threshold(k):
        raise DomainError(
            f"c={c} outside the admissible range (0, {phi_threshold(k):.12g})"
        )
    eps = c * 1e-6
    ts, ws = _gauss_legendre(eps, c, quad_nodes)
    h = 1.0 / grid_size
    total = eps
    f = np.full(grid_size + 1, float(ts[0]))
    for t, w in zip(ts, ws):
        t = float(t)
        f = _iterate(lambda g: _grid_apply(g, t, 1.0, k), f, tol, max_iter, "kap_rate")
        total += w * _trapz(f, h) / t
    return total - c


def kap_rate_bethe(k, c, grid_size=2000, tol=1e-12):
    """Non-existence rate from the single fixed point at parameter c:
    minus the edge integral, minus the entropy integral, minus c.

    The edge integral runs the inner variable over [0, (1-t)/(k-1)] with
    the product of the fixed point at t, t+s, ..., t+(k-1)s.
    """
    x = phi_fixed_point(k, c, tol=tol, grid_size=grid_size)
    h = 1.0 / grid_size
    inner = _band_integral(x, list(range(k)), 0, k - 1)
    edge_term = _trapz(inner, h)
    entropy = _trapz(x * (np.log(x / c) - 1.0), h)
    return -edge_term - entropy - c


@dataclass(frozen=True)
class MarginalTable:
    """Scaled conditional marginals against the profile prediction.

    ``positions[i]`` is the 1-based integer j; ``scaled`` holds
    n^(1/(k-1)) * P(j in the set | no progression), exact or Monte Carlo
    per ``mode``; ``predicted`` samples the profile fixed point at j/n."""

    positions: np.ndarray
    scaled: np.ndarray
    predicted: np.ndarray
    mode: str

    @property
    def gaps(self):
        return self.scaled - self.predicted

    @property
    def mean_abs_gap(self):
        return float(np.mean(np.abs(self.gaps)))


def kap_marginal_check(
    k,
    c,
    n,
    mode="auto",
    grid_size=2000,
    chains=20_000,
    sweeps=60,
    seed=0,
):
    """Conditional occupation marginals of the AP-free measure at density
    c * n^(-1/(k-1)), against the profile prediction.

    Conditioning a p-random set on having no progression is the hard-core
    measure at lam = p/(1-p).  ``mode="auto"`` computes it exactly whenever
    :func:`summarize` can, and falls back to heat-bath sampling when
    :func:`summarize` raises :class:`SizeGuardError`.  Reported as a table,
    not asserted.
    """
    if mode not in ("auto", "exact", "mc"):
        raise ValueError("mode must be 'auto', 'exact', or 'mc'")
    graph = ap_hypergraph(k, n)
    p = c * n ** (-1.0 / (k - 1))
    if not p < 1:
        raise DomainError("c n^(-1/(k-1)) must be < 1")
    params = ModelParams(lam=p / (1.0 - p), zeta=1.0)
    if mode != "mc":
        try:
            marginals = summarize(graph, params).marginals
            mode = "exact"
        except SizeGuardError:
            if mode == "exact":
                raise
            mode = "mc"
    if mode == "mc":
        marginals = glauber_marginals(graph, params, chains, sweeps, seed)
    profile = phi_fixed_point(k, c, grid_size=grid_size)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    positions = np.arange(1, n + 1)
    predicted = np.interp(positions / n, grid, profile)
    scaled = n ** (1.0 / (k - 1)) * marginals
    return MarginalTable(positions, scaled, predicted, mode)


def discrete_profile_gap(k, n, c, zeta=1.0, tol=1e-10, grid_tol=1e-12):
    """Sup-norm gap between the finite-hypergraph fixed point on the AP
    hypergraph (scaled by its max degree) and the grid fixed point.

    Vertex j (0-based) is compared with the grid value at (j+1)/n on a
    grid of size n.  Returns (gap, bp_vector, grid_values)."""
    graph = ap_hypergraph(k, n)
    delta = max(graph.degrees())
    bp_vec = bp_fixed_point(graph, BPParams(k, c, zeta, delta), tol=tol)
    grid_fp = kap_fixed_point(KapParams(k, c, zeta, grid_size=n), tol=grid_tol)
    gap = float(np.max(np.abs(bp_vec - grid_fp[1:])))
    return gap, bp_vec, grid_fp
