"""Belief-propagation operator, certified fixed points, Bethe free energy,
penalty solvers, and the BP-side rate formulas.

The operator sends a positive vertex vector x to
``c * exp(-(zeta/Delta) * sum_{e: v in e} prod_{u in e, u != v} x_u)``.
When ``zeta * (k-1) * c^(k-1) < e`` its square contracts the log-sup metric
with factor ``1 - margin`` where ``margin = 1 - zeta c^(k-1) (k-1)/e``, so
there is a unique fixed point and plain iteration from the constant vector
c converges geometrically.  On a Delta-regular graph the fixed point is the
constant solution of ``x = c exp(-zeta x^(k-1))``, available in closed form
through the Lambert W function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "BPParams",
    "Thresholds",
    "lambert_w0",
    "regular_fixed_point",
    "thresholds",
    "contraction_margin",
    "bp_apply",
    "bp_fixed_point",
    "bethe_free_energy",
    "solve_zeta_regular",
    "solve_zeta",
    "bp_log_partition",
    "bp_lower_tail_rate",
]

_BRANCH_POINT = -1.0 / math.e


def lambert_w0(y):
    """Principal branch of the Lambert W function (inverse of w*e^w).

    Defined for y >= -1/e; solved by Halley iteration from a piecewise
    initial guess, converging to machine precision.
    """
    y = float(y)
    if y < _BRANCH_POINT:
        if y > _BRANCH_POINT * (1.0 + 1e-14):  # tolerate rounding at the branch point
            return -1.0
        raise DomainError(f"lambert_w0 requires y >= -1/e, got {y}")
    if y == 0.0:
        return 0.0
    if abs(y - _BRANCH_POINT) < 1e-16:
        return -1.0
    if y < -0.25:
        # series around the branch point
        p = math.sqrt(2.0 * (math.e * y + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif y < math.e:
        w = y / (1.0 + y) if y > 0 else y * math.exp(-y)
    else:
        w = math.log(y)
        w -= math.log(w)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - y
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def regular_fixed_point(k, c, zeta):
    """The unique solution of x = c * exp(-zeta * x^(k-1)) in (0, c].

    Closed form via Lambert W; at zeta = 0 the solution is c itself.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not c > 0:
        raise DomainError("c must be positive")
    if not 0 <= zeta <= 1:
        raise DomainError("zeta must lie in [0, 1]")
    if zeta == 0.0:
        return float(c)
    w = lambert_w0((k - 1) * c ** (k - 1) * zeta)
    return (w / ((k - 1) * zeta)) ** (1.0 / (k - 1))


@dataclass(frozen=True)
class Thresholds:
    """Critical prior densities for the lower-tail formulas.

    ``c_max_regular`` bounds the admissible density for approximately
    regular hypergraphs (infinite once eta reaches ``eta_crit``);
    ``c_max_general`` is the smaller bound valid without regularity.
    They coincide exactly at eta = 0.
    """

    eta_crit: float
    c_max_regular: float
    c_max_general: float


def thresholds(k, eta):
    if k < 2:
        raise DomainError("k must be >= 2")
    if not 0 <= eta < 1:
        raise DomainError("eta must lie in [0, 1)")
    eta_crit = math.exp(-k / (k - 1))
    if eta < eta_crit:
        c_bar = (math.e / ((k - 1) * (1.0 - eta / eta_crit))) ** (1.0 / (k - 1))
    else:
        c_bar = math.inf
    c_gen = (math.e / ((1.0 - eta) * (k - 1))) ** (1.0 / (k - 1))
    return Thresholds(eta_crit, c_bar, c_gen)


def contraction_margin(k, c, zeta):
    """1 - zeta * c^(k-1) * (k-1)/e; positive inside the uniqueness region."""
    return 1.0 - zeta * c ** (k - 1) * (k - 1) / math.e


@dataclass(frozen=True)
class BPParams:
    """Uniformity, prior density, penalty, and the degree scale Delta.

    ``delta`` is the caller's scaling choice (the maximum degree unless a
    different normalisation is wanted).
    """

    k: int
    c: float
    zeta: float
    delta: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0 <= self.zeta <= 1:
            raise ValueError("zeta must lie in [0, 1]")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    @property
    def margin(self):
        return contraction_margin(self.k, self.c, self.zeta)


def _edge_array(graph, k):
    if graph.num_edges == 0:
        return np.zeros((0, k), dtype=np.int64)
    if any(len(e) != k for e in graph.edges):
        raise ValueError(f"graph is not {k}-uniform")
    return np.array(graph.edges, dtype=np.int64)


def _apply(x, edges, c, zeta, delta):
    n = len(x)
    if len(edges):
        vals = x[edges]
        contrib = vals.prod(axis=1, keepdims=True) / vals
        sums = np.bincount(edges.ravel(), weights=contrib.ravel(), minlength=n)
    else:
        sums = np.zeros(n)
    return c * np.exp(-(zeta / delta) * sums)


def bp_apply(graph, params, x):
    """One application of the message operator; pure in x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.num_vertices,):
        raise ValueError("x must have one entry per vertex")
    if not np.all(x > 0):
        raise ValueError("x entries must be positive")
    edges = _edge_array(graph, params.k)
    return _apply(x, edges, params.c, params.zeta, params.delta)


def _iterate(apply, x, tol, max_iter, what):
    """Plain iteration ``x <- apply(x)`` from ``x``.

    Returns the first iterate whose log-sup step ``max |log apply(x) - log x|``
    is below ``tol``; ``what`` names the caller in the error raised when
    ``max_iter`` applications do not get there, or at once when the step is
    not finite (an entry underflowed to 0, or became NaN).
    """
    residual = math.inf
    for step in range(1, max_iter + 1):
        y = apply(x)
        residual = float(np.max(np.abs(np.log(y) - np.log(x))))
        if residual < tol:
            return x
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"{what}: non-finite residual after {step} iterations (underflow)",
                residual=residual,
                iterations=step,
            )
        x = y
    raise ConvergenceError(
        f"{what}: no fixed point after {max_iter} iterations",
        residual=residual,
        iterations=max_iter,
    )


def bp_fixed_point(graph, params, tol=1e-12, max_iter=100_000):
    """Unique fixed point, iterated from the constant vector c.

    Requires the contraction certificate ``zeta (k-1) c^(k-1) < e``; the
    returned vector satisfies ``max |log F(x) - log x| < tol``.  The
    one-step log residual decays geometrically with the square-iterate
    contraction factor ``1 - margin``.
    """
    if params.margin <= 0:
        raise DomainError(
            "outside the uniqueness region: need zeta*(k-1)*c^(k-1) < e "
            f"(margin {params.margin:.6g})"
        )
    edges = _edge_array(graph, params.k)
    x = np.full(graph.num_vertices, params.c)
    if len(edges) == 0:
        return x
    return _iterate(
        lambda v: _apply(v, edges, params.c, params.zeta, params.delta),
        x,
        tol,
        max_iter,
        "bp_fixed_point",
    )


def bethe_free_energy(graph, params, x):
    """-(zeta/Delta) sum_e prod_{u in e} x_u - sum_v x_v (log(x_v/c) - 1)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("x entries must be positive")
    edges = _edge_array(graph, params.k)
    edge_term = float(x[edges].prod(axis=1).sum()) if len(edges) else 0.0
    vertex_term = float((x * (np.log(x / params.c) - 1.0)).sum())
    return -(params.zeta / params.delta) * edge_term - vertex_term


def solve_zeta_regular(k, c, eta, tol=1e-15):
    """The unique zeta in [0,1] with (1-zeta) * x(c,zeta)^k = eta * c^k,
    where x is the regular fixed point.

    Returns ``(zeta, contraction_ok)``; the flag records whether
    ``(k-1) zeta c^(k-1) < e`` holds at the solution (guaranteed whenever
    c is below the regular critical density).
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not c > 0:
        raise DomainError("c must be positive")
    if not 0 <= eta <= 1:
        raise DomainError("eta must lie in [0, 1]")

    def g(z):
        return (1.0 - z) * (regular_fixed_point(k, c, z) / c) ** k - eta

    if eta == 0.0:
        zeta = 1.0
    elif eta == 1.0:
        zeta = 0.0
    else:
        from scipy.optimize import brentq  # slow to import; only this path uses it

        zeta = brentq(g, 0.0, 1.0, xtol=tol, rtol=4 * np.finfo(float).eps)
    ok = contraction_margin(k, c, zeta) > 0
    return float(zeta), ok


def solve_zeta(
    graph,
    k,
    c,
    eta,
    tol=1e-10,
    near_regular=False,
    delta=None,
    fp_tol=1e-13,
    max_iter=100_000,
    max_bisections=200,
):
    """Penalty zeta for which the fixed point achieves the lower-tail target.

    Finds zeta in (0, 1-eta] with
    ``(1-zeta) sum_e prod_{u in e} x*_u(zeta) = eta c^k |E|`` up to
    ``tol * c^k |E|``, by bisection with warm-started fixed points.
    Requires c below the general critical density, or the regular one when
    the caller asserts near-regularity.  eta = 0 returns zeta = 1 directly.
    """
    thr = thresholds(k, eta)
    bound = thr.c_max_regular if near_regular else thr.c_max_general
    if not 0 < c < bound:
        raise DomainError(
            f"c={c} outside the admissible range (0, {bound:.12g}) for eta={eta}"
        )
    if delta is None:
        delta = max(max(graph.degrees(), default=1), 1)

    if eta == 0.0:
        params = BPParams(k, c, 1.0, delta)
        return 1.0, bp_fixed_point(graph, params, tol=fp_tol, max_iter=max_iter)

    edges = _edge_array(graph, k)
    if len(edges) == 0:
        raise DomainError("solve_zeta needs at least one edge")
    scale = c**k * len(edges)
    target = eta * scale

    def edge_sum(x):
        return float(x[edges].prod(axis=1).sum())

    def residual(z, x):
        return (1.0 - z) * edge_sum(x) - target

    x = np.full(graph.num_vertices, c)  # fixed point at zeta = 0
    lo, r_lo = 0.0, residual(0.0, x)
    # keep the bracket a little inside the contraction region: the margin
    # (and hence the iteration speed) vanishes at the critical density
    zeta_cap = 0.995 * math.e / ((k - 1) * c ** (k - 1))
    hi = min(1.0 - eta, zeta_cap)

    def solve_at(z, warm):
        return _iterate(
            lambda v: _apply(v, edges, c, z, delta), warm, fp_tol, max_iter, "solve_zeta"
        )

    x_hi = solve_at(hi, x)
    r_hi = residual(hi, x_hi)
    if abs(r_hi) < tol * scale:
        return hi, x_hi
    if r_lo < 0 or r_hi > 0:
        raise ConvergenceError(
            f"bisection bracket failure: residuals {r_lo:.3e}, {r_hi:.3e}",
            residual=r_hi,
        )
    x_warm = x_hi
    best = (hi, x_hi, abs(r_hi))
    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        x_mid = solve_at(mid, x_warm)
        r_mid = residual(mid, x_mid)
        x_warm = x_mid
        if abs(r_mid) < best[2]:
            best = (mid, x_mid, abs(r_mid))
        if abs(r_mid) < tol * scale:
            return mid, x_mid
        if r_mid > 0:
            lo = mid
        else:
            hi = mid
    zeta, x_best, r_best = best
    if r_best < 10 * tol * scale:
        return zeta, x_best
    raise ConvergenceError(
        f"zeta bisection did not reach tolerance (residual {r_best:.3e})",
        residual=r_best,
    )


def _gauss_legendre(a, b, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def bp_log_partition(
    graph,
    params,
    method="bethe",
    quad_nodes=64,
    fp_tol=1e-13,
    max_iter=100_000,
):
    """BP estimate of log Z at activity c * delta^(-1/(k-1)).

    ``method='bethe'`` evaluates the Bethe free energy at the fixed point
    and rescales; ``method='integral'`` integrates sum_v x*_v(t)/t over
    t in (0, c] with Gauss-Legendre nodes (fixed points re-solved per node,
    warm-started) plus the analytic small-t contribution N*eps, using
    x*_v(t) ~ t as t -> 0.
    """
    k, c = params.k, params.c
    scale = params.delta ** (-1.0 / (k - 1))
    if params.margin <= 0:
        raise DomainError(
            "outside the uniqueness region: need zeta*(k-1)*c^(k-1) < e "
            f"(margin {params.margin:.6g})"
        )
    if method == "bethe":
        x = bp_fixed_point(graph, params, tol=fp_tol, max_iter=max_iter)
        return scale * bethe_free_energy(graph, params, x)
    if method != "integral":
        raise ValueError("method must be 'bethe' or 'integral'")
    eps = c * 1e-6
    ts, ws = _gauss_legendre(eps, c, quad_nodes)
    edges = _edge_array(graph, k)
    x = np.full(graph.num_vertices, ts[0])
    total = graph.num_vertices * eps
    for t, w in zip(ts, ws):
        t = float(t)
        x = _iterate(
            lambda v: _apply(v, edges, t, params.zeta, params.delta),
            x,
            fp_tol,
            max_iter,
            "bp_log_partition integral",
        )
        total += w * float(x.sum()) / t
    return scale * total


def bp_lower_tail_rate(graph, k, c, eta, delta=None, near_regular=False, fp_tol=1e-13):
    """The BP rate of log P(X <= eta E[X]), normalised by Delta^(1/(k-1))/|V|.

    Evaluates ``B(x*)/N - log(1-zeta) * eta * c^k |E| / (N Delta) - c`` at
    the achieving penalty; for eta = 0 the middle term is absent and
    zeta = 1.
    """
    if delta is None:
        delta = max(max(graph.degrees(), default=1), 1)
    n = graph.num_vertices
    if eta == 0.0:
        thr = thresholds(k, 0.0)
        if not 0 < c < thr.c_max_general:
            raise DomainError(
                f"c={c} outside the admissible range (0, {thr.c_max_general:.12g})"
            )
        params = BPParams(k, c, 1.0, delta)
        x = bp_fixed_point(graph, params, tol=fp_tol)
        return bethe_free_energy(graph, params, x) / n - c
    zeta, x = solve_zeta(
        graph, k, c, eta, near_regular=near_regular, delta=delta, fp_tol=fp_tol
    )
    params = BPParams(k, c, zeta, delta)
    b = bethe_free_energy(graph, params, x)
    tail_term = math.log(1.0 - zeta) * eta * c**k * graph.num_edges / (n * delta)
    return b / n - tail_term - c
