"""Belief-propagation operator, certified fixed points, Bethe free energy,
penalty solvers, and the BP-side rate formulas.

The operator sends a positive vertex vector x to
``c * exp(-(zeta/Delta) * sum_{e: v in e} prod_{u in e, u != v} x_u)``.
When ``zeta * (k-1) * c^(k-1) < e`` its square contracts the log-sup metric
with factor ``1 - margin`` where ``margin = 1 - zeta c^(k-1) (k-1)/e``, so
there is a unique fixed point.  Every solver reaches it through one shared
Anderson-mixed iteration (``_iterate``), from the constant vector c or a
predicted start (below), which returns a point only once its log-sup
residual is below the tolerance; the certificate is what puts that point
next to the unique fixed point.  On a
Delta-regular graph the fixed point is the constant solution of
``x = c exp(-zeta x^(k-1))``, available in closed form through the Lambert
W function.  Both penalty solvers find the zeta that meets the lower-tail
target with one bracketed root finder (``_root``, Illinois regula falsi).

The drivers that solve a family of fixed points, along the coupling
constant t of the log Z integral (``_coupling_integral``, also behind the
grid's ``kap_rate``) and along the penalty zeta in ``solve_zeta``, start each
solve from a prediction: Lagrange interpolation or extrapolation
(``_predict``) of the log fixed points
through the ``_PREDICT_ORDER`` solved parameters nearest the next one.  The
prediction is clipped to be positive and at most the prior (t, or c) it
starts from (``_start``), where every fixed point lies, so a poor one costs
applications and never a failure.  Only the starting points are predicted;
each returned point still passes ``_iterate``'s residual test.  This is the
predictor of a predictor-corrector continuation method (Allgower and Georg,
Numerical Continuation Methods, 1990), with ``_iterate`` the corrector.

The operator works on the edges as one (k, M) array, which the graph
builds on first use and keeps (``hypergraph._edge_rows``), so the public
functions below share it by calling one another.  Each public call also
allocates a workspace of two (k, M) float buffers (``_workspace``) that
every application in that call reuses: a solve makes tens to thousands of
applications, and allocating the buffers afresh each time made the kernel
wait on page faults.  The buffers live no longer than the call, so
concurrent calls on one graph never share them.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .hypergraph import _edge_rows

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
_ANDERSON_DEPTH = 5  # differences kept by the mixing in _iterate
_MAX_APPLICATIONS = 10_000  # operator applications allowed to one _iterate call
_ROOT_MAX_ITER = 200  # evaluations allowed to _root
_ROOT_RTOL = 4 * np.finfo(float).eps  # relative bracket width at which _root stops
_PREDICT_ORDER = 6  # solved points the warm-start predictor interpolates through
_LOG_TINY = math.log(np.finfo(float).tiny)  # floor of a predicted start, in log


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
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if not 0 <= self.zeta <= 1:
            raise ValueError("zeta must lie in [0, 1]")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    @property
    def margin(self):
        return contraction_margin(self.k, self.c, self.zeta)


def _check_uniqueness(params):
    if params.margin <= 0:
        raise DomainError(
            "outside the uniqueness region: need zeta*(k-1)*c^(k-1) < e "
            f"(margin {params.margin:.6g})"
        )


def _check_admissible(c, bound, context=""):
    """Refuse a prior density c outside (0, bound); ``context`` ends the message."""
    if not 0 < c < bound:
        raise DomainError(f"c={c} outside the admissible range (0, {bound:.12g}){context}")


def _default_delta(graph, k):
    """The maximum degree of the k-uniform ``graph``, at least 1: the
    default degree scale Delta."""
    degrees = np.bincount(_edge_rows(graph, k).ravel(), minlength=graph.num_vertices)
    return max(int(degrees.max(initial=0)), 1)


def _workspace(edges):
    """The two (k, M) float buffers ``_apply`` works in, ``_edge_sum`` in
    the first: built once per public call and reused by every application
    in it."""
    return np.empty((2, *edges.shape))


def _edge_sum(x, edges, work):
    """Sum over the edges of the product of their members' entries."""
    vals = np.take(x, edges, out=work[0], mode="clip")
    return float(np.prod(vals, axis=0).sum())


def _apply(x, edges, work, c, zeta, delta):
    # Each member of an edge receives the product of the other members,
    # built from prefix and suffix products over the k rows of vals: no
    # division, so it stays exact when the product of all k underflows.
    # vals and loo are the caller's workspace, reused across applications:
    # fresh (k, M) arrays on every call cost more in page faults than the
    # arithmetic.  The gather clips rather than checks its indices, since
    # Multihypergraph keeps every vertex in range and every x reaching here
    # has one entry per vertex; the default mode would buffer a (k, M) copy.
    # The suffix product runs in loo[0], where it ends.
    k = len(edges)
    vals, loo = work
    np.take(x, edges, out=vals, mode="clip")
    loo[1] = vals[0]
    for j in range(2, k):
        np.multiply(loo[j - 1], vals[j - 1], out=loo[j])
    loo[0] = vals[k - 1]
    for j in range(k - 2, 0, -1):
        loo[j] *= loo[0]
        loo[0] *= vals[j]
    sums = np.bincount(edges.ravel(), weights=loo.ravel(), minlength=len(x))
    return c * np.exp(-(zeta / delta) * sums)


def _check_vector(graph, x):
    """x as a float array, refused unless it has one positive entry per vertex."""
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.num_vertices,):
        raise ValueError("x must have one entry per vertex")
    if not np.all(x > 0):
        raise ValueError("x entries must be positive")
    return x


def bp_apply(graph, params, x):
    """One application of the message operator; pure in x."""
    x = _check_vector(graph, x)
    edges = _edge_rows(graph, params.k)
    return _apply(x, edges, _workspace(edges), params.c, params.zeta, params.delta)


def _iterate(apply, x, tol, what):
    """Anderson-mixed iteration towards a fixed point of ``apply`` from ``x``.

    Type-II Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 49, 2011)
    in log coordinates: with ``u = log x``, ``g = log apply(x)`` and the
    residual ``f = g - u``, the next point is ``g - gamma dG``.  The rows of
    ``dF`` and ``dG`` are the last m <= ``_ANDERSON_DEPTH`` differences of
    successive residuals and images, and ``gamma`` is the least-squares
    solution of ``dF^T gamma = f``, found from the m x m Gram system
    ``(dF dF^T) gamma = dF f`` by ``numpy.linalg.lstsq``, whose cutoff drops
    the directions the Gram matrix cannot resolve.  The Gram matrix gains
    one row and column per step; its rows and the difference rows sit in a
    ring of ``_ANDERSON_DEPTH`` slots, whose order does not change gamma.
    A mixed step whose residual is not below the one it started from (a
    non-finite one included) is dropped: the history is cleared and a plain
    step ``x <- apply(x)`` is taken from the point the mixed step started
    from.

    Returns the first point whose log-sup residual
    ``max |log apply(x) - log x|`` is below ``tol``; ``what`` names the
    caller in the error raised when ``_MAX_APPLICATIONS`` applications (read
    at call time) do not get there, or at once when a residual is not
    finite (an entry underflowed to 0, or became NaN) at any point but a
    mixed one, which is dropped.
    """
    u = np.log(x)
    d_f = np.empty((_ANDERSON_DEPTH, len(u)))  # ring of residual differences
    d_g = np.empty_like(d_f)  # ring of image differences, same slots
    gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
    added = 0  # differences added since the history was last cleared
    start = None  # (g, f, residual) at the point the last step started from
    residual = math.inf
    cap = _MAX_APPLICATIONS
    for step in range(1, cap + 1):
        g = np.log(apply(x))
        f = g - u
        residual = float(np.max(np.abs(f)))
        if residual < tol:
            return x
        if added and not residual < start[2]:  # a mixed step that failed, NaN included
            added = 0
            u = start[0]
        else:
            if not math.isfinite(residual):
                raise ConvergenceError(
                    f"{what}: non-finite residual after {step} iterations (underflow)",
                    residual=residual,
                    iterations=step,
                )
            u = g
            if start is not None:
                slot = added % _ANDERSON_DEPTH
                np.subtract(f, start[1], out=d_f[slot])
                np.subtract(g, start[0], out=d_g[slot])
                added += 1
                m = min(added, _ANDERSON_DEPTH)
                gram[slot, :m] = gram[:m, slot] = d_f[:m] @ d_f[slot]
                gamma = np.linalg.lstsq(gram[:m, :m], d_f[:m] @ f, rcond=None)[0]
                u = g - gamma @ d_g[:m]
            start = (g, f, residual)
        x = np.exp(u)
    raise ConvergenceError(
        f"{what}: no fixed point after {cap} iterations",
        residual=residual,
        iterations=cap,
    )


def bp_fixed_point(graph, params, tol=1e-12):
    """Unique fixed point, by Anderson-mixed iteration from the constant vector c.

    Requires the contraction certificate ``zeta (k-1) c^(k-1) < e``, which
    makes the fixed point unique; the returned vector satisfies
    ``max |log F(x) - log x| < tol``.

    The certificate assumes every degree is at most ``delta``.  With
    ``delta`` below the maximum degree, plain iteration can cycle forever,
    while the mixed iteration often still returns a point.  That point
    passes the same residual test, but nothing certifies that the fixed
    point it approximates is the only one.
    """
    edges = _edge_rows(graph, params.k)
    _check_uniqueness(params)
    x = np.full(graph.num_vertices, params.c, dtype=float)  # the kernel gathers into floats
    if not graph.num_edges:
        return x
    work = _workspace(edges)
    return _iterate(
        lambda v: _apply(v, edges, work, params.c, params.zeta, params.delta),
        x,
        tol,
        "bp_fixed_point",
    )


def bethe_free_energy(graph, params, x):
    """-(zeta/Delta) sum_e prod_{u in e} x_u - sum_v x_v (log(x_v/c) - 1)."""
    x = _check_vector(graph, x)
    edges = _edge_rows(graph, params.k)
    vertex_term = float((x * (np.log(x / params.c) - 1.0)).sum())
    return -(params.zeta / params.delta) * _edge_sum(x, edges, _workspace(edges)) - vertex_term


def _root(f, a, b, fa, fb, xtol, rtol, ftol, max_iter):
    """A root of ``f`` in the bracket between ``a`` and ``b``, where
    ``fa = f(a)`` and ``fb = f(b)`` differ in sign.

    Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971): each step
    evaluates f at the secant point of the bracket, or at its midpoint when
    the secant point is not strictly inside, and keeps the sign change; an
    end kept twice in a row has its value halved in the secant.  Returns
    ``(x, f(x))`` for the first point, the ends included, where
    ``|f(x)| < ftol`` or ``f(x) == 0``; otherwise, once the bracket is no
    wider than ``xtol + rtol |x|``, for the end x with the smaller |f|.
    Raises ``ConvergenceError`` when ``max_iter`` evaluations get to neither.
    """
    side, wa, wb = 0, fa, fb  # the end last replaced, and the secant's values
    for evaluations in range(max_iter + 1):
        x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        if abs(fx) < ftol or fx == 0 or abs(b - a) <= xtol + rtol * abs(x):
            return x, fx
        if evaluations == max_iter:
            break
        m = b - wb * (b - a) / (wb - wa)
        if not min(a, b) < m < max(a, b):
            m = 0.5 * (a + b)
        fm = f(m)
        if (fm > 0) == (fb > 0):  # m replaces b
            if side == -1:
                wa *= 0.5
            b, fb, wb, side = m, fm, fm, -1
        else:
            if side == 1:
                wb *= 0.5
            a, fa, wa, side = m, fm, fm, 1
    raise ConvergenceError(
        f"root finder: no root after {max_iter} evaluations (residual {fx:.3e})",
        residual=abs(fx),
        iterations=max_iter,
    )


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
        zeta, _ = _root(g, 0.0, 1.0, 1.0 - eta, -eta, tol, _ROOT_RTOL, 0.0, _ROOT_MAX_ITER)
    ok = contraction_margin(k, c, zeta) > 0
    return float(zeta), ok


def solve_zeta(graph, k, c, eta, tol=1e-10, near_regular=False, delta=None, fp_tol=1e-13):
    """Penalty zeta for which the fixed point achieves the lower-tail target.

    Finds zeta in (0, 1-eta] with
    ``(1-zeta) sum_e prod_{u in e} x*_u(zeta) = eta c^k |E|`` up to
    ``tol * c^k |E|``, by Illinois regula falsi (``_root``).  Each fixed
    point starts from one interpolated through the last ``_PREDICT_ORDER``
    solved (zeta = 0 among them, where x* = c), clipped to at most c.
    Requires c below the general critical density, or the regular one when
    the caller asserts near-regularity.  eta = 0 returns zeta = 1 directly.
    ``delta`` defaults to the maximum degree, and below 1 is refused.
    """
    edges = _edge_rows(graph, k)
    thr = thresholds(k, eta)
    bound = thr.c_max_regular if near_regular else thr.c_max_general
    _check_admissible(c, bound, f" for eta={eta}")
    # the parameters at zeta = 1, built first since BPParams refuses delta < 1
    params = BPParams(k, c, 1.0, _default_delta(graph, k) if delta is None else delta)

    if eta == 0.0:
        return 1.0, bp_fixed_point(graph, params, fp_tol)

    if not graph.num_edges:
        raise DomainError("solve_zeta needs at least one edge")
    n = graph.num_vertices
    work = _workspace(edges)
    scale = c**k * graph.num_edges
    target = eta * scale
    # the last zeta solved at and its fixed point; float, as the kernel
    # gathers into float buffers.  At zeta = 0 the fixed point is c itself.
    at = [0.0, np.full(n, c, dtype=float)]
    # (zeta, log x*(zeta)) of the last solves, the predictor's history
    solved = collections.deque([(0.0, np.log(at[1]))], maxlen=_PREDICT_ORDER)

    def residual(z):
        x = _start(_predict(solved, z, n), c)
        at[:] = z, _iterate(
            lambda v: _apply(v, edges, work, c, z, params.delta), x, fp_tol, "solve_zeta"
        )
        solved.append((z, np.log(at[1])))
        return (1.0 - z) * _edge_sum(at[1], edges, work) - target

    r_lo = _edge_sum(at[1], edges, work) - target
    # keep the bracket a little inside the contraction region: the margin
    # (and hence the iteration speed) vanishes at the critical density
    zeta_cap = 0.995 * math.e / ((k - 1) * c ** (k - 1))
    hi = min(1.0 - eta, zeta_cap)
    r_hi = residual(hi)
    if not abs(r_hi) < tol * scale and (r_lo < 0 or r_hi > 0):
        raise ConvergenceError(
            f"zeta root finder bracket failure: residuals {r_lo:.3e}, {r_hi:.3e}",
            residual=r_hi,
        )
    zeta, r = _root(residual, 0.0, hi, r_lo, r_hi, 0.0, _ROOT_RTOL, tol * scale, _ROOT_MAX_ITER)
    if not abs(r) < tol * scale:
        raise ConvergenceError(
            f"zeta root finder did not reach tolerance (residual {r:.3e})",
            residual=r,
        )
    if zeta != at[0]:  # the end zeta = 0 met the target
        residual(zeta)
    return zeta, at[1]


def _predict(solved, s, size):
    """Lagrange interpolation, or extrapolation, at parameter ``s`` through
    the ``_PREDICT_ORDER`` pairs ``(parameter, vector)`` of ``solved`` whose
    parameters, all distinct, lie nearest s: the zero vector of ``size``
    entries when nothing is solved yet.  At a solved parameter it returns
    that parameter's vector."""
    near = sorted(solved, key=lambda pair: abs(pair[0] - s))[:_PREDICT_ORDER]
    out = np.zeros(size)
    for j, (p, u) in enumerate(near):
        out += math.prod((s - q) / (p - q) for i, (q, _) in enumerate(near) if i != j) * u
    return out


def _start(u, prior):
    """exp(u) clipped into [tiny, prior], a NaN entry read as tiny: a
    starting point that is positive, finite and no larger than ``prior``,
    whatever the predicted log-vector ``u`` holds.  Every fixed point lies
    below the prior, and the certified operator maps such a point back
    below it, so a wild prediction costs applications but never a failure."""
    return np.exp(np.fmin(np.fmax(u, _LOG_TINY), math.log(prior)))


def _coupling_integral(apply_at, mass, size, head, c, quad_nodes, tol, what):
    """Integral over t in (0, c] of mass(x*(t))/t, x*(t) the fixed point of
    ``apply_at(t, .)`` on vectors of ``size`` entries.

    Gauss-Legendre nodes on [eps, c] with eps = c*1e-6; the [0, eps) head
    contributes ``head * eps``, since x*(t) ~ t as t -> 0 and ``head`` is the
    mass of the all-ones vector.  Each node's solve starts from ``t`` times
    the exponential of ``log(x*/t)`` predicted (``_predict``) from the last
    ``_PREDICT_ORDER`` nodes, clipped to at most t (``_start``); the first
    node starts from the constant t.  Every solve runs under ``_iterate``'s
    application cap, and ``what`` names the caller in its errors.
    """
    if not quad_nodes >= 1:
        raise ValueError(f"quad_nodes must be >= 1 (got {quad_nodes})")
    eps = c * 1e-6
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    mid, half = 0.5 * (eps + c), 0.5 * (c - eps)
    ts, ws = mid + half * nodes, half * weights
    solved = collections.deque(maxlen=_PREDICT_ORDER)  # (t, log(x*(t)/t))
    total = head * eps
    for t, w in zip(ts, ws):
        t = float(t)
        x = _start(math.log(t) + _predict(solved, t, size), t)
        x = _iterate(lambda v: apply_at(t, v), x, tol, what)
        solved.append((t, np.log(x / t)))
        total += w * mass(x) / t
    return total


def bp_log_partition(graph, params, method="bethe", quad_nodes=64, fp_tol=1e-13):
    """BP estimate of log Z at activity c * delta^(-1/(k-1)).

    ``method='bethe'`` evaluates the Bethe free energy at the fixed point
    and rescales; ``method='integral'`` integrates sum_v x*_v(t)/t over
    t in (0, c] with Gauss-Legendre nodes plus the analytic small-t
    contribution N*eps, using x*_v(t) ~ t as t -> 0.  The fixed point is
    re-solved at each node, from a start extrapolated from the nodes before
    it and clipped to at most t.
    """
    if method not in ("bethe", "integral"):
        raise ValueError("method must be 'bethe' or 'integral'")
    k, c = params.k, params.c
    scale = params.delta ** (-1.0 / (k - 1))
    _check_uniqueness(params)
    if method == "bethe":
        x = bp_fixed_point(graph, params, fp_tol)
        return scale * bethe_free_energy(graph, params, x)
    edges = _edge_rows(graph, k)
    work = _workspace(edges)
    n = graph.num_vertices
    total = _coupling_integral(
        lambda t, v: _apply(v, edges, work, t, params.zeta, params.delta),
        lambda x: float(x.sum()),
        n, n, c, quad_nodes, fp_tol, "bp_log_partition integral",
    )
    return scale * total


def bp_lower_tail_rate(graph, k, c, eta, delta=None, near_regular=False, fp_tol=1e-13):
    """The BP rate of log P(X <= eta E[X]), normalised by Delta^(1/(k-1))/|V|.

    Evaluates ``B(x*)/N - log(1-zeta) * eta * c^k |E| / (N Delta) - c`` at
    the achieving penalty; for eta = 0 the middle term is absent and
    zeta = 1.
    """
    n = graph.num_vertices
    delta = _default_delta(graph, k) if delta is None else delta
    zeta, x = solve_zeta(graph, k, c, eta, near_regular=near_regular, delta=delta, fp_tol=fp_tol)
    b = bethe_free_energy(graph, BPParams(k, c, zeta, delta), x)
    if eta == 0.0:
        return b / n - c
    tail_term = math.log(1.0 - zeta) * eta * c**k * graph.num_edges / (n * delta)
    return b / n - tail_term - c
