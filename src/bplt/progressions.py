"""Arithmetic-progression avoidance: the AP hypergraph, the profile
operator on a grid, its fixed point, and the two rate formulas.

Integers 1..n become vertices 0..n-1; the k-uniform hypergraph has one edge
per k-term progression inside [n].  The position-dependent degree makes the
message fixed point a function of position t in [0, 1]; it is represented
on a uniform grid of size M and solved by the shared iteration of ``bp``,
under the same log-sup contraction certificate as the finite-dimensional
operator.  One operator serves every edge penalty zeta in [0, 1] (zeta = 1
for non-existence, zeta < 1 for lower tails): :func:`phi_apply` and
:func:`phi_fixed_point`, with prefactor zeta.  The hypergraph's own
normalisation (prefactor zeta/alpha) is the same operator after the
scaling gamma = alpha^(1/(k-1)).  Inner integrals use the
composite trapezoid rule on the grid (integer shifts stay on-grid), with
linear interpolation only on the fractional tail segment.  The on-grid sums
run over blocks of steps at once, at most ``CELLS`` products per block, on
shifted views of f zero-padded once; the padding makes every product past a
point's last whole step exactly 0, and each point still adds its steps in
order, so the blocks give the same floats as one step at a time.

The k-APs of [n] are invariant under a -> n+1-a, so the operator commutes
with t -> 1-t: band l at t is band k+1-l at 1-t, with the same R(t) and
w(t).  Its unique certified fixed point is therefore symmetric, and the
solvers (``_grid_fixed_point`` and ``kap_rate``) evaluate the band
integrals only at the points j <= M // 2 of the symmetric profile with
those values, and mirror the result.  They hand ``bp._iterate`` the log of
their start and the log image ``log c - coeff * loads``
(``_grid_log_apply``), loads the summed band integrals (``_grid_loads``),
so no vector exp or log is taken of an image: every log image, and every
profile ``_grid_fixed_point`` returns, is exactly symmetric.  :func:`phi_apply` accepts any f, so it evaluates every
point, and returns the image ``c exp(-zeta * loads)`` from the same loads.

Everything in a band integral that depends only on the grid, not on f, is a
band plan: the whole steps R(t) and the tail weights, each block's view
starts and strides into the padded profile, the indices of the last whole
step and the interpolation positions of the tail end.  ``_band_plan`` builds
one per operator and point range, with key (M, bands, last), bands a tuple
of (offsets, a, b), and keeps the last few in a bounded cache, so every
application on one grid reuses it: the k operator bands at j <= M // 2 or
at every point, and the ``kap_rate_bethe`` edge band as a one-band plan.
Its arrays are read-only and its buffers are made per call, so concurrent
calls share nothing they write.  Nothing is built at import.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bp import (
    BPParams,
    _check_admissible,
    _coupling_integral,
    _default_delta,
    _iterate,
    bp_fixed_point,
)
from .errors import DomainError, SizeGuardError, _check_k
from .gibbs import ModelParams, glauber_marginals, summarize
from .hypergraph import Multihypergraph

__all__ = [
    "degree_coefficient",
    "ap_hypergraph",
    "ap_degree",
    "phi_apply",
    "phi_fixed_point",
    "phi_threshold",
    "kap_rate",
    "kap_rate_bethe",
    "MarginalTable",
    "kap_marginal_check",
    "discrete_profile_gap",
]

CELLS = 1 << 15  # entries per block of band-integral steps, about 256 KB
_MC_CHAINS = 20_000  # heat-bath replicas of kap_marginal_check's fallback
_MC_SWEEPS = 60  # sweeps per replica of that fallback
_ITEM = np.dtype(float).itemsize  # bytes per profile value, for the block views


def _sum_of_nearer_sides(k, left, right):
    """sum over positions i = 1..k of min(left(i-1), right(k-i)).

    A side with no room (i = 1 on the left, i = k on the right) is
    unconstrained: it reads as +infinity, so the minimum takes the other.
    """
    return sum(
        min(left(i - 1) if i > 1 else math.inf, right(k - i) if i < k else math.inf)
        for i in range(1, k + 1)
    )


def degree_coefficient(k):
    """Exact rational alpha with max degree of the AP hypergraph ~ alpha * n.

    alpha = (1/2) * sum_{i=1..k} min(1/(i-1), 1/(k-i)), the 1/0 entries
    read as +infinity so the minimum picks the finite side.
    """
    k = _check_k(k, 3)
    return _sum_of_nearer_sides(k, lambda j: Fraction(1, j), lambda j: Fraction(1, j)) / 2


def ap_hypergraph(k, n):
    """All k-term progressions {a, a+d, ..., a+(k-1)d} inside [n], 0-indexed."""
    k = _check_k(k, 3)
    if n < k:
        raise DomainError("n must be at least k")
    edges = [
        tuple(range(a, a + k * d, d))
        for d in range(1, (n - 1) // (k - 1) + 1)
        for a in range(n - (k - 1) * d)
    ]
    return Multihypergraph(n, edges)


def ap_degree(k, n, t):
    """Closed-form degree of integer t (1-based) in the AP hypergraph:
    sum over positions i of min(floor((t-1)/(i-1)), floor((n-t)/(k-i)))."""
    k = _check_k(k, 3)
    if not (isinstance(t, (int, np.integer)) and 1 <= t <= n):
        raise ValueError(f"t must be an integer in 1..n, got {t!r}")
    return _sum_of_nearer_sides(k, lambda j: (t - 1) // j, lambda j: (n - t) // j)


def _check_grid(k, c, zeta, grid_size):
    """The one input guard of the grid API: k an integer >= 3, c > 0 and finite,
    zeta in [0, 1], and grid_size an integer >= 2k (the band offsets reach
    k-1 steps), both read by operator.index, which refuses 200.5."""
    _check_k(k, 3)
    if not 0 < c < math.inf:
        raise DomainError(f"c={c} must be positive and finite")
    if not 0 <= zeta <= 1:
        raise DomainError(f"zeta={zeta} must lie in [0, 1]")
    try:
        enough = operator.index(grid_size) >= 2 * k
    except TypeError:
        enough = False
    if not enough:
        raise ValueError(f"grid_size={grid_size} must be an integer of at least 2k = {2 * k}")


@functools.lru_cache(maxsize=16)
def _band_plan(m, bands, last):
    """The grid-only part of ``_band_integral`` on the grid of size m, for
    a tuple of bands (offsets, a, b), all with one number of offsets, at
    the points j <= last: built once per key and shared by every call with
    that key, so it holds no buffer and its arrays are read-only.

    A tuple (h, reach, cells, blocks, grid, full_at, end_at, tail): the
    step 1/M; the zeros padded on each side of f; the floats of the largest
    block buffer; per band and block, (row, lo, hi, (rows, width), views),
    row the band's row of the table and views holding a (byte offset,
    strides) pair into the padded f per offset; the points j/M; the
    indices j + i R(t) of the last whole step and the positions t + i w(t)
    of the tail end, each of shape (offsets, bands, last + 1); and half the
    tail length, (w(t) - R(t)/M) / 2, one row per band.
    """
    h = 1.0 / m
    j = np.arange(last + 1)
    grid = np.arange(m + 1) * h
    steps = []  # per band, R(t) and w(t) at the points j <= last
    for _, a, b in bands:
        sides = [(room, d) for room, d in ((j, a), (m - j, b)) if d > 0]
        steps.append((
            np.min([room // d for room, d in sides], axis=0),
            np.min([room / (d * m) for room, d in sides], axis=0),
        ))
    reach = max(int(r.max()) * max(map(abs, band[0])) for band, (r, _) in zip(bands, steps))
    block = max(1, CELLS // (m + 1))
    blocks = []
    for row, ((offsets, a, b), (r_full, _)) in enumerate(zip(bands, steps)):
        r_max = int(r_full.max())
        for r0 in range(1, r_max + 1, block):
            rows = min(block, r_max + 1 - r0)
            lo, hi = a * r0, min(m - b * r0, last)
            # row q of offset i's view is the padded f shifted by i (r0 + q)
            views = tuple(((reach + i * r0 + lo) * _ITEM, (i * _ITEM, _ITEM)) for i in offsets)
            blocks.append((row, lo, hi, (rows, hi + 1 - lo), views))
    cells = max(((rows + 1) * width for *_, (rows, width), _ in blocks), default=0)
    arrays = (
        grid,
        np.stack([[j + i * r_full for i in band[0]] for band, (r_full, _) in zip(bands, steps)], 1),
        np.stack([[grid[j] + i * w for i in band[0]] for band, (_, w) in zip(bands, steps)], 1),
        np.array([0.5 * (w - r_full * h) for r_full, w in steps]),
    )
    for x in arrays:
        x.flags.writeable = False
    return (h, reach, cells, tuple(blocks), *arrays)


def _band_integral(f, bands, g_0, last):
    """Per band (offsets, a, b) and grid point t=j/M with j <= last, the
    integral over s in [0, w(t)] of prod_i f(t + offsets[i] * s), where
    w(t) = min(t/a, (1-t)/b) and a zero divisor means that side is
    unconstrained: a (bands, last + 1) table.  ``g_0`` is the product at
    s = 0, f to the number of offsets, or None to compute it here.

    The R(t) = floor(M w(t)) whole steps use the composite trapezoid rule
    with on-grid integer shifts; the fractional tail [R(t)/M, w(t)] uses
    linear interpolation of f.

    The on-grid sum runs, band by band, over blocks of steps
    r0 <= r < r0 + B, each over the points a*r0 <= j <= min(M - b*r0, last)
    of its first step.  f is zero-padded once: for such j, some index
    j + i*r leaves [0, M] exactly when r > R(t), so the product there is
    exactly 0 and needs no mask.  Row 0 of the block's buffer holds the
    running total and numpy adds the rows of a C-contiguous array in order,
    so each point sums g_0, g_1, ..., g_R(t) left to right, as one step at
    a time does.  (numpy sums a single column pairwise, but a block one
    point wide holds one nonzero step.)  The end terms of every band come
    from one gather (the last whole step), one interpolation (the tail end)
    and one expression.

    What depends only on (M, bands, last) comes from the cached, read-only
    ``_band_plan``: R(t), the tail weights, the blocks' view starts and
    strides, and the index and interpolation positions of the end terms.  A
    call only pads f into its own buffer, multiplies and sums the views and
    adds the end corrections.
    """
    h, reach, cells, blocks, grid, full_at, end_at, tail = _band_plan(len(f) - 1, bands, last)
    if g_0 is None:
        g_0 = math.prod(f for _ in bands[0][0])
    g_0 = g_0[: last + 1]
    # sum of g_r = prod_i f(t + offsets[i] r/M) over r = 0..R(t), per band
    table = np.empty((len(bands), last + 1))
    table[:] = g_0
    padded = np.zeros(len(f) + 2 * reach)
    padded[reach : reach + len(f)] = f
    scratch = np.empty(cells)
    for row, lo, hi, (rows, width), views in blocks:
        total = table[row, lo : hi + 1]
        buf = scratch[: (rows + 1) * width].reshape(rows + 1, width)
        buf[0] = total
        shifted = [np.ndarray((rows, width), float, padded, at, steps) for at, steps in views]
        np.multiply(shifted[0], shifted[1], out=buf[1:])
        for factor in shifted[2:]:
            buf[1:] *= factor
        buf.sum(axis=0, out=total)
    g_full = math.prod(f[full_at])
    g_end = math.prod(np.interp(end_at, grid, f))
    return h * (table - 0.5 * (g_0 + g_full)) + tail * (g_full + g_end)


def _mirror(f, m):
    """The symmetric profile on the grid of size m whose points j <= M // 2
    are those of f."""
    return np.concatenate([f[: m // 2 + 1], f[(m - 1) // 2 :: -1]])


def _grid_loads(f, k, half):
    """The sum of the k operator band integrals of f, at every point of its
    grid; or, when ``half``, of the symmetric profile with f's points
    j <= M // 2, evaluated at those points and mirrored onto the rest."""
    m = len(f) - 1
    last = m // 2 if half else m
    if half:
        f = _mirror(f, m)
    bands = tuple(
        (tuple(i for i in range(1 - ell, k - ell + 1) if i), ell - 1, k - ell)
        for ell in range(1, k + 1)
    )
    g_0 = math.prod(f[: last + 1] for _ in range(k - 1))  # every band has k - 1 offsets
    loads = _band_integral(f, bands, g_0, last).sum(axis=0)
    return _mirror(loads, m) if half else loads


def _grid_log_apply(f, c, coeff, k):
    """The solvers' map: the log image ``log c - coeff * loads`` of the
    operator with prefactor ``coeff``, on the symmetric profile with f's
    points j <= M // 2, so it too is exactly symmetric."""
    return math.log(c) - coeff * _grid_loads(f, k, True)


def phi_apply(k, c, f, zeta=1.0):
    """One application of the profile operator with edge penalty zeta:
    c exp(-zeta * sum of the k band integrals of f), on the grid of f."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"f must be one-dimensional, got shape {f.shape}")
    _check_grid(k, c, zeta, len(f) - 1)
    if not np.all((f > 0) & (f < math.inf)):
        raise ValueError("f must be positive and finite")
    return c * np.exp(-zeta * _grid_loads(f, k, False))


def _grid_fixed_point(c, coeff, k, grid_size, tol):
    """Fixed point of the grid operator with prefactor ``coeff``, from the
    constant c, solved on the points j <= M // 2 and mirrored.  The caller
    checks the inputs and the certificate."""
    u = np.full(grid_size + 1, math.log(c))
    _, f = _iterate(lambda g: _grid_log_apply(g, c, coeff, k), u, tol, "grid fixed point")
    return _mirror(f, grid_size)


def phi_threshold(k):
    """Largest admissible c for the profile operator at zeta = 1:
    (e / ((k-1) alpha))^(1/(k-1)).  At penalty zeta the bound is this
    times zeta^(-1/(k-1))."""
    alpha = float(degree_coefficient(k))
    return (math.e / ((k - 1) * alpha)) ** (1.0 / (k - 1))


def phi_fixed_point(k, c, tol=1e-12, grid_size=2000, method="scaled", zeta=1.0):
    """Fixed point of the profile operator with edge penalty zeta.

    The contraction certificate admits c < phi_threshold(k) zeta^(-1/(k-1)),
    with no bound at zeta = 0.  ``method='direct'`` iterates the profile
    operator itself, at (c, zeta).  ``method='scaled'`` solves the operator
    with prefactor zeta/alpha at gamma*c, gamma = alpha^(1/(k-1)), and
    divides by gamma (the two operators are conjugate under that scaling).
    Both routes agree to solver tolerance.
    """
    if method not in ("scaled", "direct"):
        raise ValueError("method must be 'scaled' or 'direct'")
    _check_grid(k, c, zeta, grid_size)
    bound = phi_threshold(k) * zeta ** (-1.0 / (k - 1)) if zeta > 0 else math.inf
    _check_admissible(c, bound, f" at zeta={zeta}")
    if method == "direct":
        return _grid_fixed_point(c, zeta, k, grid_size, tol)
    alpha = float(degree_coefficient(k))
    gamma = alpha ** (1.0 / (k - 1))
    scaled = _grid_fixed_point(gamma * c, zeta / alpha, k, grid_size, tol)
    return scaled / gamma


def _trapz(values, h):
    return h * (values.sum() - 0.5 * (values[0] + values[-1]))


def kap_rate(k, c, quad_nodes=64, grid_size=800):
    """Non-existence rate via the family of profile fixed points:
    integral over t in (0, c] of (1/t) * integral of the fixed point at
    parameter t, minus c.

    Outer Gauss-Legendre on [eps, c], the profile re-solved at each node
    from a start extrapolated from the nodes before it and clipped to at
    most t; the [0, eps) head contributes eps since the fixed point at
    parameter t approaches t uniformly.
    """
    _check_grid(k, c, 1.0, grid_size)
    _check_admissible(c, phi_threshold(k))
    h = 1.0 / grid_size
    total = _coupling_integral(
        lambda t, g: _grid_log_apply(g, t, 1.0, k), lambda f: _trapz(f, h),
        grid_size + 1, 1, c, quad_nodes, 1e-11, "kap_rate",
    )
    return total - c


def kap_rate_bethe(k, c, grid_size=2000):
    """Non-existence rate from the single fixed point at parameter c:
    minus the edge integral, minus the entropy integral, minus c.

    The edge integral runs the inner variable over [0, (1-t)/(k-1)] with
    the product of the fixed point at t, t+s, ..., t+(k-1)s.
    """
    x = phi_fixed_point(k, c, grid_size=grid_size)
    h = 1.0 / grid_size
    inner = _band_integral(x, ((tuple(range(k)), 0, k - 1),), None, grid_size)[0]
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


def kap_marginal_check(k, c, n, grid_size=2000):
    """Conditional occupation marginals of the AP-free measure at density
    c * n^(-1/(k-1)), against the profile prediction.

    Conditioning a p-random set on having no progression is the hard-core
    measure at lam = p/(1-p), computed exactly whenever :func:`summarize`
    can (``mode`` "exact"), and otherwise, when it raises
    :class:`SizeGuardError`, by ``_MC_CHAINS`` heat-bath replicas of
    ``_MC_SWEEPS`` sweeps from seed 0, read at call time (``mode`` "mc").
    Reported as a table, not asserted.
    """
    graph = ap_hypergraph(k, n)
    p = c * n ** (-1.0 / (k - 1))
    if not p < 1:
        raise DomainError("c n^(-1/(k-1)) must be < 1")
    params = ModelParams(lam=p / (1.0 - p), zeta=1.0)
    try:
        marginals = summarize(graph, params).marginals
        mode = "exact"
    except SizeGuardError:
        mode = "mc"
    if mode == "mc":
        marginals = glauber_marginals(graph, params, _MC_CHAINS, _MC_SWEEPS, 0)
    profile = phi_fixed_point(k, c, grid_size=grid_size)
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    positions = np.arange(1, n + 1)
    predicted = np.interp(positions / n, grid, profile)
    scaled = n ** (1.0 / (k - 1)) * marginals
    return MarginalTable(positions, scaled, predicted, mode)


def discrete_profile_gap(k, n, c, zeta=1.0, tol=1e-10):
    """Sup-norm gap between the finite-hypergraph fixed point on the AP
    hypergraph (scaled by its max degree) and the grid fixed point.

    Both take the hypergraph's normalisation, prefactor zeta/alpha at c;
    the finite solve certifies that pair first.  Vertex j (0-based) is
    compared with the grid value at (j+1)/n on a grid of size n.  Returns
    (gap, bp_vector, grid_values)."""
    _check_grid(k, c, zeta, n)
    graph = ap_hypergraph(k, n)
    delta = _default_delta(graph, k)
    bp_vec = bp_fixed_point(graph, BPParams(k, c, zeta, delta), tol=tol)
    alpha = float(degree_coefficient(k))
    grid_fp = _grid_fixed_point(c, zeta / alpha, k, n, 1e-12)
    gap = float(np.max(np.abs(bp_vec - grid_fp[1:])))
    return gap, bp_vec, grid_fp
