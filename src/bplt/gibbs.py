"""Exact oracle for the edge-penalty model, plus Monte Carlo.

The model on a multihypergraph G weights a vertex subset S by
``lam^|S| * (1-zeta)^{|E(S)|}`` where ``E(S)`` counts edges fully inside S
with multiplicity; ``zeta = 1`` forbids occupied edges (hard-core model).
Exact quantities depend on S only through s = |S| and x = |E(S)|, so one
kernel counts listed subsets (uint64 bitmasks) into exact integer tables
over (s, x), and one step weights each cell by ``p^s (1-p)^(N-s)
(1-zeta)^x`` with ``p = lam/(1+lam)`` (every factor in [0, 1]); logs come
last.  Two listings feed the kernel.  When only subsets without a full edge
carry weight (``zeta = 1``, or P(X = 0)) the hard-core support is listed,
with no edge to count; past ``_SUPPORT_CAP`` subsets or 64 vertices, and in
every other case, all 2^N subsets are listed, guarded at ``EXACT_GUARD``
vertices.  The 2^N listing finds every x(S) at once by a subset-sum (zeta)
transform over blocks of ``_CHUNK`` subsets (Yates; Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius", STOC 2007), in O(N 2^N)
operations whatever the number of edges and in O(``_CHUNK``) memory; the
transform needs whole blocks, so a ``require``/``forbid`` restriction is
applied after counting.  Weighted cells are summed along x first, so the
zero-weight cells that only the 2^N listing has cannot change a float
result: both listings give the same numbers bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .hypergraph import _edge_rows, _incidence

__all__ = [
    "ModelParams",
    "GibbsSummary",
    "IdentityResiduals",
    "EXACT_GUARD",
    "partition_function",
    "summarize",
    "lower_tail_exact",
    "verify_identities",
    "glauber_marginals",
    "mc_lower_tail",
]

EXACT_GUARD = 26
_SUPPORT_CAP = 1 << 24  # listed subsets: 128 MiB of uint64 masks
_CHUNK = 1 << 16  # subsets per vectorised step, sized to stay in cache


@dataclass(frozen=True)
class ModelParams:
    """Activity and edge penalty of the Gibbs measure."""

    lam: float
    zeta: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")
        if not 0 <= self.zeta <= 1:
            raise ValueError("zeta must lie in [0, 1]")

    @property
    def p(self):
        """Occupation probability of the dominating product measure."""
        return self.lam / (1.0 + self.lam)


@dataclass(frozen=True)
class GibbsSummary:
    log_z: float
    marginals: np.ndarray
    mean_size: float
    var_size: float
    mean_edges: float
    var_edges: float

    def occupation_ratios(self):
        """Per-vertex odds marginal/(1-marginal); +inf where the marginal is 1."""
        with np.errstate(divide="ignore"):
            return np.where(
                self.marginals >= 1.0, np.inf, self.marginals / (1.0 - self.marginals)
            )


def _check_guard(graph):
    if graph.num_vertices > EXACT_GUARD:
        raise SizeGuardError(
            f"exact enumeration guarded at {EXACT_GUARD} vertices (got {graph.num_vertices})"
        )


def _mask(vertices):
    mask = 0
    for u in vertices:
        mask |= 1 << u
    return mask


def _edge_masks(graph):
    """Distinct edge bitmasks with multiplicities (empty edge has mask 0)."""
    counts = {_mask(e): m for e, m in graph.edge_multiplicities().items()}
    masks = sorted(counts)
    return np.array(masks, dtype=np.uint64), np.array([counts[m] for m in masks], dtype=np.int64)


def _hardcore_support(graph):
    """Every subset with no full edge, as uint64 bitmasks in a fixed order.

    Grows the list one vertex at a time: v joins a listed subset unless that
    completes an edge whose largest vertex is v.  Returns None when the graph
    has more vertices than a mask has bits or the list would pass
    ``_SUPPORT_CAP`` subsets.
    """
    n = graph.num_vertices
    if n > 64:
        return None
    masks, _ = _edge_masks(graph)
    rests = [[] for _ in range(n)]  # rests[v]: edge minus v, for edges whose largest vertex is v
    for mask in masks.tolist():
        if mask == 0:  # the empty edge lies inside every subset
            return np.empty(0, dtype=np.uint64)
        top = mask.bit_length() - 1
        rests[top].append(mask ^ (1 << top))
    # np.empty commits no memory; only the written prefix becomes resident
    states = np.empty(min(_SUPPORT_CAP, 1 << n), dtype=np.uint64)
    states[0] = 0
    size = 1
    for v in range(n):
        rest = np.array(rests[v], dtype=np.uint64)
        bit = np.uint64(1 << v)
        end = size
        for lo in range(0, size, _CHUNK):
            block = states[lo : min(lo + _CHUNK, size)]
            ok = np.ones(len(block), dtype=bool)
            for r in rest:
                ok &= (block & r) != r
            added = int(np.count_nonzero(ok))
            if end + added > len(states):
                return None
            grown = states[end : end + added]
            np.compress(ok, block, out=grown)
            grown |= bit
            end += added
        size = end
    return states[:size]


def _listing(graph, edge_free, require=(), forbid=()):
    """What to list and count: ``(states, masks, mults, require, forbid)``.

    With ``edge_free`` only subsets without a full edge carry weight: the
    hard-core support is listed as ``states`` when it fits, and it has no
    edge to count.  Otherwise ``states`` is None, which lists all 2^N
    subsets, behind the size guard, with the distinct edge masks and their
    multiplicities to count.  Only the subsets S with require ⊆ S and
    S ∩ forbid = ∅ are kept; both sets come back as bitmasks.
    """
    states = _hardcore_support(graph) if edge_free else None
    if states is not None:
        masks, mults = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    else:
        _check_guard(graph)
        masks, mults = _edge_masks(graph)
    return states, masks, mults, _mask(require), _mask(forbid)


def _tables(n, states, masks, mults, require, forbid, by_vertex=False):
    """Exact counts of the listed subsets by size s and edge count x.

    Returns ``table[s, x]`` and, with ``by_vertex``, ``per_vertex[v, s, x]``
    over the listed subsets that hold v (else None).  A subset is counted at
    the flat cell ``s * width + x``, ``width`` one more than the largest x.
    Listed support states are filtered by ``require`` and ``forbid`` before
    they are counted.  All 2^N subsets are counted by the subset-sum
    transform of :func:`_count_all` in O(N 2^N), and the subsets that
    ``require`` and ``forbid`` reject go to one extra last cell, which is
    dropped.
    """
    width = int(mults.sum()) + 1
    cells = (n + 1) * width
    table = np.zeros(cells + 1, dtype=np.int64)
    per_vertex = np.zeros((n, cells + 1), dtype=np.int64) if by_vertex else None
    if states is None:
        _count_all(n, masks, mults, width, require, forbid, table, per_vertex)
    else:
        _count_support(n, states, require, forbid, table, per_vertex)
    table = table[:cells].reshape(n + 1, width)
    return table, per_vertex[:, :cells].reshape(n, n + 1, width) if by_vertex else None


def _count_support(n, states, require, forbid, table, per_vertex):
    """Count listed subsets with no edge to count (x = 0) by size alone."""
    req, forb = np.uint64(require), np.uint64(forbid)
    for lo in range(0, len(states), _CHUNK):
        block = states[lo : lo + _CHUNK]
        if require or forbid:
            block = block[((block & req) == req) & ((block & forb) == 0)]
        cell = np.bitwise_count(block).astype(np.intp)
        table += np.bincount(cell, minlength=len(table))
        if per_vertex is not None:
            for v in range(n):
                held = (block & np.uint64(1 << v)) != 0
                per_vertex[v] += np.bincount(cell[held], minlength=len(table))


def _count_all(n, masks, mults, width, require, forbid, table, per_vertex):
    """Count all 2^N subsets, a block of ``_CHUNK`` at a time, by a subset-sum
    transform.

    A block holds the subsets S = H + L sharing their high bits H above the
    low ``b`` bits.  An edge mask m = m_H + m_L lies inside S iff m_H ⊆ H
    and m_L ⊆ L, so the block's cells are the subset sums over L of one
    2^b array: ``width`` at each one-bit L (the size), ``|H| * width`` at
    L = 0, and each mask's multiplicity at m_L when m_H ⊆ H.  The ``b``
    passes of the transform cost O(b 2^b) per block, whatever the number of
    masks.  The subsets that ``require`` and ``forbid`` reject are moved to
    the last cell after counting.
    """
    b = min(n, _CHUNK.bit_length() - 1)
    low = (1 << b) - 1
    rejected = len(table) - 1
    singletons = 1 << np.arange(b)
    mask_low = (masks & np.uint64(low)).astype(np.intp)
    mask_high = (masks >> np.uint64(b)).astype(np.int64)
    req_low, req_high, forb_high = require & low, require >> b, forbid >> b
    drop = None  # the low parts L that require and forbid reject
    if req_low or forbid & low:
        subset = np.arange(1 << b)
        drop = ((subset & req_low) != req_low) | ((subset & forbid) != 0)
    cell = np.empty(1 << b, dtype=np.int64)
    half = np.empty(len(cell) // 2, dtype=np.int64)
    for high in range(1 << (n - b)):
        if high & req_high != req_high or high & forb_high:
            continue  # every subset of the block is rejected
        cell.fill(0)
        cell[singletons] = width
        cell[0] = high.bit_count() * width
        inside = (mask_high | high) == high
        np.add.at(cell, mask_low[inside], mults[inside])
        _subset_sums(cell, b)
        if drop is not None:
            cell[drop] = rejected
        counts = np.bincount(cell, minlength=len(table))
        table += counts
        if per_vertex is not None:
            for v in range(b):  # the subsets holding low vertex v
                np.copyto(half.reshape(-1, 1 << v), cell.reshape(-1, 2, 1 << v)[:, 1])
                per_vertex[v] += np.bincount(half, minlength=len(table))
            for v in range(b, n):  # high vertex v is in every subset of the block or none
                if high >> (v - b) & 1:
                    per_vertex[v] += counts


def _subset_sums(x, bits):
    """In place, x[S] becomes the sum of x[T] over every T ⊆ S, for the
    2^bits indices S of x: one pass per bit adds each x[S] without the bit
    into x[S] with it (Yates)."""
    for j in range(bits):
        run = 1 << j
        rows = x.reshape(-1, 2 * run)  # each row: runs without bit j, then with it
        if run < 16:  # short runs: a strided column at a time is faster
            for r in range(run):
                rows[:, run + r] += rows[:, r]
        else:
            rows[:, run:] += rows[:, :run]


def _weigh(counts, p, zeta):
    """Scaled weights ``count * p^s (1-p)^(N-s) (1-zeta)^x`` of a count table
    whose last two axes are (s, x)."""
    n = counts.shape[-2] - 1
    s = np.arange(n + 1)[:, None]
    x = np.arange(counts.shape[-1])
    return counts * (np.power(p, s) * np.power(1.0 - p, n - s)) * np.power(1.0 - zeta, x)


def _total(counts, p, zeta):
    """Scaled weight summed over the last two axes (s, x), along x first."""
    return _weigh(counts, p, zeta).sum(axis=-1).sum(axis=-1)


def _log_z_from_total(total, num_vertices, lam):
    if total <= 0.0:
        return -math.inf
    return math.log(total) + num_vertices * math.log1p(lam)


def partition_function(graph, params):
    """log of sum_S lam^|S| (1-zeta)^{|E(S)|}, edges counted with multiplicity."""
    return _log_z(graph, params)


def _log_z(graph, params, require=(), forbid=()):
    """log Z over the subsets S with require ⊆ S and S ∩ forbid = ∅."""
    listing = _listing(graph, params.zeta == 1, require, forbid)
    table, _ = _tables(graph.num_vertices, *listing)
    return _log_z_from_total(_total(table, params.p, params.zeta), graph.num_vertices, params.lam)


def _moments(weights, tot):
    """Mean and central variance of the index of a weight vector with sum tot."""
    values = np.arange(len(weights))
    mean = float(values @ weights) / tot
    return mean, float((values - mean) ** 2 @ weights) / tot


def summarize(graph, params):
    """Exact marginals, set-size and induced-edge moments."""
    n = graph.num_vertices
    table, per_vertex = _tables(n, *_listing(graph, params.zeta == 1), by_vertex=True)
    cells = _weigh(table, params.p, params.zeta)
    by_size = cells.sum(axis=1)
    tot = float(by_size.sum())
    if tot <= 0.0:
        raise ValueError("partition function vanishes (zeta=1 with a forced edge?)")
    return GibbsSummary(
        _log_z_from_total(tot, n, params.lam),
        _total(per_vertex, params.p, params.zeta) / tot,
        *_moments(by_size, tot),  # mean_size, var_size
        *_moments(cells.sum(axis=0), tot),  # mean_edges, var_edges
    )


def lower_tail_exact(graph, p, threshold):
    """Exact P(X <= threshold) for a p-random vertex subset.

    X is the number of induced edges counted with multiplicity.  A
    threshold in [0, 1) asks for P(X = 0), counted over the subsets with no
    full edge only.  A threshold below 0 or at least the edge count needs
    no listing: the answer is 0 or 1 at any size.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold < 0:
        return 0.0
    if threshold >= graph.num_edges:
        return 1.0
    table, _ = _tables(graph.num_vertices, *_listing(graph, 0 <= threshold < 1))
    kept = np.arange(table.shape[1]) <= threshold  # the edge counts x <= floor(threshold)
    return float(_total(table[:, kept], p, 0.0))


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals of the four partition-function identities at (v, e).

    ``occupied_split``:   Z restricted to S containing v vs lam * Z of the
                          graph with v contracted (set occupied).
    ``unoccupied_split``: Z restricted to S avoiding v vs Z of the graph
                          with v deleted.
    ``edge_deletion``:    Z(G) vs Z(G - e) - zeta * Z(G - e) restricted to
                          supersets of e.
    ``conditional``:      max over u of |mu(u in S | v in S) - marginal of u
                          after contracting v|.

    The first three are relative (each side is positive, or both vanish);
    the last is an absolute difference of probabilities.
    """

    occupied_split: float
    unoccupied_split: float
    edge_deletion: float
    conditional: float

    def max(self):
        """Largest residual; NaN if any residual is NaN."""
        return float(np.max(list(vars(self).values())))


def _rel_from_logs(log_a, log_b):
    if log_a == log_b:  # covers the -inf == -inf case
        return 0.0
    return abs(math.expm1(log_a - log_b))


def verify_identities(graph, params, v, edge_id):
    """Check the occupied/unoccupied splits, edge deletion, and conditional
    contraction on one instance, each side from an independent enumeration.

    When v cannot be occupied there is no conditional measure given v, and
    the conditional residual is 0.0; the occupied split then checks that
    the contracted side vanishes too.
    """
    _check_guard(graph)
    if not 0 <= v < graph.num_vertices:
        raise ValueError("vertex out of range")
    if not 0 <= edge_id < graph.num_edges:
        raise ValueError("edge id out of range")
    r_occ, r_unocc, r_cond = _vertex_residuals(graph, params, v)
    log_z = partition_function(graph, params)
    return IdentityResiduals(r_occ, r_unocc, _edge_residual(graph, params, edge_id, log_z), r_cond)


def _identity_check(graph, params):
    """The summary of ``graph`` and each identity residual's largest value
    over all (v, e) pairs: 0.0 when there are no pairs, NaN if any residual
    is NaN.  Each vertex's three residuals and each edge's deletion residual
    are computed once, not once per pair as ``verify_identities`` would."""
    checks = graph.num_vertices and graph.num_edges
    if checks:
        _check_guard(graph)
    summary = summarize(graph, params)
    if not checks:
        return summary, IdentityResiduals(0.0, 0.0, 0.0, 0.0)
    by_vertex = [_vertex_residuals(graph, params, v) for v in range(graph.num_vertices)]
    by_edge = [_edge_residual(graph, params, e, summary.log_z) for e in range(graph.num_edges)]
    occupied, unoccupied, conditional = zip(*by_vertex)
    worst = (float(np.max(r)) for r in (occupied, unoccupied, by_edge, conditional))
    return summary, IdentityResiduals(*worst)


def _vertex_residuals(graph, params, v):
    """The occupied split, unoccupied split and conditional residual at v,
    none of which depends on the edge."""
    lam, zeta = params.lam, params.zeta
    n = graph.num_vertices
    _, in_v = _tables(n, *_listing(graph, zeta == 1, require=(v,)), by_vertex=True)
    held = _total(in_v, params.p, zeta)  # held[u]: weight of the subsets holding u and v
    log_in_v = _log_z_from_total(held[v], n, lam)
    contracted, cmap = graph.contract_vertices((v,))
    r_cond = 0.0
    if held[v] > 0:  # one listing of the contracted graph gives Z and the conditional
        summary = summarize(contracted, params)
        log_z_contracted = summary.log_z
        r_cond = max(
            (float(abs(held[u] / held[v] - summary.marginals[c])) for u, c in cmap.items()),
            default=0.0,
        )
    else:
        log_z_contracted = partition_function(contracted, params)
    r_occ = _rel_from_logs(log_in_v, math.log(lam) + log_z_contracted if lam > 0 else -math.inf)

    log_out_v = _log_z(graph, params, forbid=(v,))
    deleted, _ = graph.remove_vertices((v,))
    r_unocc = _rel_from_logs(log_out_v, partition_function(deleted, params))
    return r_occ, r_unocc, r_cond


def _edge_residual(graph, params, edge_id, log_z):
    """The edge-deletion residual at edge ``edge_id``, given log Z(G), which
    does not depend on the edge."""
    e = graph.edges[edge_id]
    minus_e = graph.remove_edges([e])
    log_z_minus = partition_function(minus_e, params)
    log_in_e = _log_z(minus_e, params, require=e)
    if log_z == -math.inf and params.zeta == 1 and log_in_e == log_z_minus:
        return 0.0  # both sides vanish: Z(G) = 0 = Z(G - e) - Z(G - e; e inside S)
    return abs(math.exp(log_z_minus - log_z) - params.zeta * math.exp(log_in_e - log_z) - 1.0)


def _heat_bath(graph, params, chains, steps, seed):
    """(chains, N) states of independent single-site heat-bath chains after
    ``steps`` updates.

    Every chain starts from the empty set and scans vertices in index order;
    the update at v occupies it with probability lam*q/(1+lam*q) where
    q = (1-zeta)^{t(v)} and t(v) counts edges v would complete.  Each update
    draws one uniform per chain; deterministic given the seed.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    rows, at = _edge_rows(graph), _incidence(n, graph.edges)
    # per vertex v, the edge table's columns at its edges less v itself: a
    # (deg v, K - 1) array whose row is fully occupied exactly when occupying
    # v completes its edge, short edges ending in the always-occupied column N
    width = max(len(rows) - 1, 0)
    index = [rows.T[ids] for ids in at]
    index = [cols[cols != v].reshape(len(cols), width) for v, cols in enumerate(index)]
    # occupation probability lam*q/(1+lam*q), q = (1-zeta)^t, by edge count t
    q = (1.0 - params.zeta) ** np.arange(max(map(len, at), default=0) + 1)
    prob = params.lam * q / (1.0 + params.lam * q)
    state = np.zeros((chains, n + 1), dtype=bool)
    state[:, n] = True  # the sentinel column
    for step in range(steps):
        v = step % n
        t = state[:, index[v]].all(axis=2).sum(axis=1)
        state[:, v] = rng.random(chains) < prob[t]
    return state[:, :n]


def glauber_marginals(graph, params, num_chains, sweeps, seed):
    """Empirical marginals from independent heat-bath chains (one sample each).

    Runs ``num_chains`` replicas of the single-site heat-bath chain from the
    empty set for ``sweeps`` full scans in index order and averages the
    final states.  Vectorised across replicas; deterministic given the seed.
    """
    if num_chains < 1:
        raise ValueError("num_chains must be >= 1")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    steps = sweeps * graph.num_vertices
    return _heat_bath(graph, params, num_chains, steps, seed).mean(axis=0)


def _mean_edges(graph, p):
    """E[X] = sum over edges of p^|e|, summed in edge order."""
    return sum(p ** len(e) for e in graph.edges)


def mc_lower_tail(graph, p, eta, samples, seed):
    """Direct sampling estimate of P(X <= eta * E[X]), with binomial stderr.

    E[X] is sum over edges of p^|e| (equal to |E| p^k on uniform graphs).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = graph.num_vertices
    threshold = eta * _mean_edges(graph, p)
    if threshold >= graph.num_edges:
        return 1.0, 0.0
    rows = _edge_rows(graph)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    # the draws and the gather of full edges each hold at most 2^22 entries
    batch = max(1, min(samples, (1 << 22) // max(n, rows.size, 1)))
    occ = np.ones((batch, n + 1), dtype=bool)  # column N, the sentinel, stays occupied
    while done < samples:
        m = min(batch, samples - done)
        np.less(rng.random((m, n)), p, out=occ[:m, :n])
        x = occ[:m, rows].all(axis=1).sum(axis=1)
        hits += int((x <= threshold).sum())
        done += m
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)
