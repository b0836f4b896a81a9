"""Exact brute-force oracle for the edge-penalty model, plus Monte Carlo.

The model on a multihypergraph G weights a vertex subset S by
``lam^|S| * (1-zeta)^{|E(S)|}`` where ``E(S)`` counts edges fully inside S
with multiplicity; ``zeta = 1`` forbids occupied edges (hard-core model).
All exact routines enumerate subsets as bitmasks in fixed index order,
split into contiguous high-bit blocks whose partial sums are merged in
block order, so results are reproducible bit for bit.  Per-subset weights
are accumulated in the probability normalisation ``p^|S| (1-p)^(N-|S|)``
with ``p = lam/(1+lam)`` (every term lies in [0,1]), and logs are taken at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError

__all__ = [
    "ModelParams",
    "GibbsSummary",
    "IdentityResiduals",
    "EXACT_GUARD",
    "partition_function",
    "summarize",
    "lower_tail_exact",
    "verify_identities",
    "glauber_sample",
    "glauber_marginals",
    "mc_lower_tail",
]

EXACT_GUARD = 26
_BLOCK_BITS = 20


@dataclass(frozen=True)
class ModelParams:
    """Activity and edge penalty of the Gibbs measure."""

    lam: float
    zeta: float

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError("lam must be >= 0")
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


def _check_guard(graph, unsafe):
    if graph.num_vertices > EXACT_GUARD and not unsafe:
        raise SizeGuardError(
            f"exact enumeration guarded at {EXACT_GUARD} vertices "
            f"(got {graph.num_vertices}); pass unsafe_size=True to override"
        )


def _edge_masks(graph):
    """Distinct edge bitmasks with multiplicities (empty edge has mask 0)."""
    counts = {}
    for e in graph.edges:
        mask = 0
        for u in e:
            mask |= 1 << u
        counts[mask] = counts.get(mask, 0) + 1
    masks = np.array(sorted(counts), dtype=np.uint64)
    mults = np.array([counts[int(m)] for m in masks], dtype=np.int64)
    return masks, mults


def _iter_blocks(num_vertices):
    total = 1 << num_vertices
    block = 1 << min(_BLOCK_BITS, num_vertices)
    off = 0
    while off < total:
        cnt = min(block, total - off)
        yield np.arange(off, off + cnt, dtype=np.uint64)
        off += cnt


def _block_weights(ids, num_vertices, p, zeta, masks, mults):
    """Scaled weights p^|S| (1-p)^(N-|S|) (1-zeta)^count and the edge counts."""
    sizes = np.bitwise_count(ids).astype(np.int64)
    counts = np.zeros(len(ids), dtype=np.int64)
    for mask, mult in zip(masks, mults):
        counts += mult * ((ids & mask) == mask)
    w = np.power(p, sizes) * np.power(1.0 - p, num_vertices - sizes)
    if zeta:  # the factor is exactly 1 at zeta == 0
        w *= np.power(1.0 - zeta, counts)  # 0**0 == 1 covers zeta == 1
    return w, sizes, counts


def _scaled_total(graph, lam, zeta, require_mask=0, forbid_mask=0):
    """Sum of scaled weights over subsets S with require ⊆ S, S ∩ forbid = ∅."""
    p = lam / (1.0 + lam)
    masks, mults = _edge_masks(graph)
    req = np.uint64(require_mask)
    forb = np.uint64(forbid_mask)
    total = 0.0
    for ids in _iter_blocks(graph.num_vertices):
        w, _, _ = _block_weights(ids, graph.num_vertices, p, zeta, masks, mults)
        if require_mask or forbid_mask:
            ok = ((ids & req) == req) & ((ids & forb) == 0)
            w = w * ok
        total += float(w.sum())
    return total


def _log_z_from_total(total, num_vertices, lam):
    if total <= 0.0:
        return -math.inf
    return math.log(total) + num_vertices * math.log1p(lam)


def partition_function(graph, params, unsafe_size=False):
    """log of sum_S lam^|S| (1-zeta)^{|E(S)|}, edges counted with multiplicity."""
    _check_guard(graph, unsafe_size)
    total = _scaled_total(graph, params.lam, params.zeta)
    return _log_z_from_total(total, graph.num_vertices, params.lam)


def _restricted_log_z(graph, lam, zeta, require=(), forbid=()):
    require_mask = 0
    for v in require:
        require_mask |= 1 << v
    forbid_mask = 0
    for v in forbid:
        forbid_mask |= 1 << v
    total = _scaled_total(graph, lam, zeta, require_mask, forbid_mask)
    return _log_z_from_total(total, graph.num_vertices, lam)


def summarize(graph, params, unsafe_size=False):
    """Exact marginals, set-size and induced-edge moments by full enumeration."""
    _check_guard(graph, unsafe_size)
    n = graph.num_vertices
    p = params.p
    masks, mults = _edge_masks(graph)
    tot = 0.0
    per_vertex = np.zeros(n)
    s1 = s2 = e1 = e2 = 0.0
    for ids in _iter_blocks(n):
        w, sizes, counts = _block_weights(ids, n, p, params.zeta, masks, mults)
        tot += float(w.sum())
        for v in range(n):
            bit = np.uint64(1 << v)
            per_vertex[v] += float(w[(ids & bit) != 0].sum())
        s1 += float((w * sizes).sum())
        s2 += float((w * sizes * sizes).sum())
        e1 += float((w * counts).sum())
        e2 += float((w * counts * counts).sum())
    if tot <= 0.0:
        raise ValueError("partition function vanishes (zeta=1 with a forced edge?)")
    marginals = per_vertex / tot
    mean_size = s1 / tot
    mean_edges = e1 / tot
    return GibbsSummary(
        log_z=_log_z_from_total(tot, n, params.lam),
        marginals=marginals,
        mean_size=mean_size,
        var_size=max(s2 / tot - mean_size**2, 0.0),
        mean_edges=mean_edges,
        var_edges=max(e2 / tot - mean_edges**2, 0.0),
    )


def lower_tail_exact(graph, p, threshold, unsafe_size=False):
    """Exact P(X <= threshold) for a p-random vertex subset.

    X is the number of induced edges counted with multiplicity.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if threshold >= graph.num_edges:
        return 1.0
    _check_guard(graph, unsafe_size)
    n = graph.num_vertices
    masks, mults = _edge_masks(graph)
    prob = 0.0
    for ids in _iter_blocks(n):
        w, _, counts = _block_weights(ids, n, p, 0.0, masks, mults)
        prob += float(w[counts <= threshold].sum())
    return prob


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

    The first three are relative (each side is positive); the last is an
    absolute difference of probabilities.
    """

    occupied_split: float
    unoccupied_split: float
    edge_deletion: float
    conditional: float

    def max(self):
        return max(
            self.occupied_split,
            self.unoccupied_split,
            self.edge_deletion,
            self.conditional,
        )


def _rel_from_logs(log_a, log_b):
    if log_a == log_b:  # covers the -inf == -inf case
        return 0.0
    return abs(math.expm1(log_a - log_b))


def verify_identities(graph, params, v, edge_id, unsafe_size=False):
    """Check the occupied/unoccupied splits, edge deletion, and conditional
    contraction on one instance, each side from an independent enumeration."""
    _check_guard(graph, unsafe_size)
    lam, zeta = params.lam, params.zeta
    if not 0 <= v < graph.num_vertices:
        raise ValueError("vertex out of range")
    if not 0 <= edge_id < graph.num_edges:
        raise ValueError("edge id out of range")

    log_in_v = _restricted_log_z(graph, lam, zeta, require=(v,))
    contracted, cmap = graph.contract_vertices((v,))
    log_z_contracted = partition_function(contracted, params, unsafe_size=True)
    r_occ = _rel_from_logs(log_in_v, math.log(lam) + log_z_contracted if lam > 0 else -math.inf)

    log_out_v = _restricted_log_z(graph, lam, zeta, forbid=(v,))
    deleted, _ = graph.remove_vertices((v,))
    r_unocc = _rel_from_logs(log_out_v, partition_function(deleted, params, unsafe_size=True))

    e = graph.edges[edge_id]
    minus_e = graph.remove_edges([e])
    log_z = partition_function(graph, params, unsafe_size=True)
    log_z_minus = partition_function(minus_e, params, unsafe_size=True)
    log_in_e = _restricted_log_z(minus_e, lam, zeta, require=e)
    r_edge = abs(
        math.exp(log_z_minus - log_z) - zeta * math.exp(log_in_e - log_z) - 1.0
    )

    r_cond = 0.0
    log_in_v_total = log_in_v
    for u in range(graph.num_vertices):
        if u == v:
            continue
        log_in_uv = _restricted_log_z(graph, lam, zeta, require=(u, v))
        lhs = math.exp(log_in_uv - log_in_v_total)
        log_in_u_c = _restricted_log_z(contracted, lam, zeta, require=(cmap[u],))
        rhs = math.exp(log_in_u_c - log_z_contracted)
        r_cond = max(r_cond, abs(lhs - rhs))

    return IdentityResiduals(r_occ, r_unocc, r_edge, r_cond)


def _vertex_edge_tables(graph):
    """Per vertex: list of (other-endpoint index array, multiplicity)."""
    table = [[] for _ in range(graph.num_vertices)]
    for e in graph.edges:
        for u in e:
            others = np.array([w for w in e if w != u], dtype=np.int64)
            table[u].append(others)
    return table


def glauber_sample(graph, params, steps, seed):
    """State of the single-site heat-bath chain after ``steps`` updates.

    Starts from the empty set and scans vertices in index order; the update
    at v occupies it with probability lam*q/(1+lam*q) where
    q = (1-zeta)^{t(v)} and t(v) counts edges v would complete.
    Deterministic given the seed.
    """
    n = graph.num_vertices
    if steps < n:
        raise ValueError("steps must be at least the vertex count")
    rng = np.random.default_rng(seed)
    table = _vertex_edge_tables(graph)
    state = np.zeros(n, dtype=bool)
    lam, zeta = params.lam, params.zeta
    unif = rng.random(steps)
    for step in range(steps):
        v = step % n
        t = sum(1 for others in table[v] if state[others].all())
        q = (1.0 - zeta) ** t
        prob = lam * q / (1.0 + lam * q)
        state[v] = unif[step] < prob
    return frozenset(np.flatnonzero(state).tolist())


def glauber_marginals(graph, params, num_chains, sweeps, seed):
    """Empirical marginals from independent heat-bath chains (one sample each).

    Runs ``num_chains`` replicas of the chain used by :func:`glauber_sample`
    for ``sweeps`` full scans and averages the final states.  Vectorised
    across replicas; deterministic given the seed.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    table = _vertex_edge_tables(graph)
    lam, zeta = params.lam, params.zeta
    state = np.zeros((num_chains, n), dtype=bool)
    for _ in range(sweeps):
        for v in range(n):
            t = np.zeros(num_chains, dtype=np.int64)
            for others in table[v]:
                if len(others):
                    t += state[:, others].all(axis=1)
                else:
                    t += 1
            q = (1.0 - zeta) ** t
            prob = lam * q / (1.0 + lam * q)
            state[:, v] = rng.random(num_chains) < prob
    return state.mean(axis=0)


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
    mean_edges = sum(p ** len(e) for e in graph.edges)
    threshold = eta * mean_edges
    if threshold >= graph.num_edges:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    batch = max(1, min(samples, (1 << 22) // max(n, 1)))
    edge_arrays = [np.array(e, dtype=np.int64) for e in graph.edges]
    while done < samples:
        m = min(batch, samples - done)
        occ = rng.random((m, n)) < p
        x = np.zeros(m, dtype=np.int64)
        for e in edge_arrays:
            x += occ[:, e].all(axis=1) if len(e) else np.ones(m, dtype=bool)
        hits += int((x <= threshold).sum())
        done += m
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)
