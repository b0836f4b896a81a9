"""Exact oracle for the edge-penalty model, plus Monte Carlo.

The model on a multihypergraph G weights a vertex subset S by
``lam^|S| * (1-zeta)^{|E(S)|}`` where ``E(S)`` counts edges fully inside S
with multiplicity; ``zeta = 1`` forbids occupied edges (hard-core model).
Per-subset weights are accumulated in the probability normalisation
``p^|S| (1-p)^(N-|S|)`` with ``p = lam/(1+lam)`` (every term lies in [0,1]),
and logs are taken at the end.  Two exact paths give reproducible results
bit for bit:

* the general path enumerates all 2^N subsets as bitmasks in fixed index
  order, split into contiguous high-bit blocks whose partial sums are
  merged in block order; it is guarded at ``EXACT_GUARD`` vertices;
* when only subsets without a full edge carry weight (``zeta = 1`` in
  :func:`partition_function` and :func:`summarize`, a threshold in
  ``[0, 1)`` in :func:`lower_tail_exact`), the support path lists exactly
  those subsets and sums exact per-size counts.  Its guard counts the
  subsets it lists: past ``_SUPPORT_CAP`` of them, or past 64 vertices, the
  call falls back to the general path and its guard.
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
_SUPPORT_CAP = 1 << 24  # listed subsets: 128 MiB of uint64 masks
_CHUNK = 1 << 16  # support masks per vectorised step, sized to stay in cache


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


def _size_weights(n, p):
    """Scaled weight p^k (1-p)^(n-k) of one k-subset, for k = 0..n."""
    k = np.arange(n + 1)
    return np.power(p, k) * np.power(1.0 - p, n - k)


def _support_total(states, n, p):
    """Sum of scaled weights over the listed subsets."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(states), _CHUNK):  # bincount copies its input to intp
        counts += np.bincount(np.bitwise_count(states[lo : lo + _CHUNK]), minlength=n + 1)
    return float(counts @ _size_weights(n, p))


def _support_summary(states, n, params):
    """:func:`summarize` over the listed subsets, none of which holds an edge."""
    w = _size_weights(n, params.p)
    size_counts = np.zeros(n + 1, dtype=np.int64)
    vertex_counts = np.zeros((n, n + 1), dtype=np.int64)  # subsets holding v, by size
    bits = [np.uint64(1 << v) for v in range(n)]
    for lo in range(0, len(states), _CHUNK):
        block = states[lo : lo + _CHUNK]
        sizes = np.bitwise_count(block)
        size_counts += np.bincount(sizes, minlength=n + 1)
        for v, bit in enumerate(bits):
            vertex_counts[v] += np.bincount(sizes[(block & bit) != 0], minlength=n + 1)
    k = np.arange(n + 1)
    return _summary(
        float(size_counts @ w),
        vertex_counts @ w,
        float((size_counts * k) @ w),
        float((size_counts * k * k) @ w),
        0.0,
        0.0,
        n,
        params.lam,
    )


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
    states = _hardcore_support(graph) if params.zeta == 1 else None
    if states is not None:
        total = _support_total(states, graph.num_vertices, params.p)
        return _log_z_from_total(total, graph.num_vertices, params.lam)
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
    """Exact marginals, set-size and induced-edge moments."""
    states = _hardcore_support(graph) if params.zeta == 1 else None
    if states is not None:
        return _support_summary(states, graph.num_vertices, params)
    _check_guard(graph, unsafe_size)
    return _enumerated_summary(graph, params)


def _enumerated_summary(graph, params):
    """:func:`summarize` by enumeration of all 2^N subsets."""
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
    return _summary(tot, per_vertex, s1, s2, e1, e2, n, params.lam)


def _summary(tot, per_vertex, s1, s2, e1, e2, n, lam):
    """GibbsSummary from weighted sums of 1, each vertex, |S|, |S|^2, X, X^2."""
    if tot <= 0.0:
        raise ValueError("partition function vanishes (zeta=1 with a forced edge?)")
    marginals = per_vertex / tot
    mean_size = s1 / tot
    mean_edges = e1 / tot
    return GibbsSummary(
        log_z=_log_z_from_total(tot, n, lam),
        marginals=marginals,
        mean_size=mean_size,
        var_size=max(s2 / tot - mean_size**2, 0.0),
        mean_edges=mean_edges,
        var_edges=max(e2 / tot - mean_edges**2, 0.0),
    )


def lower_tail_exact(graph, p, threshold, unsafe_size=False):
    """Exact P(X <= threshold) for a p-random vertex subset.

    X is the number of induced edges counted with multiplicity.  A
    threshold in [0, 1) asks for P(X = 0), summed over the subsets with no
    full edge only.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if threshold >= graph.num_edges:
        return 1.0
    states = _hardcore_support(graph) if 0 <= threshold < 1 else None
    if states is not None:
        return _support_total(states, graph.num_vertices, p)
    _check_guard(graph, unsafe_size)
    return _enumerated_lower_tail(graph, p, threshold)


def _enumerated_lower_tail(graph, p, threshold):
    """:func:`lower_tail_exact` by enumeration of all 2^N subsets."""
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
