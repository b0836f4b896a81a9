"""Shared pure-python oracles, deliberately independent of the package's
vectorised implementations."""

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np
import pytest

import bplt.bp
import bplt.progressions
from bplt.errors import ConvergenceError
from bplt.weitz import LabeledHypertree


def _masks(graph):
    masks = []
    for e in graph.edges:
        m = 0
        for u in e:
            m |= 1 << u
        masks.append(m)
    return masks


def naive_total(graph, lam, zeta):
    """sum over subsets of lam^|S| (1-zeta)^{edges inside S}, by direct loop."""
    n = graph.num_vertices
    masks = _masks(graph)
    total = 0.0
    for s in range(1 << n):
        cnt = sum(1 for m in masks if s & m == m)
        total += lam ** bin(s).count("1") * (1.0 - zeta) ** cnt
    return total


def naive_log_z(graph, lam, zeta):
    return math.log(naive_total(graph, lam, zeta))


def naive_marginal(graph, lam, zeta, v):
    n = graph.num_vertices
    masks = _masks(graph)
    total = 0.0
    hit = 0.0
    for s in range(1 << n):
        cnt = sum(1 for m in masks if s & m == m)
        w = lam ** bin(s).count("1") * (1.0 - zeta) ** cnt
        total += w
        if s >> v & 1:
            hit += w
    return hit / total


def naive_lower_tail(graph, p, threshold):
    """P(X <= threshold) for a p-random subset, X the edges inside it, by direct loop."""
    n = graph.num_vertices
    masks = _masks(graph)
    prob = 0.0
    for s in range(1 << n):
        if sum(1 for m in masks if s & m == m) <= threshold:
            k = bin(s).count("1")
            prob += p**k * (1.0 - p) ** (n - k)
    return prob


def loop_tables(n, states, masks, mults, require=0, forbid=0, by_vertex=False):
    """``bplt.gibbs._tables`` by one numpy pass per edge mask over each block
    of listed subsets, with the ``require``/``forbid`` filter applied before
    counting: the reference for its subset-sum transform, whose integer
    tables must equal these."""
    chunk = 1 << 16
    if states is None:
        states = np.arange(1 << n, dtype=np.uint64)
    req, forb = np.uint64(require), np.uint64(forbid)
    width = int(mults.sum()) + 1
    cells = (n + 1) * width
    table = np.zeros(cells, dtype=np.int64)
    per_vertex = np.zeros((n, cells), dtype=np.int64) if by_vertex else None
    for lo in range(0, len(states), chunk):
        block = states[lo : lo + chunk]
        block = block[((block & req) == req) & ((block & forb) == 0)]
        cell = np.bitwise_count(block).astype(np.intp) * width
        for mask, mult in zip(masks, mults):
            cell += mult * ((block & mask) == mask)
        table += np.bincount(cell, minlength=cells)
        if by_vertex:
            for v in range(n):
                held = (block & np.uint64(1 << v)) != 0
                per_vertex[v] += np.bincount(cell[held], minlength=cells)
    return table.reshape(n + 1, width), per_vertex.reshape(n, n + 1, width) if by_vertex else None


def loop_degrees(graph):
    """Vertex degrees with multiplicity by a loop over the edges: the
    reference for ``Multihypergraph.degrees``."""
    deg = [0] * graph.num_vertices
    for e in graph.edges:
        for u in e:
            deg[u] += 1
    return deg


def canonical_edges(edges):
    """An edge list in the canonical form of ``Multihypergraph.edges``, built
    without its constructor: each edge a sorted tuple, the list sorted."""
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def loop_ap_edges(k, n):
    """The canonical edges of ``bplt.progressions.ap_hypergraph(k, n)``, one
    progression a + i d at a time: the reference for its builder."""
    edges = []
    d = 1
    while (k - 1) * d <= n - 1:
        for a in range(n - (k - 1) * d):
            edges.append(tuple(a + i * d for i in range(k)))
        d += 1
    return canonical_edges(edges)


def loop_subgraph_edges(pattern, n):
    """The canonical edges of ``bplt.rates.subgraph_hypergraph(pattern, n)``:
    every ordered placement of the pattern's vertices on a vertex subset of
    K_n, each copy the set of ids of the K_n pairs it covers."""
    pair_id = {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    copies = set()
    for combo in itertools.combinations(range(n), pattern.num_vertices):
        for perm in itertools.permutations(combo):
            copies.add(frozenset(
                pair_id[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
                for u, v in pattern.edges
            ))
    return canonical_edges(copies)


def loop_remove_edges(graph, edge_lists):
    """The canonical edges of ``graph.remove_edges(edge_lists)``, dropping
    one listed copy at a time in a pass over ``graph.edges``: the reference
    for its multiset difference."""
    to_remove = Counter(tuple(sorted(e)) for e in edge_lists)
    seen = Counter()
    remaining = []
    for e in graph.edges:
        if seen[e] < to_remove[e]:
            seen[e] += 1
        else:
            remaining.append(e)
    return canonical_edges(remaining)


def all_pairs_is_linear_hypertree(graph):
    """``bplt.hypergraph.is_linear_hypertree`` with linearity checked first on
    every pair of edges of size >= 2: the reference for its linear-time
    incidence-tree check."""
    big = [e for e in graph.edges if len(e) >= 2]
    for e, f in itertools.combinations(big, 2):
        if len(set(e) & set(f)) > 1:
            return False
    n = graph.num_vertices
    if n == 0:
        return True
    if sum(len(e) - 1 for e in big) != n - 1:
        return False
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for e in big:
            if u in e:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return len(seen) == n


@dataclass(frozen=True)
class SAW:
    """A self-avoiding walk: alternating distinct vertices and edge ids.

    ``vertices`` has one more entry than ``edge_ids``; consecutive vertices
    both lie in the connecting edge.  Copies of a multi-edge count as
    distinct edges.
    """

    vertices: tuple
    edge_ids: tuple

    @property
    def length(self):
        return len(self.edge_ids)

    @property
    def end(self):
        return self.vertices[-1]


def enumerate_saws(graph, start, max_len=None):
    """All self-avoiding walks from ``start`` of length <= max_len, by
    depth-first search; ``max_len=None`` means unbounded.  The length-0 walk
    is included and parallel copies of an edge are explored separately."""
    out = []
    stack = [SAW((start,), ())]
    while stack:
        walk = stack.pop()
        out.append(walk)
        if max_len is not None and walk.length >= max_len:
            continue
        for eid, e in enumerate(graph.edges):
            if walk.end not in e or eid in walk.edge_ids:
                continue
            for u in e:
                if u not in walk.vertices:
                    stack.append(SAW(walk.vertices + (u,), walk.edge_ids + (eid,)))
    out.sort(key=lambda w: (w.length, w.vertices, w.edge_ids))
    return out


def naive_weitz_tree(graph, vertex, vertex_order=None, edge_order=None, depth_limit=None):
    """The pruned walk tree as the ``bplt.weitz`` docstring defines it: the
    full walk tree, then both operations at every non-root node in
    breadth-first order, then the root component, keeping the edges that lie
    fully within ``depth_limit``."""
    vrank = {u: r for r, u in enumerate(vertex_order or range(graph.num_vertices))}
    erank = {f: r for r, f in enumerate(edge_order or range(graph.num_edges))}
    at = [[i for i, e in enumerate(graph.edges) if u in e] for u in range(graph.num_vertices)]
    # full walk tree; a tree edge is [top, *children], node ids in BFS order
    labels, parents, parent_edges, depths = [vertex], [-1], [-1], [0]
    walks = [((vertex,), ())]
    edges, edge_labels, children = [], [], [[]]
    w = 0
    while w < len(labels):
        on_walk, used = walks[w]
        for eid in at[labels[w]]:
            if eid in used:
                continue
            members = [w]
            for u in graph.edges[eid]:
                if u not in on_walk:
                    c = len(labels)
                    labels.append(u)
                    parents.append(w)
                    parent_edges.append(len(edges))
                    depths.append(depths[w] + 1)
                    walks.append((on_walk + (u,), used + (eid,)))
                    children.append([])
                    children[w].append(c)
                    members.append(c)
            edges.append(members)
            edge_labels.append(eid)
        w += 1

    def subtree(w):
        out = [w]
        for x in out:
            out.extend(children[x])
        return out

    occupied = [False] * len(labels)
    deleted = [False] * len(edges)
    for w in range(1, len(labels)):
        if occupied[w]:
            continue
        pe = edge_labels[parent_edges[w]]
        below = set(subtree(w))
        for x in below - {w}:
            if labels[x] in graph.edges[pe] and vrank[labels[x]] < vrank[labels[w]]:
                occupied[x] = True
        doomed = {f for f in at[labels[parents[w]]] if erank[f] < erank[pe]}
        for i, members in enumerate(edges):
            if members[0] in below and edge_labels[i] in doomed:
                deleted[i] = True

    keep = [True] + [False] * (len(labels) - 1)
    for w in range(1, len(labels)):
        keep[w] = (
            keep[parents[w]]
            and not occupied[w]
            and not deleted[parent_edges[w]]
            and (depth_limit is None or depths[w] <= depth_limit)
        )
    new_id = {w: i for i, w in enumerate(w for w in range(len(labels)) if keep[w])}
    kept_edges = [
        i
        for i, members in enumerate(edges)
        if keep[members[0]] and not deleted[i]
        and all(keep[x] or occupied[x] for x in members)
    ]
    new_edge = {i: j for j, i in enumerate(kept_edges)}
    return LabeledHypertree(
        tuple(labels[w] for w in new_id),
        tuple(new_id[parents[w]] if w else -1 for w in new_id),
        tuple(new_edge[parent_edges[w]] if w else -1 for w in new_id),
        tuple(depths[w] for w in new_id),
        tuple(tuple(new_id[x] for x in edges[i] if keep[x]) for i in kept_edges),
        tuple(edge_labels[i] for i in kept_edges),
    )


def depth_sorted_tree_ratio(tree, params):
    """``bplt.weitz.tree_ratio`` with the nodes visited deepest first, the
    order that does not rely on breadth-first node ids."""
    lam, zeta = params.lam, params.zeta
    n = tree.num_nodes
    ratios = [0.0] * n
    tops = tree.child_edge_ids()
    for w in sorted(range(n), key=lambda i: -tree.depths[i]):
        r = lam
        for te in tops[w]:
            q = 1.0
            for u in tree.edge_nodes[te][1:]:
                q *= ratios[u] / (1.0 + ratios[u])
            r *= 1.0 - zeta * q
        ratios[w] = r
    return ratios[tree.root]


def naive_bp_apply(graph, params, x):
    """The message operator by a loop over edges: each member of an edge adds
    the product of the other members, by ``math.prod``, to its sum."""
    sums = [0.0] * graph.num_vertices
    for e in graph.edges:
        for i, v in enumerate(e):
            sums[v] += math.prod(float(x[u]) for j, u in enumerate(e) if j != i)
    return np.array([params.c * math.exp(-(params.zeta / params.delta) * s) for s in sums])


def reference_apply(x, edges, c, zeta, delta):
    """The BP kernel's prefix and suffix products over the (k, M) edge
    array, in fresh arrays on every call and with a checked gather: the
    reference that ``bp._apply`` on its reused workspace must match bit for
    bit."""
    k = len(edges)
    vals = x[edges]
    loo = np.empty_like(vals)
    loo[1] = vals[0]
    for j in range(2, k):
        np.multiply(loo[j - 1], vals[j - 1], out=loo[j])
    suffix = vals[k - 1]
    for j in range(k - 2, 0, -1):
        loo[j] *= suffix
        suffix = suffix * vals[j]
    loo[0] = suffix
    sums = np.bincount(edges.ravel(), weights=loo.ravel(), minlength=len(x))
    return c * np.exp(-(zeta / delta) * sums)


def reference_edge_sum(x, edges):
    """``bp._edge_sum`` with a fresh gather, the reference for its workspace."""
    return float(np.prod(x[edges], axis=0).sum())


def naive_band_integral(f, offsets, a, b):
    """The band integral of ``bplt.progressions`` point by point: at t = j/M,
    the trapezoid rule over the on-grid products g_r = prod_i f(t + i r/M),
    r = 0..R, R = floor(M w(t)), then half the tail length times g_R plus
    the product of linearly interpolated values at w(t)."""
    m = len(f) - 1
    h = 1.0 / m
    grid = np.arange(m + 1) * h
    out = []
    for j in range(m + 1):
        sides = [(j, a), (m - j, b)]
        big_r = min(room // d for room, d in sides if d)
        w = min(room / (d * m) for room, d in sides if d)
        g = [math.prod(float(f[j + i * r]) for i in offsets) for r in range(big_r + 1)]
        value = sum(0.5 * h * (g[r - 1] + g[r]) for r in range(1, big_r + 1))
        g_end = math.prod(float(np.interp(j * h + i * w, grid, f)) for i in offsets)
        out.append(value + 0.5 * (w - big_r * h) * (g[big_r] + g_end))
    return np.array(out)


def loop_band_integral(f, offsets, a, b):
    """The band integral of ``bplt.progressions`` with one step r at a time:
    the on-grid product of step r, ``math.prod`` over the shifted slices, is
    added into the points a*r <= j <= M - b*r for r = 1..max R, so each point
    sums g_0, g_1, ..., g_R in order.  The reference for its blocked sum,
    which must match it bit for bit."""
    m = len(f) - 1
    h = 1.0 / m
    j = np.arange(m + 1)
    grid = j * h
    sides = [(room, d) for room, d in ((j, a), (m - j, b)) if d > 0]
    r_full = np.min([room // d for room, d in sides], axis=0)
    w = np.min([room / (d * m) for room, d in sides], axis=0)
    g_0 = math.prod(f for _ in offsets)
    total = g_0.copy()
    for r in range(1, int(r_full.max()) + 1):
        lo, hi = a * r, m - b * r
        total[lo : hi + 1] += math.prod(f[lo + i * r : hi + i * r + 1] for i in offsets)
    g_full = math.prod(f[j + i * r_full] for i in offsets)
    g_end = math.prod(np.interp(grid + i * w, grid, f) for i in offsets)
    return h * (total - 0.5 * (g_0 + g_full)) + 0.5 * (w - r_full * h) * (g_full + g_end)


def loop_heat_bath(graph, params, chains, steps, seed):
    """The heat-bath chains of ``bplt.gibbs`` with the count t(v) taken by a
    loop over the edges at v, one index array of the other members per edge
    copy: the reference for its one-gather update, which must give the same
    states from the same draws."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    table = [[] for _ in range(n)]
    for e in graph.edges:
        for u in e:
            table[u].append(np.array([w for w in e if w != u], dtype=np.int64))
    state = np.zeros((chains, n), dtype=bool)
    for step in range(steps):
        v = step % n
        t = np.zeros(chains, dtype=np.int64)
        for others in table[v]:
            t += state[:, others].all(axis=1)
        q = (1.0 - params.zeta) ** t
        prob = params.lam * q / (1.0 + params.lam * q)
        state[:, v] = rng.random(chains) < prob
    return state


def plain_iterate(apply, x, tol, what):
    """Plain iteration ``x <- apply(x)`` with the stopping test, application
    cap and errors of ``bp._iterate``: the reference for its Anderson-mixed
    iteration."""
    residual = math.inf
    cap = bplt.bp._MAX_APPLICATIONS
    for step in range(1, cap + 1):
        y = apply(x)
        residual = float(np.max(np.abs(np.log(y) - np.log(x))))
        if residual < tol:
            return x
        if not math.isfinite(residual):
            raise ConvergenceError(f"{what}: non-finite residual", residual=residual, iterations=step)
        x = y
    raise ConvergenceError(f"{what}: no fixed point", residual=residual, iterations=cap)


def previous_node_coupling_integral(apply_at, mass, size, head, c, quad_nodes, tol, what):
    """``bp._coupling_integral`` with each node's solve started from the
    previous node's fixed point, the first from the constant t: the
    reference for its predicted starts, which must agree with it to within
    the solver tolerance at every node."""
    if not quad_nodes >= 1:
        raise ValueError(f"quad_nodes must be >= 1 (got {quad_nodes})")
    eps = c * 1e-6
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    mid, half = 0.5 * (eps + c), 0.5 * (c - eps)
    ts, ws = mid + half * nodes, half * weights
    x = np.full(size, ts[0])
    total = head * eps
    for t, w in zip(ts, ws):
        t = float(t)
        x = bplt.bp._iterate(lambda v: apply_at(t, v), x, tol, what)
        total += w * mass(x) / t
    return total


def fixed_point_gap(tol, margin):
    """Bound on the log-sup distance between two points whose residuals
    ``d(x, F x)`` are below ``tol``, for an operator F whose square contracts
    with factor ``1 - margin`` and whose one-step Lipschitz constant is
    ``e (1 - margin) < e`` (the BP and grid operators on (0, c]).

    ``d(x, x*) <= d(x, F x) + d(F x, F^2 x) + d(F^2 x, F^2 x*)
    <= (1 + e) tol + (1 - margin) d(x, x*)``, so each point lies within
    ``(1 + e) tol / margin`` of the fixed point x*.
    """
    return 2 * (1 + math.e) * tol / margin


def log_gap(x, y):
    return float(np.max(np.abs(np.log(x) - np.log(y))))


def _with_iterate(monkeypatch, iterate, solve):
    """``solve()`` with ``iterate`` in place of the library's ``_iterate``."""
    with monkeypatch.context() as m:
        for module in (bplt.bp, bplt.progressions):
            m.setattr(module, "_iterate", iterate)
        return solve()


@pytest.fixture
def plain_solvers(monkeypatch):
    """``plain_solvers(solve)`` calls ``solve()`` with every fixed-point
    solver of the library running ``plain_iterate`` instead."""
    return lambda solve: _with_iterate(monkeypatch, plain_iterate, solve)


@pytest.fixture
def previous_node_starts(monkeypatch):
    """``previous_node_starts(solve)`` calls ``solve()`` with the
    coupling-constant integrals of ``bp`` and ``progressions`` run by
    ``previous_node_coupling_integral`` instead of from predicted starts."""

    def run(solve):
        with monkeypatch.context() as m:
            for module in (bplt.bp, bplt.progressions):
                m.setattr(module, "_coupling_integral", previous_node_coupling_integral)
            return solve()

    return run


@pytest.fixture
def reference_kernel(monkeypatch):
    """``reference_kernel(solve)`` calls ``solve()`` with the BP solvers
    applying ``reference_apply`` and summing by ``reference_edge_sum``, so
    ``bp._iterate`` is driven by the allocating kernel and no workspace is read."""

    def run(solve):
        with monkeypatch.context() as m:
            m.setattr(bplt.bp, "_apply", lambda x, edges, work, *a: reference_apply(x, edges, *a))
            m.setattr(bplt.bp, "_edge_sum", lambda x, edges, work: reference_edge_sum(x, edges))
            return solve()

    return run


@pytest.fixture
def count_applications(monkeypatch):
    """``count_applications(solve)`` returns ``(solve(), n)``, n the number of
    operator applications the library's fixed-point iteration made."""
    iterate = bplt.bp._iterate

    def run(solve):
        count = 0

        def counted(apply, x, tol, what):
            def apply_counted(v):
                nonlocal count
                count += 1
                return apply(v)

            return iterate(apply_counted, x, tol, what)

        return _with_iterate(monkeypatch, counted, solve), count

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
