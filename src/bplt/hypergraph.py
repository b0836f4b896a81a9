"""Multihypergraph representation, modification operators, and diagnostics.

Vertices are integers ``0..num_vertices-1``.  The edge multiset is kept in a
canonical sorted order; copies of the same edge are distinct objects
identified by their position in :attr:`Multihypergraph.edges` (the "edge
id"), so self-avoiding walks can tell parallel edges apart.  Empty edges are
allowed and carry multiplicity like any other edge.

The :class:`Multihypergraph` constructor is the one place where edges are
canonicalised and checked: the parser, the operators, the builders and
``rates.SimpleGraph`` hand it raw vertex lists and take its ``edges`` back.

A graph also keeps, built on first use, its edges as one integer table
(``_edge_rows``), the only array made from them: the BP kernels,
``degrees`` and the Monte Carlo samplers all work on it.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .errors import _check_k

__all__ = [
    "Multihypergraph",
    "TreeLikeReport",
    "degree_stats",
    "is_linear_hypertree",
    "relabel_vertices",
    "parse_hypergraph",
    "write_hypergraph",
]


def _incidence(num_vertices, edges):
    """Per vertex, the ascending positions in ``edges`` of the edges containing it."""
    inc = [[] for _ in range(num_vertices)]
    for i, e in enumerate(edges):
        for u in e:
            inc[u].append(i)
    return inc


def _edge_rows(graph, k=None):
    """The edges as one C-contiguous (K, M) int64 table, K the largest edge
    size: row j holds slot j of every edge, and an edge shorter than K ends
    in the sentinel N, one past the last vertex.  With ``k`` it is refused
    unless the graph is k-uniform (k rows, every edge filling all of them);
    an edgeless graph gives (k, 0) for every k.

    Built on first use and kept on the graph, which is immutable, so every
    later call returns the same array; callers must not write into it.  It
    is not marked read-only: numpy copies a read-only index array on every
    ``np.take`` and ``np.bincount`` that reads it.
    """
    rows = graph._rows
    if rows is None:
        width = max(map(len, graph.edges), default=0)
        # (M, K): the slots each edge fills, which leave the sentinel in the rest
        filled = np.arange(width) < np.fromiter(map(len, graph.edges), np.int64)[:, None]
        rows = np.full((width, graph.num_edges), graph.num_vertices, dtype=np.int64)
        flat = itertools.chain.from_iterable(graph.edges)
        rows.T[filled] = np.fromiter(flat, np.int64, count=int(filled.sum()))
        object.__setattr__(graph, "_rows", rows)
        object.__setattr__(graph, "_uniform", bool(filled.all()))
    if k is None or not graph.num_edges:  # an edgeless graph fits every k
        return rows if k is None else rows.reshape(k, 0)
    if len(rows) != k or not graph._uniform:
        raise ValueError(f"graph is not {k}-uniform")
    return rows


class Multihypergraph:
    """A vertex count plus a multiset of hyperedges.

    Each edge is stored as a strictly increasing tuple of vertex indices;
    the edge list itself is sorted, so equal multihypergraphs compare equal
    and edge ids are reproducible.  Instances are immutable: every operator
    returns a new graph.  The edge array of ``_edge_rows``, cached in
    ``_rows`` with ``_uniform`` (whether every edge has the largest size),
    takes no part in equality, hashing or the repr.
    """

    __slots__ = ("num_vertices", "edges", "_rows", "_uniform")

    def __init__(self, num_vertices, edges=()):
        try:  # operator.index refuses 1.7, which int would truncate to 1
            num_vertices = operator.index(num_vertices)
            canon = sorted(tuple(sorted(map(operator.index, e))) for e in edges)
        except TypeError as exc:
            raise ValueError(f"vertex count and vertex ids must be integers: {exc}") from None
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        for t in canon:
            if t and not (0 <= t[0] and t[-1] < num_vertices):
                u = t[0] if t[0] < 0 else t[-1]
                raise ValueError(f"vertex {u} out of range [0, {num_vertices})")
            if len(set(t)) < len(t):
                raise ValueError(f"repeated vertex inside edge {t}")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multihypergraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Multihypergraph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.num_vertices, self.edges))

    def __repr__(self):
        return f"Multihypergraph({self.num_vertices}, {list(map(list, self.edges))})"

    @property
    def num_edges(self):
        """Edge count with multiplicity."""
        return len(self.edges)

    def edge_multiplicities(self):
        """Counter mapping each distinct edge (tuple) to its multiplicity."""
        return Counter(self.edges)

    def degrees(self):
        """Vertex degrees with multiplicity, as a list of length num_vertices."""
        n = self.num_vertices
        return np.bincount(_edge_rows(self).ravel(), minlength=n + 1)[:n].tolist()

    def incident_edge_ids(self):
        """For each vertex, the sorted list of ids of edges containing it."""
        return _incidence(self.num_vertices, self.edges)

    def uniformity(self):
        """The common edge size k, or None if edges have mixed sizes.

        An edgeless graph has no witnessed size and also returns None.
        """
        rows = _edge_rows(self)
        return len(rows) if self._uniform and self.num_edges else None

    def max_edge_size(self):
        return max((len(e) for e in self.edges), default=0)

    # -- modification operators -------------------------------------------

    def _index_map(self, vertices):
        """The checked vertex set to remove and the map sending each
        surviving old vertex index to its new dense index."""
        removed = frozenset(map(operator.index, vertices))  # TypeError on 1.5, which int truncates
        for v in removed:
            if not 0 <= v < self.num_vertices:
                raise ValueError(f"vertex {v} out of range")
        keep = [v for v in range(self.num_vertices) if v not in removed]
        return removed, {old: new for new, old in enumerate(keep)}

    def remove_vertices(self, vertices):
        """Delete a vertex set and every edge meeting it.

        Returns ``(graph, index_map)`` where ``index_map`` sends surviving
        old vertex indices to their new dense indices.
        """
        removed, imap = self._index_map(vertices)
        new_edges = [
            tuple(imap[u] for u in e)
            for e in self.edges
            if not removed.intersection(e)
        ]
        return Multihypergraph(len(imap), new_edges), imap

    def contract_vertices(self, vertices):
        """Remove a vertex set from the vertex set and from every edge.

        In Gibbs terms this conditions on the given vertices being occupied:
        each edge keeps only its surviving endpoints and may shrink to the
        empty edge.  Returns ``(graph, index_map)``.
        """
        removed, imap = self._index_map(vertices)
        new_edges = [tuple(imap[u] for u in e if u not in removed) for e in self.edges]
        return Multihypergraph(len(imap), new_edges), imap

    def remove_edges(self, edge_lists):
        """Delete a sub-multiset of edges (given as vertex lists).

        Raises ValueError if the argument is not a sub-multiset of the edge
        multiset, or if the constructor refuses one of its edges.  Vertices
        are unchanged.
        """
        drop = Multihypergraph(self.num_vertices, edge_lists).edge_multiplicities()
        have = self.edge_multiplicities()
        for e, m in drop.items():
            if have[e] < m:
                raise ValueError(f"edge {e} with multiplicity {m} is not present")
        return Multihypergraph(self.num_vertices, (have - drop).elements())


@dataclass(frozen=True)
class TreeLikeReport:
    """Degree/codegree statistics quantifying how tree-like a hypergraph is.

    ``ratios`` holds the diagnostic quotients whose asymptotic behaviour
    defines a tree-like sequence; finite instances only expose the raw
    numbers and leave thresholds to the caller.
    """

    delta: int
    delta_min: int
    delta_ell: dict
    gamma: int
    edge_vertex_ratio: float
    ratios: dict


def degree_stats(graph, k=None):
    """Exact maximum ell-degrees and maximum (k-1)-codegree of a k-uniform graph.

    ``delta_ell[ell]`` is the maximum, over vertex sets S of size ell, of the
    number of edges containing S (with multiplicity); only subsets occurring
    inside an edge can have positive count, so a per-edge subset scan is
    exact.  ``gamma`` is the maximum over vertex pairs v != v' of the number
    of distinct (k-1)-sets S with both S+{v} and S+{v'} present as edges.
    Memory is O(sum_e 2^k).
    """
    if k is None:
        k = graph.uniformity()
        if k is None:
            raise ValueError("graph is edgeless or has mixed edge sizes; pass k explicitly")
    k = _check_k(k, 2, ValueError)
    _edge_rows(graph, k)

    deg = graph.degrees()
    delta = max(deg, default=0)
    delta_min = min(deg, default=0)

    delta_ell = {}
    for ell in range(2, k):
        counts = Counter()
        for e in graph.edges:
            for s in itertools.combinations(e, ell):
                counts[s] += 1
        delta_ell[ell] = max(counts.values(), default=0)

    # For each (k-1)-set S, collect the distinct vertices completing it to an
    # edge; every unordered pair of completions contributes one to their
    # codegree.
    completions = {}
    for e in set(graph.edges):
        for v in e:
            s = tuple(u for u in e if u != v)
            completions.setdefault(s, set()).add(v)
    pair_codegree = Counter()
    for s, verts in completions.items():
        for v, w in itertools.combinations(sorted(verts), 2):
            pair_codegree[(v, w)] += 1
    gamma = max(pair_codegree.values(), default=0)

    n = graph.num_vertices
    m = graph.num_edges
    evr = m / n if n else 0.0
    if delta:
        ell_ratio = max(
            (delta_ell[ell] / delta ** ((k - ell) / (k - 1)) for ell in delta_ell),
            default=0.0,
        )
    else:
        ell_ratio = 0.0
    ratios = {
        "inv_max_degree": 1.0 / delta if delta else float("inf"),
        "ell_degree_ratio": ell_ratio,
        "codegree_ratio": gamma / delta if delta else 0.0,
        "density_ratio": evr / delta if delta else 0.0,
    }
    return TreeLikeReport(delta, delta_min, delta_ell, gamma, evr, ratios)


def is_linear_hypertree(graph):
    """True iff the graph is linear and every vertex pair has a unique SAW.

    Equivalently (for edges of size >= 2) the vertex/edge incidence graph is
    a tree spanning all vertices.  Edges of size one may repeat with
    multiplicity, and empty edges are ignored; parallel copies of a larger
    edge always fail linearity.  The incidence graph is checked to be
    connected with one edge fewer than nodes, in time linear in the graph:
    two edges sharing two vertices would close a cycle in it, so linearity
    needs no check of its own.
    """
    big = [e for e in graph.edges if len(e) >= 2]
    n = graph.num_vertices
    if n == 0:
        return True
    if sum(len(e) - 1 for e in big) != n - 1:
        return False
    # connectivity over size->=2 edges, each edge opened once
    incidence = _incidence(n, big)
    seen, opened = {0}, [False] * len(big)
    queue = deque([0])
    while queue:
        for i in incidence[queue.popleft()]:
            if opened[i]:
                continue
            opened[i] = True
            for w in big[i]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(seen) == n


def relabel_vertices(graph, perm):
    """Rename vertex v to perm[v]; perm must be a permutation of range(n)."""
    if sorted(perm) != list(range(graph.num_vertices)):
        raise ValueError("perm is not a permutation of the vertex range")
    return Multihypergraph(
        graph.num_vertices, [tuple(perm[u] for u in e) for e in graph.edges]
    )


def parse_hypergraph(text):
    """Parse the plain-text format: first line ``N M``, then M edge lines.

    Each edge line is a space-separated vertex list; a blank line is the
    empty edge.  ``#`` starts a comment; lines that are comments only are
    skipped entirely, as are blank lines before the header.  Lines after
    the M-th edge line are ignored.
    """
    split = (raw.partition("#") for raw in text.splitlines())
    lines = (body for body, hash_mark, _ in split if not hash_mark or body.strip())
    header = next((line for line in lines if line.strip()), None)
    if header is None:
        raise ValueError("empty hypergraph file")
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"expected header 'N M', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    edges = [tuple(map(int, line.split())) for line in itertools.islice(lines, max(m, 0))]
    if len(edges) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edges)}")
    return Multihypergraph(n, edges)


def write_hypergraph(graph):
    """Canonical text form; parse(write(G)) == G and write is idempotent."""
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    for e in graph.edges:
        lines.append(" ".join(str(u) for u in e))
    return "\n".join(lines) + "\n"
