"""Random instance generators used by the test suite and diagnostics scripts."""

from __future__ import annotations

from .hypergraph import Multihypergraph, relabel_vertices

__all__ = [
    "random_multihypergraph",
    "random_k_uniform",
    "random_linear_hypertree",
]


def random_multihypergraph(
    rng,
    max_vertices=9,
    max_edges=8,
    max_edge_size=3,
    allow_empty=False,
    multi_edge_prob=0.2,
):
    """A small random multihypergraph with mixed edge sizes.

    With probability ``multi_edge_prob`` a new edge duplicates an existing
    one, so multiplicities occur.  Empty edges are only generated when
    ``allow_empty`` is set.
    """
    n = int(rng.integers(1, max_vertices + 1))
    m = int(rng.integers(0, max_edges + 1))
    edges = []
    min_size = 0 if allow_empty else 1
    for _ in range(m):
        if edges and rng.random() < multi_edge_prob:
            edges.append(edges[int(rng.integers(len(edges)))])
            continue
        size = int(rng.integers(min_size, min(max_edge_size, n) + 1))
        edges.append(tuple(rng.choice(n, size=size, replace=False).tolist()))
    return Multihypergraph(n, edges)


def random_k_uniform(rng, num_vertices, k, num_edges, allow_multi=False):
    """A random k-uniform hypergraph with the requested number of edges."""
    if k > num_vertices:
        raise ValueError("k cannot exceed the vertex count")
    edges = []
    seen = set()
    attempts = 0
    while len(edges) < num_edges:
        e = tuple(sorted(rng.choice(num_vertices, size=k, replace=False).tolist()))
        attempts += 1
        if not allow_multi:
            if e in seen:
                if attempts > 50 * (num_edges + 1):
                    break  # graph too dense to host that many distinct edges
                continue
            seen.add(e)
        edges.append(e)
    return Multihypergraph(num_vertices, edges)


def random_linear_hypertree(rng, num_vertices, max_edge_size=3):
    """Grow a random linear hypertree on the requested vertex count.

    Each new edge attaches at a single existing vertex and otherwise uses
    fresh vertices, which keeps the construction linear and acyclic.  Unit
    edges are sprinkled in afterwards (one more at a vertex with probability
    0.15), and the vertices are relabelled by a random permutation.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    n = 1
    edges = []
    while n < num_vertices:
        size = int(rng.integers(2, max_edge_size + 1))
        size = min(size, num_vertices - n + 1)
        anchor = int(rng.integers(n))
        edges.append(tuple([anchor] + list(range(n, n + size - 1))))
        n += size - 1
    for v in range(n):
        while rng.random() < 0.15:
            edges.append((v,))
    return relabel_vertices(Multihypergraph(n, edges), rng.permutation(n).tolist())
