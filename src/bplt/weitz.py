"""Self-avoiding-walk trees, the pruned computation tree, and tree ratios.

Nodes of the walk tree are the self-avoiding walks from a distinguished
vertex; each node is labeled by its final vertex.  For every source edge e
incident to a node's label that the walk has not used, the tree gets one
edge consisting of the node together with the extensions of the walk
through e; vertices of e already on the walk contribute no extension, so
the tree edge may be smaller than e (down to size 1) but always retains
the label e.  The pruned tree applies two label-driven operations at every
non-root node:

1. descendants labeled by a parent-edge vertex that precedes the node's
   own label in the vertex order are set occupied (removed from the tree
   and from every edge containing them, labels retained);
2. edges in the node's subtree labeled by a source edge at the parent's
   label that precedes the parent edge's label in the edge order are
   deleted.

Keeping the root component afterwards yields a linear hypertree whose root
occupation probability under the edge-penalty model equals the marginal of
the distinguished vertex in the source graph, for every activity and
penalty.

Both operations act only below the node that applies them, so they are
applied as the tree grows: each node hands its children the labels that it
and its ancestors occupy and the edge labels that they delete.  An occupied
child is never created and a deleted edge never added, so only the root
component is ever built.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from .errors import SizeGuardError
from .gibbs import summarize
from .hypergraph import Multihypergraph

__all__ = [
    "LabeledHypertree",
    "build_saw_tree",
    "build_weitz_tree",
    "tree_ratio",
    "tree_root_marginal",
    "weitz_equality_residual",
]

_NODE_CAP = 1_000_000  # nodes a walk tree may have


@dataclass(frozen=True)
class LabeledHypertree:
    """A rooted linear hypertree labeled into a source multihypergraph.

    ``edge_nodes[i]`` lists the members of tree edge i with the top node
    (the one closest to the root) first.  ``node_labels`` are source
    vertices, ``edge_labels`` source edge ids; parallel size-1 edges are
    stored as separate entries.  The root is node 0, and nodes are numbered
    breadth-first, so every child's id exceeds its parent's.
    """

    node_labels: tuple
    parents: tuple
    parent_edges: tuple
    depths: tuple
    edge_nodes: tuple
    edge_labels: tuple

    root = 0

    @property
    def num_nodes(self):
        return len(self.node_labels)

    @property
    def num_edges(self):
        return len(self.edge_nodes)

    def child_edge_ids(self):
        """Per node, the tree edges having that node as their top."""
        tops = [[] for _ in range(self.num_nodes)]
        for i, members in enumerate(self.edge_nodes):
            tops[members[0]].append(i)
        return tops

    def as_multihypergraph(self):
        return Multihypergraph(self.num_nodes, self.edge_nodes)


def _walk_tree(graph, start, vrank, erank):
    """The walk tree of ``graph`` from ``start``, pruned as it grows unless
    ``vrank`` is None.

    Each queued node carries two bitmasks, Python ints whose bit u marks
    vertex u and whose bit f marks edge id f: the vertices that may not join
    it as children, which are those on its walk and the labels its
    ancestors' first operations occupy below it, and the edge ids that may
    not be added at it, which are those on its walk and the labels their
    second operations delete at or below it.  Siblings are queued with
    their parent's two masks, shared unchanged; a node taken off the queue
    ORs in its own label, its parent edge and, when pruning, the labels of
    its two operations.  A mask is as wide as the largest id it holds, so
    past about 2 * 10**4 ids a build that runs into the cap holds more
    memory than a set per node would before it raises.

    An occupied child is never created and a deleted edge never added, so
    only the root component is built, already in breadth-first order.  A
    tree that would pass ``_NODE_CAP`` nodes raises ``SizeGuardError``.
    """
    edges, incidence = graph.edges, graph.incident_edge_ids()
    labels, parents, parent_edges, depths = [start], [-1], [-1], [0]
    edge_nodes, edge_labels = [], []
    queue = deque([(0, 0, 0)])
    while queue:
        w, blocked_v, blocked_e = queue.popleft()
        x, d = labels[w], depths[w]
        blocked_v |= 1 << x
        if w:
            pe_label = edge_labels[parent_edges[w]]
            blocked_e |= 1 << pe_label
            if vrank is not None:
                my_rank, pe_rank = vrank[x], erank[pe_label]
                for u in edges[pe_label]:
                    if vrank[u] < my_rank:
                        blocked_v |= 1 << u
                for f in incidence[labels[parents[w]]]:
                    if erank[f] < pe_rank:
                        blocked_e |= 1 << f
        for eid in incidence[x]:
            if blocked_e >> eid & 1:
                continue
            members = [w]
            for u in edges[eid]:
                if blocked_v >> u & 1:
                    continue
                c = len(labels)
                if c >= _NODE_CAP:
                    raise SizeGuardError(f"walk tree exceeded the {_NODE_CAP}-node cap")
                labels.append(u)
                parents.append(w)
                parent_edges.append(len(edge_nodes))
                depths.append(d + 1)
                members.append(c)
                queue.append((c, blocked_v, blocked_e))
            edge_nodes.append(tuple(members))
            edge_labels.append(eid)
    return LabeledHypertree(
        tuple(labels),
        tuple(parents),
        tuple(parent_edges),
        tuple(depths),
        tuple(edge_nodes),
        tuple(edge_labels),
    )


def _check_vertex(graph, vertex):
    """``vertex`` as a Python int, or ValueError unless it is an integer
    vertex of ``graph``."""
    try:
        vertex = operator.index(vertex)
    except TypeError:
        raise ValueError("vertex out of range: not an integer") from None
    if not 0 <= vertex < graph.num_vertices:
        raise ValueError("vertex out of range")
    return vertex


def _check_ranks(order, count, what):
    if order is None:
        return list(range(count))
    message = f"{what} order must be a permutation of range({count})"
    try:
        order = [operator.index(item) for item in order]
    except TypeError:
        raise ValueError(message) from None
    if sorted(order) != list(range(count)):
        raise ValueError(message)
    rank = [0] * count
    for r, item in enumerate(order):
        rank[item] = r
    return rank


def build_saw_tree(graph, vertex):
    """The tree of self-avoiding walks from ``vertex``."""
    vertex = _check_vertex(graph, vertex)
    return _walk_tree(graph, vertex, None, None)


def build_weitz_tree(graph, vertex, vertex_order=None, edge_order=None):
    """The pruned walk tree whose root marginal equals the marginal of
    ``vertex`` in ``graph`` for every activity and penalty.

    ``vertex_order`` / ``edge_order`` list vertices and edge ids from
    smallest to largest; the root marginal does not depend on the choice.
    """
    vertex = _check_vertex(graph, vertex)
    vrank = _check_ranks(vertex_order, graph.num_vertices, "vertex")
    erank = _check_ranks(edge_order, graph.num_edges, "edge")
    return _walk_tree(graph, vertex, vrank, erank)


def tree_ratio(tree, params):
    """Root occupation odds by the bottom-up recursion.

    Each child edge contributes a factor 1 - zeta * prod of child odds
    ratios; a size-1 edge contributes the bare penalty 1 - zeta.  Children
    have larger ids than their parents, so a reverse sweep meets every child
    before its parent.
    """
    lam, zeta = params.lam, params.zeta
    n = tree.num_nodes
    ratios = [0.0] * n
    tops = tree.child_edge_ids()
    for w in reversed(range(n)):
        r = lam
        for te in tops[w]:
            q = 1.0
            for u in tree.edge_nodes[te][1:]:
                q *= ratios[u] / (1.0 + ratios[u])
            r *= 1.0 - zeta * q
        ratios[w] = r
    return ratios[tree.root]


def tree_root_marginal(tree, params):
    r = tree_ratio(tree, params)
    return r / (1.0 + r)


def weitz_equality_residual(graph, vertex, params, vertex_order=None, edge_order=None):
    """|exact marginal of vertex - pruned-tree root marginal|.

    The two sides come from independent computations: subset enumeration on
    the graph versus the tree recursion on the pruned walk tree.
    """
    vertex = _check_vertex(graph, vertex)
    exact = summarize(graph, params).marginals[vertex]
    tree = build_weitz_tree(graph, vertex, vertex_order, edge_order)
    return abs(float(exact) - tree_root_marginal(tree, params))
