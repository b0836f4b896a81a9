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
component is ever built.  A depth limit keeps the edges that lie fully
within it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import SizeGuardError
from .gibbs import summarize
from .hypergraph import Multihypergraph, _incidence

__all__ = [
    "LabeledHypertree",
    "build_saw_tree",
    "build_weitz_tree",
    "tree_ratio",
    "tree_root_marginal",
    "weitz_equality_residual",
    "structure_report",
]

DEFAULT_NODE_CAP = 1_000_000


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

    def node_edge_ids(self):
        """Per node, all incident tree edges."""
        return _incidence(self.num_nodes, self.edge_nodes)

    def as_multihypergraph(self):
        return Multihypergraph(self.num_nodes, self.edge_nodes)


def _walk_tree(edges_src, incidence, start, vrank, erank, depth_limit, max_nodes):
    """The walk tree from ``start``, pruned as it grows unless ``vrank`` is None.

    Each queued node carries, next to the vertices and edge ids its walk has
    used, the labels that its ancestors' first operations occupy below it
    and the edge labels that their second operations delete at or below it.
    An occupied child is never created and a deleted edge never added, so
    only the root component is built, already in breadth-first order.  With
    ``depth_limit``, only edges lying fully within that depth are kept.
    """
    if depth_limit is not None and depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    labels, parents, parent_edges, depths = [start], [-1], [-1], [0]
    edge_nodes, edge_labels = [], []
    empty = frozenset()
    queue = deque([(0, frozenset((start,)), empty, empty, empty)])
    while queue:
        w, visited, used, occupied, deleted = queue.popleft()
        x, d = labels[w], depths[w]
        if vrank is not None and w:
            pe_label = edge_labels[parent_edges[w]]
            my_rank, pe_rank = vrank[x], erank[pe_label]
            occupied = occupied | {u for u in edges_src[pe_label] if vrank[u] < my_rank}
            deleted = deleted | {
                f for f in incidence[labels[parents[w]]] if erank[f] < pe_rank
            }
        frontier = depth_limit is not None and d >= depth_limit
        for eid in incidence[x]:
            if eid in used or eid in deleted:
                continue
            kids = [u for u in edges_src[eid] if u not in visited and u not in occupied]
            if kids and frontier:
                continue
            members = [w]
            for u in kids:
                c = len(labels)
                if c >= max_nodes:
                    raise SizeGuardError(f"walk tree exceeded the {max_nodes}-node cap")
                labels.append(u)
                parents.append(w)
                parent_edges.append(len(edge_nodes))
                depths.append(d + 1)
                members.append(c)
                queue.append((c, visited | {u}, used | {eid}, occupied, deleted))
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
    if not 0 <= vertex < graph.num_vertices:
        raise ValueError("vertex out of range")


def _check_ranks(order, count, what):
    if order is None:
        return list(range(count))
    order = list(order)
    if sorted(order) != list(range(count)):
        raise ValueError(f"{what} order must be a permutation of range({count})")
    rank = [0] * count
    for r, item in enumerate(order):
        rank[item] = r
    return rank


def build_saw_tree(graph, vertex, depth_limit=None, max_nodes=DEFAULT_NODE_CAP):
    """The tree of self-avoiding walks from ``vertex``.

    With ``depth_limit``, only edges lying fully within that depth are kept:
    the nodes are the walks of length at most the limit, and a node at the
    limit keeps only its unit edges.
    """
    _check_vertex(graph, vertex)
    incidence = graph.incident_edge_ids()
    return _walk_tree(graph.edges, incidence, vertex, None, None, depth_limit, max_nodes)


def build_weitz_tree(
    graph,
    vertex,
    vertex_order=None,
    edge_order=None,
    depth_limit=None,
    max_nodes=DEFAULT_NODE_CAP,
):
    """The pruned walk tree whose root marginal equals the marginal of
    ``vertex`` in ``graph`` for every activity and penalty.

    ``vertex_order`` / ``edge_order`` list vertices and edge ids from
    smallest to largest; the root marginal does not depend on the choice.
    With ``depth_limit`` the result is truncated to edges lying fully
    within that depth (exact as a sub-level of the full construction).
    """
    _check_vertex(graph, vertex)
    vrank = _check_ranks(vertex_order, graph.num_vertices, "vertex")
    erank = _check_ranks(edge_order, graph.num_edges, "edge")
    incidence = graph.incident_edge_ids()
    return _walk_tree(graph.edges, incidence, vertex, vrank, erank, depth_limit, max_nodes)


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


def weitz_equality_residual(
    graph,
    vertex,
    params,
    vertex_order=None,
    edge_order=None,
    max_nodes=DEFAULT_NODE_CAP,
    unsafe_size=False,
):
    """|exact marginal of vertex - pruned-tree root marginal|.

    The two sides come from independent computations: subset enumeration on
    the graph versus the tree recursion on the pruned walk tree.
    """
    _check_vertex(graph, vertex)
    exact = summarize(graph, params, unsafe_size=unsafe_size).marginals[vertex]
    tree = build_weitz_tree(
        graph, vertex, vertex_order, edge_order, max_nodes=max_nodes
    )
    return abs(float(exact) - tree_root_marginal(tree, params))


def structure_report(
    graph,
    vertex,
    contracted=(),
    depth=2,
    vertex_order=None,
    edge_order=None,
    max_nodes=DEFAULT_NODE_CAP,
):
    """Per-depth diagnostics of the pruned tree of ``graph`` with
    ``contracted`` set occupied.

    For each depth up to ``depth``: the discrepancy between tree edge labels
    at a node and the source edges at the node's label, the degree deficit,
    counts of short (size < k) edges, and neighbours lying in size-1 edges.
    The tree is built one level deeper than ``depth``, so these rows are exact.
    """
    _check_vertex(graph, vertex)
    u_set = frozenset(int(v) for v in contracted)
    if not all(0 <= u < graph.num_vertices for u in u_set):
        raise ValueError("contracted vertex out of range")
    if vertex in u_set:
        raise ValueError("the root vertex cannot be contracted")
    edges_src = [tuple(x for x in e if x not in u_set) for e in graph.edges]
    vrank = _check_ranks(vertex_order, graph.num_vertices, "vertex")
    erank = _check_ranks(edge_order, graph.num_edges, "edge")
    # edge ids stay positional; tree labels are never contracted, so their
    # incident ids here are those of the source graph
    incidence = _incidence(graph.num_vertices, edges_src)
    tree = _walk_tree(edges_src, incidence, vertex, vrank, erank, depth + 1, max_nodes)

    node_edges = tree.node_edge_ids()
    unit_nodes = {
        members[0] for members in tree.edge_nodes if len(members) == 1
    }
    k = graph.max_edge_size()
    rows = []
    for d in range(depth + 1):
        nodes = [w for w in range(tree.num_nodes) if tree.depths[w] == d]
        gaps, deficits, unit_neighbors = [], [], []
        short_counts = {ell: 0 for ell in range(2, max(k, 2))}
        unit_edges = 0
        for w in nodes:
            labels_here = {tree.edge_labels[te] for te in node_edges[w]}
            src = incidence[tree.node_labels[w]]
            gaps.append(len(labels_here.symmetric_difference(src)))
            deficits.append(len(src) - len(node_edges[w]))
            neigh = set()
            for te in node_edges[w]:
                size = len(tree.edge_nodes[te])
                if size == 1:
                    unit_edges += 1
                elif 2 <= size < k:
                    short_counts[size] += 1
                neigh.update(tree.edge_nodes[te])
            neigh.discard(w)
            unit_neighbors.append(len(neigh & unit_nodes))
        rows.append(
            {
                "depth": d,
                "nodes": len(nodes),
                "max_label_gap": max(gaps, default=0),
                "mean_label_gap": sum(gaps) / len(gaps) if gaps else 0.0,
                "max_degree_deficit": max(deficits, default=0),
                "short_edge_counts": short_counts,
                "unit_edge_count": unit_edges,
                "max_unit_neighbors": max(unit_neighbors, default=0),
            }
        )
    return rows

