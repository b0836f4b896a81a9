"""Self-avoiding-walk trees, the pruned computation tree, and tree ratios.

Nodes of the walk tree are the self-avoiding walks from a distinguished
vertex; each node is labeled by its final vertex.  For every source edge e
incident to a node's label that the walk has not used, the tree gets one
edge consisting of the node together with the extensions of the walk
through e; vertices of e already on the walk contribute no extension, so
the tree edge may be smaller than e (down to size 1) but always retains
the label e.  The pruned tree applies two label-driven operations at every
non-root node (in breadth-first order):

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
    stored as separate entries.  The root is node 0.
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
        inc = [[] for _ in range(self.num_nodes)]
        for i, members in enumerate(self.edge_nodes):
            for w in members:
                inc[w].append(i)
        return inc

    def as_multihypergraph(self):
        return Multihypergraph(self.num_nodes, [tuple(m) for m in self.edge_nodes])


class _TreeBuild:
    """Mutable arrays produced by the walk-tree BFS."""

    __slots__ = (
        "labels",
        "parents",
        "parent_edges",
        "depths",
        "edge_nodes",
        "edge_labels",
        "children",
    )

    def __init__(self, start):
        self.labels = [start]
        self.parents = [-1]
        self.parent_edges = [-1]
        self.depths = [0]
        self.edge_nodes = []
        self.edge_labels = []
        self.children = [[]]


def _build_tsaw(edges_src, incidence, start, depth_limit, max_nodes):
    tb = _TreeBuild(start)
    queue = deque([(0, frozenset((start,)), frozenset())])
    while queue:
        w, visited, used = queue.popleft()
        d = tb.depths[w]
        if depth_limit is not None and d >= depth_limit:
            continue
        x = tb.labels[w]
        for eid in incidence[x]:
            if eid in used:
                continue
            members = [w]
            for u in edges_src[eid]:
                if u in visited:
                    continue
                c = len(tb.labels)
                if c >= max_nodes:
                    raise SizeGuardError(
                        f"walk tree exceeded the {max_nodes}-node cap"
                    )
                tb.labels.append(u)
                tb.parents.append(w)
                tb.parent_edges.append(len(tb.edge_nodes))
                tb.depths.append(d + 1)
                tb.children.append([])
                tb.children[w].append(c)
                members.append(c)
                queue.append((c, visited | {u}, used | {eid}))
            tb.edge_nodes.append(tuple(members))
            tb.edge_labels.append(eid)
    return tb


def _subtree_nodes(tb, w):
    out = [w]
    stack = [w]
    while stack:
        x = stack.pop()
        for c in tb.children[x]:
            out.append(c)
            stack.append(c)
    return out


def _apply_ops(tb, edges_src, incidence, vrank, erank, op_depth_limit):
    n = len(tb.labels)
    occupied = [False] * n
    deleted = [False] * len(tb.edge_nodes)
    child_edges = [[] for _ in range(n)]
    for te, members in enumerate(tb.edge_nodes):
        child_edges[members[0]].append(te)
    for w in range(1, n):
        if occupied[w]:
            continue
        if op_depth_limit is not None and tb.depths[w] > op_depth_limit:
            continue
        pe_label = tb.edge_labels[tb.parent_edges[w]]
        my_rank = vrank[tb.labels[w]]
        targets = {u for u in edges_src[pe_label] if vrank[u] < my_rank}
        if targets:
            for x in _subtree_nodes(tb, w):
                if x != w and tb.labels[x] in targets:
                    occupied[x] = True
        parent_vertex = tb.labels[tb.parents[w]]
        pe_rank = erank[pe_label]
        doomed = {f for f in incidence[parent_vertex] if erank[f] < pe_rank}
        if doomed:
            for x in _subtree_nodes(tb, w):
                for te in child_edges[x]:
                    if tb.edge_labels[te] in doomed:
                        deleted[te] = True
    return occupied, deleted


def _assemble(tb, occupied, deleted, depth_limit=None):
    """Root component after removing occupied nodes and deleted edges.

    Occupied nodes leave every edge they were in; a node survives iff its
    whole ancestor chain survives and no connecting edge was deleted.  With
    ``depth_limit``, only edges fully within the limit are kept.
    """
    n = len(tb.labels)
    keep = [False] * n
    keep[0] = True
    for w in range(1, n):
        if occupied[w]:
            continue
        if depth_limit is not None and tb.depths[w] > depth_limit:
            continue
        keep[w] = keep[tb.parents[w]] and not deleted[tb.parent_edges[w]]
    new_id = {}
    for w in range(n):
        if keep[w]:
            new_id[w] = len(new_id)
    labels, parents, parent_edges, depths = [], [], [], []
    for w, i in new_id.items():
        labels.append(tb.labels[w])
        depths.append(tb.depths[w])
        p = tb.parents[w]
        parents.append(new_id[p] if p >= 0 else -1)
        parent_edges.append(-2 if p >= 0 else -1)  # filled below
    edge_nodes, edge_labels = [], []
    for te, members in enumerate(tb.edge_nodes):
        if deleted[te] or not keep[members[0]]:
            continue
        if any(not keep[w] and not occupied[w] for w in members):
            continue  # crosses the depth frontier; drop rather than leave a stub
        kept_members = [new_id[w] for w in members if keep[w]]
        eid = len(edge_nodes)
        edge_nodes.append(tuple(kept_members))
        edge_labels.append(tb.edge_labels[te])
        for c in kept_members[1:]:
            parent_edges[c] = eid
    return LabeledHypertree(
        tuple(labels),
        tuple(parents),
        tuple(parent_edges),
        tuple(depths),
        tuple(edge_nodes),
        tuple(edge_labels),
    )


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

    With ``depth_limit``, walks longer than the limit are not expanded and
    frontier nodes carry no non-parent edges.
    """
    if not 0 <= vertex < graph.num_vertices:
        raise ValueError("vertex out of range")
    tb = _build_tsaw(
        graph.edges, graph.incident_edge_ids(), vertex, depth_limit, max_nodes
    )
    return _assemble(tb, [False] * len(tb.labels), [False] * len(tb.edge_nodes))


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
    if not 0 <= vertex < graph.num_vertices:
        raise ValueError("vertex out of range")
    vrank = _check_ranks(vertex_order, graph.num_vertices, "vertex")
    erank = _check_ranks(edge_order, graph.num_edges, "edge")
    build_depth = None if depth_limit is None else depth_limit + 2
    op_depth = None if depth_limit is None else depth_limit + 1
    incidence = graph.incident_edge_ids()
    tb = _build_tsaw(graph.edges, incidence, vertex, build_depth, max_nodes)
    occupied, deleted = _apply_ops(tb, graph.edges, incidence, vrank, erank, op_depth)
    return _assemble(tb, occupied, deleted, depth_limit)


def tree_ratio(tree, params):
    """Root occupation odds by the bottom-up recursion.

    Each child edge contributes a factor 1 - zeta * prod of child odds
    ratios; a size-1 edge contributes the bare penalty 1 - zeta.
    """
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
    The tree is built just deep enough that these rows are exact.
    """
    u_set = frozenset(int(v) for v in contracted)
    if vertex in u_set:
        raise ValueError("the root vertex cannot be contracted")
    edges_src = [tuple(x for x in e if x not in u_set) for e in graph.edges]
    vrank = _check_ranks(vertex_order, graph.num_vertices, "vertex")
    erank = _check_ranks(edge_order, graph.num_edges, "edge")
    # edge ids stay positional; tree labels are never contracted, so their
    # incident ids here are those of the source graph
    incidence = _incidence(graph.num_vertices, edges_src)
    tb = _build_tsaw(edges_src, incidence, vertex, depth + 2, max_nodes)
    occupied, deleted = _apply_ops(tb, edges_src, incidence, vrank, erank, depth + 1)
    tree = _assemble(tb, occupied, deleted)

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

