import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import bplt.weitz
from bplt.errors import SizeGuardError
from bplt.generators import random_k_uniform, random_linear_hypertree, random_multihypergraph
from bplt.gibbs import ModelParams, summarize
from bplt.hypergraph import Multihypergraph, is_linear_hypertree
from bplt.weitz import (
    build_saw_tree,
    build_weitz_tree,
    tree_ratio,
    tree_root_marginal,
    weitz_equality_residual,
)

from conftest import depth_sorted_tree_ratio, enumerate_saws, naive_marginal, naive_weitz_tree


def _root_paths(tree):
    """Per node, the (labels, edge labels) of its path from the root."""
    paths = [((tree.node_labels[0],), ())]
    for w in range(1, tree.num_nodes):
        labels, edges = paths[tree.parents[w]]
        paths.append(
            (labels + (tree.node_labels[w],), edges + (tree.edge_labels[tree.parent_edges[w]],))
        )
    return paths


class TestSawTree:
    def test_edgeless(self):
        t = build_saw_tree(Multihypergraph(2, []), 0)
        assert t.num_nodes == 1 and t.num_edges == 0

    def test_single_triple_edge(self):
        t = build_saw_tree(Multihypergraph(3, [[0, 1, 2]]), 0)
        assert t.num_nodes == 3
        assert t.edge_nodes == ((0, 1, 2),)
        assert sorted(t.node_labels) == [0, 1, 2]

    def test_hypertree_isomorphic_to_source(self, rng):
        for _ in range(15):
            g = random_linear_hypertree(rng, int(rng.integers(2, 12)))
            v = int(rng.integers(g.num_vertices))
            t = build_saw_tree(g, v)
            assert t.num_nodes == g.num_vertices
            assert sorted(t.node_labels) == list(range(g.num_vertices))
            assert Counter(len(e) for e in t.edge_nodes) == Counter(
                len(e) for e in g.edges
            )
            assert Counter(t.edge_labels) == Counter(range(g.num_edges))

    def test_unit_source_edges_with_multiplicity(self):
        g = Multihypergraph(2, [[0, 1], [1], [1]])
        t = build_saw_tree(g, 0)
        unit = [e for e in t.edge_nodes if len(e) == 1]
        assert len(unit) == 2

    def test_node_cap(self, monkeypatch):
        g = Multihypergraph(6, [[i, j] for i in range(6) for j in range(i + 1, 6)])
        monkeypatch.setattr(bplt.weitz, "_NODE_CAP", 10)
        with pytest.raises(SizeGuardError):
            build_saw_tree(g, 0)

    def test_frontier_keeps_unit_edges(self):
        # a leaf of the tree keeps the unit edges at its label
        g = Multihypergraph(2, [[0, 1], [1], [1]])
        t = build_saw_tree(g, 0)
        assert t.edge_nodes == ((0, 1), (1,), (1,))

    def test_negative_depth_limit_rejected(self):
        # the builders take no depth limit, negative or not: every tree is
        # built to full depth
        g = Multihypergraph(2, [[0, 1], [0]])
        for build in (build_saw_tree, build_weitz_tree):
            for limit in (-1, 2):
                with pytest.raises(TypeError, match="depth_limit"):
                    build(g, 0, depth_limit=limit)

    def test_paths_are_the_self_avoiding_walks(self, rng):
        for _ in range(60):
            g = random_multihypergraph(
                rng, max_vertices=6, max_edges=6, allow_empty=True, multi_edge_prob=0.3
            )
            v = int(rng.integers(g.num_vertices))
            t = build_saw_tree(g, v)
            walks = enumerate_saws(g, v)
            assert Counter(_root_paths(t)) == Counter((w.vertices, w.edge_ids) for w in walks)
            assert t.depths == tuple(len(labels) - 1 for labels, _ in _root_paths(t))


class TestWeitzTree:
    def test_hypertree_unchanged_for_any_order(self, rng):
        for _ in range(10):
            g = random_linear_hypertree(rng, int(rng.integers(2, 10)))
            v = int(rng.integers(g.num_vertices))
            base = build_weitz_tree(g, v)
            vo = rng.permutation(g.num_vertices).tolist()
            eo = rng.permutation(g.num_edges).tolist()
            other = build_weitz_tree(g, v, vo, eo)
            assert base.num_nodes == g.num_vertices
            assert other.edge_nodes == base.edge_nodes

    def test_multigraph_two_cycle_pruning(self):
        # duplicate edge {0,1}: the duplicate constraint below the second
        # branch collapses to a unit edge and the first branch's duplicate
        # unit edge is deleted by the edge-order operation
        g = Multihypergraph(2, [[0, 1], [0, 1]])
        t = build_weitz_tree(g, 0)
        sizes = sorted(len(e) for e in t.edge_nodes)
        assert sizes == [1, 2, 2]
        lam, zeta = 1.3, 0.6
        want = lam * (1 + lam * (1 - zeta) ** 2) / (1 + lam)
        assert tree_ratio(t, ModelParams(lam, zeta)) == pytest.approx(want, rel=1e-14)

    def test_classical_triangle_pinning(self):
        # 2-uniform triangle from vertex 0: one branch keeps the closing
        # constraint as a unit edge (occupied pin), the other has it deleted
        # (unoccupied pin); the root odds collapse to lam/(1+2*lam) at zeta=1
        g = Multihypergraph(3, [[0, 1], [0, 2], [1, 2]])
        t = build_weitz_tree(g, 0)
        assert t.num_nodes == 5
        sizes = sorted(len(e) for e in t.edge_nodes)
        assert sizes == [1, 2, 2, 2, 2]
        for lam in (0.5, 1.0, 2.3):
            got = tree_ratio(t, ModelParams(lam, 1.0))
            assert got == pytest.approx(lam / (1 + 2 * lam), rel=1e-14)
            # exact hard-core marginal of the triangle is lam/(1+3*lam)
            marg = tree_root_marginal(t, ModelParams(lam, 1.0))
            assert marg == pytest.approx(lam / (1 + 3 * lam), rel=1e-14)

    def test_pruned_tree_ratio_matches_its_own_enumeration(self, rng):
        # close the loop: enumerate the pruned tree as a multihypergraph and
        # compare the recursion's root odds against the exact oracle
        count = 0
        while count < 25:
            g = random_multihypergraph(rng, max_vertices=6, max_edges=5)
            v = int(rng.integers(g.num_vertices))
            t = build_weitz_tree(g, v)
            if t.num_nodes > 14:
                continue
            params = ModelParams(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0, 1)))
            mh = t.as_multihypergraph()
            want = summarize(mh, params).occupation_ratios()[t.root]
            assert tree_ratio(t, params) == pytest.approx(float(want), rel=1e-12)
            count += 1

    def test_matches_naive_definition(self, rng):
        for _ in range(300):
            g = random_multihypergraph(
                rng, max_vertices=6, max_edges=6, max_edge_size=4,
                allow_empty=True, multi_edge_prob=0.3,
            )
            v = int(rng.integers(g.num_vertices))
            vo = rng.permutation(g.num_vertices).tolist()
            eo = rng.permutation(g.num_edges).tolist()
            assert build_weitz_tree(g, v, vo, eo) == naive_weitz_tree(g, v, vo, eo)

    def test_node_cap_bounds_the_pruned_tree(self, monkeypatch):
        # the walk tree of the complete 3-uniform graph on 5 vertices has
        # 1933 nodes; the cap applies to the 409 that pruning keeps
        g = Multihypergraph(5, itertools.combinations(range(5), 3))
        size = build_weitz_tree(g, 0).num_nodes
        monkeypatch.setattr(bplt.weitz, "_NODE_CAP", size)
        with pytest.raises(SizeGuardError):
            build_saw_tree(g, 0)
        assert build_weitz_tree(g, 0).num_nodes == size
        monkeypatch.setattr(bplt.weitz, "_NODE_CAP", size - 1)
        with pytest.raises(SizeGuardError):
            build_weitz_tree(g, 0)

    def test_output_is_linear_hypertree(self, rng):
        for _ in range(25):
            g = random_multihypergraph(rng, max_vertices=7, max_edges=6)
            v = int(rng.integers(g.num_vertices))
            t = build_weitz_tree(g, v)
            assert is_linear_hypertree(t.as_multihypergraph())

    def test_degree_and_size_bounds(self, rng):
        for _ in range(20):
            g = random_multihypergraph(rng, max_vertices=7, max_edges=6)
            v = int(rng.integers(g.num_vertices))
            t = build_weitz_tree(g, v)
            max_size = g.max_edge_size()
            assert all(len(e) <= max_size for e in t.edge_nodes)
            deg = Counter()
            for e in t.edge_nodes:
                for w in e:
                    deg[w] += 1
            if deg:
                assert max(deg.values()) <= max(g.degrees())

    def test_matches_naive_definition_past_a_machine_word(self, rng):
        # 70 disjoint padding pairs sort first, so the random graph's vertex
        # ids start at 140 and its edge ids at 70: every mask bit is high
        pad = [(2 * i, 2 * i + 1) for i in range(70)]
        for _ in range(100):
            small = random_multihypergraph(
                rng, max_vertices=6, max_edges=6, max_edge_size=4,
                allow_empty=True, multi_edge_prob=0.3,
            )
            shifted = [[u + 140 for u in e] for e in small.edges]
            g = Multihypergraph(small.num_vertices + 140, pad + shifted)
            at = g.incident_edge_ids()
            assert all(f >= 70 for u in range(140, g.num_vertices) for f in at[u])
            v = 140 + int(rng.integers(small.num_vertices))
            vo = rng.permutation(g.num_vertices).tolist()
            eo = rng.permutation(g.num_edges).tolist()
            assert build_weitz_tree(g, v, vo, eo) == naive_weitz_tree(g, v, vo, eo)

    def test_numpy_root_past_a_machine_word(self):
        g = Multihypergraph(80, [[i, (i + 1) % 80] for i in range(80)] + [[3, 70, 71]])
        for build in (build_saw_tree, build_weitz_tree):
            for v in (64, 70):
                t = build(g, np.int64(v))
                assert t == build(g, v)
                assert all(type(u) is int for u in t.node_labels)

    def test_depth_one_build_memory(self, monkeypatch):
        # a table of 1 << u over all 20000 vertices would trace about 30 MB;
        # the cap stops the build at its first node past depth one
        g = random_k_uniform(np.random.default_rng(0), 20000, 3, 20000)
        depth_one = 1 + sum(len(g.edges[f]) - 1 for f in g.incident_edge_ids()[0])
        monkeypatch.setattr(bplt.weitz, "_NODE_CAP", depth_one)
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError):
                build_saw_tree(g, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10**6

    @pytest.mark.parametrize("vertex", [-1, 4, 1.5])
    def test_vertex_out_of_range_rejected(self, vertex):
        g = Multihypergraph(4, [[0, 1], [1, 2], [2, 3]])
        for build in (build_saw_tree, build_weitz_tree):
            with pytest.raises(ValueError, match="vertex out of range"):
                build(g, vertex)

    def test_non_integer_order_rejected(self):
        g = Multihypergraph(4, [[0, 1], [1, 2], [2, 3]])
        with pytest.raises(ValueError, match="vertex order must be a permutation"):
            build_weitz_tree(g, 0, [0, 1, 2, 3.0])
        with pytest.raises(ValueError, match="edge order must be a permutation"):
            build_weitz_tree(g, 0, edge_order=[0, 1.0, 2])


class TestTreeRatio:
    def test_isolated_root(self):
        t = build_weitz_tree(Multihypergraph(1, []), 0)
        assert tree_ratio(t, ModelParams(0.8, 1.0)) == pytest.approx(0.8)

    def test_pendant_edge_hardcore(self):
        t = build_weitz_tree(Multihypergraph(2, [[0, 1]]), 0)
        lam = 1.7
        assert tree_ratio(t, ModelParams(lam, 1.0)) == pytest.approx(
            lam / (1 + lam), rel=1e-14
        )

    def test_matches_depth_sorted_loop(self, rng):
        # the reverse sweep over node ids is bit-identical to visiting the
        # nodes deepest first, on pruned trees and on plain walk trees
        for _ in range(150):
            g = random_multihypergraph(
                rng, max_vertices=7, max_edges=7, max_edge_size=4,
                allow_empty=True, multi_edge_prob=0.3,
            )
            v = int(rng.integers(g.num_vertices))
            params = ModelParams(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0, 1)))
            for t in (build_weitz_tree(g, v), build_saw_tree(g, v)):
                assert tree_ratio(t, params) == depth_sorted_tree_ratio(t, params)

    def test_matches_enumeration_on_hypertrees(self, rng):
        for _ in range(40):
            g = random_linear_hypertree(rng, int(rng.integers(2, 15)))
            v = int(rng.integers(g.num_vertices))
            lam = float(rng.uniform(0.05, 2.0))
            zeta = float(rng.uniform(0, 1))
            t = build_weitz_tree(g, v)
            got = tree_root_marginal(t, ModelParams(lam, zeta))
            want = naive_marginal(g, lam, zeta, v)
            assert got == pytest.approx(want, abs=1e-12)


class TestMarginalEquality:
    def test_loose_cycle(self):
        g = Multihypergraph(6, [[0, 1, 2], [2, 3, 4], [0, 4, 5]])
        assert weitz_equality_residual(g, 0, ModelParams(0.3, 1.0)) < 1e-10

    def test_four_cycle(self):
        g = Multihypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert weitz_equality_residual(g, 0, ModelParams(1.0, 1.0)) < 1e-12

    def test_random_instances(self, rng):
        for _ in range(60):
            g = random_multihypergraph(
                rng, max_vertices=8, max_edges=7, allow_empty=True
            )
            v = int(rng.integers(g.num_vertices))
            params = ModelParams(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0, 1)))
            vo = rng.permutation(g.num_vertices).tolist()
            eo = rng.permutation(g.num_edges).tolist()
            assert weitz_equality_residual(g, v, params, vo, eo) < 1e-10

    def test_invariant_under_orderings(self, rng):
        g = Multihypergraph(5, [[0, 1, 2], [1, 2, 3], [0, 3, 4], [2, 4]])
        params = ModelParams(0.8, 0.6)
        exact = summarize(g, params).marginals[0]
        values = []
        for _ in range(6):
            vo = rng.permutation(5).tolist()
            eo = rng.permutation(4).tolist()
            t = build_weitz_tree(g, 0, vo, eo)
            values.append(tree_root_marginal(t, params))
        assert np.ptp(values) < 1e-13
        assert abs(values[0] - exact) < 1e-13
