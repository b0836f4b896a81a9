import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplt.generators import random_linear_hypertree, random_multihypergraph
import numpy as np

from bplt.hypergraph import (
    Multihypergraph,
    _edge_rows,
    degree_stats,
    is_linear_hypertree,
    parse_hypergraph,
    relabel_vertices,
    write_hypergraph,
)

from conftest import (
    all_pairs_is_linear_hypertree,
    enumerate_saws,
    loop_degrees,
    loop_remove_edges,
    set_uniformity,
)


@st.composite
def multihypergraphs(draw, max_vertices=8, max_edges=6, max_size=3, allow_empty=True):
    n = draw(st.integers(1, max_vertices))
    num_edges = draw(st.integers(0, max_edges))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(0 if allow_empty else 1, min(max_size, n)))
        edges.append(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size)))))
    return Multihypergraph(n, edges)


class TestConstruction:
    def test_basic(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        assert g.num_vertices == 3
        assert g.edges == ((0, 1, 2),)

    def test_empty_edge_multiplicity(self):
        g = Multihypergraph(1, [[], []])
        assert g.edges == ((), ())
        assert g.edge_multiplicities()[()] == 2

    def test_multiset_semantics(self):
        g = Multihypergraph(4, [[0, 1], [0, 1]])
        assert g.edge_multiplicities()[(0, 1)] == 2

    def test_out_of_range(self):
        # the BP kernel's gather relies on this check: it clips, not checks;
        # an unsorted edge is named by its offending vertex at either end
        for edge, vertex in (([0, 2], 2), ([-1, 1], -1), ([5, 0], 5), ([1, -3], -3)):
            with pytest.raises(ValueError, match=rf"^vertex {vertex} out of range \[0, 2\)$"):
                Multihypergraph(2, [edge])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError):
            Multihypergraph(3, [[1, 1]])

    @pytest.mark.parametrize(
        "num_vertices,edges",
        [(3, [[0, 1.7]]), (3, [[np.float64(1.0), 2]]), (2.9, [[0, 1]]), ("3", [[0, 1]])],
    )
    def test_non_integral_input_refused(self, num_vertices, edges):
        # read through operator.index: 1.7 is refused, not truncated to 1
        with pytest.raises(ValueError, match="^vertex count and vertex ids must be integers: "):
            Multihypergraph(num_vertices, edges)

    def test_integer_types_accepted(self):
        g = Multihypergraph(np.int64(3), [np.array([2, 0]), (True, np.uint8(2))])
        assert g.num_vertices == 3 and g.edges == ((0, 2), (1, 2))
        assert all(type(u) is int for e in g.edges for u in e)

    @pytest.mark.parametrize("operator", ["remove_vertices", "contract_vertices"])
    def test_non_integral_vertex_set_refused(self, operator):
        g = Multihypergraph(3, [[0, 1, 2]])
        with pytest.raises(TypeError):
            getattr(g, operator)([1.5])

    def test_canonical_equality(self):
        assert Multihypergraph(3, [[2, 0], [1]]) == Multihypergraph(3, [[1], [0, 2]])

    def test_immutable(self):
        g = Multihypergraph(2, [[0, 1]])
        with pytest.raises(AttributeError):
            g.num_vertices = 5


class TestEdgeRows:
    def test_layout(self):
        g = Multihypergraph(6, [[3, 4, 5], [0, 1, 2], [0, 1, 2], [1, 3, 5]])
        rows = _edge_rows(g, 3)
        assert rows.dtype == np.int64 and rows.flags.c_contiguous
        # the BP kernels need it writeable: numpy copies a read-only index
        # array on every gather and bincount
        assert rows.flags.writeable
        assert rows.tolist() == [list(slot) for slot in zip(*g.edges)]

    def test_built_once(self):
        g = Multihypergraph(4, [[0, 1, 2], [1, 2, 3]])
        assert _edge_rows(g, 3) is _edge_rows(g, 3)

    def test_identity_unchanged_once_filled(self):
        g, h = (Multihypergraph(4, [[0, 1, 2], [1, 2, 3]]) for _ in range(2))
        before = (hash(g), repr(g))
        _edge_rows(g, 3)
        assert g == h and h == g
        assert (hash(g), repr(g)) == before == (hash(h), repr(h))
        for name in ("num_vertices", "edges", "_rows", "_uniform"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_not_uniform_refused(self, k):
        # mixed sizes, and edges that are all empty (a table of no rows)
        for bad in (Multihypergraph(5, [[0, 1, 2], [3, 4]]), Multihypergraph(3, [[], []])):
            with pytest.raises(ValueError, match=f"^graph is not {k}-uniform$"):
                _edge_rows(bad, k)
        g = Multihypergraph(5, [[0, 1, 2], [2, 3, 4]])
        _edge_rows(g, 3)
        if k != 3:  # the cached array is no answer for another k
            with pytest.raises(ValueError, match=f"^graph is not {k}-uniform$"):
                _edge_rows(g, k)

    def test_uniformity_matches_set_of_sizes(self):
        # empty and repeated edges included; all-empty edges give 0, an
        # edgeless or mixed graph None, and _edge_rows(g, k) takes exactly
        # the graph's own size, or any k when there is no edge
        rng = np.random.default_rng(11)
        seen = set()
        for i in range(400):
            g = random_multihypergraph(
                rng, max_vertices=6, max_edges=5, max_edge_size=i % 4,
                allow_empty=i % 4 == 0 or i % 3 == 0, multi_edge_prob=0.4,
            )
            want = set_uniformity(g)
            seen.add(want)
            fresh = Multihypergraph(g.num_vertices, g.edges)
            _edge_rows(g)
            assert g.uniformity() == fresh.uniformity() == want  # table built first, or not
            for k in (1, 2, 3, 4):
                if want == k or not g.num_edges:
                    assert _edge_rows(g, k).shape == (k, g.num_edges)
                else:
                    with pytest.raises(ValueError, match=f"^graph is not {k}-uniform$"):
                        _edge_rows(g, k)
        assert {None, 0, 1, 2, 3} <= seen

    def test_edgeless_every_k(self):
        g = Multihypergraph(3)
        for k in (2, 5, 3, 2):
            assert _edge_rows(g, k).shape == (k, 0)
        assert _edge_rows(g).shape == (0, 0)

    def test_short_edges_end_in_the_sentinel(self):
        g = Multihypergraph(5, [[3, 4], [0, 1, 2], [], [2], [3, 4]])
        rows = _edge_rows(g)
        assert rows is _edge_rows(g) and rows.dtype == np.int64 and rows.flags.c_contiguous
        assert rows.T.tolist() == [[5, 5, 5], [0, 1, 2], [2, 5, 5], [3, 4, 5], [3, 4, 5]]
        assert _edge_rows(Multihypergraph(3, [[], []])).shape == (0, 2)
        # the table has 3 rows, but its short edges make the graph not 3-uniform
        with pytest.raises(ValueError, match="^graph is not 3-uniform$"):
            _edge_rows(g, 3)


class TestOperators:
    def test_remove_vertices_kills_incident_edges(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        h, imap = g.remove_vertices({2})
        assert h.num_vertices == 2 and h.num_edges == 0
        assert imap == {0: 0, 1: 1}

    def test_remove_vertices_keeps_disjoint_edges(self):
        g = Multihypergraph(3, [[0, 1]])
        h, _ = g.remove_vertices({2})
        assert h.edges == ((0, 1),)

    def test_remove_vertices_empty_set(self):
        g = Multihypergraph(3, [[0, 1]])
        h, imap = g.remove_vertices(set())
        assert h == g and imap == {0: 0, 1: 1, 2: 2}

    def test_contract_shrinks_edges(self):
        g = Multihypergraph(3, [[0, 1, 2]])
        h, _ = g.contract_vertices({2})
        assert h.edges == ((0, 1),)

    def test_contract_to_empty_edge(self):
        g = Multihypergraph(1, [[0]])
        h, _ = g.contract_vertices({0})
        assert h.num_vertices == 0 and h.edges == ((),)

    def test_contract_two_edges(self):
        g = Multihypergraph(3, [[0, 1], [1, 2]])
        h, _ = g.contract_vertices({1})
        assert h.edges == ((0,), (1,))

    def test_remove_edges_all(self):
        g = Multihypergraph(3, [[0, 1], [1, 2]])
        assert g.remove_edges([[0, 1], [1, 2]]).num_edges == 0

    def test_remove_edges_one_copy(self):
        g = Multihypergraph(2, [[0, 1], [0, 1]])
        h = g.remove_edges([[0, 1]])
        assert h.edge_multiplicities()[(0, 1)] == 1

    def test_remove_edges_identity(self):
        g = Multihypergraph(2, [[0, 1]])
        assert g.remove_edges([]) == g

    def test_remove_edges_out_of_range(self):
        # an edge that cannot be in the graph is refused by the constructor
        g = Multihypergraph(2, [[0, 1]])
        with pytest.raises(ValueError, match=r"vertex 2 out of range \[0, 2\)"):
            g.remove_edges([[2, 0]])

    def test_remove_edges_not_submultiset(self):
        g = Multihypergraph(2, [[0, 1]])
        with pytest.raises(ValueError):
            g.remove_edges([[0, 1], [0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(multihypergraphs(), st.data())
    def test_remove_vertices_matches_naive_filter(self, g, data):
        u = data.draw(st.sets(st.integers(0, g.num_vertices - 1)))
        h, imap = g.remove_vertices(u)
        survivors = [v for v in range(g.num_vertices) if v not in u]
        naive = sorted(
            tuple(survivors.index(x) for x in e)
            for e in g.edges
            if not set(e) & u
        )
        assert sorted(h.edges) == naive
        assert imap == {v: survivors.index(v) for v in survivors}

    @settings(max_examples=60, deadline=None)
    @given(multihypergraphs(), st.data())
    def test_remove_edges_matches_loop(self, g, data):
        # a sub-multiset of the edges, in any order and with any vertex order
        taken = data.draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
        drop = [data.draw(st.permutations(e)) for e, t in zip(g.edges, taken) if t]
        drop = data.draw(st.permutations(drop))
        h = g.remove_edges(drop)
        assert h.num_vertices == g.num_vertices
        assert h.edges == loop_remove_edges(g, drop)

    @settings(max_examples=60, deadline=None)
    @given(multihypergraphs(), st.data())
    def test_contract_composes_over_disjoint_sets(self, g, data):
        u1 = data.draw(st.sets(st.integers(0, g.num_vertices - 1)))
        rest = sorted(set(range(g.num_vertices)) - u1)
        u2 = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
        once, _ = g.contract_vertices(u1 | u2)
        step1, imap1 = g.contract_vertices(u1)
        step2, _ = step1.contract_vertices({imap1[v] for v in u2})
        assert step2 == once

    @settings(max_examples=60, deadline=None)
    @given(multihypergraphs(allow_empty=False))
    def test_degree_sum(self, g):
        assert sum(g.degrees()) == sum(len(e) for e in g.edges)

    @settings(max_examples=100, deadline=None)
    @given(multihypergraphs(max_vertices=10, max_edges=12, max_size=4))
    def test_degrees_match_loop(self, g):
        # empty and unit edges included; the same list of Python ints
        deg = g.degrees()
        assert deg == loop_degrees(g)
        assert all(type(d) is int for d in deg)

    def test_degrees_of_edgeless_graphs(self):
        assert Multihypergraph(0, []).degrees() == []
        assert Multihypergraph(0, [[], []]).degrees() == []
        assert Multihypergraph(3, [[]]).degrees() == [0, 0, 0]


class TestDegreeStats:
    def test_single_edge(self):
        r = degree_stats(Multihypergraph(3, [[0, 1, 2]]), 3)
        assert r.delta == 1 and r.delta_ell == {2: 1} and r.gamma == 0

    def test_two_edges_sharing_pair(self):
        r = degree_stats(Multihypergraph(4, [[0, 1, 2], [0, 1, 3]]), 3)
        assert r.delta_ell[2] == 2
        assert r.gamma == 1  # the pair {2,3} shares the completing set {0,1}

    def test_edgeless(self):
        r = degree_stats(Multihypergraph(4, []), 3)
        assert r.delta == 0 and r.gamma == 0 and r.delta_min == 0

    @pytest.mark.parametrize("edges", [[], [[0, 1], [0, 1, 2]]], ids=["edgeless", "mixed"])
    def test_k_needed_without_one_edge_size(self, edges):
        # the refusal names both cases that leave no size to read
        with pytest.raises(ValueError, match="^graph is edgeless or has mixed edge sizes"):
            degree_stats(Multihypergraph(4, edges))

    def test_uniformity_enforced(self):
        # the refusal names k, as _edge_rows words it
        with pytest.raises(ValueError, match="^graph is not 3-uniform$"):
            degree_stats(Multihypergraph(3, [[0, 1], [0, 1, 2]]), 3)

    def test_against_direct_count(self, rng):
        # independent recount of delta_ell and gamma on random 3-uniform graphs
        from bplt.generators import random_k_uniform

        for _ in range(20):
            g = random_k_uniform(rng, 7, 3, int(rng.integers(1, 9)))
            r = degree_stats(g, 3)
            n = g.num_vertices
            d2 = max(
                sum(1 for e in g.edges if set(pair) <= set(e))
                for pair in itertools.combinations(range(n), 2)
            )
            assert r.delta_ell[2] == d2
            gam = 0
            for v, w in itertools.combinations(range(n), 2):
                cnt = 0
                for s in itertools.combinations(range(n), 2):
                    if v in s or w in s:
                        continue
                    es = set(g.edges)
                    if tuple(sorted(s + (v,))) in es and tuple(sorted(s + (w,))) in es:
                        cnt += 1
                gam = max(gam, cnt)
            assert r.gamma == gam


class TestSAWs:
    def test_edgeless(self):
        walks = enumerate_saws(Multihypergraph(3, []), 1)
        assert len(walks) == 1 and walks[0].vertices == (1,)

    def test_single_triple_edge(self):
        walks = enumerate_saws(Multihypergraph(3, [[0, 1, 2]]), 0, max_len=1)
        ends = sorted(w.vertices for w in walks)
        assert ends == [(0,), (0, 1), (0, 2)]

    def test_path_of_two_edges(self):
        g = Multihypergraph(3, [[0, 1], [1, 2]])
        walks = enumerate_saws(g, 0, max_len=2)
        nontrivial = [w for w in walks if w.length > 0]
        assert len(nontrivial) == 2  # (0,1) and (0,1,2)
        walks_from_mid = enumerate_saws(g, 1, max_len=2)
        assert len([w for w in walks_from_mid if w.length > 0]) == 2

    def test_multi_edge_copies_distinct(self):
        g = Multihypergraph(2, [[0, 1], [0, 1]])
        walks = enumerate_saws(g, 0)
        assert len([w for w in walks if w.length == 1]) == 2

    def test_count_on_hypertree_is_vertex_count(self, rng):
        for _ in range(25):
            t = random_linear_hypertree(rng, int(rng.integers(2, 12)))
            v = int(rng.integers(t.num_vertices))
            assert len(enumerate_saws(t, v)) == t.num_vertices


class TestLinearHypertree:
    def test_three_branch_tree(self):
        # three size-3 edges at the root, two more at each of their six outer vertices
        mids = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
        outer = [(v, 2 * i + 7, 2 * i + 8) for i, v in enumerate(mids)]
        assert is_linear_hypertree(Multihypergraph(31, [(0, 1, 2), (0, 3, 4), (0, 5, 6)] + outer))

    def test_shared_pair_is_not_linear(self):
        assert not is_linear_hypertree(Multihypergraph(4, [[0, 1, 2], [0, 1, 3]]))

    def test_single_vertex(self):
        assert is_linear_hypertree(Multihypergraph(1, []))

    def test_cycle_rejected(self):
        assert not is_linear_hypertree(Multihypergraph(3, [[0, 1], [1, 2], [0, 2]]))

    def test_disconnected_rejected(self):
        assert not is_linear_hypertree(Multihypergraph(4, [[0, 1]]))

    def test_unit_edges_allowed(self):
        assert is_linear_hypertree(Multihypergraph(2, [[0, 1], [0], [0]]))

    def test_parallel_two_edges_rejected(self):
        assert not is_linear_hypertree(Multihypergraph(2, [[0, 1], [0, 1]]))

    def test_generator_produces_hypertrees(self, rng):
        for _ in range(30):
            t = random_linear_hypertree(rng, int(rng.integers(1, 15)))
            assert is_linear_hypertree(t)

    def test_matches_all_pairs_check(self, rng):
        # hypertrees, then copies with one edge moved, grown, shrunk or doubled
        for _ in range(60):
            t = random_linear_hypertree(rng, int(rng.integers(1, 30)), max_edge_size=4)
            graphs = [t]
            for i, e in enumerate(t.edges):
                others = list(t.edges[:i] + t.edges[i + 1 :])
                outside = [u for u in range(t.num_vertices) if u not in e]
                if outside:
                    w = int(rng.choice(outside))
                    graphs.append(Multihypergraph(t.num_vertices, others + [e[1:] + (w,)]))
                    graphs.append(Multihypergraph(t.num_vertices, others + [e + (w,)]))
                graphs.append(Multihypergraph(t.num_vertices, others + [e[1:]]))
                graphs.append(Multihypergraph(t.num_vertices, others + [e, e]))
            for g in graphs:
                assert is_linear_hypertree(g) == all_pairs_is_linear_hypertree(g), g

    def test_matches_saw_uniqueness_definition(self, rng):
        # cross-check the incidence-tree criterion against literal SAW counting
        from bplt.generators import random_multihypergraph

        for _ in range(40):
            g = random_multihypergraph(rng, max_vertices=6, max_edges=5)
            expected = True
            for v in range(g.num_vertices):
                walks = enumerate_saws(g, v)
                for u in range(g.num_vertices):
                    if u != v and sum(1 for w in walks if w.end == u) != 1:
                        expected = False
            assert is_linear_hypertree(g) == expected


class TestTextFormat:
    def test_roundtrip(self):
        g = Multihypergraph(5, [[0, 1, 2], [3], [], [0, 4]])
        assert parse_hypergraph(write_hypergraph(g)) == g

    def test_writer_idempotent(self):
        g = Multihypergraph(4, [[1, 3], [0]])
        text = write_hypergraph(g)
        assert write_hypergraph(parse_hypergraph(text)) == text

    def test_comments_and_blank_edges(self):
        text = "# a triangle plus an empty edge\n3 2\n0 1 2  # the triangle\n\n"
        g = parse_hypergraph(text)
        assert g.edges == ((), (0, 1, 2))

    @pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n   # and another\n"])
    def test_empty_file(self, text):
        with pytest.raises(ValueError, match="^empty hypergraph file$"):
            parse_hypergraph(text)

    @pytest.mark.parametrize("header", ["3", "3 1 2", "3 # 1"])
    def test_header_not_two_tokens(self, header):
        with pytest.raises(ValueError, match="expected header 'N M'"):
            parse_hypergraph(header + "\n0 1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 1 2\n", "expected 2 edge lines, found 1"),
            ("3 2\n# no edges, only comments\n", "expected 2 edge lines, found 0"),
            ("3 -1\n", "expected -1 edge lines, found 0"),
            ("3 -1\n0 1\n", r"expected -1 edge lines, found \d+"),
        ],
    )
    def test_too_few_edge_lines(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_hypergraph(text)

    def test_whitespace_comment_line_skipped(self):
        g = parse_hypergraph("3 2\n0 1\n   \t# a comment after blanks\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_blank_lines_before_header_skipped(self):
        g = parse_hypergraph("\n   \n3 1\n0 2\n")
        assert g.num_vertices == 3 and g.edges == ((0, 2),)

    def test_blank_line_after_header_is_an_empty_edge(self):
        g = parse_hypergraph("3 2\n\n0 2\n")
        assert g.edges == ((), (0, 2))
        assert parse_hypergraph("3 1\n  \n").edges == ((),)

    def test_lines_after_the_last_edge_ignored(self):
        g = parse_hypergraph("3 1\n2 0\n0 1 2\nnot an edge\n")
        assert g.edges == ((0, 2),)
        assert parse_hypergraph("3 0\nanything\n").edges == ()

    @pytest.mark.parametrize("text", ["3 1\n0 x\n", "3 1\n0 1.0\n", "3 one\n0 1\n"])
    def test_non_integer_token(self, text):
        with pytest.raises(ValueError):
            parse_hypergraph(text)

    @settings(max_examples=50, deadline=None)
    @given(multihypergraphs())
    def test_roundtrip_property(self, g):
        assert parse_hypergraph(write_hypergraph(g)) == g


def test_relabel_preserves_structure(rng):
    g = Multihypergraph(4, [[0, 1, 2], [2, 3]])
    perm = rng.permutation(4).tolist()
    h = relabel_vertices(g, perm)
    assert sorted(len(e) for e in h.edges) == sorted(len(e) for e in g.edges)
    assert sorted(g.degrees()) == sorted(h.degrees())
