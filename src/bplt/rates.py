"""Closed-form lower-tail rate functions and the subgraph specialisation.

For a strictly 2-balanced pattern graph H with k edges, avoiding (or
under-counting) copies of H in a random graph reduces to the lower-tail
problem on a k-uniform hypergraph whose vertices are the edges of the
complete graph and whose hyperedges are the copies of H.  That hypergraph
is regular with degree equal to the number of copies of H on a fixed edge,
so the rate functions take scalar closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bp import _check_admissible, _legendre_tail, regular_fixed_point, solve_zeta_regular
from .bp import thresholds
from .errors import DomainError, _check_k
from .hypergraph import Multihypergraph

__all__ = [
    "SimpleGraph",
    "SubgraphProfile",
    "SubgraphRate",
    "named_graph",
    "rate_gnp",
    "rate_gnm",
    "subgraph_profile",
    "copies_per_edge",
    "subgraph_hypergraph",
    "subgraph_rate",
    "rpartite_bound_gnp",
    "rpartite_bound_gnm",
]

PROFILE_GUARD = 10


@dataclass(frozen=True)
class SimpleGraph:
    """A small simple graph: vertex count plus sorted edge pairs."""

    num_vertices: int
    edges: tuple

    def __post_init__(self):
        edges = Multihypergraph(self.num_vertices, self.edges).edges
        if any(len(e) != 2 for e in edges):
            raise ValueError("a simple graph's edges must be vertex pairs")
        if len(set(edges)) < len(edges):
            raise ValueError("multi-edges are not allowed")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self):
        adj = [set() for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def named_graph(name):
    """Small built-in library: complete K<r>, cycle C<l>, path P<l> (l edges)."""
    name = name.strip().upper()
    kind, num = name[0], name[1:]
    if not num.isdigit():
        raise ValueError(f"unrecognised graph name {name!r}")
    r = int(num)
    if kind == "K":
        if r < 2:
            raise ValueError("K<r> needs r >= 2")
        return SimpleGraph(r, tuple(itertools.combinations(range(r), 2)))
    if kind == "C":
        if r < 3:
            raise ValueError("C<l> needs l >= 3")
        return SimpleGraph(r, tuple((i, (i + 1) % r) for i in range(r)))
    if kind == "P":
        if r < 1:
            raise ValueError("P<l> needs l >= 1 edges")
        return SimpleGraph(r + 1, tuple((i, i + 1) for i in range(r)))
    raise ValueError(f"unrecognised graph name {name!r}")


def rate_gnp(k, c, eta):
    """Lower-tail rate for the binomial model on regular hypergraphs.

    Solves the scalar achieving equation for the penalty zeta, then returns
    ``x + x^k zeta (1 - 1/k) - c - log(1-zeta) eta c^k / k`` with x the
    regular fixed point.  With u = zeta x^(k-1) and c = x e^u, the terms
    before the log are taken as ``-x (u/k + (expm1(u) - u))``, a sum of
    non-positive terms, since they cancel down to a value of size c^k/k as
    c -> 0; the log term is ``bp._legendre_tail``, 0 at eta = 0, where
    zeta = 1.
    """
    thr = thresholds(k, eta)
    _check_admissible(c, thr.c_max_regular, f" for k={k}, eta={eta}")
    zeta, _ = solve_zeta_regular(k, c, eta)
    x = regular_fixed_point(k, c, zeta)
    u = zeta * x ** (k - 1)
    return -x * (u / k + (math.expm1(u) - u)) + _legendre_tail(zeta, eta, c**k / k)


def rate_gnm(k, b, eta):
    """Lower-tail rate for the fixed-size model: -b^k (1 - eta + eta log eta)/k.

    Valid when (k-1) b^(k-1) (1-eta) < 1; eta log eta is read as 0 at 0.
    """
    k = _check_k(k, 2)
    if not b > 0:
        raise DomainError("b must be positive")
    if not 0 <= eta < 1:
        raise DomainError("eta must lie in [0, 1)")
    if not (k - 1) * b ** (k - 1) * (1.0 - eta) < 1.0:
        raise DomainError(
            f"b={b} violates (k-1) b^(k-1) (1-eta) < 1 for k={k}, eta={eta}"
        )
    ent = eta * math.log(eta) if eta > 0 else 0.0
    return -(b**k) * (1.0 - eta + ent) / k


@dataclass(frozen=True)
class SubgraphProfile:
    m2: Fraction
    strictly_2_balanced: bool
    aut: int
    chromatic_number: int


def _induced_edge_count(graph, subset):
    s = set(subset)
    return sum(1 for u, v in graph.edges if u in s and v in s)


def _automorphism_count(graph):
    n = graph.num_vertices
    adj = graph.adjacency()
    deg = graph.degrees()
    count = 0
    assignment = [-1] * n
    used = [False] * n

    def extend(i):
        nonlocal count
        if i == n:
            count += 1
            return
        for img in range(n):
            if used[img] or deg[img] != deg[i]:
                continue
            ok = True
            for j in range(i):
                if (j in adj[i]) != (assignment[j] in adj[img]):
                    ok = False
                    break
            if ok:
                assignment[i] = img
                used[img] = True
                extend(i + 1)
                used[img] = False
                assignment[i] = -1

    extend(0)
    return count


def _chromatic_number(graph):
    n = graph.num_vertices
    if n == 0:
        return 0
    adj = graph.adjacency()
    if not graph.edges:
        return 1

    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def colorable(r):
        colors = {}

        def assign(i, used):
            if i == n:
                return True
            v = order[i]
            forbidden = {colors[u] for u in adj[v] if u in colors}
            for col in range(min(r, used + 1)):  # at most one fresh colour
                if col in forbidden:
                    continue
                colors[v] = col
                if assign(i + 1, max(used, col + 1)):
                    return True
                del colors[v]
            return False

        return assign(0, 0)

    for r in range(2, n + 1):
        if colorable(r):
            return r
    return n


def subgraph_profile(graph):
    """2-density, strict 2-balance, automorphism count, chromatic number.

    The 2-density maximum runs over all vertex subsets of size >= 3 with
    induced edges (subgraphs with fewer edges only lower the ratio); strict
    2-balance requires every proper subset to fall strictly below the
    whole graph's ratio.  Everything is exhaustive, guarded at
    10 vertices.
    """
    h, k = graph.num_vertices, graph.num_edges
    if h > PROFILE_GUARD:
        raise DomainError(f"subgraph_profile is exhaustive; guarded at {PROFILE_GUARD}")
    if h < 3 or k < 3:
        raise DomainError("the 2-balance test needs >= 3 vertices and >= 3 edges")
    full = Fraction(k - 1, h - 2)
    best_proper = None
    for size in range(3, h):
        for subset in itertools.combinations(range(h), size):
            ratio = Fraction(_induced_edge_count(graph, subset) - 1, size - 2)
            if best_proper is None or ratio > best_proper:
                best_proper = ratio
    m2 = full if best_proper is None else max(full, best_proper)
    strict = best_proper is None or best_proper < full
    return SubgraphProfile(
        m2=m2,
        strictly_2_balanced=strict,
        aut=_automorphism_count(graph),
        chromatic_number=_chromatic_number(graph),
    )


def copies_per_edge(graph, n):
    """Number of copies of the pattern in K_n containing a fixed edge.

    Exact integer 2k (n-2)_(h-2) / aut; a divisibility failure would
    indicate an automorphism-count bug and is a hard error.
    """
    h, k = graph.num_vertices, graph.num_edges
    if n < h:
        raise DomainError("n must be at least the pattern's vertex count")
    aut = _automorphism_count(graph)
    numerator = 2 * k * math.perm(n - 2, h - 2)
    if numerator % aut:
        raise ArithmeticError(
            f"copy count {numerator} not divisible by aut={aut}; automorphism bug?"
        )
    return numerator // aut


def subgraph_hypergraph(graph, n):
    """The k-uniform hypergraph on the edges of K_n whose hyperedges are the
    copies of the pattern graph."""
    h = graph.num_vertices
    if n < h:
        raise DomainError("n must be at least the pattern's vertex count")
    pair_id = {}
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        pair_id[u, v] = pair_id[v, u] = i
    copies = {
        frozenset(pair_id[perm[u], perm[v]] for u, v in graph.edges)
        for perm in itertools.permutations(range(n), h)
    }
    return Multihypergraph(n * (n - 1) // 2, copies)


@dataclass(frozen=True)
class SubgraphRate:
    """A rate value together with the scaling metadata needed to read it."""

    rate: float
    k: int
    m2: Fraction
    aut: int
    chromatic_number: int
    delta_exponent: float
    p_scaling: str
    m_scaling: str


def subgraph_rate(graph, c, eta, model="gnp"):
    """Rate constant for under-counting copies of a strictly 2-balanced
    pattern, in the per-edge copy-count normalisation.

    ``model='gnp'`` reads c as the binomial prior-density prefactor,
    ``model='gnm'`` as the fixed-size prefactor b.  The scaling strings
    record both parameterisations of the critical window.
    """
    profile = subgraph_profile(graph)
    if not profile.strictly_2_balanced:
        raise DomainError("the pattern graph must be strictly 2-balanced")
    k = graph.num_edges
    expo = 1.0 / (k - 1)
    pref = f"({profile.aut}/{2 * k})^(1/{k - 1})"
    p_scaling = f"p ~ c * D^(-1/{k - 1}) ~ c * {pref} * n^(-1/m2), m2={profile.m2}"
    m_scaling = (
        f"m ~ b * D^(-1/{k - 1}) * binom(n,2) ~ b * {pref} * n^(2-1/m2), "
        f"m2={profile.m2}"
    )
    if model == "gnp":
        rate = rate_gnp(k, c, eta)
    elif model == "gnm":
        rate = rate_gnm(k, c, eta)
    else:
        raise ValueError("model must be 'gnp' or 'gnm'")
    return SubgraphRate(
        rate=rate,
        k=k,
        m2=profile.m2,
        aut=profile.aut,
        chromatic_number=profile.chromatic_number,
        delta_exponent=expo,
        p_scaling=p_scaling,
        m_scaling=m_scaling,
    )


def rpartite_bound_gnp(graph, c):
    """Rate of the (chi-1)-partite construction, same normalisation as
    :func:`rate_gnp`: -c/r with r = chi(H) - 1.  Lower-bounds the true rate
    for large c; emitted alongside rate curves for visual crossing."""
    r = _chromatic_number(graph) - 1
    if r < 1:
        raise DomainError("pattern must have chromatic number >= 2")
    return -c / r


def rpartite_bound_gnm(graph, b):
    """Fixed-size analogue of :func:`rpartite_bound_gnp`: b log(1 - 1/r)."""
    r = _chromatic_number(graph) - 1
    if r < 1:
        raise DomainError("pattern must have chromatic number >= 2")
    if r == 1:
        return -math.inf
    return b * math.log(1.0 - 1.0 / r)
