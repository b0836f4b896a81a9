"""Shared pure-python oracles, deliberately independent of the package's
vectorised implementations."""

import math

import pytest


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


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20260810)
