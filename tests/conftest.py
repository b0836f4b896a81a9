"""Shared pure-python oracles, deliberately independent of the package's
vectorised implementations."""

import math

import numpy as np
import pytest

import bplt.bp
import bplt.progressions
from bplt.errors import ConvergenceError


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


def naive_bp_apply(graph, params, x):
    """The message operator by a loop over edges: each member of an edge adds
    the product of the other members, by ``math.prod``, to its sum."""
    sums = [0.0] * graph.num_vertices
    for e in graph.edges:
        for i, v in enumerate(e):
            sums[v] += math.prod(float(x[u]) for j, u in enumerate(e) if j != i)
    return np.array([params.c * math.exp(-(params.zeta / params.delta) * s) for s in sums])


def plain_iterate(apply, x, tol, max_iter, what):
    """Plain iteration ``x <- apply(x)`` with the stopping test and errors of
    ``bp._iterate``: the reference for its Anderson-mixed iteration."""
    residual = math.inf
    for step in range(1, max_iter + 1):
        y = apply(x)
        residual = float(np.max(np.abs(np.log(y) - np.log(x))))
        if residual < tol:
            return x
        if not math.isfinite(residual):
            raise ConvergenceError(f"{what}: non-finite residual", residual=residual, iterations=step)
        x = y
    raise ConvergenceError(f"{what}: no fixed point", residual=residual, iterations=max_iter)


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
def count_applications(monkeypatch):
    """``count_applications(solve)`` returns ``(solve(), n)``, n the number of
    operator applications the library's fixed-point iteration made."""
    iterate = bplt.bp._iterate

    def run(solve):
        count = 0

        def counted(apply, x, tol, max_iter, what):
            def apply_counted(v):
                nonlocal count
                count += 1
                return apply(v)

            return iterate(apply_counted, x, tol, max_iter, what)

        return _with_iterate(monkeypatch, counted, solve), count

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
