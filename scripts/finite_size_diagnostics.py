#!/usr/bin/env python3
"""Finite-size convergence diagnostics for the message-passing predictions.

All supporting statements are asymptotic, so this script reports gaps at
finite sizes rather than asserting them:

* the fixed point on the k-AP hypergraph against the grid fixed point as
  the ground set grows;
* exact conditional occupation marginals at small n against the profile;
* exact scaled non-existence log-probabilities against the limiting rate;
* the BP estimate of log Z against exact enumeration on small triangle
  hypergraphs.
"""

import argparse
import math

import numpy as np

from bplt.bp import BPParams, bp_log_partition
from bplt.gibbs import ModelParams, lower_tail_exact, partition_function
from bplt.progressions import (
    ap_hypergraph,
    discrete_profile_gap,
    kap_marginal_check,
    kap_rate,
)
from bplt.rates import named_graph, subgraph_hypergraph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--profile-sizes", type=int, nargs="+", default=[500, 1000, 2000])
    ap.add_argument("--marginal-sizes", type=int, nargs="+", default=[12, 18, 24, 30])
    ap.add_argument("--triangle-sizes", type=int, nargs="+", default=[5, 6, 7, 8])
    args = ap.parse_args()

    print("== grid vs hypergraph fixed point (sup-norm gap) ==")
    for n in args.profile_sizes:
        gap, _, _ = discrete_profile_gap(args.k, n, args.c)
        print(f"  n={n:6d}: {gap:.6f}")

    print("== exact conditional marginals vs profile (mean |gap|) ==")
    for n in args.marginal_sizes:
        table = kap_marginal_check(args.k, args.c, n)
        worst = float(np.max(np.abs(table.gaps)))
        print(f"  n={n:3d} [{table.mode}]: mean {table.mean_abs_gap:.4f}, worst {worst:.4f}")

    if args.k == 3:
        print("== exact scaled non-existence log-probability vs limiting rate ==")
        c_small = 0.5
        limit = kap_rate(3, c_small, quad_nodes=48, grid_size=600)
        print(f"  limit at c={c_small}: {limit:.6f}")
        for n in args.marginal_sizes:
            p = c_small / math.sqrt(n)
            prob = lower_tail_exact(ap_hypergraph(3, n), p, 0)
            print(f"  n={n:3d}: {math.log(prob) / math.sqrt(n):.6f}")

    print("== BP log Z and scaled marginal vs exact on triangle hypergraphs ==")
    from bplt.bp import regular_fixed_point
    from bplt.gibbs import summarize

    k3 = named_graph("K3")
    prediction = regular_fixed_point(3, 0.9, 1.0)
    for n in args.triangle_sizes:
        g = subgraph_hypergraph(k3, n)
        delta = max(g.degrees())
        params = BPParams(3, 0.9, 1.0, delta)
        approx = bp_log_partition(g, params)
        lam = 0.9 * delta ** (-0.5)
        exact = partition_function(g, ModelParams(lam, 1.0))
        marg = float(summarize(g, ModelParams(lam, 1.0)).marginals[0])
        scaled = marg * delta**0.5
        print(
            f"  n={n}: N={g.num_vertices}, exact log Z {exact:.6f}, bp {approx:.6f} "
            f"(gap {abs(approx / exact - 1):.2%}); scaled marginal {scaled:.4f} "
            f"vs prediction {prediction:.4f}"
        )


if __name__ == "__main__":
    main()
