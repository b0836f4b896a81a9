#!/usr/bin/env python3
"""Golden numbers: exact library outputs pinned in ``tests/golden.json``.

Each case is one route the paper's numbers come from, at a size small
enough that the whole set runs in well under a second.  A scalar is kept
as ``float.hex``, a vector as the sha256 of its float64 bytes, and each
argv of ``tests/test_cli.py``'s ``TestSweep.RUNS`` as the sha256 of its
stdout, stderr and ``--out`` file, run in a scratch directory so that the
echoed paths do not depend on where it is.  The file also records numpy's
version and the CPU features its dispatch uses, since a different SIMD
path may round differently.

    python scripts/golden.py            # compare with the file
    python scripts/golden.py --write    # regenerate it

A regenerated file is a test-data change: name every value that moved,
with its ulp distance, where the change is described.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"


def environment():
    """numpy's version and the dispatched CPU features it runs on."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_dispatch": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
    }


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part, float).tobytes())
        h.update(b"\0")
    return h.hexdigest()


def library_cases():
    """{name: float or vector} over the pinned routes."""
    from bplt.bp import BPParams, bp_log_partition, bp_lower_tail_rate, solve_zeta
    from bplt.generators import random_k_uniform
    from bplt.gibbs import (
        ModelParams,
        glauber_marginals,
        lower_tail_exact,
        mc_lower_tail,
        partition_function,
        summarize,
        verify_identities,
    )
    from bplt.hypergraph import Multihypergraph
    from bplt.progressions import (
        ap_hypergraph, kap_marginal_check, kap_rate, kap_rate_bethe, phi_fixed_point
    )
    from bplt.rates import named_graph, rate_gnm, rate_gnp, subgraph_hypergraph, subgraph_rate
    from bplt.weitz import build_weitz_tree, tree_root_marginal

    random3 = random_k_uniform(np.random.default_rng(3), 400, 3, 1200)
    triangles = subgraph_hypergraph(named_graph("K3"), 7)
    ap30 = ap_hypergraph(3, 30)
    zeta, x = solve_zeta(random3, 3, 1.0, 0.3)
    # 14 vertices, 20 edges of sizes 1 to 4, two of them repeated: at zeta < 1
    # and at a tail threshold >= 1 every exact value comes from the 2^N listing
    multi14 = Multihypergraph(14, [
        *random_k_uniform(np.random.default_rng(5), 14, 3, 16, allow_multi=True).edges,
        (0, 1), (0, 1), (2, 5, 7, 9), (13,),
    ])
    soft = ModelParams(0.7, 0.5)
    summary = summarize(multi14, soft)
    residuals = verify_identities(multi14, soft, 2, 5)
    walk9 = random_k_uniform(np.random.default_rng(2), 9, 3, 9, allow_multi=True)
    kap16 = kap_marginal_check(3, 0.9, 16, grid_size=200)
    assert kap16.mode == "exact"
    return {
        "rate_gnp(3,0.8,0.2)": rate_gnp(3, 0.8, 0.2),
        "rate_gnp(4,0.9,0)": rate_gnp(4, 0.9, 0.0),
        "rate_gnm(3,0.5,0.3)": rate_gnm(3, 0.5, 0.3),
        "kap_rate_bethe(3,1.0,500)": kap_rate_bethe(3, 1.0, 500),
        "kap_rate(3,0.5,16,200)": kap_rate(3, 0.5, 16, 200),
        "bp_lower_tail_rate(random3,1.0,0.3)": bp_lower_tail_rate(random3, 3, 1.0, 0.3),
        "bp_lower_tail_rate(random3,0.8,0)": bp_lower_tail_rate(random3, 3, 0.8, 0.0),
        "bp_log_partition(triangles7,integral)": bp_log_partition(
            triangles, BPParams(3, 0.9, 1.0, max(triangles.degrees())), method="integral"
        ),
        "lower_tail_exact(ap30,0.5/sqrt30,0)": lower_tail_exact(ap30, 0.5 / math.sqrt(30), 0),
        "partition_function(ap30,0.2,1)": partition_function(ap30, ModelParams(0.2, 1.0)),
        "mc_lower_tail(random3,0.1,0.5,seed1)": mc_lower_tail(random3, 0.1, 0.5, 4000, 1)[0],
        "solve_zeta(random3,1.0,0.3).zeta": zeta,
        "solve_zeta(random3,1.0,0.3).x": x,
        "phi_fixed_point(3,0.9,400)": phi_fixed_point(3, 0.9, grid_size=400),
        "bp_log_partition(triangles7,bethe)": bp_log_partition(
            triangles, BPParams(3, 0.9, 1.0, max(triangles.degrees())), method="bethe"
        ),
        "subgraph_rate(K3,0.9,0.2,gnp)": subgraph_rate(named_graph("K3"), 0.9, 0.2, "gnp").rate,
        "subgraph_rate(C4,0.5,0.3,gnm)": subgraph_rate(named_graph("C4"), 0.5, 0.3, "gnm").rate,
        "summarize(multi14,0.7,0.5).log_z": summary.log_z,
        "summarize(multi14,0.7,0.5).marginals": summary.marginals,
        "summarize(multi14,0.7,0.5).mean_size": summary.mean_size,
        "summarize(multi14,0.7,0.5).var_size": summary.var_size,
        "summarize(multi14,0.7,0.5).mean_edges": summary.mean_edges,
        "summarize(multi14,0.7,0.5).var_edges": summary.var_edges,
        "lower_tail_exact(multi14,0.4,3)": lower_tail_exact(multi14, 0.4, 3),
        **{
            f"verify_identities(multi14,0.7,0.5,2,5).{name}": value
            for name, value in vars(residuals).items()
        },
        "glauber_marginals(multi14,0.7,0.5,200,10,seed1)": glauber_marginals(
            multi14, soft, 200, 10, 1
        ),
        "tree_root_marginal(weitz(walk9,0),0.7,0.5)": tree_root_marginal(
            build_weitz_tree(walk9, 0), soft
        ),
        "kap_marginal_check(3,0.9,16,200).scaled": kap16.scaled,
        "kap_marginal_check(3,0.9,16,200).predicted": kap16.predicted,
    }


def cli_cases():
    """{command: digest of stdout, stderr and --out file} over the RUNS argvs."""
    from test_cli import TestSweep

    from bplt.cli import main
    from bplt.hypergraph import Multihypergraph, write_hypergraph

    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the echoed paths are then the relative names below
        try:
            Path("tri.hg").write_text(write_hypergraph(Multihypergraph(3, [[0, 1, 2]])))
            for command, argv in sorted(TestSweep.RUNS.items()):
                subs = {"FILE": "tri.hg", "OUT": "out.csv"}
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, *(subs.get(a, a) for a in argv)])
                written = Path("out.csv")
                table = written.read_bytes() if written.exists() else b""
                written.unlink(missing_ok=True)
                streams = (str(code), stdout.getvalue(), stderr.getvalue())
                out[f"cli {command}"] = _digest(*(text.encode() for text in streams), table)
        finally:
            os.chdir(here)
    return out


def compute():
    """Every pinned value: a float as ``float.hex``, anything else as a digest."""
    pinned = library_cases()
    values = {name: v.hex() if isinstance(v, float) else _digest(v) for name, v in pinned.items()}
    return {**values, **cli_cases()}


def ulps(a, b):
    """The number of doubles between ``a`` and ``b``, -0.0 and 0.0 counted as one."""

    def ordered(x):
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


def differences(want, got):
    """One line per pinned value that differs: its ulp distance for a float."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        a, b = want.get(name), got.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: {'new' if a is None else 'missing'}")
        elif a.startswith(("0x", "-0x")):
            x, y = float.fromhex(a), float.fromhex(b)
            lines.append(f"{name}: {x!r} -> {y!r} ({ulps(x, y)} ulp)")
        else:
            lines.append(f"{name}: digest {a[:12]} -> {b[:12]}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="regenerate tests/golden.json")
    args = ap.parse_args()
    got = compute()
    if args.write:
        doc = {"environment": environment(), "values": got}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} values to {GOLDEN.relative_to(ROOT)}")
        return 0
    doc = json.loads(GOLDEN.read_text())
    if doc["environment"] != environment():
        print(f"recorded under {doc['environment']}, running under {environment()}")
    lines = differences(doc["values"], got)
    print("\n".join(lines) if lines else f"all {len(got)} values equal")
    return 1 if lines else 0


if __name__ == "__main__":
    # the checkout's library, and its tests for the CLI argvs
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
