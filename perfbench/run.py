"""Benchmark launcher for bplt.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bp-random3 --seed 0 --seconds 18 --trace 0

Generates the workload's instances from ``--seed`` with numpy, writes them
as hypergraph text under ``.bench_out/``, runs the workload itself
(``perfbench/workload.py``) in a fresh single-threaded process, then, for
end-to-end runs, times ``setup_s`` in fresh interpreters.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Exits non-zero
without a result when the checkout holds no ``src/bplt`` or the workload
process fails.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here, and passed to every child process.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("bp-random3", "kap-3ap", "exact-hardcore", "oracle-soft")
SETUP_REPEATS = 3  # setup_s is the median of this many fresh interpreters
DEADLINE_S = 170.0  # the whole command must end within 180 s

# bp-random3: N vertices, 3N edges, a fixed degree sequence shaped like
# Poisson(9) so that Dmax (and with it the iteration count) is the same on
# every seed; the seed draws only the wiring.
BP_N, BP_M, BP_MEAN_DEGREE = 5000, 15000, 9.0
# exact-hardcore and oracle-soft enumerate 2^N subsets in arrays of 2^N
# words.  At N=18 these stay in cache; at N=20 the enumeration is bound by
# memory bandwidth, which other tenants of a shared machine also use, and
# its time varied twice as much from run to run.
AP_N = 18  # the 3-AP hypergraph of [AP_N]; the same as ExactHardcore.N
# oracle-soft: a dense multihypergraph with a fixed number of distinct edges
# (enumeration cost is 2^N times that number) plus repeated copies.
SOFT_N, SOFT_DISTINCT, SOFT_REPEATS = 18, 72, 8
# oracle-soft, tree part: the walk-tree cost depends strongly on structure
# (4-11 s across seeds at N=14), so the structure is drawn once from a fixed
# seed and the run seed draws a vertex relabelling, which changes the pruning
# orders and tree shapes but not the unpruned walk tree.
WEITZ_N, WEITZ_M, WEITZ_STRUCTURE_SEED = 11, 11, 1


def hypergraph_text(num_vertices, edges):
    """The canonical text form (same as ``bplt.write_hypergraph``)."""
    rows = sorted(tuple(sorted(int(u) for u in e)) for e in edges)
    lines = [f"{num_vertices} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _resample_until_proper(rng, edges, num_vertices):
    """Redraw, in place, every row that repeats a vertex."""
    while True:
        edges.sort(axis=1)
        bad = (np.diff(edges, axis=1) == 0).any(axis=1)
        if not bad.any():
            return edges
        edges[bad] = rng.integers(0, num_vertices, (int(bad.sum()), edges.shape[1]))


def poisson_degree_sequence(n, mean, total):
    """Degrees at the Poisson(mean) quantiles (i + 1/2)/n; they must sum to ``total``."""
    degrees = np.empty(n, dtype=np.int64)
    d, pmf = 0, math.exp(-mean)
    cdf = pmf
    for i in range(n):
        while cdf < (i + 0.5) / n:
            d += 1
            pmf *= mean / d
            cdf += pmf
        degrees[i] = d
    if int(degrees.sum()) != total:
        raise ValueError(f"Poisson({mean}) quantile degrees of {n} vertices do not sum to {total}")
    return degrees


def wired_uniform(rng, degrees, k):
    """A k-uniform multihypergraph with exactly the given degrees.

    Stubs are shuffled into rows of k; rows that repeat a vertex are
    reshuffled together with as many random rows until none remain.
    """
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    m = len(stubs) // k
    edges = rng.permutation(stubs).reshape(m, k)
    while True:
        edges.sort(axis=1)
        bad = np.flatnonzero((np.diff(edges, axis=1) == 0).any(axis=1))
        if not len(bad):
            return edges
        rows = np.union1d(bad, rng.choice(m, len(bad), replace=False))
        edges[rows] = rng.permutation(edges[rows].ravel()).reshape(-1, k)


def make_instances(workload, seed):
    """Instance texts by file name; empty for workloads built from parameters."""
    rng = np.random.default_rng(seed)
    if workload == "bp-random3":
        degrees = poisson_degree_sequence(BP_N, BP_MEAN_DEGREE, 3 * BP_M)
        return {"graph.txt": hypergraph_text(BP_N, wired_uniform(rng, degrees, 3))}
    if workload == "oracle-soft":
        distinct = {}
        while len(distinct) < SOFT_DISTINCT:
            batch = _resample_until_proper(rng, rng.integers(0, SOFT_N, (SOFT_DISTINCT, 3)), SOFT_N)
            for row in map(tuple, batch.tolist()):
                if len(distinct) < SOFT_DISTINCT:
                    distinct.setdefault(row, None)
        rows = list(distinct)
        rows += [rows[i] for i in rng.integers(0, SOFT_DISTINCT, SOFT_REPEATS)]
        structure_rng = np.random.default_rng(WEITZ_STRUCTURE_SEED)
        structure = _resample_until_proper(
            structure_rng, structure_rng.integers(0, WEITZ_N, (WEITZ_M, 3)), WEITZ_N
        )
        relabel = rng.permutation(WEITZ_N)
        return {
            "graph.txt": hypergraph_text(SOFT_N, rows),
            "weitz.txt": hypergraph_text(WEITZ_N, relabel[structure]),
        }
    return {}


# What a user pays before the first operation: interpreter start-up,
# ``import bplt`` and building the instance through public constructors.
SETUP_CODE = {
    "bp-random3": "import sys, bplt; bplt.parse_hypergraph(open(sys.argv[1] + '/graph.txt').read())",
    "kap-3ap": "import bplt",
    "exact-hardcore": f"import bplt; bplt.ap_hypergraph(3, {AP_N})",
    "oracle-soft": (
        "import sys, bplt\n"
        "for name in ('graph.txt', 'weitz.txt'):\n"
        "    bplt.parse_hypergraph(open(sys.argv[1] + '/' + name).read())"
    ),
}


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(workload, inst_dir, env):
    """Median wall time of fresh interpreters doing import plus build.

    Runs after the workload process, whose import has written the bytecode
    cache, as it is for an installed package.  No timeout: ``subprocess``
    polls a child with a timeout in steps of up to 50 ms, which would show
    in the measurement.
    """
    cmd = [sys.executable, "-c", SETUP_CODE[workload], str(inst_dir)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "bplt" / "__init__.py").is_file():
        print(f"error: no bplt sources under {SRC}; run from the root of a bplt checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    inst_dir = OUT / f"{args.workload}-seed{args.seed}"
    inst_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, text in make_instances(args.workload, args.seed).items():
        (inst_dir / name).write_text(text)
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()

    env = child_env()
    result_path = inst_dir / f"result-trace{args.trace}.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--instances", str(inst_dir), "--out", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("error: workload process exceeded the time limit", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 3
    child = json.loads(result_path.read_text())
    if any(child["instances"].get(name) != digest for name, digest in hashes.items()):
        print("error: the workload read other instances than were written", file=sys.stderr)
        return 3

    values = dict(child["metrics"])
    if not args.trace:
        values["setup_s"], child["setup_s_samples"] = time_setup(args.workload, inst_dir, env)
    names = [m["name"] for m in wanted]
    unknown = sorted(set(values) - set(names))
    missing = [name for name in names if name not in values]
    if unknown or (missing and not args.trace):
        print(f"error: metrics unknown {unknown} or missing {missing}", file=sys.stderr)
        return 3
    # A per-layer metric of a layer this workload never calls reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    result_path.write_text(json.dumps(child, indent=1, sort_keys=True) + "\n")
    env_line = " ".join(f"{k}={v}" for k, v in child["env"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {env_line}")
    for name, digest in sorted(child["instances"].items()):
        print(f"# instance {name} sha256={digest}")
    print(f"# outputs sha256={child['outputs_sha256']}")
    print(f"# wall_s samples={len(child['pass_walls'])} (median reported)")
    print(f"# fail_rate {child['failed'] / child['attempted']:.6g} ratio ({child['failed']}/{child['attempted']})")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
