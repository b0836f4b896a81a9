"""One bplt workload in a fresh process: build the instance, run one warm-up
pass whose outputs are checked against independent routes, then time passes
for ``--seconds`` and check that every later output is bit-identical.

Started by ``perfbench/run.py``, which pins the BLAS thread variables and
puts the checkout's ``src`` first on ``PYTHONPATH``.  Writes its record as
JSON to ``--out``.  A pass is a fixed list of operations, each a call into a
public ``bplt`` function; its wall time is the sum of the operations' own
times, so the checks between them are not counted.

With ``--trace 1`` the timed passes alternate between untraced and traced.
Traced passes record a span around every public call (name, start, end,
parent span, pass id), kept in memory and written to ``trace.json`` at the
end; the per-layer metrics are the median self times of those spans over
the traced passes, plus one-off probes run after the passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import bplt

perf = time.perf_counter
PROBE_REPEATS = 3


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _log_sup(a, b):
    return float(np.max(np.abs(np.log(a) - np.log(b))))


def _fail_if(bad, message):
    return message if bad else None


def fingerprint(value):
    """A string that is equal for two outputs iff they are bit-identical."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return f"nd{data.dtype}{data.shape}:{hashlib.sha256(data.tobytes()).hexdigest()}"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(fingerprint(v) for v in value) + ")"
    if dataclasses.is_dataclass(value):
        return fingerprint([getattr(value, f.name) for f in dataclasses.fields(value)])
    return repr(value)


class Tracer:
    """Spans kept in memory; a span is [name, start, end, parent, pass id].

    Span 0 is the whole run.  Children of one span never overlap, so a
    span's self time is its duration minus the durations of its children.
    """

    def __init__(self):
        self.spans = [["run", perf(), None, -1, None]]

    def open(self, name, parent, pass_id):
        self.spans.append([name, perf(), None, parent, pass_id])
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = perf()

    def add(self, name, start, end, parent, pass_id):
        self.spans.append([name, start, end, parent, pass_id])

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            None if end is None else end - start - covered[i]  # None while still open
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def pass_self_times(self):
        """Per span name, the median over timed passes of its summed self time."""
        sums = {}
        for (name, _, _, _, pass_id), own in zip(self.spans, self.self_times()):
            if pass_id is not None and pass_id > 0:
                per_pass = sums.setdefault(name, {})
                per_pass[pass_id] = per_pass.get(pass_id, 0.0) + own
        return {name: statistics.median(v.values()) for name, v in sums.items()}

    def records(self):
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "pass": s[4], "self_s": own}
            for i, (s, own) in enumerate(zip(self.spans, self.self_times()))
        ]


class Workload:
    """Instance, operation list, independent checks and probes of one workload.

    ``ops`` is a list of ``(key, span name, fn)``; ``fn`` receives the
    results of the earlier operations of the same pass.  ``verify`` maps
    each key to a failure message or None.  ``layer_metrics`` receives the
    median self time per span name (summed within a pass) and may run
    one-off probes.
    """

    def __init__(self, inst_dir, tracer):
        self.inst_dir = inst_dir
        self.tracer = tracer
        self.probe_span = None  # opened by main() before layer_metrics
        self.instances = {}

    def parse(self, name):
        """Parse an instance file and record its hash; the text must be canonical."""
        text = (self.inst_dir / name).read_text()
        self.instances[name] = _sha(text)
        graph = bplt.parse_hypergraph(text)
        if bplt.write_hypergraph(graph) != text:
            raise SystemExit(f"{name}: parse/write round trip changed the instance")
        return graph, text

    def parse_seconds(self, texts):
        """hypergraph.parse_s: median over repeats of parsing every instance."""
        samples = []
        setup = self.tracer.open("setup", 0, -1)
        for _ in range(PROBE_REPEATS):
            t0 = perf()
            for text in texts:
                s0 = perf()
                bplt.parse_hypergraph(text)
                self.tracer.add("hypergraph.parse", s0, perf(), setup, -1)
            samples.append(perf() - t0)
        self.tracer.close(setup)
        return statistics.median(samples)

    def probe(self, name, fn, repeats=PROBE_REPEATS):
        """Median time and last value of a one-off call, recorded as spans
        under the probes span, outside the passes."""
        samples = []
        for _ in range(repeats):
            t0 = perf()
            value = fn()
            t1 = perf()
            self.tracer.add(name, t0, t1, self.probe_span, -2)
            samples.append(t1 - t0)
        return statistics.median(samples), value


class BpRandom3(Workload):
    """Random 3-uniform hypergraph: the bp operator and its three drivers."""

    C, ETA, ZETA_LOGZ, FP_TOL = 1.0, 0.3, 0.5, 1e-13

    def __init__(self, inst_dir, tracer):
        super().__init__(inst_dir, tracer)
        self.graph, self.text = self.parse("graph.txt")
        self.delta = max(self.graph.degrees())
        self.params_eta0 = bplt.BPParams(3, self.C, 1.0, self.delta)
        self.params_logz = bplt.BPParams(3, self.C, self.ZETA_LOGZ, self.delta)

    def ops(self):
        g, c = self.graph, self.C
        return [
            ("rate_eta0", "bp.rate_eta0", lambda r: bplt.bp_lower_tail_rate(g, 3, c, 0.0)),
            ("solve_zeta", "bp.solve_zeta", lambda r: bplt.solve_zeta(g, 3, c, self.ETA)),
            ("logz_bethe", "bp.log_partition_bethe",
             lambda r: bplt.bp_log_partition(g, self.params_logz, "bethe")),
            ("logz_integral", "bp.log_partition_integral",
             lambda r: bplt.bp_log_partition(g, self.params_logz, "integral")),
        ]

    def verify(self, r):
        g, c = self.graph, self.C
        x0 = bplt.bp_fixed_point(g, self.params_eta0, tol=self.FP_TOL)
        res0 = _log_sup(bplt.bp_apply(g, self.params_eta0, x0), x0)
        rate0 = bplt.bethe_free_energy(g, self.params_eta0, x0) / g.num_vertices - c
        zeta, x = r["solve_zeta"]
        res = _log_sup(bplt.bp_apply(g, bplt.BPParams(3, c, zeta, self.delta), x), x)
        edges = np.array(g.edges)
        scale = c**3 * g.num_edges
        target_gap = abs((1 - zeta) * float(x[edges].prod(axis=1).sum()) - self.ETA * scale)
        self.logz_gap = abs(r["logz_integral"] / r["logz_bethe"] - 1)
        logz = _fail_if(not self.logz_gap < 1e-6, f"Bethe vs integral log Z gap {self.logz_gap:.3e} >= 1e-6")
        return {
            "rate_eta0": _fail_if(
                not (res0 < self.FP_TOL and abs(r["rate_eta0"] - rate0) <= 1e-12 * abs(rate0)),
                f"zeta=1 fixed point residual {res0:.3e} or rate {r['rate_eta0']!r} vs {rate0!r}",
            ),
            "solve_zeta": _fail_if(
                not (res < self.FP_TOL and target_gap < 1e-8 * scale),
                f"solve_zeta residual {res:.3e}, target gap {target_gap / scale:.3e} of c^k|E|",
            ),
            "logz_bethe": logz,
            "logz_integral": logz,
        }

    def layer_metrics(self, spans):
        x0 = bplt.bp_fixed_point(self.graph, self.params_eta0, tol=self.FP_TOL)
        apply_s, _ = self.probe("bp.apply", lambda: bplt.bp_apply(self.graph, self.params_eta0, x0))
        fixed_s, _ = self.probe(
            "bp.fixed_point", lambda: bplt.bp_fixed_point(self.graph, self.params_eta0, tol=self.FP_TOL)
        )
        return {
            "hypergraph.parse_s": self.parse_seconds([self.text]),
            "bp.apply_s": apply_s,
            "bp.fixed_point_s": fixed_s,
            "bp.rate_eta0_s": spans["bp.rate_eta0"],
            "bp.solve_zeta_s": spans["bp.solve_zeta"],
            "bp.log_partition_bethe_s": spans["bp.log_partition_bethe"],
            "bp.log_partition_integral_s": spans["bp.log_partition_integral"],
            "bp.solves_per_zeta": spans["bp.solve_zeta"] / fixed_s,
            "bp.solves_per_integral": spans["bp.log_partition_integral"] / fixed_s,
            "bp.logz_rel_gap": self.logz_gap,
        }


class Kap3ap(Workload):
    """rate-kap --check-bethe at a quarter of the CLI's sizes."""

    K, C, QUAD_NODES, QUAD_GRID, BETHE_GRID = 3, 1.0, 16, 200, 500

    def __init__(self, inst_dir, tracer):
        super().__init__(inst_dir, tracer)
        params = {"k": self.K, "c": self.C, "quad_nodes": self.QUAD_NODES,
                  "quad_grid": self.QUAD_GRID, "bethe_grid": self.BETHE_GRID}
        self.instances["params"] = _sha(json.dumps(params, sort_keys=True))

    def ops(self):
        k, c = self.K, self.C
        return [
            ("kap_rate", "progressions.kap_rate",
             lambda r: bplt.kap_rate(k, c, quad_nodes=self.QUAD_NODES, grid_size=self.QUAD_GRID)),
            ("kap_rate_bethe", "progressions.kap_rate_bethe",
             lambda r: bplt.kap_rate_bethe(k, c, grid_size=self.BETHE_GRID)),
        ]

    def verify(self, r):
        self.rate_gap = abs(r["kap_rate"] - r["kap_rate_bethe"])
        bad = _fail_if(not self.rate_gap < 1e-4, f"kap rate routes differ by {self.rate_gap:.3e} >= 1e-4")
        return {"kap_rate": bad, "kap_rate_bethe": bad}

    def layer_metrics(self, spans):
        k, c = self.K, self.C
        quad_f = np.full(self.QUAD_GRID + 1, c)
        bethe_f = np.full(self.BETHE_GRID + 1, c)
        apply_quad, _ = self.probe("progressions.phi_apply", lambda: bplt.phi_apply(k, c, quad_f))
        apply_bethe, _ = self.probe("progressions.phi_apply", lambda: bplt.phi_apply(k, c, bethe_f))
        fixed_s, _ = self.probe(
            "progressions.phi_fixed_point", lambda: bplt.phi_fixed_point(k, c, grid_size=self.BETHE_GRID)
        )
        return {
            f"progressions.apply_s.M{self.QUAD_GRID}": apply_quad,
            f"progressions.apply_s.M{self.BETHE_GRID}": apply_bethe,
            "progressions.fixed_point_s": fixed_s,
            "progressions.kap_rate_s": spans["progressions.kap_rate"],
            "progressions.kap_rate_bethe_s": spans["progressions.kap_rate_bethe"],
            "progressions.apps_equiv.fixed_point": fixed_s / apply_bethe,
            "progressions.apps_equiv.kap_rate": spans["progressions.kap_rate"] / apply_quad,
            "progressions.rate_gap": self.rate_gap,
        }


def _enumeration_metrics(spans, graph, enumerations):
    """Counts of the 2^N enumeration and its computed cost per subset·mask."""
    subsets = 2**graph.num_vertices
    masks = len(set(graph.edges))
    busy = sum(v for name, v in spans.items() if name.startswith("gibbs."))
    return {
        "gibbs.subsets": subsets,
        "gibbs.edge_masks": masks,
        "gibbs.ns_per_subset_mask": 1e9 * busy / (enumerations * subsets * masks),
    }


class ExactHardcore(Workload):
    """Exact hard-core oracle on the 3-AP hypergraph of [18] at p = n^(-1/2)."""

    N = 18  # run.py builds the same instance for setup_s

    def __init__(self, inst_dir, tracer):
        super().__init__(inst_dir, tracer)
        self.graph = bplt.ap_hypergraph(3, self.N)
        self.instances[f"ap_hypergraph(3,{self.N})"] = _sha(bplt.write_hypergraph(self.graph))
        self.p = self.N**-0.5
        self.params = bplt.ModelParams(self.p / (1 - self.p), 1.0)

    def ops(self):
        g, p, params = self.graph, self.p, self.params
        return [
            ("partition_function", "gibbs.partition_function", lambda r: bplt.partition_function(g, params)),
            ("summarize", "gibbs.summarize", lambda r: bplt.summarize(g, params)),
            ("lower_tail_exact", "gibbs.lower_tail_exact", lambda r: bplt.lower_tail_exact(g, p, 0)),
        ]

    def verify(self, r):
        n, log_z, s = self.N, r["partition_function"], r["summarize"]
        bridge = math.exp(n * math.log1p(-self.p) + log_z)
        self.bridge_rel = abs(r["lower_tail_exact"] / bridge - 1)
        bridge_bad = _fail_if(not self.bridge_rel < 1e-12, f"hard-core bridge gap {self.bridge_rel:.3e}")
        marg_gap = abs(float(s.marginals.sum()) - s.mean_size)
        return {
            "partition_function": bridge_bad,
            "lower_tail_exact": bridge_bad,
            "summarize": _fail_if(
                not (marg_gap <= 1e-12 * s.mean_size and abs(s.log_z - log_z) <= 1e-12 * abs(log_z)),
                f"sum of marginals vs mean size {marg_gap:.3e}, log Z {s.log_z!r} vs {log_z!r}",
            ),
        }

    def layer_metrics(self, spans):
        # P(X=0) at p=1/2 is the share of subsets with no full edge.
        _, support = self.probe("gibbs.support_count", lambda: bplt.lower_tail_exact(self.graph, 0.5, 0), 1)
        return {
            **_enumeration_metrics(spans, self.graph, 3),
            "gibbs.partition_function_s": spans["gibbs.partition_function"],
            "gibbs.summarize_s": spans["gibbs.summarize"],
            "gibbs.lower_tail_exact_s": spans["gibbs.lower_tail_exact"],
            "gibbs.support_fraction": support,
            "gibbs.bridge_rel": self.bridge_rel,
        }


class OracleSoft(Workload):
    """Soft-penalty oracle (every subset weighted) and the pruned walk tree."""

    P, ZETA, ETA = 0.3, 0.5, 0.5

    def __init__(self, inst_dir, tracer):
        super().__init__(inst_dir, tracer)
        self.graph, self.text = self.parse("graph.txt")
        self.tree_graph, self.tree_text = self.parse("weitz.txt")
        self.params = bplt.ModelParams(self.P / (1 - self.P), self.ZETA)
        self.threshold = self.ETA * sum(self.P ** len(e) for e in self.graph.edges)

    def ops(self):
        g, w, params = self.graph, self.tree_graph, self.params
        ops = [
            ("summarize", "gibbs.summarize", lambda r: bplt.summarize(g, params)),
            ("lower_tail_exact", "gibbs.lower_tail_exact",
             lambda r: bplt.lower_tail_exact(g, self.P, self.threshold)),
        ]
        for v in range(w.num_vertices):
            ops.append((f"tree{v}", "weitz.build", lambda r, v=v: bplt.build_weitz_tree(w, v)))
            ops.append((f"marginal{v}", "weitz.recursion",
                        lambda r, v=v: bplt.tree_root_marginal(r[f"tree{v}"], params)))
        return ops

    def verify(self, r):
        s = r["summarize"]
        marg_gap = abs(float(s.marginals.sum()) - s.mean_size)
        p_zero = bplt.lower_tail_exact(self.graph, self.P, 0)
        tail = r["lower_tail_exact"]
        out = {
            "summarize": _fail_if(not marg_gap <= 1e-12 * s.mean_size,
                                  f"sum of marginals vs mean size {marg_gap:.3e}"),
            "lower_tail_exact": _fail_if(not 0 < p_zero <= tail <= 1,
                                         f"P(X<=t)={tail!r} outside [P(X=0)={p_zero!r}, 1]"),
        }
        exact = bplt.summarize(self.tree_graph, self.params).marginals
        self.tree_nodes = 0
        self.marginal_gap = 0.0
        for v in range(self.tree_graph.num_vertices):
            tree = r[f"tree{v}"]
            self.tree_nodes += tree.num_nodes
            gap = abs(r[f"marginal{v}"] - float(exact[v]))
            self.marginal_gap = max(self.marginal_gap, gap)
            bad = _fail_if(not (gap < 1e-10 and tree.node_labels[0] == v),
                           f"root {v}: tree marginal off the exact one by {gap:.3e}")
            out[f"tree{v}"] = out[f"marginal{v}"] = bad
        return out

    def layer_metrics(self, spans):
        w = self.tree_graph
        saw_nodes = sum(
            self.probe("weitz.saw_tree", lambda v=v: bplt.build_saw_tree(w, v), 1)[1].num_nodes
            for v in range(w.num_vertices)
        )
        return {
            "hypergraph.parse_s": self.parse_seconds([self.text, self.tree_text]),
            **_enumeration_metrics(spans, self.graph, 2),
            "gibbs.summarize_s": spans["gibbs.summarize"],
            "gibbs.lower_tail_exact_s": spans["gibbs.lower_tail_exact"],
            "gibbs.support_fraction": 1.0,  # zeta < 1: every subset has positive weight
            "weitz.build_s": spans["weitz.build"],
            "weitz.recursion_s": spans["weitz.recursion"],
            "weitz.tree_nodes": self.tree_nodes,
            "weitz.saw_nodes": saw_nodes,
            "weitz.kept_fraction": self.tree_nodes / saw_nodes,
            "weitz.marginal_gap": self.marginal_gap,
        }


WORKLOADS = {
    "bp-random3": BpRandom3,
    "kap-3ap": Kap3ap,
    "exact-hardcore": ExactHardcore,
    "oracle-soft": OracleSoft,
}


def execute(ops, tracer, pass_id):
    """One pass: every operation in order, each timed on its own."""
    results, durations, errors = {}, {}, {}
    pass_span = tracer.open("pass", 0, pass_id) if tracer else None
    for key, span, fn in ops:
        t0 = perf()
        try:
            results[key] = fn(results)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
        t1 = perf()
        durations[key] = t1 - t0
        if tracer:
            tracer.add(span, t0, t1, pass_span, pass_id)
    if tracer:
        tracer.close(pass_span)
    return results, durations, errors


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "") for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BPLT_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instances", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(bplt.__file__).resolve().parents:
        raise SystemExit(f"bplt imported from {bplt.__file__}, not from {src}")

    tracer = Tracer() if args.trace else None
    work = WORKLOADS[args.workload](args.instances, tracer)
    ops = work.ops()
    min_passes = 4 if args.trace else 3  # trace runs need two passes of each kind

    # Warm-up pass: checked against independent routes; its outputs become
    # the reference that every later pass must reproduce bit for bit.
    results, _, errors = execute(ops, tracer, 0)
    try:
        verdicts = work.verify(results)
    except Exception as exc:  # an output missing or malformed fails every check
        verdicts = {key: f"check failed: {type(exc).__name__}: {exc}" for key, _, _ in ops}
    reference = {key: fingerprint(results.get(key)) for key, _, _ in ops}
    failures = [f"pass 0 {key}: {errors.get(key) or verdicts.get(key)}"
                for key, _, _ in ops if key in errors or verdicts.get(key)]
    attempted = len(ops)

    walls = {False: [], True: []}
    op_times = {}
    start = perf()
    pass_id = 0
    while pass_id < min_passes or perf() - start < args.seconds:
        pass_id += 1
        traced = bool(args.trace) and pass_id % 2 == 0
        results, durations, errors = execute(ops, tracer if traced else None, pass_id)
        attempted += len(ops)
        for key, _, _ in ops:
            if key in errors:
                failures.append(f"pass {pass_id} {key}: {errors[key]}")
            elif verdicts.get(key) or fingerprint(results[key]) != reference[key]:
                failures.append(f"pass {pass_id} {key}: output differs from the checked warm-up output")
        walls[traced].append(sum(durations.values()))
        op_times.setdefault(traced, []).append(durations)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "instances": work.instances,
        "outputs_sha256": _sha(json.dumps(reference, sort_keys=True)),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pass_walls": walls[False],
        "op_times": op_times.get(False, []),
    }
    if args.trace:
        spans = tracer.pass_self_times()
        work.probe_span = tracer.open("probes", 0, -2)
        metrics = work.layer_metrics(spans)
        tracer.close(work.probe_span)
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        tracer.close(0)
        record["traced_pass_walls"] = walls[True]
        record["span_self_s"] = spans
        args.out.with_name("trace.json").write_text(json.dumps(tracer.records()) + "\n")
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    record["metrics"] = metrics
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
