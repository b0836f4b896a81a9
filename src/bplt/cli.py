"""Command-line front end: config merging, dispatch, CSV emission.

Scalar results print as ``key,value`` lines (or one JSON object with
``--json``); tables go to ``--out`` when given, stdout otherwise, always
with a comment line naming the formula and echoing the full parameter set
so runs are auditable.  Floats use 17 significant digits and all seeds
default to 0, so repeated runs with the same config are byte-identical.

Exit codes: 0 success, 2 validation/domain error, 3 numerical
non-convergence (with the residual reported).
"""

from __future__ import annotations

import argparse
import json
import sys


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit_scalars(scalars, as_json, stream=None):
    stream = stream or sys.stdout
    if as_json:
        obj = {k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in scalars.items()}
        print(json.dumps(obj, sort_keys=True), file=stream)
    else:
        for key, value in scalars.items():
            print(f"{key},{_fmt(value)}", file=stream)


_PLOT_TEMPLATE = """\
# render {csv} (written by bplt; x = {x}, y = {y})
import matplotlib.pyplot as plt
import numpy as np

data = np.genfromtxt({csv!r}, delimiter=",", names=True, comments="#")
plt.plot(data[{x!r}], data[{y!r}])
plt.xlabel({x!r})
plt.ylabel({y!r})
plt.tight_layout()
plt.savefig({csv!r} + ".png", dpi=150)
"""


def _emit_table(args, formula, params_echo, columns, rows):
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in params_echo.items())
    lines = [f"# formula={formula} {echo}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) if x is not None else "" for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "plot_script", None):
        if not args.out:
            raise ValueError("--plot-script needs --out so the script can find the CSV")
        with open(args.plot_script, "w") as fh:
            fh.write(_PLOT_TEMPLATE.format(csv=args.out, x=columns[0], y=columns[1]))


def _parse_sweep(raw):
    try:
        lo, hi, steps = raw.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ValueError(f"--sweep expects lo:hi:steps, got {raw!r}") from exc
    if steps < 1 or hi < lo:
        raise ValueError("--sweep needs steps >= 1 and hi >= lo")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _load_config(args, parser):
    """Overlay JSON config under explicit CLI flags; flags win."""
    if not args.config:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    defaults = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        defaults[dest] = value
    # re-parse so that explicitly passed flags override config values
    parser.set_defaults(**defaults)
    return parser.parse_args(args._argv)


def _read_graph(path):
    from .hypergraph import parse_hypergraph

    with open(path) as fh:
        return parse_hypergraph(fh.read())


def _pattern_graph(name):
    from .rates import SimpleGraph, named_graph

    if name.startswith("@"):
        graph = _read_graph(name[1:])
        if any(len(e) != 2 for e in graph.edges):
            raise ValueError("pattern file must contain a 2-uniform graph")
        return SimpleGraph(graph.num_vertices, tuple(graph.edges))
    return named_graph(name)


def _sweep_rows(values, evaluate, arity=1):
    from .errors import DomainError

    rows = []
    any_ok = False
    for v in values:
        try:
            rows.append((v, *evaluate(v), "ok"))
            any_ok = True
        except DomainError:
            rows.append((v, *([None] * arity), "out-of-domain"))
    if not any_ok:
        raise DomainError("no sweep point lies inside the admissible range")
    return rows


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"pass --{name} (or --sweep to scan it)")
    return value


def _cmd_rate_gnp(args):
    from .rates import rate_gnp

    echo = {"k": args.k, "eta": args.eta, "seed": args.seed}
    if args.sweep:
        rows = _sweep_rows(_parse_sweep(args.sweep), lambda c: (rate_gnp(args.k, c, args.eta),))
        _emit_table(args, "gnp-lower-tail-rate", echo, ["c", "rate", "status"], rows)
        return 0
    rate = rate_gnp(args.k, _require(args, "c"), args.eta)
    _emit_scalars({"k": args.k, "c": args.c, "eta": args.eta, "rate": rate}, args.json)
    return 0


def _cmd_rate_gnm(args):
    from .rates import rate_gnm

    echo = {"k": args.k, "eta": args.eta, "seed": args.seed}
    if args.sweep:
        rows = _sweep_rows(_parse_sweep(args.sweep), lambda b: (rate_gnm(args.k, b, args.eta),))
        _emit_table(args, "gnm-lower-tail-rate", echo, ["b", "rate", "status"], rows)
        return 0
    rate = rate_gnm(args.k, _require(args, "b"), args.eta)
    _emit_scalars({"k": args.k, "b": args.b, "eta": args.eta, "rate": rate}, args.json)
    return 0


def _cmd_rate_subgraph(args):
    from .rates import (
        rpartite_bound_gnm,
        rpartite_bound_gnp,
        subgraph_rate,
    )

    pattern = _pattern_graph(args.subgraph)
    bound = rpartite_bound_gnp if args.model == "gnp" else rpartite_bound_gnm
    echo = {
        "subgraph": args.subgraph,
        "model": args.model,
        "eta": args.eta,
        "seed": args.seed,
    }
    if args.sweep:
        rows = _sweep_rows(
            _parse_sweep(args.sweep),
            lambda c: (
                subgraph_rate(pattern, c, args.eta, args.model).rate,
                bound(pattern, c),
            ),
            arity=2,
        )
        _emit_table(
            args,
            f"subgraph-lower-tail-rate-{args.model}",
            echo,
            ["c", "rate", "rpartite_bound", "status"],
            rows,
        )
        return 0
    result = subgraph_rate(pattern, _require(args, "c"), args.eta, args.model)
    _emit_scalars(
        {
            "subgraph": args.subgraph,
            "model": args.model,
            "c": args.c,
            "eta": args.eta,
            "rate": result.rate,
            "k": result.k,
            "m2": str(result.m2),
            "aut": result.aut,
            "chromatic_number": result.chromatic_number,
            "delta_exponent": result.delta_exponent,
            "rpartite_bound": bound(pattern, args.c),
            "p_scaling": result.p_scaling,
            "m_scaling": result.m_scaling,
        },
        args.json,
    )
    return 0


def _cmd_rate_kap(args):
    from .progressions import kap_rate, kap_rate_bethe

    echo = {
        "k": args.k,
        "quad_nodes": args.quad_nodes,
        "grid_size": args.grid_size,
        "seed": args.seed,
    }
    if args.sweep:
        rows = _sweep_rows(
            _parse_sweep(args.sweep),
            lambda c: (kap_rate(args.k, c, args.quad_nodes, args.grid_size),),
        )
        _emit_table(args, "ap-avoidance-rate", echo, ["c", "rate", "status"], rows)
        return 0
    rate = kap_rate(args.k, _require(args, "c"), args.quad_nodes, args.grid_size)
    scalars = {"k": args.k, "c": args.c, "rate": rate}
    if args.check_bethe:
        scalars["rate_bethe"] = kap_rate_bethe(args.k, args.c, args.grid_size)
    _emit_scalars(scalars, args.json)
    return 0


def _cmd_kap_profile(args):
    from .progressions import phi_fixed_point

    profile = phi_fixed_point(args.k, args.c, grid_size=args.grid_size)
    rows = [(i / args.grid_size, float(v)) for i, v in enumerate(profile)]
    echo = {"k": args.k, "c": args.c, "grid_size": args.grid_size, "seed": args.seed}
    _emit_table(args, "ap-conditional-density-profile", echo, ["t", "x_star"], rows)
    _emit_scalars(
        {
            "k": args.k,
            "c": args.c,
            "endpoint": float(profile[0]),
            "center": float(profile[args.grid_size // 2]),
        },
        args.json,
        stream=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def _cmd_bp_solve(args):
    from .bp import (
        BPParams,
        _default_delta,
        bethe_free_energy,
        bp_fixed_point,
        bp_log_partition,
        solve_zeta,
    )

    graph = _read_graph(args.file)
    k = args.k or graph.uniformity()
    if k is None:
        raise ValueError("graph is not uniform; pass --k explicitly")
    delta = args.delta or _default_delta(graph)
    if args.zeta is None and args.eta is None:
        raise ValueError("pass either --zeta or --eta")
    if args.zeta is not None:
        zeta = args.zeta
        params = BPParams(k, args.c, zeta, delta)
        x = bp_fixed_point(graph, params, tol=args.tol)
    else:
        zeta, x = solve_zeta(graph, k, args.c, args.eta, delta=delta)
        params = BPParams(k, args.c, zeta, delta)
    marginal_scale = delta ** (-1.0 / (k - 1))
    rows = [(v, float(x[v]), float(x[v]) * marginal_scale) for v in range(len(x))]
    echo = {"file": args.file, "k": k, "c": args.c, "zeta": zeta, "delta": delta}
    _emit_table(args, "bp-fixed-point", echo, ["vertex", "x_star", "marginal"], rows)
    _emit_scalars(
        {
            "bethe_free_energy": bethe_free_energy(graph, params, x),
            "log_z_bp": bp_log_partition(graph, params),
            "zeta": zeta,
            "delta_contraction": params.margin,
        },
        args.json,
        stream=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def _cmd_exact_check(args):
    from .gibbs import ModelParams, summarize, verify_identities

    graph = _read_graph(args.file)
    params = ModelParams(args.lam, args.zeta)
    worst = {"occupied_split": 0.0, "unoccupied_split": 0.0, "edge_deletion": 0.0, "conditional": 0.0}
    for v in range(graph.num_vertices):
        for e in range(graph.num_edges):
            res = verify_identities(graph, params, v, e, unsafe_size=args.unsafe_size)
            worst["occupied_split"] = max(worst["occupied_split"], res.occupied_split)
            worst["unoccupied_split"] = max(worst["unoccupied_split"], res.unoccupied_split)
            worst["edge_deletion"] = max(worst["edge_deletion"], res.edge_deletion)
            worst["conditional"] = max(worst["conditional"], res.conditional)
    summary = summarize(graph, params, unsafe_size=args.unsafe_size)
    if args.out:
        rows = [(v, float(m)) for v, m in enumerate(summary.marginals)]
        echo = {"file": args.file, "lam": args.lam, "zeta": args.zeta}
        _emit_table(args, "exact-gibbs-summary", echo, ["vertex", "marginal"], rows)
    ok = max(worst.values()) < args.tol
    _emit_scalars(
        {
            **worst,
            "tolerance": args.tol,
            "pass": ok,
            "log_z": summary.log_z,
            "mean_size": summary.mean_size,
            "var_size": summary.var_size,
            "mean_edges": summary.mean_edges,
            "var_edges": summary.var_edges,
        },
        args.json,
    )
    if not ok:
        from .errors import ConvergenceError

        raise ConvergenceError(
            f"identity residual {max(worst.values()):.3e} above {args.tol}",
            residual=max(worst.values()),
        )
    return 0


def _cmd_mc_estimate(args):
    from .gibbs import lower_tail_exact, mc_lower_tail

    graph = _read_graph(args.file)
    est, err = mc_lower_tail(graph, args.p, args.eta, args.samples, args.seed)
    scalars = {"estimate": est, "stderr": err, "samples": args.samples, "seed": args.seed}
    if graph.num_vertices <= 22:
        mean_edges = sum(args.p ** len(e) for e in graph.edges)
        scalars["exact"] = lower_tail_exact(graph, args.p, int(args.eta * mean_edges))
    _emit_scalars(scalars, args.json)
    return 0


def _cmd_weitz_verify(args):
    import numpy as np

    from .gibbs import ModelParams
    from .weitz import weitz_equality_residual

    graph = _read_graph(args.file)
    params = ModelParams(args.lam, args.zeta)
    rng = np.random.default_rng(args.seed)
    vertices = [args.vertex] if args.vertex is not None else range(graph.num_vertices)
    worst = 0.0
    for v in vertices:
        vo = rng.permutation(graph.num_vertices).tolist()
        eo = rng.permutation(graph.num_edges).tolist()
        worst = max(
            worst,
            weitz_equality_residual(
                graph, v, params, vo, eo, unsafe_size=args.unsafe_size
            ),
        )
    ok = worst < args.tol
    _emit_scalars({"max_residual": worst, "tolerance": args.tol, "pass": ok}, args.json)
    if not ok:
        from .errors import ConvergenceError

        raise ConvergenceError(f"marginal-equality residual {worst:.3e}", residual=worst)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bplt",
        description="Lower-tail and non-existence rates for p-random subsets "
        "of k-uniform hypergraphs via belief propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", help="CSV output path (stdout if omitted)")
        p.add_argument("--json", action="store_true", help="scalar block as JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sweep", help="lo:hi:steps sweep over the lead parameter")
        p.add_argument(
            "--plot-script",
            help="also write a small matplotlib script for the CSV (needs --out)",
        )

    p = sub.add_parser("rate-gnp", help="binomial-model lower-tail rate")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--eta", type=float, default=0.0)
    p.set_defaults(func=_cmd_rate_gnp)

    p = sub.add_parser("rate-gnm", help="fixed-size-model lower-tail rate")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=float)
    p.add_argument("--eta", type=float, default=0.0)
    p.set_defaults(func=_cmd_rate_gnm)

    p = sub.add_parser("rate-subgraph", help="pattern-avoidance rate for a subgraph")
    common(p)
    p.add_argument("--subgraph", required=True, help="K<r>/C<l>/P<l> or @file")
    p.add_argument("--c", type=float)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--model", choices=("gnp", "gnm"), default="gnp")
    p.set_defaults(func=_cmd_rate_subgraph)

    p = sub.add_parser("rate-kap", help="k-term progression avoidance rate")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--quad-nodes", type=int, default=64)
    p.add_argument("--grid-size", type=int, default=800)
    p.add_argument("--check-bethe", action="store_true", help="also print the one-fixed-point formula")
    p.set_defaults(func=_cmd_rate_kap)

    p = sub.add_parser("kap-profile", help="conditional density profile curve")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=2000)
    p.set_defaults(func=_cmd_kap_profile)

    p = sub.add_parser("bp-solve", help="BP fixed point on a hypergraph file")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--zeta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--delta", type=int)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_bp_solve)

    p = sub.add_parser("exact-check", help="partition-function identity suite")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(func=_cmd_exact_check)

    p = sub.add_parser("mc-estimate", help="Monte Carlo lower-tail estimate")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_mc_estimate)

    p = sub.add_parser("weitz-verify", help="marginal equality on a hypergraph file")
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(func=_cmd_weitz_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    from .errors import ConvergenceError, DomainError, SizeGuardError

    try:
        args = _load_config(args, parser)
        return args.func(args)
    except ConvergenceError as exc:
        detail = f" (residual {exc.residual:.3e})" if exc.residual is not None else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 3
    except (DomainError, SizeGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
