"""Command-line front end: argument parsing, dispatch, CSV emission.

Each subcommand accepts only the flags it reads.  Scalar results print as
``key,value`` lines (or one JSON object with ``--json``); tables (for the
rate commands, ``--sweep`` tables) go to ``--out`` when given, stdout
otherwise, always with a comment line naming the formula and echoing the
full parameter set so runs are auditable.  Floats use 17 significant
digits, and the two sampling commands (``mc-estimate``, ``weitz-verify``)
take ``--seed`` (default 0), so repeated runs with the same flags are
byte-identical.

Exit codes: 0 success, 2 validation/domain error, 3 numerical
non-convergence (with the residual reported).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import gibbs
from .bp import (
    BPParams, _default_delta, bethe_free_energy, bp_fixed_point, contraction_margin, solve_zeta
)
from .errors import ConvergenceError, DomainError, SizeGuardError
from .hypergraph import parse_hypergraph
from .progressions import kap_rate, kap_rate_bethe, phi_fixed_point
from .rates import (
    SimpleGraph,
    named_graph,
    rate_gnm,
    rate_gnp,
    rpartite_bound_gnm,
    rpartite_bound_gnp,
    subgraph_rate,
)
from .weitz import _check_vertex, build_weitz_tree, tree_root_marginal


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


def _emit_table(args, formula, params_echo, columns, rows, scalars=None):
    """The table, to ``--out`` or else stdout, with a comment line naming the
    formula and echoing the parameters; then any scalar block, to stdout
    after a table sent to ``--out``, else to stderr, so that stdout holds
    only the table."""
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
    if scalars is not None:
        _emit_scalars(scalars, args.json, stream=sys.stdout if args.out else sys.stderr)


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


def _node_count(text):
    """NODES of ``--check-quadrature``: an int of at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"NODES must be an int >= 1, got {text!r}")
    return int(text)


def _parse(parser, argv):
    """Parse argv with argparse, each token once; a flag given twice takes
    its later value.

    No flag may be abbreviated, since an abbreviation is a second spelling
    of a flag.  A rate command's ``--out`` without ``--sweep``, and
    ``--json`` or ``--check-quadrature`` with it, are refused before any
    work.
    """
    args = parser.parse_args(argv)
    if "sweep" in args:
        if args.sweep is None and args.out:
            raise ValueError("--out writes the --sweep table; pass --sweep")
        if args.sweep and (args.json or getattr(args, "check_quadrature", None) is not None):
            raise ValueError("--json and --check-quadrature print scalars; drop them or --sweep")
    return args


def _read_graph(path):
    with open(path) as fh:
        return parse_hypergraph(fh.read())


def _pattern_graph(name):
    if name.startswith("@"):
        graph = _read_graph(name[1:])
        return SimpleGraph(graph.num_vertices, graph.edges)
    return named_graph(name)


def _run_rate(args, lead, formula, columns, echo, scalars):
    """Shared body of the rate commands.

    With ``--sweep`` the lead parameter runs over the sweep points, each
    giving a row of the lead value, the ``columns`` entries of
    ``scalars(value)`` and a status, with ``echo`` in the comment line.
    Otherwise ``scalars(value)`` at the lead parameter's flag, which the
    parser takes in place of ``--sweep``, is printed as the scalar block.
    """
    if args.sweep is None:
        _emit_scalars(scalars(getattr(args, lead)), args.json)
        return 0
    rows = []
    for v in _parse_sweep(args.sweep):
        try:
            out = scalars(v)
            rows.append((v, *(out[c] for c in columns), "ok"))
        except DomainError:
            rows.append((v, *[None] * len(columns), "out-of-domain"))
    if all(r[-1] != "ok" for r in rows):
        raise DomainError("no sweep point lies inside the admissible range")
    _emit_table(args, formula, echo, [lead, *columns, "status"], rows)
    return 0


def _cmd_rate_gnp(args):
    return _run_rate(
        args, "c", "gnp-lower-tail-rate", ["rate"], {"k": args.k, "eta": args.eta},
        lambda c: {"k": args.k, "c": c, "eta": args.eta, "rate": rate_gnp(args.k, c, args.eta)},
    )


def _cmd_rate_gnm(args):
    return _run_rate(
        args, "b", "gnm-lower-tail-rate", ["rate"], {"k": args.k, "eta": args.eta},
        lambda b: {"k": args.k, "b": b, "eta": args.eta, "rate": rate_gnm(args.k, b, args.eta)},
    )


def _cmd_rate_subgraph(args):
    pattern = _pattern_graph(args.subgraph)
    bound = rpartite_bound_gnp if args.model == "gnp" else rpartite_bound_gnm

    def scalars(c):
        result = subgraph_rate(pattern, c, args.eta, args.model)
        return {
            "subgraph": args.subgraph,
            "model": args.model,
            "c": c,
            "eta": args.eta,
            "rate": result.rate,
            "k": result.k,
            "m2": str(result.m2),
            "aut": result.aut,
            "chromatic_number": result.chromatic_number,
            "delta_exponent": result.delta_exponent,
            "rpartite_bound": bound(pattern, c),
            "p_scaling": result.p_scaling,
            "m_scaling": result.m_scaling,
        }

    return _run_rate(
        args, "c", f"subgraph-lower-tail-rate-{args.model}", ["rate", "rpartite_bound"],
        {"subgraph": args.subgraph, "model": args.model, "eta": args.eta},
        scalars,
    )


def _cmd_rate_kap(args):
    def scalars(c):
        out = {"k": args.k, "c": c, "rate": kap_rate_bethe(args.k, c, args.grid_size)}
        if args.check_quadrature is not None:
            out["rate_quadrature"] = kap_rate(args.k, c, args.check_quadrature, args.grid_size)
        return out

    return _run_rate(
        args, "c", "ap-avoidance-rate", ["rate"], {"k": args.k, "grid_size": args.grid_size},
        scalars,
    )


def _cmd_kap_profile(args):
    n = args.grid_size
    profile = phi_fixed_point(args.k, args.c, grid_size=n)
    rows = [(i / n, float(v)) for i, v in enumerate(profile)]
    echo = {"k": args.k, "c": args.c, "grid_size": n}
    scalars = {
        "k": args.k, "c": args.c, "endpoint": float(profile[0]), "center": float(profile[n // 2])
    }
    _emit_table(args, "ap-conditional-density-profile", echo, ["t", "x_star"], rows, scalars)
    return 0


def _cmd_bp_solve(args):
    graph = _read_graph(args.file)
    k = graph.uniformity()
    if k is None:
        raise ValueError("bp-solve needs a uniform graph with at least one edge")
    dmax = _default_delta(graph, k)
    delta = dmax if args.delta is None else args.delta
    if args.zeta is not None:
        zeta = args.zeta
        x = bp_fixed_point(graph, BPParams(k, args.c, zeta, delta), tol=args.tol)
    else:
        zeta, x = solve_zeta(graph, k, args.c, args.eta, delta=delta, fp_tol=args.tol)
    params = BPParams(k, args.c, zeta, delta)
    bethe = bethe_free_energy(graph, params, x)
    marginal_scale = delta ** (-1.0 / (k - 1))  # also the activity scale of log Z
    rows = [(v, float(x[v]), float(x[v]) * marginal_scale) for v in range(len(x))]
    echo = {"file": args.file, "k": k, "c": args.c, "zeta": zeta, "delta": delta}
    scalars = {
        "bethe_free_energy": bethe,
        "log_z_bp": marginal_scale * bethe,
        "zeta": zeta,
        # the certificate at the caller's delta, whose Dmax/delta scales zeta
        "delta_contraction": contraction_margin(k, args.c, zeta * (dmax / delta)),
    }
    _emit_table(args, "bp-fixed-point", echo, ["vertex", "x_star", "marginal"], rows, scalars)
    return 0


def _cmd_exact_check(args):
    graph = _read_graph(args.file)
    summary, worst = gibbs._identity_check(graph, gibbs.ModelParams(args.lam, args.zeta))
    if args.out:
        rows = [(v, float(m)) for v, m in enumerate(summary.marginals)]
        echo = {"file": args.file, "lam": args.lam, "zeta": args.zeta}
        _emit_table(args, "exact-gibbs-summary", echo, ["vertex", "marginal"], rows)
    top = worst.max()
    ok = top < args.tol
    exact = {k: v for k, v in vars(summary).items() if k != "marginals"}
    _emit_scalars({**asdict(worst), "tolerance": args.tol, "pass": ok, **exact}, args.json)
    if not ok:
        raise ConvergenceError(f"identity residual {top:.3e} above {args.tol}", residual=top)
    return 0


def _cmd_mc_estimate(args):
    graph = _read_graph(args.file)
    est, err = gibbs.mc_lower_tail(graph, args.p, args.eta, args.samples, args.seed)
    scalars = {"estimate": est, "stderr": err, "samples": args.samples, "seed": args.seed}
    if graph.num_vertices <= gibbs.EXACT_GUARD:
        threshold = int(args.eta * gibbs._mean_edges(graph, args.p))
        scalars["exact"] = gibbs.lower_tail_exact(graph, args.p, threshold)
    _emit_scalars(scalars, args.json)
    return 0


def _cmd_weitz_verify(args):
    graph = _read_graph(args.file)
    params = gibbs.ModelParams(args.lam, args.zeta)
    rng = np.random.default_rng(args.seed)

    def orders():
        vertex_order = rng.permutation(graph.num_vertices).tolist()
        return vertex_order, rng.permutation(graph.num_edges).tolist()

    if args.vertex is None:
        vertices = range(graph.num_vertices)
    else:
        vertices = [_check_vertex(graph, args.vertex)]
    # refuse a graph too large to enumerate before growing any tree
    gibbs._check_guard(graph)
    roots = [tree_root_marginal(build_weitz_tree(graph, v, *orders()), params) for v in vertices]
    exact = gibbs.summarize(graph, params).marginals
    worst = max(abs(float(exact[v]) - r) for v, r in zip(vertices, roots))
    ok = worst < args.tol
    _emit_scalars({"max_residual": worst, "tolerance": args.tol, "pass": ok}, args.json)
    if not ok:
        raise ConvergenceError(f"marginal-equality residual {worst:.3e}", residual=worst)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bplt",
        description="Lower-tail and non-existence rates for p-random subsets "
        "of k-uniform hypergraphs via belief propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, *, out=False, seed=False, lead=None):
        """Subparser with the shared flags that ``func`` reads; a rate command
        takes exactly one of its ``lead`` flag and ``--sweep``."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if out:
            p.add_argument("--out", help="CSV output path (stdout if omitted)")
        p.add_argument("--json", action="store_true", help="scalar block as JSON")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if lead:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument(f"--{lead}", type=float)
            group.add_argument("--sweep", help="lo:hi:steps sweep over the lead parameter")
        return p

    p = command("rate-gnp", "binomial-model lower-tail rate", _cmd_rate_gnp, out=True, lead="c")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.0)

    p = command("rate-gnm", "fixed-size-model lower-tail rate", _cmd_rate_gnm, out=True, lead="b")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.0)

    p = command(
        "rate-subgraph", "pattern-avoidance rate for a subgraph", _cmd_rate_subgraph,
        out=True, lead="c",
    )
    p.add_argument("--subgraph", help="K<r>/C<l>/P<l> or @file", required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--model", choices=("gnp", "gnm"), default="gnp")

    p = command("rate-kap", "k-term progression avoidance rate", _cmd_rate_kap, out=True, lead="c")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid-size", type=int, default=2000)
    p.add_argument(
        "--check-quadrature", nargs="?", type=_node_count, const=64, metavar="NODES",
        help="also print the coupling-constant quadrature rate, from NODES solves (64)",
    )

    p = command(
        "kap-profile", "conditional density profile curve", _cmd_kap_profile, out=True
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=2000)

    p = command("bp-solve", "BP fixed point on a hypergraph file", _cmd_bp_solve, out=True)
    p.add_argument("--file", required=True)
    p.add_argument("--c", type=float, required=True)
    pair = p.add_mutually_exclusive_group(required=True)
    pair.add_argument("--zeta", type=float)
    pair.add_argument("--eta", type=float)
    p.add_argument("--delta", type=int)
    p.add_argument("--tol", type=float, default=1e-13)

    p = command(
        "exact-check", "partition-function identity suite", _cmd_exact_check, out=True
    )
    p.add_argument("--file", required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = command("mc-estimate", "Monte Carlo lower-tail estimate", _cmd_mc_estimate, seed=True)
    p.add_argument("--file", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=100_000)

    p = command(
        "weitz-verify", "marginal equality on a hypergraph file", _cmd_weitz_verify, seed=True
    )
    p.add_argument("--file", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)

    return parser, sub.choices


def main(argv=None):
    parser, _ = _build_parser()
    try:
        args = _parse(parser, argv)
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
