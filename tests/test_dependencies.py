"""numpy is the only run-time dependency: no library module imports scipy,
and a rate run that solves for the penalty loads none of it.  The public
names of ``bplt`` and the signatures of its public functions and generators
are pinned, so an export or an option is added or removed only on purpose;
every name a submodule's ``__all__`` lists is defined there; no public
name takes a per-call iteration or node cap; and every switch, a public
keyword that defaults to False or a ``store_true`` flag, is turned on by
some test, script or benchmark."""

import argparse
import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import bplt
import bplt.generators

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_library_module_imports_scipy():
    # ast.walk reaches imports inside functions too, so lazy imports count
    paths = sorted((SRC / "bplt").glob("*.py"))
    assert paths
    for path in paths:
        modules = set(_imported_modules(ast.parse(path.read_text(), str(path))))
        assert not {m for m in modules if m.split(".")[0] == "scipy"}, path.name


def test_rate_gnp_loads_no_scipy():
    # a fresh interpreter, since the test suite itself imports scipy
    code = (
        "import json, sys\n"
        "from bplt import cli\n"
        "cli.main(['rate-gnp', '--k', '3', '--c', '0.8', '--eta', '0.2'])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')),"
        " file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(done.stderr.splitlines()[-1]) == []
    assert "rate,-0.038237507927637193" in done.stdout.splitlines()


PUBLIC_NAMES = [
    "BPParams", "ConvergenceError", "DomainError", "GibbsSummary",
    "LabeledHypertree", "ModelParams", "Multihypergraph", "SimpleGraph",
    "SizeGuardError", "SubgraphProfile", "Thresholds", "TreeLikeReport",
    "ap_degree", "ap_hypergraph", "bethe_free_energy", "bp_apply", "bp_fixed_point",
    "bp_log_partition", "bp_lower_tail_rate", "build_saw_tree", "build_weitz_tree",
    "contraction_margin", "copies_per_edge", "degree_coefficient", "degree_stats",
    "discrete_profile_gap", "glauber_marginals", "is_linear_hypertree",
    "kap_marginal_check", "kap_rate",
    "kap_rate_bethe", "lambert_w0", "lower_tail_exact", "mc_lower_tail", "named_graph",
    "parse_hypergraph", "partition_function", "phi_apply", "phi_fixed_point",
    "phi_threshold", "rate_gnm", "rate_gnp", "regular_fixed_point", "relabel_vertices",
    "solve_zeta", "solve_zeta_regular", "subgraph_hypergraph",
    "subgraph_profile", "subgraph_rate", "summarize", "thresholds", "tree_ratio",
    "tree_root_marginal", "verify_identities", "weitz_equality_residual",
    "write_hypergraph",
]


def test_public_names():
    # submodules become attributes of the package once any test imports them
    names = sorted(
        n for n in dir(bplt)
        if not n.startswith("_") and not isinstance(getattr(bplt, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


# str(inspect.signature(f)) of every function in PUBLIC_NAMES and in
# bplt.generators.__all__
SIGNATURES = {
    "ap_degree": "(k, n, t)",
    "ap_hypergraph": "(k, n)",
    "bethe_free_energy": "(graph, params, x)",
    "bp_apply": "(graph, params, x)",
    "bp_fixed_point": "(graph, params, tol=1e-12)",
    "bp_log_partition": "(graph, params, method='bethe', quad_nodes=64)",
    "bp_lower_tail_rate": "(graph, k, c, eta, near_regular=False)",
    "build_saw_tree": "(graph, vertex)",
    "build_weitz_tree": "(graph, vertex, vertex_order=None, edge_order=None)",
    "contraction_margin": "(k, c, zeta)",
    "copies_per_edge": "(graph, n)",
    "degree_coefficient": "(k)",
    "degree_stats": "(graph, k=None)",
    "discrete_profile_gap": "(k, n, c, zeta=1.0, tol=1e-10)",
    "glauber_marginals": "(graph, params, num_chains, sweeps, seed)",
    "is_linear_hypertree": "(graph)",
    "kap_marginal_check": "(k, c, n, grid_size=2000)",
    "kap_rate": "(k, c, quad_nodes=64, grid_size=800)",
    "kap_rate_bethe": "(k, c, grid_size=2000)",
    "lambert_w0": "(y)",
    "lower_tail_exact": "(graph, p, threshold)",
    "mc_lower_tail": "(graph, p, eta, samples, seed)",
    "named_graph": "(name)",
    "parse_hypergraph": "(text)",
    "partition_function": "(graph, params)",
    "phi_apply": "(k, c, f, zeta=1.0)",
    "phi_fixed_point": "(k, c, tol=1e-12, grid_size=2000, method='scaled', zeta=1.0)",
    "phi_threshold": "(k)",
    "rate_gnm": "(k, b, eta)",
    "rate_gnp": "(k, c, eta)",
    "regular_fixed_point": "(k, c, zeta)",
    "relabel_vertices": "(graph, perm)",
    "solve_zeta": "(graph, k, c, eta, tol=1e-10, near_regular=False, delta=None, fp_tol=1e-13)",
    "solve_zeta_regular": "(k, c, eta)",
    "subgraph_hypergraph": "(graph, n)",
    "subgraph_profile": "(graph)",
    "subgraph_rate": "(graph, c, eta, model='gnp')",
    "summarize": "(graph, params)",
    "thresholds": "(k, eta)",
    "tree_ratio": "(tree, params)",
    "tree_root_marginal": "(tree, params)",
    "verify_identities": "(graph, params, v, edge_id)",
    "weitz_equality_residual": "(graph, vertex, params, vertex_order=None, edge_order=None)",
    "write_hypergraph": "(graph)",
    "random_multihypergraph": (
        "(rng, max_vertices=9, max_edges=8, max_edge_size=3, allow_empty=False,"
        " multi_edge_prob=0.2)"
    ),
    "random_k_uniform": "(rng, num_vertices, k, num_edges, allow_multi=False)",
    "random_linear_hypertree": "(rng, num_vertices, max_edge_size=3)",
}


def test_public_signatures():
    functions = {n: getattr(bplt, n) for n in PUBLIC_NAMES if inspect.isfunction(getattr(bplt, n))}
    functions.update((n, getattr(bplt.generators, n)) for n in bplt.generators.__all__)
    assert {n: str(inspect.signature(f)) for n, f in functions.items()} == SIGNATURES


def test_every_export_is_defined():
    # a name left in __all__ after its removal breaks `from bplt.<module> import *`
    names = [m.name for m in pkgutil.iter_modules(bplt.__path__)]
    modules = [importlib.import_module(f"bplt.{name}") for name in names]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert exporting
    for module in exporting:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__


def test_caps_are_module_constants():
    # one application cap (bp._MAX_APPLICATIONS) and one node cap
    # (weitz._NODE_CAP), read by the engines, instead of keywords
    engines = [
        bplt.bp._iterate, bplt.bp._coupling_integral,
        bplt.progressions._grid_fixed_point, bplt.weitz._walk_tree,
    ]
    functions = [f for f in map(bplt.__dict__.get, PUBLIC_NAMES) if inspect.isfunction(f)]
    for fn in functions + engines:
        params = set(inspect.signature(fn).parameters)
        assert not params & {"max_iter", "max_nodes"}, fn.__name__


def test_every_switch_is_turned_on():
    # a switch that nothing turns on is a behaviour nothing exercises: make
    # it the default or retire it
    from bplt.cli import _build_parser

    trees = [
        ast.parse(path.read_text(), str(path))
        for folder in ("tests", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    turned_on = {
        kw.arg
        for node in nodes if isinstance(node, ast.Call)
        for kw in node.keywords if isinstance(kw.value, ast.Constant) and kw.value.value is True
    }
    strings = {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    functions = [f for f in map(bplt.__dict__.get, PUBLIC_NAMES) if inspect.isfunction(f)]
    functions += [getattr(bplt.generators, n) for n in bplt.generators.__all__]
    switches = {
        f"{fn.__name__}({name}=True)"
        for fn in functions
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is False and name not in turned_on
    }
    flags = {
        f"{command} {action.option_strings[0]}"
        for command, parser in _build_parser()[1].items()
        for action in parser._actions
        if isinstance(action, argparse._StoreTrueAction) and action.option_strings[0] not in strings
    }
    assert sorted(switches | flags) == []
