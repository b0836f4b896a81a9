"""numpy is the only run-time dependency: no library module imports scipy,
and a rate run that solves for the penalty loads none of it.  The public
names of ``bplt`` are pinned, so an export is removed only on purpose, and
none of them takes a per-call iteration or node cap."""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import bplt

SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert "rate,-0.038237507927637027" in done.stdout.splitlines()


PUBLIC_NAMES = [
    "BPParams", "ConvergenceError", "DomainError", "GibbsSummary",
    "LabeledHypertree", "ModelParams", "Multihypergraph", "SimpleGraph",
    "SizeGuardError", "SubgraphProfile", "Thresholds", "TreeLikeReport",
    "ap_degree", "ap_hypergraph", "bethe_free_energy", "bp_apply", "bp_fixed_point",
    "bp_log_partition", "bp_lower_tail_rate", "build_saw_tree", "build_weitz_tree",
    "contraction_margin", "copies_per_edge", "degree_coefficient", "degree_stats",
    "discrete_profile_gap", "glauber_marginals", "glauber_sample",
    "is_linear_hypertree", "kap_marginal_check", "kap_rate",
    "kap_rate_bethe", "lambert_w0", "lower_tail_exact", "mc_lower_tail", "named_graph",
    "parse_hypergraph", "partition_function", "phi_apply", "phi_fixed_point",
    "phi_threshold", "rate_gnm", "rate_gnp", "regular_fixed_point", "relabel_vertices",
    "solve_zeta", "solve_zeta_regular", "structure_report", "subgraph_hypergraph",
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
