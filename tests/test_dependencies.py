"""numpy is the only run-time dependency: no library module imports scipy,
and a rate run that solves for the penalty loads none of it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
