"""The outputs pinned in ``tests/golden.json``, recomputed and compared bit
for bit; ``scripts/golden.py --write`` regenerates the file."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_numbers():
    doc = json.loads(golden.GOLDEN.read_text())
    if doc["environment"] != golden.environment():
        pytest.skip(
            f"golden numbers recorded under {doc['environment']}, running under "
            f"{golden.environment()}: a bitwise comparison needs the same numpy and dispatch"
        )
    lines = golden.differences(doc["values"], golden.compute())
    assert not lines, "golden numbers moved:\n" + "\n".join(lines)


def test_ulps():
    assert golden.ulps(1.0, 1.0) == 0
    assert golden.ulps(1.0, 1.0 + 2.0**-52) == 1
    assert golden.ulps(-0.0, 0.0) == 0
    assert golden.ulps(-5e-324, 5e-324) == 2
    assert golden.ulps(-1.0, -1.0 - 2.0**-52) == 1


def test_differences_name_each_moved_value():
    want = {"a": (0.5).hex(), "b": "ab" * 32, "c": (1.0).hex()}
    got = {"a": (0.5 + 2.0**-53 * 3).hex(), "b": "cd" * 32, "d": (1.0).hex()}
    assert golden.differences(want, got) == [
        "a: 0.5 -> 0.5000000000000003 (3 ulp)",
        f"b: digest {'ab' * 6} -> {'cd' * 6}",
        "c: missing",
        "d: new",
    ]
