"""Each narrative demo runs to completion against the public package names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pauli_uncertainty

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_public_names_are_those_the_demos_and_the_stream_benchmark_use():
    # a top-level name no demo imports and bench/stream.py never reads is
    # surface nobody needs; a used name missing from __all__ is undeclared
    used = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "pauli_uncertainty":
                used |= {alias.name for alias in node.names}
    stream = ast.parse((ROOT / "bench" / "stream.py").read_text(encoding="utf-8"))
    for node in ast.walk(stream):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "pauli_uncertainty"
        ):
            used.add(node.attr)
    assert sorted(pauli_uncertainty.__all__) == sorted(used)
