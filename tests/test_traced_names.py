"""Every function the benchmark's tracer hooks still exists in the package."""

import ast
import importlib
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(_TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("target", _targets())
def test_traced_target_resolves(target):
    module, name = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"vbpoisson.{module}"), name, None))
