"""The library's public surface: what it exports resolves, the names the
benchmark's tracer patches exist, and the command line imports no scipy."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import shadowrate

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_exported_name_resolves() -> None:
    missing = [name for name in shadowrate.__all__
               if not hasattr(shadowrate, name)]
    assert missing == []


def test_every_traced_attribute_resolves() -> None:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED"
                           for t in node.targets))
    assert wrapped
    missing = [(module, attr) for module, attr, _ in wrapped
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_cli_import_leaves_scipy_out() -> None:
    src = str(Path(shadowrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shadowrate.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
