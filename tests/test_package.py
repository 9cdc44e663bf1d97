"""Package surface: what chiralchain exports."""

import ast
import importlib
from pathlib import Path

import chiralchain


def test_package_imports_are_in_submodule_all():
    tree = ast.parse(Path(chiralchain.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"chiralchain.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert not missing, f"chiralchain.{node.module}.__all__ lacks {missing}"
