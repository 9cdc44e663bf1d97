"""Package surface: what chiralchain exports."""

import ast
import importlib
import pkgutil
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


def test_submodule_all_names_exist():
    # a stale entry would break ``from chiralchain.<module> import *``
    names = [info.name for info in pkgutil.iter_modules(chiralchain.__path__)]
    assert "oracle" in names
    for name in names:
        module = importlib.import_module(f"chiralchain.{name}")
        stale = [n for n in module.__all__ if not hasattr(module, n)]
        assert not stale, f"chiralchain.{name}.__all__ names {stale}, which it lacks"


def test_photonstats_imports_only_core():
    # the measurement layer knows nothing of the model layers, OD binning included
    from chiralchain import photonstats
    tree = ast.parse(Path(photonstats.__file__).read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    absolute = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and "chiralchain" in ast.unparse(node)]
    assert package == {"core"} and not absolute
