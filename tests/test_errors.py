"""Package-wide conventions for errors and invariant checks."""

import ast
import importlib
import inspect
import pkgutil

import contactgeom


def test_no_module_has_assert():
    # advertised invariants must survive python -O as InvariantError
    names = [m.name for m in pkgutil.iter_modules(contactgeom.__path__)]
    assert "separator" in names and "verifier" in names
    found = []
    for name in names:
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{name}")))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
