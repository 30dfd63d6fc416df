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


def test_separator_calls_networkx_only_to_check_planarity():
    # the separator search runs on integer adjacency lists; networkx only
    # certifies planarity, on the one Graph built as its input
    tree = ast.parse(inspect.getsource(
        importlib.import_module("contactgeom.separator")))
    used = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "networkx"]
    names = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "networkx"]
    assert sorted(used) == ["Graph", "check_planarity"]
    assert len(names) == len(used)   # the module is never passed around
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.startswith("networkx")]


def test_verifier_does_not_use_segment_intersection():
    # charging lifts each curve set once; a per-call Fraction lift in the
    # route search is what made it slow
    tree = ast.parse(inspect.getsource(
        importlib.import_module("contactgeom.verifier")))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names
                      if a.name == "segment_intersection"]
        elif isinstance(node, ast.Name) and node.id == "segment_intersection":
            found.append(node.id)
        elif (isinstance(node, ast.Attribute)
              and node.attr == "segment_intersection"):
            found.append(node.attr)
    assert not found
