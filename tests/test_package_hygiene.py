"""The package holds no floating-point numbers and imports nothing outside
the standard library, as the README promises, and builds no tuple from a
generator; checked on the syntax tree of every module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "k3lattices"
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_NAMES = {("math", "inf"), ("math", "nan")}


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert PACKAGE / "polynomials.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_constants_or_calls(path):
    for node in ast.walk(tree(path)):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), where
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", where
        # the float constants of math, read as math.inf or imported by name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert (node.value.id, node.attr) not in FLOAT_NAMES, where
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            assert not {("math", a.name) for a in node.names} & FLOAT_NAMES, where


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"__future__"}
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:      # relative: the package itself
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in allowed or top == "k3lattices", f"{path.name}: {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tuple_of_a_generator(path):
    # CPython sizes tuple(<generator>) by a guess and resizes it, which
    # bypasses the per-size tuple free lists on the way in but not on the
    # way out, so a long-running process fills every list to its cap
    # (about 4 MB on 64-bit CPython 3.11); tuple([...]) takes the exact
    # size from those lists
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "tuple" and node.args:
            assert not isinstance(node.args[0], ast.GeneratorExp), \
                f"{path.name}:{node.lineno}"
