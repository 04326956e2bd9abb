"""The package holds no floating-point numbers and imports nothing outside
the standard library, as the README promises, and builds no tuple from a
generator; checked on the syntax tree of every module.  No module of the
package or of the tests imports a name it never uses, every public
function or class of the package is either used by the package or
exported, and the name of every public method or property and of every
record field of a package class is read as an attribute somewhere in the
package.  Start-up stays cheap: no module imports dataclasses, inspect,
datetime or pathlib or calls exec or eval, and importing the command line
loads none of them.  The arithmetic layers import none of fixtures, verify
and cli, which hold the facts of the paper's scenario and the front end.
Every function and method that perfbench's tracer names exists where the
tracer looks it up."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "k3lattices"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
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


SLOW_IMPORTS = ("dataclasses", "inspect", "datetime", "pathlib")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_datetime_exec_or_eval(path):
    # the dataclass decorator execs each generated method at import time
    for node in ast.walk(tree(path)):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            assert not {a.name for a in node.names} & set(SLOW_IMPORTS), where
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in SLOW_IMPORTS, where
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("exec", "eval"), where


def test_cli_import_loads_no_slow_modules():
    # -S keeps site, which may load pathlib itself, out of the interpreter
    script = ("import sys; before = set(sys.modules); import k3lattices.cli; "
              f"print(sorted(set(sys.modules) - before & set({SLOW_IMPORTS!r})))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[]\n"


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


LAYERS = ("intmat", "lattices", "sublattices", "polynomials", "fibration", "fixedlocus",
          "_record")
FRONT = {"fixtures", "verify", "cli"}


@pytest.mark.parametrize("name", LAYERS)
def test_arithmetic_layers_import_no_fixtures_verify_or_cli(name):
    # facts about the paper's scenario live in fixtures and verify, above the layers
    for node in ast.walk(tree(PACKAGE / f"{name}.py")):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "k3lattices":
                continue
            # "from . import verify" names the module among the imported names
            modules = [base] + [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            assert module.split(".")[-1] not in FRONT, f"{name}.py:{node.lineno} {module}"


@pytest.mark.parametrize("name", ["sublattices.py", "verify.py"])
def test_no_fractions_on_the_overlattice_path(name):
    # glue and discriminant generators are integer vectors over one denominator
    for node in ast.walk(tree(PACKAGE / name)):
        if isinstance(node, ast.Import):
            assert "fractions" not in [alias.name for alias in node.names], name
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions", name


def _exported(module):
    """The strings listed in a module-level __all__."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    module = tree(path)
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - _exported(module))
    assert not unused, [f"{path.name}:{imported[name]} {name}" for name in unused]


# looked up by name by perfbench/tracing.py, so it waits on ROADMAP item 0
UNUSED_ALLOWED = {"unimodular_inverse"}


def _names_used(node):
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_every_public_definition_is_used_or_exported():
    defined, used, exported = {}, set(), set()
    for path in MODULES:
        module = tree(path)
        exported |= _exported(module)
        for node in module.body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
                names.discard(node.name)     # a def does not use itself
            used |= names
    unused = sorted(f"{defined[name]}: {name}"
                    for name in set(defined) - used - exported - UNUSED_ALLOWED)
    assert not unused, unused


def _attributes_read():
    """Every name read as an attribute (x.name) in the package."""
    return {node.attr for path in MODULES for node in ast.walk(tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _classes():
    return [cls for path in MODULES for cls in tree(path).body
            if isinstance(cls, ast.ClassDef)]


def test_every_public_method_is_read_in_the_package():
    # a public method or property of a package class must be read as an
    # attribute (x.name) somewhere in the package, or it is dead code
    defined = {f"{cls.name}.{node.name}" for cls in _classes() for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    read = _attributes_read()
    unread = sorted(name for name in defined if name.split(".")[1] not in read)
    assert not unread, unread


def _slots(cls):
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def test_every_record_field_is_read_in_the_package():
    # a field that no line of the package reads is data carried for nothing
    read = _attributes_read()
    unread = sorted(f"{cls.name}.{field}" for cls in _classes()
                    for field in _slots(cls) if field != "__dict__" and field not in read)
    assert not unread, unread


def test_every_function_the_tracer_names_exists():
    # the tracer looks these up by (layer, qualified name) and fails every
    # traced run on one it cannot find: a function must be defined in its
    # layer module, a method in the class's own namespace
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    named = {(layer, q) for layer, pairs in tracing.NAMED.items() for q, _ in pairs}
    methods = {(layer, q) for layer, names in tracing.METHODS.items() for q in names}
    missing = []
    for layer, qualname in sorted(named | methods):
        module = importlib.import_module(f"k3lattices.{layer}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            obj = vars(module).get(qualname)
            found = callable(obj) and obj.__module__ == module.__name__
        if not found:
            missing.append(f"{layer}.{qualname}")
    assert not missing, missing
