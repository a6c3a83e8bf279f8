import ast
import subprocess
import sys
from pathlib import Path

import pytest

import k3lat

# the library modules whose results must be exact (cli's timing is not one)
EXACT_MODULES = ("arith", "linalg", "lattice", "forms", "genus", "enumeration",
                 "census", "cm")
INEXACT_MATH = {"sqrt", "log", "exp"}


def _inexact(tree):
    """Nodes that bring in floating point: a float constant (so ** 0.5 too),
    a float(...) call, math.sqrt/log/exp, or a power whose exponent is a
    true division such as ** (1 / 2)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node
        elif (isinstance(node, ast.Attribute) and node.attr in INEXACT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name in INEXACT_MATH for a in node.names)):
            yield node
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)):
            yield node


def _names(tree):
    """Every identifier a module uses, imports (with the module of a
    from-import) or defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_import_loads_no_submodule():
    code = "import sys, k3lat; print([m for m in sys.modules if m.startswith('k3lat.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_are_the_objects_of_their_home_modules():
    for name in k3lat.__all__:
        obj = getattr(k3lat, name)
        assert obj.__module__.startswith("k3lat.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert k3lat.census is sys.modules["k3lat.census"]
    namespace = {}
    exec("from k3lat import *", namespace)
    assert set(k3lat.__all__) <= set(namespace)
    assert set(k3lat.__all__) <= set(dir(k3lat))
    assert "Lattice" in k3lat.__all__ and "vectors_of_norm" in k3lat.__all__


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_use_no_floating_point(module):
    path = Path(k3lat.__file__).with_name(f"{module}.py")
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in _inexact(ast.parse(path.read_text(encoding="utf-8")))]
    assert not hits, hits


@pytest.mark.parametrize("source", [
    "x = 1.5", "y = float(3)", "import math\nr = math.sqrt(2)", "z = 2 ** 0.5",
    "from math import log", "w = 2 ** (1 / 2)", "c = 1j"])
def test_the_float_guard_sees_each_construct(source):
    assert list(_inexact(ast.parse(source))), source


def test_only_lattice_eliminates_gram_matrices():
    # determinant, signature and positivity come from one LDL^T per Lattice;
    # only the short-vector descent reads its rows
    root = Path(k3lat.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in root.glob("*.py")}
    users = {name for name, tree in trees.items() if "ldl" in set(_names(tree))}
    assert users <= {"linalg.py", "lattice.py"}, users
    readers = {name for name, tree in trees.items() if "_elimination" in set(_names(tree))}
    assert readers <= {"lattice.py", "enumeration.py"}, readers
    defined = {node.name for node in trees["linalg.py"].body
               if isinstance(node, ast.FunctionDef)}
    assert "determinant" not in defined


@pytest.mark.parametrize("source", [
    "from .linalg import ldl", "from .linalg import ldl as f", "m = linalg.ldl(g)",
    "def ldl(g): pass"])
def test_the_ldl_guard_sees_each_construct(source):
    assert "ldl" in set(_names(ast.parse(source))), source


def test_enumeration_imports_no_fractions():
    # the short-vector kernel takes integer Gram matrices only
    path = Path(k3lat.__file__).with_name("enumeration.py")
    names = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert not names & {"fractions", "Fraction"}, names & {"fractions", "Fraction"}


@pytest.mark.parametrize("source", [
    "import fractions", "from fractions import Fraction as F", "import fractions as f",
    "def f():\n    from fractions import Fraction"])
def test_the_fractions_guard_sees_each_construct(source):
    assert "fractions" in set(_names(ast.parse(source))), source
