import ast
import collections
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


# the only functions whose EmbeddingMatrix._of is a tautology of the search
TRUSTED_EMBEDDING_SITES = {"embeddings", "is_isometric_definite", "identity_embedding"}


def _unchecked_embedding_sites(tree):
    """The top-level definition enclosing each _of that is not Lattice._of
    or BinaryForm._of, so EmbeddingMatrix._of under any name; "<module>"
    outside a definition."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "_of"
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("Lattice", "BinaryForm"))):
                yield getattr(top, "name", "<module>")


def test_only_library_constructions_skip_validation():
    # Lattice._of and BinaryForm._of take their entries unchecked, so only
    # code that computes them from lattices and forms it holds may call
    # them; the CLI, the certificate reader and the scripts construct
    # through the checking constructors.  EmbeddingMatrix._of is narrower:
    # only search hits, whose every Gram entry the search tested, skip the
    # check, while lifted, inverted and certificate witnesses keep it
    root = Path(k3lat.__file__).parent
    paths = [*root.glob("*.py"), *root.parents[1].joinpath("scripts").glob("*.py")]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    users = {name for name, tree in trees.items() if "_of" in set(_names(tree))}
    assert users <= {"lattice.py", "forms.py", "enumeration.py"}, users
    assert {"lattice.py", "forms.py", "enumeration.py"} <= users, users
    sites = {(name, site) for name, tree in trees.items()
             for site in _unchecked_embedding_sites(tree)}
    assert sites == {("enumeration.py", site) for site in TRUSTED_EMBEDDING_SITES}, sites


@pytest.mark.parametrize("source", [
    "lat = Lattice._of(rows)", "of = BinaryForm._of", "from .lattice import _of as f",
    "def _of(cls, rows): pass", "L = Lattice\nL._of(g)", "EmbeddingMatrix._of(s, t, c)"])
def test_the_trusted_construction_guard_sees_each_construct(source):
    assert "_of" in set(_names(ast.parse(source))), source


@pytest.mark.parametrize("source, sites", [
    ("def f(s, t, c):\n    return EmbeddingMatrix._of(s, t, c)", ["f"]),
    ("def f(hits):\n    return [EmbeddingMatrix._of(*h) for h in hits]", ["f"]),
    ("E = EmbeddingMatrix\ndef g():\n    return E._of(s, t, c)", ["g"]),
    ("w = EmbeddingMatrix._of(s, t, c)", ["<module>"]),
    ("def f():\n    return Lattice._of(g), BinaryForm._of(1, 1, 1)", [])])
def test_the_embedding_guard_names_the_enclosing_definition(source, sites):
    assert list(_unchecked_embedding_sites(ast.parse(source))) == sites


def _uses(tree):
    """(site, name) for each use of a name, by name or as an attribute, with
    the innermost function around it as the site ("<module>" outside a
    function); an import that renames a name counts as a use of it."""
    def visit(node, site):
        if isinstance(node, ast.Name):
            yield site, node.id
        elif isinstance(node, ast.Attribute):
            yield site, node.attr
        elif isinstance(node, ast.alias) and node.asname not in (None, node.name):
            yield site, node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            site = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, site)
    return visit(tree, "<module>")


def _use_sites(tree, name):
    """The innermost function using name, by name or as an attribute,
    for each use ("<module>" outside a function); an import that renames
    it counts as a use at "<module>"."""
    return {site for site, used in _uses(tree) if used == name}


# the unchecked complement, p-adic symbol (as records and as the tuples
# same_genus compares) and short-vector descent, by the callers that have
# proven the public refusals they skip
UNCHECKED_CALLERS = {
    "_complement": {("lattice.py", "orthogonal_complement"),
                    ("enumeration.py", "orbit_invariant"), ("enumeration.py", "_splits")},
    "_padic_symbol": {("genus.py", "padic_symbol")},
    "_symbol": {("genus.py", "_padic_symbol"), ("genus.py", "same_genus")},
    "_lattice_points": {("enumeration.py", "short_vectors_le"),
                        ("enumeration.py", "vectors_of_norm"),
                        ("enumeration.py", "level_walk")},
}


@pytest.mark.parametrize("name", sorted(UNCHECKED_CALLERS))
def test_unchecked_records_are_taken_only_where_proven(name):
    root = Path(k3lat.__file__).parent
    paths = [*root.glob("*.py"), *root.parents[1].joinpath("scripts").glob("*.py")]
    sites = {(path.name, site) for path in paths
             for site in _use_sites(ast.parse(path.read_text(encoding="utf-8")), name)}
    assert sites == UNCHECKED_CALLERS[name], sites


@pytest.mark.parametrize("source, sites", [
    ("def f(lat, v):\n    return _orbit_record(lat, v)", {"f"}),
    ("class C:\n    def m(self, v):\n        return self._orbit_record(v)", {"m"}),
    ("def f(ts):\n    return list(map(_orbit_record, ts))", {"f"}),
    ("def f():\n    def g():\n        return _orbit_record()\n    return g", {"g"}),
    ("from .enumeration import _orbit_record as record", {"<module>"}),
    ("from .enumeration import _orbit_record\nr = _orbit_record", {"<module>"}),
    ("def f():\n    return orbit_record(), self._orbit_records", set())])
def test_the_unchecked_record_guard_names_each_site(source, sites):
    assert _use_sites(ast.parse(source), "_orbit_record") == sites


def _field_constructions(tree):
    """The innermost function around each call that builds a CMField: a
    call of CMField by name or as an attribute, or of cls in the body of a
    class CMField ("<module>" outside a function)."""
    def visit(node, site, in_field):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and (f.id == "CMField" or in_field and f.id == "cls")
                    or isinstance(f, ast.Attribute) and f.attr == "CMField"):
                yield site
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            site = node.name
        elif isinstance(node, ast.ClassDef):
            in_field = node.name == "CMField"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, site, in_field)
    return set(visit(tree, "<module>", False))


def test_fields_are_built_only_by_their_two_constructors():
    # CMField takes only the presentations that cyclotomic and
    # imaginary_quadratic build, so no other path may build one
    root = Path(k3lat.__file__).parent
    paths = [*root.glob("*.py"), *root.parents[1].joinpath("scripts").glob("*.py")]
    sites = {(path.name, site) for path in paths
             for site in _field_constructions(ast.parse(path.read_text(encoding="utf-8")))}
    assert sites == {("cm.py", "cyclotomic"), ("cm.py", "imaginary_quadratic")}, sites


@pytest.mark.parametrize("source, sites", [
    ("def f(p, c, b):\n    return CMField(p, c, b)", {"f"}),
    ("field = cm.CMField((3, 0, 1), c, b)", {"<module>"}),
    ("class CMField:\n    @classmethod\n    def g(cls, k):\n        return cls(k)", {"g"}),
    ("def f():\n    def g():\n        return k3lat.cm.CMField(*t)\n    return g", {"g"}),
    ("class Other:\n    @classmethod\n    def g(cls):\n        return cls()", set()),
    ("def f():\n    return CMField.cyclotomic(5), cm.CMField.imaginary_quadratic(3)", set())])
def test_the_field_guard_names_each_construction(source, sites):
    assert _field_constructions(ast.parse(source)) == sites


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


def test_no_module_imports_dataclasses():
    # records derive from arith.Record, so no call pays for the dataclasses
    # import or for generating each class's methods through it
    root = Path(k3lat.__file__).parent
    users = sorted(path.name for path in root.glob("*.py")
                   if "dataclasses" in set(_names(ast.parse(path.read_text(encoding="utf-8")))))
    assert not users, users


@pytest.mark.parametrize("source", [
    "import dataclasses", "from dataclasses import dataclass", "import dataclasses as dc",
    "from dataclasses import dataclass as frozen",
    "def f():\n    from dataclasses import replace"])
def test_the_dataclasses_guard_sees_each_construct(source):
    assert "dataclasses" in set(_names(ast.parse(source))), source


def _callers(tree, callee):
    """The top-level definitions that call callee by name ("<module>" for a
    call outside a definition), each once."""
    return {getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == callee}


def test_one_split_matcher():
    # the census walk and the split strategy of the isometry search share
    # one split-and-match step, and only it runs the definite test on a split
    path = Path(k3lat.__file__).with_name("enumeration.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for callee in ("_splits", "_lift_split"):
        assert len(_callers(tree, callee)) == 1, (callee, _callers(tree, callee))
    assert _callers(tree, "_splits") == _callers(tree, "_lift_split")
    assert "_split_witness" not in _callers(tree, "is_isometric_definite")


@pytest.mark.parametrize("source, callers", [
    ("def f(l, us, k):\n    return list(_splits(l, us, k))", {"f"}),
    ("def f(xs):\n    return [_splits(*x) for x in xs]", {"f"}),
    ("def f():\n    def g():\n        return _splits()\n    return g", {"f"}),
    ("def f():\n    _splits()\ndef g():\n    _splits()", {"f", "g"}),
    ("class C:\n    def m(self):\n        return _splits()", {"C"}),
    ("x = _splits(l, us, k)", {"<module>"}),
    ("def f():\n    return splits(), self._splits", set())])
def test_the_matcher_guard_names_each_caller(source, callers):
    assert _callers(ast.parse(source), "_splits") == callers


def _entry_writes(tree):
    """(kind, loops) for each write to a matrix entry m[r][s] in tree: kind
    is "Assign" or "AugAssign", loops the number of for loops around it."""
    writes = []

    def visit(node, loops):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Subscript):
                        writes.append((type(node).__name__, loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops + isinstance(node, ast.For))

    visit(tree, 0)
    return writes


def test_one_jordan_split_step():
    # the Jordan split takes one Schur-complement step at every prime, with
    # no row/column fold: one entry write, in the update's nested loops
    path = Path(k3lat.__file__).with_name("genus.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (split,) = [node for node in tree.body
                if getattr(node, "name", None) == "_jordan_decomposition"]
    writes = _entry_writes(split)
    assert sum(kind == "Assign" and loops >= 2 for kind, loops in writes) == 1, writes
    assert all(kind == "Assign" for kind, _ in writes), writes


@pytest.mark.parametrize("source, writes", [
    ("for r in a:\n    for s in a:\n        a[r][s] = 0", [("Assign", 2)]),
    ("while a:\n    for k in a:\n        a[i][k] += a[j][k]", [("AugAssign", 1)]),
    ("a[0][0], a[1][1] = 1, 2", [("Assign", 0), ("Assign", 0)]),
    ("for r in a:\n    a[r] = [0]\n    row[r] = a[r][r]", []),
    ("def f():\n    for r in a:\n        a[r][r] -= 1", [("AugAssign", 1)])])
def test_the_split_guard_sees_each_entry_write(source, writes):
    assert _entry_writes(ast.parse(source)) == writes


def _public_definitions(tree):
    """(qualified name, name) of each top-level function and each method of
    a top-level class whose name has no leading underscore."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                yield (node.name if node is top else f"{top.name}.{node.name}"), node.name


def _unreached(entries, library):
    """(file, qualified name) of each public definition in the library trees
    (file -> tree) that the entry trees do not reach.  An entry reaches every
    name it uses and the last dotted part of each string it holds (k3bench's
    tracer names its targets so, "CMElement.__mul__", while a metric name
    such as "trace.overhead_ratio" reaches no trace); a library function of
    a reached name reaches the names it uses, and so do module-level code
    (run on import) and dunder methods (run by Python).  Names are matched
    without class or module, which test_public_names_defined_twice pins."""
    reached = {"<module>"}
    for tree in entries:
        reached |= {name for _, name in _uses(tree)}
        reached |= {node.value.rsplit(".", 1)[-1] for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    calls = collections.defaultdict(set)
    for tree in library.values():
        for site, name in _uses(tree):
            calls[site].add(name)
    reached |= {site for site in calls if site.startswith("__")}
    todo = list(reached)
    while todo:
        for name in calls[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    return {(file, qualified) for file, tree in library.items()
            for qualified, name in _public_definitions(tree) if name not in reached}


# public definitions that no command, script or k3bench workload reaches,
# each kept as a library entry point for the reason given
LIBRARY_ENTRY_POINTS = {
    ("forms.py", "apply_transform"): "checks reduce_form's transform: apply_transform(f, u) is the result",
    ("lattice.py", "Lattice.inner"): "the bilinear form on vectors, the checked face of _inner",
}


def test_every_public_definition_is_reached_from_a_command_a_script_or_k3bench():
    # a public name that only tests use is an oracle or a helper: it belongs
    # in tests/util.py, or on the list above with its reason
    root = Path(k3lat.__file__).parent
    repo = root.parents[1]
    entries = [root / "cli.py", *repo.joinpath("scripts").glob("*.py"),
               *repo.joinpath("k3bench").glob("*.py")]
    library = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in root.glob("*.py")}
    unreached = _unreached([ast.parse(path.read_text(encoding="utf-8")) for path in entries],
                           library)
    assert unreached == set(LIBRARY_ENTRY_POINTS), sorted(unreached)


@pytest.mark.parametrize("entry, library, unreached", [
    ("f()", "def f():\n    g()\ndef g(): pass\ndef h(): pass", {"h"}),
    ("_run()", "def _run():\n    q()\ndef q(): pass", set()),
    ("x.m()", "class C:\n    def m(self): pass\n    def n(self): pass", {"C.n"}),
    ("C()", "class C:\n    def __init__(self):\n        self.k()\n    def k(self): pass", set()),
    ("TRACED = [('mod', 'C.n')]", "class C:\n    def n(self): pass", set()),
    ("", "R = f\ndef f(): pass\ndef _g():\n    h()\ndef h(): pass", {"h"}),
    ("def f(): pass", "def f(): pass\ndef g(): pass", {"f", "g"}),
    ("M = ['trace.ratio', 'C.m', 'lattice.n']",
     "class C:\n    def m(self): pass\n    def n(self): pass\n    def trace(self): pass",
     {"C.trace"})])
def test_the_surface_guard_follows_each_path(entry, library, unreached):
    got = _unreached([ast.parse(entry)], {"a.py": ast.parse(library)})
    assert got == {("a.py", name) for name in unreached}


# public names defined more than once in src/k3lat: the surface guard matches
# names without their class, so a use of either definition reaches both, and
# a new pair can hide a definition that nothing reaches; review each before
# adding it here
SHARED_NAMES = {
    "element": {("cm.py", "CMField.element"), ("cm.py", "_PeriodTables.element")},
    "inverse": {("cm.py", "CMElement.inverse"), ("linalg.py", "inverse")},
    "is_positive_definite": {("forms.py", "BinaryForm.is_positive_definite"),
                             ("lattice.py", "Lattice.is_positive_definite")},
    "to_json": {("genus.py", "GenusBlock.to_json"), ("genus.py", "GenusSymbol.to_json")},
}


def test_public_names_defined_twice():
    defined = collections.defaultdict(set)
    for path in Path(k3lat.__file__).parent.glob("*.py"):
        for qualified, name in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name].add((path.name, qualified))
    assert {name: where for name, where in defined.items() if len(where) > 1} == SHARED_NAMES
