"""Every name a module of the package imports is used in that module, no
function imports a module of the package (the import graph is the one the
module headers show), no module holds an `assert`, which `python -O` would
strip (invariants are checked with raises), no module does float
arithmetic beyond the wall-clock seconds of a check, only the value pool
reduces integer rows to canonical (row, den) pairs, no module defines a class
`Cyc` (values stay integer rows), the theory builders hand their rows to the
pool and intern no value themselves, and sets of integers go through
the sorted helpers of `orbits`, never `np.isin` or a flag-free `np.unique`,
only `utheory.pair_products` multiplies coefficient rows, and Levi products
are calls, never a table that is indexed."""

import ast
import pathlib
import subprocess
import sys

import pytest
from conftest import subprocess_env

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "parasuper"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_package_imports(source):
    """Lines of the imports of package modules made inside a function."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["parasuper"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "parasuper" for name in names):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    assert local_package_imports(path.read_text()) == []


def assert_lines(source):
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert(path):
    assert assert_lines(path.read_text()) == []


# the wall-clock `seconds` of a check result, the one float the package keeps
FLOAT_ALLOWED = {"verify.py": {"CheckResult.seconds", "Report.add.seconds"}}


def float_arithmetic(source, allowed=()):
    """Lines of every true division `/`, use of the name `float`, float or
    complex constant and `np.float*` attribute, except inside the allowed
    fields: `Class.field` (an annotated class attribute) or `fn.arg` (a
    parameter default), named by their qualified names."""
    tree = ast.parse(source)
    skip = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args.posonlyargs + child.args.args
                for arg, default in zip(args[len(args) - len(child.args.defaults):],
                                        child.args.defaults):
                    if scope + child.name + "." + arg.arg in allowed:
                        skip.update(map(id, ast.walk(default)))
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name) \
                    and scope + child.target.id in allowed:
                skip.update(map(id, ast.walk(child)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + child.name + "." if named else scope)
    visit(tree, "")
    lines = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr.startswith("float")):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    # every comparison is exact: values are integers, Fractions and
    # cyclotomic coefficient rows, and only timings are floats
    assert float_arithmetic(path.read_text(), FLOAT_ALLOWED.get(path.name, ())) == []


def test_float_arithmetic_is_reported():
    source = ("import numpy as np\n\n\nclass R:\n    seconds: float = 0.0\n"
              "    other: float = 0.0\n\n    def add(self, seconds=0.0, x=1.5):\n"
              "        return seconds / 2, np.float64(x), 1j, 7 // 2\n")
    assert float_arithmetic(source) == [5, 6, 8, 9]
    assert float_arithmetic(source, {"R.seconds", "R.add.seconds"}) == [6, 8, 9]


def method_calls(source, name):
    """Lines of every call of a method called `name`, as in `field.reduce_rows(num, den)`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


def class_names(source):
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cyc_class(path):
    # values are integer coefficient rows from the character tables to the
    # printed text, held by the value pools as canonical (row, den) pairs;
    # no value object stands between them
    assert "Cyc" not in class_names(path.read_text())


@pytest.mark.parametrize("name", ["utheory.py", "gtheory.py"])
def test_builders_intern_no_value(name):
    # the builders return integer rows over a denominator, and
    # `ValuePool.intern` alone reduces them to pairs and numbers them
    assert method_calls((SRC / name).read_text(), "id_of") == []


def callers(source, name):
    """The top-level statements of a module that call a method called
    `name`, by the name they define (None for a statement defining none)."""
    return [getattr(top, "name", None) for top in ast.parse(source).body
            if method_calls(ast.get_source_segment(source, top), name)]


def test_reduce_rows_only_in_the_value_pool():
    # a value becomes a canonical (row, den) pair in one place, when
    # `ValuePool.intern` interns it
    calls = {path.name: callers(path.read_text(), "reduce_rows")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in calls.items() if fns} == {"theory.py": ["ValuePool"]}


def test_pair_products_alone_multiplies_rows():
    # theta(r) zeta(u) is valued in one place: every builder and oracle
    # hands its pair codes to `utheory.pair_products`
    calls = {path.name: callers(path.read_text(), "mul_rows") for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in calls.items() if fns} == {"utheory.py": ["pair_products"]}


def test_callers_are_reported():
    source = ("def f(field, a):\n    return field.mul_rows(a, a)\n\n\n"
              "class C:\n    def g(self, field):\n        return [field.mul_rows(1, 2)]\n\n\n"
              "def h(field):\n    return field.add(1)\n\n\nx = F.mul_rows(1, 2)\n")
    assert callers(source, "mul_rows") == ["f", "C", None]


def test_einsum_only_in_the_gram():
    # `LinearAction.images` is the one batched image product, a matmul; only
    # the Gram's `_dot_mod` contracts by einsum
    calls = {path.name: callers(path.read_text(), "einsum") for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in calls.items() if fns} == {"algebra.py": ["_dot_mod"]}


def test_einsum_callers_are_reported():
    source = ("import numpy as np\n\n\ndef f(a):\n    return np.einsum('ij->ji', a)\n\n\n"
              "def g(a):\n    return a.T\n\n\nclass C:\n    x = np.einsum('ii', np.eye(2))\n")
    assert callers(source, "einsum") == ["f", "C"]


def table_indexing(source, names=("mulL", "conjL")):
    """Lines that index an attribute called one of `names`, as in `w.mulL[a, b]`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr in names]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_levi_products_are_never_a_table(path):
    # `Parabolic.mulL` and `conjL` compute the products they are asked for;
    # an |L| x |L| table of them is what they replace
    assert table_indexing(path.read_text()) == []


def test_levi_table_indexing_is_reported():
    source = ("def f(w, a, b):\n    x = w.mulL(a, b)\n    y = w.conjL[a]\n"
              "    return x, y, w.mulL[a, b], w.conjUbyL[a], conjL[b]\n")
    assert table_indexing(source) == [3, 4]


def test_rows_call_is_reported():
    source = ("class Cyc:\n    pass\n\n\ndef f(field, num, pool):\n"
              "    rows, dens = field.reduce_rows(num, 1)\n"
              "    return [pool.id_of((tuple(r), d)) for r, d in zip(rows, dens)]\n")
    assert class_names(source) == ["Cyc"]
    assert method_calls(source, "reduce_rows") == [6]
    assert callers(source, "reduce_rows") == ["f"]
    assert method_calls(source, "id_of") == [7]


def test_assert_is_reported():
    source = "def f(x):\n    if x:\n        assert x > 1, 'no'\n    return x\n"
    assert assert_lines(source) == [3]


def test_local_package_import_is_reported():
    source = ("from . import linalg\n\n\ndef f(x):\n    import copy\n"
              "    from .verify import check\n    def g():\n        import parasuper.orbits\n"
              "    return check(copy.copy(x), linalg, g)\n")
    assert local_package_imports(source) == [6, 8]


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\nimport os\n"
              "from a.b import c, d as e\nprint(e)\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def set_calls(source):
    """Lines of every `np.isin` call and every `np.unique` call without flags
    (no argument beyond the array), which `orbits.sorted_isin` and
    `orbits.sorted_unique` replace: the flag-free `np.unique` hashes before it
    sorts, and its first call imports `numpy.ma`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            flagless = len(node.args) < 2 and not node.keywords
            if node.func.attr == "isin" or (node.func.attr == "unique" and flagless):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_set_calls(path):
    assert set_calls(path.read_text()) == []


def test_numpy_set_call_is_reported():
    source = ("import numpy as np\n\n\ndef f(a, b):\n    u = np.unique(a)\n"
              "    v, inv = np.unique(a, return_inverse=True)\n    w = np.unique(a, True)\n"
              "    return u, v, np.isin(a, b)\n")
    assert set_calls(source) == [5, 8]


def test_verify_never_imports_numpy_ma():
    # numpy.ma costs milliseconds to import, and only a flag-free np.unique
    # (through np.ma.is_masked) ever imported it here
    code = "\n".join([
        "import contextlib, io, sys",
        "from parasuper.cli import main",
        "argv = 'verify --family C --n 2 --q 3 --blocks 1,1 --suite all'.split()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(argv)",
        "print(code, 'numpy.ma' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env(SRC.parent))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]
