"""Every name a module imports is read somewhere in that module; every
module it imports is its own package's or the standard library's, cmath
excepted; and the package declares no runtime dependency.

__init__.py is exempt from the first: it imports names only to re-export them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torusgauge"


def unused_imports(source):
    """The names that source's import statements bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    unused = {
        path.name: sorted(names)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_an_unused_import_is_found():
    assert unused_imports("import math\nfrom .scalar import DEFAULT_TOL, Scalar\nScalar()\n") == {
        "math",
        "DEFAULT_TOL",
    }


# phases are carried as exact exponents, never as complex floats
BANNED = {"cmath"}


def foreign_imports(source):
    """The modules that source imports from outside its package and the
    standard library, and the standard modules in BANNED."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out.update(
            n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names or n.split(".")[0] in BANNED
        )
    return out


def test_the_package_imports_only_itself_and_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {
        path.name: sorted(names) for path in sources if (names := foreign_imports(path.read_text()))
    }
    assert foreign == {}


def test_a_foreign_import_is_found():
    source = (
        "import math, numpy.linalg\nfrom . import forms\nfrom .scalar import Scalar\n"
        "def f():\n    import cmath\n    from sympy import pi\n"
    )
    assert foreign_imports(source) == {"numpy.linalg", "sympy", "cmath"}


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
