"""Every name a module imports is read somewhere in that module.

__init__.py is exempt: it imports names only to re-export them.
"""

import ast
from pathlib import Path

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
