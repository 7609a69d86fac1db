"""Every public def, class and method in the package is reached by the checker.

A name counts as referenced when another definition under src/torusgauge/
(outside __init__.py, whose re-exports are not uses) or verdictbench/ uses it:
as a name, as an attribute, or in a dotted string such as the tracer's
"PolyTrig.substitute".  Matching is by name, not by owner.  A public name no
code reaches is either deleted or listed in KEEP with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusgauge"

KEEP = {
    "magnetic.holonomy": "the paper's parallel transport; closed loops cross-check integrate_path",
    "forms.Form.wedge": "the Leibniz-rule oracle for d",
    "polytrig.PolyTrig.eval_float": "the quadrature and finite-difference cross-checks",
    "gerbes.flat_gerbe_2d": "acceptance criterion 8, the d = 2 degeneration",
    "polytrig.AffineMap": "the map of pullback_fn and Form.pullback, the general pullback API",
    "polytrig.pullback_fn": "pullback along any AffineMap; translate and the kernel build rows directly",
}


def _docstring_ids(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _used_names(path):
    tree = ast.parse(path.read_text())
    docs = _docstring_ids(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
        ):
            names.update(node.value.split("."))
    return names


def _public_defs(path):
    """(qualified name, bare name) of each public top-level def, class and method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name


def test_every_public_name_is_reached_or_kept():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += list((ROOT / "verdictbench").glob("*.py"))
    used = set().union(*map(_used_names, users))
    defined = dict(d for path in sorted(PACKAGE.glob("*.py")) for d in _public_defs(path))
    unreached = sorted(q for q, name in defined.items() if name not in used and q not in KEEP)
    assert not unreached, "no caller in src/ or verdictbench/: " + ", ".join(unreached)
    assert not KEEP.keys() - defined.keys(), "KEEP names a definition that is gone"
