"""Only cohomology builds a cochain's simplex and takes its boundary.

Every sampled law of the checker is Stokes' theorem on one simplex
Delta^{n+1}(x; v_{n+1}, ..., v_1), decided by cohomology.check_coboundary,
and every cochain integrates over cohomology.cochain_simplex.  So no other
module under src/torusgauge/ calls .boundary() or .from_edges(): this test
reads their sources with ast and fails if one does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "torusgauge"
OWNER = "cohomology"
NAMES = ("boundary", "from_edges")


def _calls(path):
    """[(line, name)] of the calls of a method or attribute named in NAMES."""
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in NAMES
    ]


def test_only_cohomology_builds_cochain_simplices():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem != OWNER:
            found += [f"{path.name}:{line} {name}" for line, name in _calls(path)]
    assert not found, "called outside cohomology: " + ", ".join(found)
    # the owner's own calls are seen, so the search finds what it looks for
    assert {name for _, name in _calls(SOURCES / f"{OWNER}.py")} == set(NAMES)
