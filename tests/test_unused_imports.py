"""Every name a module of sfcar imports is used in that module.

No linter runs on the package, so this walks each module's syntax tree
with the standard library's ast: after a refactor, an import left behind
fails here.  `__init__.py` is exempt, as its imports are the package's
exports.
"""

import ast
from pathlib import Path

import sfcar

# Imported and never called: sfcarbench's tracer wraps complete_elliptic_k
# under these modules' names (tests/test_pinned_names.py pins them).
HARNESS_PINNED = {
    ("correlation.py", "complete_elliptic_k"),
    ("lattice.py", "complete_elliptic_k"),
}


def _unused_imports(path: Path) -> set[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.name, name) for name in imported - used}


def test_no_unused_imports():
    unused = set()
    for path in Path(sfcar.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            unused |= _unused_imports(path)
    # exactly the pinned pair: one that becomes used is no longer an exception
    assert unused == HARNESS_PINNED
