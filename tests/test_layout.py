"""Every module-level function and class in ``src/splitmix`` has a caller.

A name counts as used when ``src/``, ``bench/`` or ``scripts/``:
  * imports it from its module (``from .mixing import cut``);
  * uses it bare in its own module, outside its own definition;
  * reads it as an attribute of its module (``protocol.payload_meter``,
    ``sm.transcript.read_transcript``).

Tests do not count.  Code that only tests reach is deleted, unless it is a
documented feature that a planned caller is waiting on (``KEPT`` below).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitmix"
CALLERS = (ROOT / "src", ROOT / "bench", ROOT / "scripts")

# The checkpoint API: its file format is documented (model.py, README) and
# a resumed run, the next step for the determinism contract, loads it.
KEPT = {("model", name) for name in
        ("save_checkpoint", "load_checkpoint", "segments_to_named", "named_to_segments")}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions() -> set[tuple[str, str]]:
    """(module, name) for every top-level def and class in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.add((path.stem, stmt.name))
    return found


def _imported_from(node: ast.ImportFrom) -> str | None:
    """The package module an import reads names from, if any."""
    if node.level:
        return node.module
    if node.module and node.module.startswith("splitmix."):
        return node.module.split(".", 1)[1]
    return None


def _attribute_owner(node: ast.Attribute) -> str | None:
    """``x`` in ``x.attr`` or ``a.x.attr``: the module an access may read."""
    if isinstance(node.value, ast.Name):
        return node.value.id
    if isinstance(node.value, ast.Attribute):
        return node.value.attr
    return None


def uses() -> set[tuple[str, str]]:
    """(module, name) pairs that the program reaches."""
    used = set()
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            tree = _parse(path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and _imported_from(node):
                    used.update((_imported_from(node), a.name) for a in node.names)
                elif isinstance(node, ast.Attribute) and _attribute_owner(node):
                    used.add((_attribute_owner(node), node.attr))
            if path.parent == PACKAGE:
                for stmt in tree.body:
                    own = getattr(stmt, "name", None)
                    used.update((path.stem, n.id) for n in ast.walk(stmt)
                                if isinstance(n, ast.Name) and n.id != own)
    return used


def test_every_definition_has_a_caller_outside_tests():
    unused = definitions() - uses() - KEPT
    listed = ", ".join(f"{module}.{name}" for module, name in sorted(unused))
    assert not unused, f"reached by tests only, or by nothing: {listed}"


def test_kept_names_exist_and_still_wait_for_a_caller():
    assert KEPT <= definitions()
    wired = KEPT & uses()
    assert not wired, f"now used by the program, drop from KEPT: {sorted(wired)}"
