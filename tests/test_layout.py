"""Every module-level function and class in ``src/splitmix``, and every public
method of its classes, has a caller.

A module-level name counts as used when ``src/``, ``bench/`` or ``scripts/``:
  * imports it from its module (``from .mixing import cut``);
  * uses it bare in its own module, outside its own definition;
  * reads it as an attribute of its module (``protocol.payload_meter``,
    ``sm.transcript.read_transcript``).

A method counts as used when those directories read an attribute of its name
(``reader.take``, ``self.round_start``) outside the method's own definition.
The match is by name alone, so a method shares its callers with any other
attribute of that name.

Tests do not count: code that only tests reach is deleted.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitmix"
CALLERS = (ROOT / "src", ROOT / "bench", ROOT / "scripts")


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


def methods() -> dict[tuple[str, str, str], ast.FunctionDef]:
    """(module, class, name) of every public method of a package class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[(path.stem, stmt.name, item.name)] = item
    return found


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_every_definition_has_a_caller_outside_tests():
    unused = definitions() - uses()
    listed = ", ".join(f"{module}.{name}" for module, name in sorted(unused))
    assert not unused, f"reached by tests only, or by nothing: {listed}"


def test_every_public_method_has_a_caller_outside_tests():
    reads = Counter()
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            reads += _attribute_reads(_parse(path))
    unused = [f"{module}.{cls}.{name}" for (module, cls, name), node in sorted(methods().items())
              if reads[name] - _attribute_reads(node)[name] <= 0]
    assert not unused, f"reached by tests only, or by nothing: {', '.join(unused)}"
