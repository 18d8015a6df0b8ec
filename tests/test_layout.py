"""Every module-level function and class in ``src/splitmix``, and every public
method of its classes, has a caller, and every parameter with a default is
passed by one.

A module-level name counts as used when ``src/``, ``bench/`` or ``scripts/``:
  * imports it from its module (``from .mixing import cut``);
  * uses it bare in its own module, outside its own definition;
  * reads it as an attribute of its module (``protocol.payload_meter``,
    ``sm.transcript.read_transcript``).

A method counts as used when those directories read an attribute of its name
(``reader.take``, ``self.round_start``) outside the method's own definition.
The match is by name alone, so a method shares its callers with any other
attribute of that name.

A parameter with a default counts as used when a call in those directories
passes it: by keyword, by position, or through ``*args`` / ``**kwargs``.
A call matches a function by name, and ``__init__`` by its class's name.
The fields of the dataclasses in ``DATACLASS_FIELDS`` are parameters of
their class's constructor, in field order.

Tests do not count: code that only tests reach is deleted, and a knob that
only tests turn is a constant.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitmix"
CALLERS = (ROOT / "src", ROOT / "bench", ROOT / "scripts")
# Option records that one package caller builds field by field.
# ``ExperimentConfig`` is built from a dict, which the name match cannot
# follow, and ``ModelConfig.mlp_ratio`` is still set by tests only.
DATACLASS_FIELDS = ("AttackConfig", "RoundOptions")


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


def defaulted_parameters() -> dict[tuple[str, str, str], int | None]:
    """(module, call name, parameter) -> position, for every parameter with a
    default of a package function or method, and every defaulted field of a
    class in ``DATACLASS_FIELDS``.  The position is None for a keyword-only
    parameter and does not count ``self`` or ``cls``.  A method's call name
    is its own, ``__init__``'s and a field's its class's."""
    found = {}

    def visit(module: str, node: ast.AST, cls: str | None) -> None:
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                if item.name in DATACLASS_FIELDS:
                    fields = [s for s in item.body if isinstance(s, ast.AnnAssign)]
                    for i, stmt in enumerate(fields):
                        if stmt.value is not None:
                            found[(module, item.name, stmt.target.id)] = i
                visit(module, item, item.name)
            elif isinstance(item, ast.FunctionDef):
                args = item.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list)
                first_default = len(positional) - len(args.defaults)
                name = cls if item.name == "__init__" else item.name
                for i, arg in enumerate(positional):
                    if i >= first_default:
                        found[(module, name, arg.arg)] = i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[(module, name, arg.arg)] = None
                visit(module, item, None)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, _parse(path), None)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in ``src/``, ``bench/`` and ``scripts/``, by called name."""
    calls: dict[str, list[ast.Call]] = {}
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param`` by keyword, by position or by ``*``/``**``."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or position is not None and position < len(call.args))


def test_every_defaulted_parameter_is_passed_outside_tests():
    calls = _calls()
    unset = [f"{module}.{name}({param})"
             for (module, name, param), position in sorted(defaulted_parameters().items())
             if not any(_passes(c, param, position) for c in calls.get(name, []))]
    assert not unset, f"set by tests only, or by nothing: {', '.join(unset)}"
