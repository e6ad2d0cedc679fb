"""Every top-level definition in the package is reached from the command
line, except the few names that an open ROADMAP item will call.

The walk starts at ``cli.main`` and ``cli.entry`` and follows name
references through module-level imports (``from .x import y``) and module
attributes (``from . import colimits``, then ``colimits.f``).  A reached
definition is walked whole, so a class brings in what its methods use, and
so are the statements a module runs on import.  Reference code the tests
compare against lives in ``tests/oracles.py``, not in the package.

A method of a reached class is used when reached or allowlisted code looks
its name up as an attribute.  The walk cannot tell which class an attribute
belongs to, so a method that shares its name with a used one passes, and
dunders, which the interpreter calls, are not checked.  Neither is a method
that overrides one of a base class from outside the package, as
``_Parser.error`` overrides ``argparse.ArgumentParser.error``.
"""

from __future__ import annotations

import ast
import importlib
from functools import cache
from pathlib import Path

import amplehk

PACKAGE = Path(amplehk.__file__).parent
ROOTS = (("cli", "main"), ("cli", "entry"))

# (module, name): the ROADMAP item(s) waiting to call it.  smith_normal_form
# and determinant are also conftest.assert_valid_snf's oracle.
ALLOWED = {
    ("colimits", "map_on_colimit_rank"): "D",
    ("exact_linalg", "kernel_basis"): "D",
    ("errors", "CommutationFailure"): "D",
    ("exact_linalg", "smith_normal_form"): "D, J",
    ("exact_linalg", "SnfResult"): "D, J",
    ("exact_linalg", "determinant"): "J",
}


class _Module:
    """One source file: its top-level definitions, the names it imports from
    the package, and the other statements it runs on import."""

    def __init__(self, tree: ast.Module) -> None:
        self.defs: dict[str, list[ast.stmt]] = {}
        # local name -> (module, name), or (module, None) for a module
        self.imports: dict[str, tuple[str, str | None]] = {}
        self.runs: list[ast.stmt] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs.setdefault(name.id, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.imports[local] = (alias.name, None)
                    else:
                        self.imports[local] = (node.module, alias.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.runs.append(node)


@cache
def _modules() -> dict[str, _Module]:
    return {
        path.stem: _Module(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _reached() -> set[tuple[str, str]]:
    modules = _modules()
    reached: set[tuple[str, str]] = set()
    todo: list[tuple[str, ast.AST]] = [(m, s) for m, mod in modules.items() for s in mod.runs]

    def reach(module: str, name: str) -> None:
        mod = modules[module]
        if name in mod.defs:
            if (module, name) not in reached:
                reached.add((module, name))
                todo.extend((module, node) for node in mod.defs[name])
        elif name in mod.imports:
            source, attr = mod.imports[name]
            if attr is not None:
                reach(source, attr)

    for module, name in ROOTS:
        reach(module, name)
    while todo:
        module, tree = todo.pop()
        imports = modules[module].imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reach(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, attr = imports.get(node.value.id, ("", ""))
                if attr is None:
                    reach(source, node.attr)
    return reached


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreached() -> set[tuple[str, str]]:
    return {
        (module, name)
        for module, mod in _modules().items()
        for name in mod.defs
        if not _is_dunder(name)
    } - _reached()


def _attributes_used() -> set[str]:
    """Every attribute name that reached or allowlisted code, or a module's
    statements run on import, look up."""
    modules = _modules()
    trees: list[ast.AST] = [node for mod in modules.values() for node in mod.runs]
    for module, name in _reached() | ALLOWED.keys():
        trees.extend(modules[module].defs.get(name, ()))
    return {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _overrides_outside_base(module: str, cls: str, method: str) -> bool:
    """Whether ``cls`` inherits ``method`` from a base defined outside the package."""
    bases = getattr(importlib.import_module(f"amplehk.{module}"), cls).__mro__[1:]
    return any(hasattr(base, method) for base in bases if not base.__module__.startswith("amplehk"))


def _unused_methods() -> list[str]:
    used = _attributes_used()
    unused = []
    for module, name in sorted(_reached()):
        for node in _modules()[module].defs[name]:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not _is_dunder(item.name)
                    and item.name not in used
                    and not _overrides_outside_base(module, name, item.name)
                ):
                    unused.append(f"{module}.{name}.{item.name}")
    return unused


def test_every_definition_is_reached_from_the_cli():
    dead = sorted(f"{m}.{n}" for m, n in _unreached() - ALLOWED.keys())
    assert dead == [], f"not reached from cli.main or cli.entry: {', '.join(dead)}"


def test_every_allowlisted_name_is_defined_and_unreached():
    defined = {(m, n) for m, mod in _modules().items() for n in mod.defs}
    stale = {
        f"{m}.{n}": "reached from the cli" if (m, n) in defined else "not defined"
        for m, n in ALLOWED.keys() - _unreached()
    }
    assert stale == {}, "stale allowlist entries"


def test_every_method_is_used():
    unused = _unused_methods()
    assert unused == [], f"methods no reached or allowlisted code calls: {', '.join(unused)}"
