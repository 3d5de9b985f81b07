"""No module of the package keeps an import or a top-level name it does not use.

No linter is a test dependency, so these are plain ``ast`` checks: every
module-level import in ``src/itrust`` (``__init__.py``, which re-exports, and
``__future__`` aside) must be named somewhere in its module, and every
module-level function, class and assigned name must be read somewhere in the
package or be exported through ``itrust.__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "itrust"


def test_package_modules_have_no_unused_imports():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = [
            f"{name} (line {line})"
            for name, line in imported.items()
            if name not in used
        ]
        assert not unused, f"{path.name}: unused imports {unused}"


def _defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names, dunders aside."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {k: v for k, v in defined.items() if not k.startswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Names read as variables or as attributes anywhere in the module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def find_dead_names(src: Path) -> list[str]:
    """``module:name (line)`` for every unread, unexported top-level name."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    exported = set()
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{module}:{name} (line {line})"
        for module, tree in trees.items()
        for name, line in _defined_names(tree).items()
        if name not in read and name not in exported
    ]


def test_package_has_no_dead_module_level_names():
    dead = find_dead_names(SRC)
    assert not dead, f"unreferenced module-level names: {dead}"
