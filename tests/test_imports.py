"""No module of the package keeps an import, a top-level name or a default
it does not use.

No linter is a test dependency, so these are plain ``ast`` checks: every
module-level import in ``src/itrust`` (``__init__.py``, which re-exports, and
``__future__`` aside) must be named somewhere in its module, every
module-level function, class and assigned name must be read somewhere in the
package or be exported through ``itrust.__all__``, and every parameter or
dataclass field with a default must be passed by some call in the package or
the benchmark. A default that no such call overrides is a constant. Only
``cli.py`` writes files: no other module imports ``csv`` or ``json`` or calls
``open``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "itrust"
BENCH = ROOT / "bench"

# The console-script entry point: its caller is the installed script.
_ENTRY_POINTS = {("main", "argv")}


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


def _defaults(tree: ast.Module):
    """``(callee, parameter, position, line)`` for every parameter or
    dataclass field with a default. A method's callee is its name, and
    ``__init__``'s is its class; position is None for keyword-only
    parameters."""
    found = []

    def from_function(node, callee, skip_self):
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i in range(first, len(positional)):
            pos = i - 1 if skip_self else i
            found.append((callee, positional[i].arg, pos, node.lineno))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                found.append((callee, arg.arg, None, node.lineno))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            from_function(node, node.name, False)
        elif isinstance(node, ast.ClassDef):
            is_dataclass = any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass"
                for d in node.decorator_list
            )
            fields = [
                n for n in node.body
                if is_dataclass and isinstance(n, ast.AnnAssign)
            ]
            for i, n in enumerate(fields):
                if n.value is not None:
                    found.append((node.name, n.target.id, i, n.lineno))
            for n in node.body:
                if isinstance(n, ast.FunctionDef):
                    callee = node.name if n.name == "__init__" else n.name
                    from_function(n, callee, True)
    return found


def _calls(tree: ast.Module) -> dict[str, list[tuple[int, set[str]]]]:
    """Per callee name, each call's positional count and keyword names. A
    ``*args`` counts as every position and a ``**kwargs`` as every keyword
    (``"**"``)."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        n_pos = 10**9 if starred else len(node.args)
        keywords = {k.arg or "**" for k in node.keywords}
        calls.setdefault(name, []).append((n_pos, keywords))
    return calls


def find_unpassed_defaults(src: Path, *callers: Path) -> list[str]:
    """``module:callee.parameter (line)`` for every default in ``src`` that no
    call in ``src`` or the ``callers`` directories passes."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for directory in (src, *callers):
        for path in sorted(directory.glob("*.py")):
            for name, found in _calls(ast.parse(path.read_text(), str(path))).items():
                calls.setdefault(name, []).extend(found)
    unpassed = []
    for path in sorted(src.glob("*.py")):
        for callee, param, pos, line in _defaults(ast.parse(path.read_text())):
            if (callee, param) in _ENTRY_POINTS:
                continue
            passed = any(
                param in keywords
                or "**" in keywords
                or (pos is not None and pos < n_pos)
                for n_pos, keywords in calls.get(callee, [])
            )
            if not passed:
                unpassed.append(f"{path.name}:{callee}.{param} (line {line})")
    return unpassed


def test_every_default_is_passed_by_some_caller():
    unpassed = find_unpassed_defaults(SRC, BENCH)
    assert not unpassed, f"defaults no call in src/itrust or bench/ passes: {unpassed}"


def _file_io(tree: ast.Module) -> list[str]:
    """Every import of ``csv`` or ``json`` and every call of ``open``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [
            f"import {m} (line {node.lineno})"
            for m in modules
            if m.split(".")[0] in ("csv", "json")
        ]
        if isinstance(node, ast.Call) and "open" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            found.append(f"open() (line {node.lineno})")
    return found


def test_only_the_cli_writes_files():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            found = _file_io(ast.parse(path.read_text(), str(path)))
            assert not found, f"{path.name}: file I/O outside cli.py: {found}"
