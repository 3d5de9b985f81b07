"""No module of the package keeps an import it does not use.

No linter is a test dependency, so this is a plain ``ast`` check: every
module-level import in ``src/itrust`` (``__init__.py``, which re-exports, and
``__future__`` aside) must be named somewhere in its module.
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
