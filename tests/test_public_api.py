"""The documented surface: the README's library example runs and every name
in ``itrust.__all__`` resolves."""

from __future__ import annotations

import re
from pathlib import Path

import itrust

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_all_names_resolve():
    for name in itrust.__all__:
        assert hasattr(itrust, name), name

