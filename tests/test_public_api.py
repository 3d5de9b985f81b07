"""The documented surface: the README's library example runs, its command
lines parse, it names exactly the flags the commands accept, and every name
in ``itrust.__all__`` resolves."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import itrust
from itrust.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("itrust ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_readme_documents_only_existing_flags():
    # Both ways: every flag the README names exists, and every flag a
    # command accepts, --help aside, is named in its Command line section.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[A-Za-z][\w-]*", section))
    accepted = {
        flag
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
        for option in sub._actions
        for flag in option.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented <= accepted, sorted(documented - accepted)
    assert accepted <= documented, sorted(accepted - documented)


def test_all_names_resolve():
    for name in itrust.__all__:
        assert hasattr(itrust, name), name

