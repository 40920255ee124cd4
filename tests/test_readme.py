"""README stays in step with the package it describes."""

import importlib
import pathlib
import re

import cylwidth
from cylwidth import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(cylwidth.__file__).parent


def test_readme_layout_and_module_names_match_the_package():
    text = README.read_text(encoding="utf-8")
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

    # the Layout block lists each module once, and no other file
    block = re.search(r"## Layout\n\n```\nsrc/cylwidth/\n(.*?)```", text, re.S)
    listed = [line.split()[0] for line in block.group(1).splitlines()]
    assert sorted(listed) == modules

    # every backticked `module.NAME` names a module-level name, and every
    # `module.PREFIX_*` at least one
    refs = [
        ref
        for ref in re.findall(r"`(_?[a-z][a-z_]*)\.([A-Za-z_]\w*)(\*?)`", text)
        if f"{ref[0]}.py" in modules
    ]
    assert refs
    for module, name, star in refs:
        names = vars(importlib.import_module(f"cylwidth.{module}"))
        if star:
            assert any(n.startswith(name) for n in names), f"{module}.{name}*"
        else:
            assert name in names, f"{module}.{name}"


def test_readme_command_lines_parse():
    # each example of the Command line block parses (a renamed or removed
    # flag fails here), without running the command
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.split() for line in block.splitlines()]
    assert sorted(words[1] for words in lines) == sorted(cli.HANDLERS)
    parser = cli.build_parser()
    for words in lines:
        assert words[0] == "cylwidth"
        assert parser.parse_args(words[1:]).command == words[1]
