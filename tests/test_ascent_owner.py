"""The alternating ascent has one owner, ``width._ascend``: no other module
calls the kernel ``altmax_best`` or builds the witnesses of its endpoints."""

import ast
import pathlib

import cylwidth

PACKAGE = pathlib.Path(cylwidth.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _calls(tree, name):
    """The lines of the calls of ``name``, plain or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _imported(tree):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_only_width_calls_the_ascent_kernel():
    found = {path.name: _calls(_tree(path), "altmax_best")
             for path in sorted(PACKAGE.glob("*.py"))}
    # the check still finds the one call where it lives
    assert len(found.pop("width.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lowerbound_values_frames_through_the_owner():
    names = _imported(_tree(PACKAGE / "lowerbound.py"))
    assert "_ascend" in names
    assert "_witness_and_value" not in names
