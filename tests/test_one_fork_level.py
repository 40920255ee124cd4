"""Fork maps never nest: ``lowerbound`` runs a search's restarts in the
process that calls it, and ``_fork`` keeps no state between maps."""

import ast
import pathlib

import cylwidth

PACKAGE = pathlib.Path(cylwidth.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _fork_imports(tree):
    """The lines that import ``_fork`` or anything from it."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "_fork")
            or (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(alias.name.split(".")[-1] == "_fork" for alias in node.names))]


def test_lowerbound_imports_nothing_from_fork():
    # the check still finds the import of the one map over searches
    assert _fork_imports(_tree(PACKAGE / "cli.py"))
    assert _fork_imports(_tree(PACKAGE / "lowerbound.py")) == []


def test_fork_keeps_no_global_state():
    tree = _tree(PACKAGE / "_fork.py")
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)] == []
