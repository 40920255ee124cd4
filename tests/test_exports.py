"""Each module's ``__all__`` lists exactly its own public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import cylwidth

MODULES = [
    module
    for module in (
        importlib.import_module(f"cylwidth.{info.name}")
        for info in pkgutil.iter_modules(cylwidth.__path__)
    )
    if hasattr(module, "__all__")
]


def test_the_exporting_modules_are_found():
    assert {m.__name__.rsplit(".", 1)[1] for m in MODULES} >= {
        "groups", "lowerbound", "measures", "nets", "rip", "tnorm", "vectors",
        "width",
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_the_public_top_level_definitions(module):
    # a name imported from elsewhere belongs to its defining module
    own = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(module.__all__) == sorted(own)
