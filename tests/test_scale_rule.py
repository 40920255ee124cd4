"""The power-of-two scale of the widths, the search and the orbits is
formed in one module, ``vectors.py``; every other module calls its
``_scaled``, ``_unscaled`` and ``_ldexp``."""

import pathlib
import re

import cylwidth

PACKAGE = pathlib.Path(cylwidth.__file__).parent
# a float power of two, or numpy's or math's ldexp, called or imported
SCALE = re.compile(r"\b2\.0?\s*\*\*|\b(?:np|numpy|math)\.ldexp\b|\bimport\b.*\bldexp\b")


def test_only_vectors_forms_a_power_of_two_scale():
    found = {
        path.name: SCALE.findall(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    # the pattern still finds the rule where it lives
    assert found.pop("vectors.py")
    assert {name: hits for name, hits in found.items() if hits} == {}
