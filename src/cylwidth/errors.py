"""Exception types shared across the package, and its checks of integer,
flag, real and seed arguments."""

import math
import numbers

import numpy as np


def _integer(name: str, value, low=None, high=None):
    """``value`` if it is an integer in ``[low, high]``, else ``ValueError``;
    ``high`` is given only with ``low``, and ``None`` leaves a side open."""
    # bool is an int subclass; a float would be truncated, and NaN or inf
    # would pass or overflow the comparisons that follow
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"need {low} <= {name} <= {high}, got {name}={value}")
    if low is not None and value < low:
        raise ValueError(f"need {name} >= {low}, got {value}")
    return value


def _flag(name: str, value) -> bool:
    """``bool(value)`` for a bool or numpy bool, else ``ValueError``."""
    # "no" would read as true, and 0 or None as false
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _real(name: str, value) -> float:
    """``float(value)`` if it is a real number other than NaN, else
    ``ValueError``; each caller compares it with its own range."""
    # bool is an int subclass and a numeric string is no number, and NaN
    # compares false with every bound
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond float range
        x = math.inf if value > 0 else -math.inf
    if math.isnan(x):
        raise ValueError(f"{name} must not be NaN")
    return x


def _seed_path(seed) -> list:
    """The entries that a derived stream ``[*path, i]`` extends: ``seed``,
    or its items if a list or tuple, each an integer >= 0, else
    ``ValueError``."""
    path = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    for entry in path:
        _integer("seed", entry, 0)
    return path


class CylwidthError(Exception):
    """Base class for all package-specific failures."""


class RankDeficientError(CylwidthError):
    """Input columns do not span a subspace of the requested dimension."""


class OrbitTooLargeError(CylwidthError):
    """Orbit closure exceeded the caller-supplied size cap."""


class EmptyDyadicIndexError(CylwidthError):
    """The dyadic scale window contains no feasible index."""


class CertificationFailedError(CylwidthError):
    """No draw produced a delocalization certificate under the threshold."""


class GuaranteeMissedError(CylwidthError):
    """A computed quantity fell short of its theoretical floor."""
