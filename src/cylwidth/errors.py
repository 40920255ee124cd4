"""Exception types shared across the package, and its checks of integer,
real and seed arguments."""

import math
import numbers


def _integer(name: str, value):
    """``value`` if it is an integer, else ``ValueError``."""
    # bool is an int subclass; a float would be truncated, and NaN or inf
    # would pass or overflow the comparisons that follow
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


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
        if _integer("seed", entry) < 0:
            raise ValueError(f"seed entries must be at least 0, got {seed!r}")
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
