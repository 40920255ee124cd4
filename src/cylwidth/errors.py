"""Exception types shared across the package."""


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
