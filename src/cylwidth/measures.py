"""Probability measures on Grassmannians of k-dimensional subspaces.

Every measure object exposes ``d`` (ambient dimension), ``k`` (subspace
dimension) and a ``sample(seed_or_rng)`` method returning a
:class:`~cylwidth.vectors.SubspaceBasis`.  Identical seeds give bitwise
identical draws.

The central construction is the dyadic alternative measure: for each scale
``j`` in a window ``J`` it fixes one ``k``-dimensional, coordinate-sum-free,
delocalized subspace ``W_j`` living on the first ``2^j`` coordinates, and a
draw picks ``j`` uniformly from ``J``.  Delocalization means the supremum
of the tail-weighted norm (with respect to the block dimension) over unit
vectors of the block subspace stays below a certification threshold; the
certificate bounds every top-``s`` coordinate mass of unit vectors by
``certificate^2 / ln(2 * 2^j / s)^4``, and it transfers verbatim to the
complexified subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationFailedError,
    EmptyDyadicIndexError,
    RankDeficientError,
    _integer,
    _seed_path,
)
from .tnorm import t_norm_subspace_bound
from .vectors import SubspaceBasis, orthonormalize

__all__ = [
    "DyadicAltMeasure",
    "sample_uniform",
    "build_delocalized_subspace",
    "dyadic_index_set",
    "desk_scale_j_min",
    "dyadic_alt_measure",
]

DELOC_THRESHOLD = 40.0
DELOC_ATTEMPTS = 8


def sample_uniform(k: int, d: int, field: str = "real", seed=None) -> SubspaceBasis:
    """Rotation-invariant random subspace from orthonormalized Gaussians."""
    _integer("k", k, 1, _integer("d", d, 1))
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, k))
    if field == "complex":
        g = g + 1j * rng.standard_normal((d, k))
    return orthonormalize(g)


def build_delocalized_subspace(k: int, d: int, seed=None):
    """Random sum-free subspace whose unit vectors have certified small norm.

    Draws a Gaussian ``d x k`` matrix, subtracts column means (placing the
    span inside the hyperplane orthogonal to the all-ones vector) and
    orthonormalizes.  The supremum of the tail-weighted norm over unit
    vectors of the span is then bounded by
    :func:`~cylwidth.tnorm.t_norm_subspace_bound`, a proven bound for every
    ``k``.  Draws are retried until the bound is at most
    ``DELOC_THRESHOLD``.

    Returns ``(basis, certificate)``.  Raises
    :class:`CertificationFailedError` after ``DELOC_ATTEMPTS`` failures.  The
    advertised constant-certificate regime is ``k <= d/4``; the function
    itself only requires ``k <= d - 1`` so that small dyadic blocks remain
    feasible.
    """
    _integer("k", k, 1, _integer("d", d, 2) - 1)
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(DELOC_ATTEMPTS):
        g = rng.standard_normal((d, k))
        g = g - g.mean(axis=0, keepdims=True)
        try:
            basis = orthonormalize(g, sum_zero=True)
        except RankDeficientError:  # pragma: no cover - measure-zero event
            continue
        last = t_norm_subspace_bound(basis)
        if last <= DELOC_THRESHOLD:
            return basis, last
    raise CertificationFailedError(
        f"no draw certified below {DELOC_THRESHOLD} in {DELOC_ATTEMPTS} "
        f"attempts (last certificate {last})"
    )


def desk_scale_j_min(k: int, delta: int = 1) -> int:
    """Small-dimension replacement for the asymptotic lower scale index."""
    return math.ceil(math.log2(2 * _integer("k", k, 1))) + _integer("delta", delta)


def dyadic_index_set(k: int, d: int, j_min_override=None) -> tuple:
    """Scale window ``J = {j_min, ..., floor(log2 d)}``.

    Without an override the lower end is ``ceil(log2(2k * ln(d)^4))``,
    which is empty at desk scale for most ``(k, d)``; pass a
    ``j_min_override`` (see :func:`desk_scale_j_min`) to work below the
    asymptotic regime.  Raises :class:`EmptyDyadicIndexError` when the
    window contains no index.
    """
    _integer("d", d, 2)
    _integer("k", k, 1)
    j_max = math.floor(math.log2(d))
    if j_min_override is None:
        j_min = math.ceil(math.log2(2.0 * k * math.log(d) ** 4))
    else:
        j_min = _integer("j_min_override", j_min_override)
    if j_min > j_max:
        raise EmptyDyadicIndexError(
            f"scale window empty: j_min={j_min} exceeds floor(log2 d)={j_max}"
            + ("" if j_min_override is not None else "; pass a j_min override")
        )
    return tuple(range(j_min, j_max + 1))


@dataclass(frozen=True)
class DyadicAltMeasure:
    """Uniform pick among per-scale delocalized block subspaces."""

    k: int
    d: int
    j_values: tuple
    certificates: tuple
    ambient_bases: tuple

    def sample(self, seed=None) -> SubspaceBasis:
        rng = np.random.default_rng(seed)
        i = int(rng.integers(len(self.j_values)))
        return self.ambient_bases[i]


def dyadic_alt_measure(k: int, d: int, j_min_override=None, seed=0) -> DyadicAltMeasure:
    """Build the dyadic alternative measure on complexified subspaces.

    For every scale ``j`` in the window a sum-free delocalized subspace is
    built on the first ``2^j`` coordinates with the derived stream
    ``(seed, j)``, zero-padded to dimension ``d`` and complexified;
    ``seed`` is an integer >= 0 or a list or tuple of them, else
    ``ValueError``.  The tail-weighted norm in the certificate refers to
    the block dimension ``2^j``.  Each block is certified by
    :func:`build_delocalized_subspace` (at most ``DELOC_THRESHOLD`` within
    ``DELOC_ATTEMPTS`` draws), which raises
    :class:`CertificationFailedError` otherwise.
    """
    j_values = dyadic_index_set(k, d, j_min_override)
    if 2 ** j_values[0] - 1 < k:
        raise ValueError(
            f"k={k} does not fit in the smallest block 2^{j_values[0]}; "
            "raise the scale override"
        )
    base = _seed_path(seed)
    certs = []
    ambients = []
    for j in j_values:
        m = 2**j
        basis, cert = build_delocalized_subspace(k, m, seed=[*base, j])
        certs.append(cert)
        cols = np.zeros((d, k), dtype=np.complex128)
        cols[:m] = basis.columns
        ambients.append(SubspaceBasis(cols, sum_zero=True))
    return DyadicAltMeasure(
        k=k,
        d=d,
        j_values=j_values,
        certificates=tuple(certs),
        ambient_bases=tuple(ambients),
    )
