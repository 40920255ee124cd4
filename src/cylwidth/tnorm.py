"""The tail-weighted supremum norm and its certified subspace bounds.

For a vector ``v`` of length ``d`` the norm is

    ||v||_T^2 = max_{1 <= s <= d}  ln(2d/s)^4 * (sum of the s largest |v_i|^2).

Restricting the inner maximum to the ``s`` largest moduli is exact: among
all coordinate sets of size ``s`` the top-``s`` set maximizes the summed
squares, and the weight depends on the size only.  All logarithms are
natural.

The norm is 1-homogeneous, monotone under rearrangement dominance, and
sandwiched between ``ln(2)^2 ||v||_2`` and ``ln(2d)^2 ||v||_2``; the second
factor also bounds the Euclidean norm of any functional in the dual unit
ball, which makes ``x -> ||x||_T`` Lipschitz with constant ``ln(2d)^2``.

Only the ``m = min(d, 2c - 1)`` largest moduli are scored, where
``c = ceil(s*)`` and ``s* = 2d/e^4``.  Write ``S_s`` for the sum of the ``s``
largest ``|v_i|^2`` and ``g(s) = s ln(2d/s)^4``, so the score of size ``s``
is ``g(s) * S_s / s``.  The top-``s`` average ``S_s / s`` does not increase
with ``s``, so ``score_t <= (g(t) / g(c)) score_c`` for ``t >= c``.  Since
``g'(s) = ln(2d/s)^3 (ln(2d/s) - 4)``, ``g`` rises up to ``s*`` and falls
after it, and ``ln(2d/c) <= 4``; hence for every ``t >= 2c``

    g(t) / g(c) <= g(2c) / g(c) = 2 (1 - ln 2 / ln(2d/c))^4
                <= 2 (1 - ln 2 / 4)^4 ~ 0.934.

Every size beyond the prefix therefore scores at least 6.6% below the
prefix maximum, far more than the ~d ulp rounding of a cumulative sum, so
the prefix holds the same maximal float and the same smallest maximizing
size as a full sort; its cumulative sum adds the same values in the same
order, so every value is bit for bit the one a full sort gives.  The
largest score is also at least ``g(c)/d > 1.8`` times ``S_d`` for
``d >= 2``, so the prefix overflows exactly when the full sum would.
For ``d <= 27`` (``s* < 1``) the prefix is one entry and
``||v||_T = ln(2d)^2 max |v_i|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fork import map_forked
from .errors import _flag, _integer, _seed_path
from .nets import sphere_net
from .vectors import SubspaceBasis, _conformed, _gram_deviation, decreasing_rearrangement

__all__ = [
    "TNormValue",
    "GaussianTnormStats",
    "t_norm",
    "t_norm_batch",
    "lipschitz_bound",
    "t_norm_subspace_bound",
    "gaussian_tnorm_statistics",
]

# elements per working block of t_norm_batch, t_norm_subspace_bound and
# gaussian_tnorm_statistics
_BATCH_ELEMENTS = 1 << 18

# covering radius of the sphere net that t_norm_subspace_bound evaluates for
# 2 <= k <= 3
NET_STEP = 0.25


class TNormValue(NamedTuple):
    value: float
    argmax_size: int


def _weights(d: int) -> np.ndarray:
    s = np.arange(1, d + 1, dtype=np.float64)
    return np.log(2.0 * d / s) ** 4


def _prefix_scores(rows: np.ndarray) -> np.ndarray:
    """Scores of the sizes 1..m of each row, the only ones that can be maximal.

    ``m`` is the prefix length of the module docstring's argument.
    """
    d = rows.shape[1]
    m = min(d, 2 * math.ceil(2.0 * d / math.exp(4.0)) - 1)
    # in place: a fresh block-sized array per step costs more in page
    # faults than the partition itself
    m2 = np.abs(rows)
    np.square(m2, out=m2)
    m2.partition(d - m, axis=1)
    top = m2[:, d - m:]
    top.sort(axis=1)
    return np.cumsum(top[:, ::-1], axis=1) * _weights(d)[None, :m]


def t_norm(v) -> TNormValue:
    """Norm value together with the smallest maximizing tail size."""
    v = _conformed(v, "v")
    if v.ndim != 1 or v.size < 1:
        raise ValueError("t_norm expects a nonempty vector")
    with np.errstate(over="ignore"):
        scores = _prefix_scores(v[None])[0]
    i = int(np.argmax(scores))
    _require_finite(scores[i], "t_norm")
    return TNormValue(float(np.sqrt(scores[i])), i + 1)


def t_norm_batch(vectors) -> np.ndarray:
    """Norm values for every row of a 2-d array."""
    vs = _conformed(vectors, "vectors")
    if vs.ndim != 2 or vs.shape[1] < 1:
        raise ValueError("t_norm_batch expects a 2-d array with nonempty rows")
    n, d = vs.shape
    out = np.empty(n, dtype=np.float64)
    step = max(1, _BATCH_ELEMENTS // d)
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            out[lo:lo + step] = np.sqrt(_prefix_scores(vs[lo:lo + step]).max(axis=1))
    _require_finite(out, "t_norm_batch")
    return out


def _require_finite(values, name: str) -> None:
    # a finite entry whose square or weighted tail sum overflows makes the
    # row's maximal score inf
    if not np.isfinite(values).all():
        raise ValueError(
            f"{name} needs finite entries whose norm is representable"
        )


def lipschitz_bound(d: int) -> float:
    """Upper bound ln(2d)^2 on the Euclidean norm of dual-ball elements."""
    _integer("d", d, 1)
    return float(np.log(2.0 * d) ** 2)


def t_norm_subspace_bound(basis: SubspaceBasis) -> float:
    """Certified upper bound on the norm over unit vectors of a subspace.

    For ``2 <= k <= 3`` a ``NET_STEP``-net of the coefficient sphere is
    evaluated exactly and inflated by ``1/(1 - NET_STEP)``: the norm is
    1-Lipschitz along the subspace up to its own supremum, so
    ``sup <= max_net + NET_STEP * sup``.  Every other ``k`` takes the
    row-profile bound, exact for a line: a unit ``y = C x`` in the span of an
    orthonormal ``C`` has ``|y_j| <= r_j``, the norm of row ``j`` of ``C``,
    so with ``r~`` the row norms in decreasing order

        sup ||y||_T <= sqrt(max_s ln(2d/s)^4 min(1, r~_1^2 + ... + r~_s^2)),

    raised by ``4d`` relative ulps to cover its rounding.  Both bounds hold
    for the complexified span too, whose squared moduli split over the real
    and imaginary parts.  Only real bases are supported.

    Both bounds take unit coefficients ``x``.  A basis may deviate from
    orthonormal by ``dev = max |C^T C - I|`` (up to ``vectors.ORTHO_TOL``);
    Gershgorin gives ``lambda_min(C^T C) >= 1 - k dev``, so a unit ``y`` has
    ``|x| <= 1/sqrt(1 - k dev)``, and either bound is divided by that root.
    """
    if basis.field != "real":
        raise ValueError("certified bounds require a real basis")
    d, k = basis.d, basis.k
    if not 2 <= k <= 3:
        rows = decreasing_rearrangement(np.linalg.norm(basis.columns, axis=1))
        mass = np.minimum(1.0, np.cumsum(rows**2))
        slack = 1.0 + 4 * d * math.ulp(1.0)
        bound = math.sqrt(float(np.max(mass * _weights(d)))) * slack
    else:
        net = sphere_net(k, NET_STEP)
        cols_t = basis.columns.T
        # row chunks that are a multiple of 64 rows long reproduce the rows of
        # the full product net @ cols_t bit for bit; 1-row chunks would not
        rows = 64 * max(1, _BATCH_ELEMENTS // (64 * d))
        best = max(
            float(t_norm_batch(net[lo:lo + rows] @ cols_t).max())
            for lo in range(0, net.shape[0], rows)
        )
        bound = best / (1.0 - NET_STEP)
    return bound / math.sqrt(1.0 - k * _gram_deviation(basis.columns))


@dataclass(frozen=True)
class GaussianTnormStats:
    d: int
    trials: int
    sum_zero: bool
    mean_ratio: float
    max_ratio: float
    q50_ratio: float
    q90_ratio: float
    q99_ratio: float


def gaussian_tnorm_statistics(
    d: int, trials: int, sum_zero: bool = False, seed=0
) -> GaussianTnormStats:
    """Distribution summary of ``||w||_T / sqrt(d)`` over Gaussian draws.

    Each trial uses the derived stream ``(seed, trial)`` so results do not
    depend on evaluation order or on how trials are partitioned.  ``seed``
    may be an integer or a list or tuple of integers to derive from, each
    at least 0; any other ``seed`` raises ``ValueError``.

    Trials are drawn in blocks of ``t_norm_batch``'s row count, and the
    blocks are spread by :func:`~cylwidth._fork.map_forked` over this
    process and forked workers, one process per usable CPU.  Each process
    draws its blocks into one reused buffer, so memory is one block of
    about ``_BATCH_ELEMENTS`` samples per process however large ``trials``
    is.  A row's norm does not depend on its neighbours, and the blocks
    come back in order, so the statistics equal those of one batch over all
    trials bit for bit, for any number of processes.
    """
    sum_zero = _flag("sum_zero", sum_zero)
    # a sum-zero draw in one dimension is zero
    _integer("d", d, 2 if sum_zero else 1)
    _integer("trials", trials, 1)
    base = _seed_path(seed)
    rows = max(1, _BATCH_ELEMENTS // d)
    # a forked worker writes its own copy of this buffer
    block = np.empty((min(rows, trials), d))

    def block_ratios(b):
        lo = b * rows
        hi = min(trials, lo + rows)
        # trial i: d standard normals from the stream [*base, i], drawn in
        # place, minus their mean when sum_zero
        for row, i in zip(block, range(lo, hi)):
            np.random.default_rng([*base, i]).standard_normal(out=row)
            if sum_zero:
                row -= row.mean()
        return t_norm_batch(block[: hi - lo])

    ratios = np.concatenate(map_forked(block_ratios, -(-trials // rows)))
    ratios /= np.sqrt(d)
    return GaussianTnormStats(
        d=d,
        trials=trials,
        sum_zero=sum_zero,
        mean_ratio=float(ratios.mean()),
        max_ratio=float(ratios.max()),
        q50_ratio=float(np.quantile(ratios, 0.5)),
        q90_ratio=float(np.quantile(ratios, 0.9)),
        q99_ratio=float(np.quantile(ratios, 0.99)),
    )
