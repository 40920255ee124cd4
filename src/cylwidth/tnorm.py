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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nets import sphere_net
from .vectors import SubspaceBasis

__all__ = [
    "TNormValue",
    "GaussianTnormStats",
    "t_norm",
    "t_norm_batch",
    "lipschitz_bound",
    "t_norm_subspace_bound",
    "sample_gaussian",
    "gaussian_tnorm_statistics",
]

# elements per working block of t_norm_batch and t_norm_subspace_bound
_BATCH_ELEMENTS = 1 << 18


class TNormValue(NamedTuple):
    value: float
    argmax_size: int


def _weights(d: int) -> np.ndarray:
    s = np.arange(1, d + 1, dtype=np.float64)
    return np.log(2.0 * d / s) ** 4


def t_norm(v) -> TNormValue:
    """Norm value together with the smallest maximizing tail size."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("t_norm expects a nonempty vector")
    d = v.size
    mod2 = np.sort(np.abs(v).astype(np.float64) ** 2)[::-1]
    scores = _weights(d) * np.cumsum(mod2)
    i = int(np.argmax(scores))
    return TNormValue(float(np.sqrt(scores[i])), i + 1)


def t_norm_batch(vectors) -> np.ndarray:
    """Norm values for every row of a 2-d array."""
    vs = np.asarray(vectors)
    if vs.ndim != 2:
        raise ValueError("t_norm_batch expects a 2-d array")
    n, d = vs.shape
    w = _weights(d)
    out = np.empty(n, dtype=np.float64)
    step = max(1, _BATCH_ELEMENTS // max(d, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        m2 = np.abs(vs[lo:hi]).astype(np.float64, copy=False) ** 2
        m2.sort(axis=1)
        scores = np.cumsum(m2[:, ::-1], axis=1) * w[None, :]
        out[lo:hi] = np.sqrt(scores.max(axis=1))
    return out


def lipschitz_bound(d: int) -> float:
    """Upper bound ln(2d)^2 on the Euclidean norm of dual-ball elements."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return float(np.log(2.0 * d) ** 2)


def t_norm_subspace_bound(basis: SubspaceBasis, net_step: float = 0.25) -> float:
    """Certified upper bound on the norm over unit vectors of a subspace.

    A ``net_step``-net of the coefficient sphere is evaluated exactly and
    inflated by ``1/(1 - net_step)``, which dominates the supremum because
    the norm is 1-Lipschitz along the subspace up to its own supremum:
    ``sup <= max_net + net_step * sup``.  One-dimensional subspaces are
    evaluated exactly (the two-point net is the whole sphere).  The same
    bound applies to the complexification of the subspace, since the squared
    moduli of ``a u + i b u'`` split coordinatewise over the real and
    imaginary parts.

    Only real bases of dimension at most 4 are supported.
    """
    if basis.field != "real":
        raise ValueError("certified bounds require a real basis")
    if not (0.0 < net_step <= 0.5):
        raise ValueError("net_step must lie in (0, 1/2]")
    if basis.k == 1:
        return t_norm(basis.columns[:, 0]).value
    if basis.k > 4:
        raise ValueError(
            f"net certification supports k <= 4, got k={basis.k}"
        )
    net = sphere_net(basis.k, net_step)
    cols_t = basis.columns.T
    # row chunks that are a multiple of 64 rows long reproduce the rows of
    # the full product net @ cols_t bit for bit; 1-row chunks would not
    rows = 64 * max(1, _BATCH_ELEMENTS // (64 * basis.d))
    best = max(
        float(t_norm_batch(net[lo:lo + rows] @ cols_t).max())
        for lo in range(0, net.shape[0], rows)
    )
    return best / (1.0 - net_step)


def sample_gaussian(d: int, sum_zero: bool = False, seed=None) -> np.ndarray:
    """Standard Gaussian vector, optionally conditioned on coordinate sum 0.

    The conditional law of a standard Gaussian given ``sum(w) = 0`` is the
    projection onto the hyperplane orthogonal to the all-ones vector, i.e.
    mean subtraction.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if sum_zero and d < 2:
        raise ValueError("sum-zero sampling needs d >= 2")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    if sum_zero:
        w = w - w.mean()
    return w


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
    may be an integer or a list of integers to derive from.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    samples = np.empty((trials, d))
    for i in range(trials):
        samples[i] = sample_gaussian(d, sum_zero=sum_zero, seed=[*base, i])
    ratios = t_norm_batch(samples) / np.sqrt(d)
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
