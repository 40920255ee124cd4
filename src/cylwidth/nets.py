"""Deterministic covering nets of the unit circle and the unit 2-sphere.

``sphere_net(k, delta)`` returns points of the unit sphere in R^k, k = 2
or 3, whose covering radius is at most ``delta``; these are the only
dimensions whose certificates walk a net.  The circle uses an exact
angular grid.  The 2-sphere normalizes a cubic shell grid, which covers the
sphere within ``delta/2``, and thins it with the greedy maximal
``delta/2``-separated subsequence of ``_kernels.greedy_pack`` in the grid's
C order; a maximal packing of a ``delta/2``-cover is a ``delta``-cover.  A
request whose candidate grid would be unreasonably large is rejected.
"""

from __future__ import annotations

import numpy as np

from ._kernels import greedy_pack
from .errors import _integer, _real

__all__ = ["sphere_net"]

MAX_GRID_CANDIDATES = 6_000_000


def _circle_net(delta: float) -> np.ndarray:
    n = int(np.ceil(np.pi / (2.0 * np.arcsin(delta / 2.0))))
    n = max(n, 3)
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack((np.cos(theta), np.sin(theta)))


def _shell_grid(delta: float) -> np.ndarray:
    """The normalized shell of the cubic grid covering S^2 within delta/2."""
    h = delta / (2.0 * np.sqrt(3))
    half_diag = h * np.sqrt(3) / 2.0
    m = int(np.ceil((1.0 + half_diag) / h)) + 1
    if (2 * m + 1) ** 3 > MAX_GRID_CANDIDATES:
        raise ValueError(
            f"net for k=3 at step {delta} needs more than "
            f"{MAX_GRID_CANDIDATES} grid candidates"
        )
    axis = h * np.arange(-m, m + 1)
    # the grid in C order; the squares summed left to right, in the order
    # of norm's row sum
    x, y, z = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    norms = np.sqrt(x * x + y * y + z * z)
    shell = np.abs(norms - 1.0) <= half_diag
    return np.column_stack((x, y, z))[shell] / norms[shell][:, None]


def sphere_net(k: int, delta: float) -> np.ndarray:
    """Points on the unit sphere of R^k with covering radius <= delta.

    Parameters
    ----------
    k : int
        Sphere dimension plus one: 2 or 3.
    delta : float
        Target covering radius, a real in (0, 1/2], else ``ValueError``.
    """
    _integer("k", k, 2, 3)
    delta = _real("delta", delta)
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if k == 2:
        return _circle_net(delta)
    pts = _shell_grid(delta)
    return np.ascontiguousarray(pts[greedy_pack(pts, delta / 2.0)])
