"""Deterministic covering nets of low-dimensional unit spheres.

``sphere_net(k, delta)`` returns points of the unit sphere in R^k whose
covering radius is at most ``delta``.  Dimensions 1 and 2 use exact
constructions (sign pair, angular grid).  Dimensions 3 and 4 normalize a
cubic shell grid, which covers the sphere within ``delta/2``, and thin it
with a greedy maximal ``delta/2``-separated subsequence; a maximal packing
of a ``delta/2``-cover is a ``delta``-cover.  Larger dimensions are
rejected, as is any request whose candidate grid would be unreasonably
large.

The grid is generated one slab of fixed first coordinate at a time, in the
C order of the full grid.  The packer (``_kernels.greedy_pack``) takes the
candidates in blocks of 64 and first drops, in one broadcast, those covered
by a kept point inside the block's bounding box padded by the packing
distance; no point outside that box can cover them, and the broadcast
rounds each squared distance as the one-by-one check does, so the net is
bit for bit the plain greedy one.  It finds the box's kept points in a
window: kept points whose first coordinate, and that of every point kept
before them, lies more than the packing distance behind the block fail the
box test on that axis, and a bisection on the running maximum of the first
coordinate skips them.  Squared distances are summed over the axes from
left to right, the order numpy's row sum uses for k <= 7, so the net does
not depend on how numpy orders a reduction.  In grid order the first
coordinate rises slab by slab, so the window holds only the last few slabs'
kept points and few of them lie near a block.
"""

from __future__ import annotations

import numpy as np

from ._kernels import greedy_pack

__all__ = ["sphere_net"]

MAX_GRID_CANDIDATES = 6_000_000


def _circle_net(delta: float) -> np.ndarray:
    n = int(np.ceil(np.pi / (2.0 * np.arcsin(delta / 2.0))))
    n = max(n, 3)
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack((np.cos(theta), np.sin(theta)))


def _shell_grid(k: int, delta: float) -> np.ndarray:
    """The normalized shell of the cubic grid covering S^(k-1) within delta/2."""
    h = delta / (2.0 * np.sqrt(k))
    half_diag = h * np.sqrt(k) / 2.0
    m = int(np.ceil((1.0 + half_diag) / h)) + 1
    if (2 * m + 1) ** k > MAX_GRID_CANDIDATES:
        raise ValueError(
            f"net for k={k} at step {delta} needs more than "
            f"{MAX_GRID_CANDIDATES} grid candidates"
        )
    axis = h * np.arange(-m, m + 1)
    # the grid in C order, one slab of fixed first coordinate at a time
    slab = np.empty(((2 * m + 1) ** (k - 1), k))
    grids = np.meshgrid(*([axis] * (k - 1)), indexing="ij")
    for j, g in enumerate(grids, start=1):
        slab[:, j] = g.ravel()
    shells = []
    for x0 in axis:
        slab[:, 0] = x0
        # the squares summed left to right, in the order of norm's row sum
        sq = x0 * x0 + slab[:, 1] * slab[:, 1]
        for j in range(2, k):
            sq += slab[:, j] * slab[:, j]
        norms = np.sqrt(sq)
        shell = np.abs(norms - 1.0) <= half_diag
        shells.append(slab[shell] / norms[shell][:, None])
    return np.concatenate(shells)


def sphere_net(k: int, delta: float) -> np.ndarray:
    """Points on the unit sphere of R^k with covering radius <= delta.

    Parameters
    ----------
    k : int
        Sphere dimension plus one; supported values are 1 to 4.
    delta : float
        Target covering radius, in (0, 1/2].
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        return _circle_net(delta)
    if k in (3, 4):
        pts = _shell_grid(k, delta)
        return np.ascontiguousarray(pts[greedy_pack(pts, delta / 2.0)])
    raise ValueError(f"no deterministic net construction for k={k} (max 4)")
