"""Restricted invertibility: column selection and the complex-to-real
subspace reduction.

Given a real ``2k x 4k`` matrix of full row rank, one can pick ``k``
columns whose smallest singular value is comparable to the tail quantity

    target = sqrt( sum_{j = ceil(3k/2)}^{4k} s_j(M)^2 / k ).

``select_columns`` searches greedily (argmax of the smallest singular
value at each augmentation step) and, for ``k <= 3``, exhaustively over
all column subsets, returning the better of the two.  A selection whose
achieved value falls below ``c_rip * target`` raises
:class:`GuaranteeMissedError`; the desk-scale acceptance constant is
``c_rip = 0.1``.

``realize_real_subspace`` applies this to the matrix
``M = [Re B | Im B]`` built from a complex orthonormal basis ``B`` of a
``2k``-dimensional subspace.  The real pairing ``v -> (Im-part swap)`` is
an isometry ``J`` with ``M^T M + J^T M^T M J = I``, so the squared
singular values of ``M`` pair up as ``(t, 1 - t)``; in particular
``s_{2k}(M) >= 1/sqrt(2)``.  Compressing the rows onto the top ``2k`` left
singular directions produces the ``2k x 4k`` shape required above while
only lowering singular values of column submatrices, so the selection
guarantee transfers to the ambient columns.  The span of the ``k``
selected ambient columns is the real subspace; projections onto it are
controlled by ``1/s_k`` times projections onto the complex span, because
the selected columns form a subset of the columns of ``M`` and
``||M^T x||^2 = sum_j |<b_j, x>|^2`` for real ``x``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuaranteeMissedError, RankDeficientError, _integer, _real
from .vectors import SubspaceBasis, _conformed, orthonormalize

__all__ = [
    "ColumnSelection",
    "RealizationReport",
    "singular_values",
    "rip_target",
    "select_columns",
    "realize_real_subspace",
]

C_RIP = 0.1
EXHAUSTIVE_MAX_K = 3


def singular_values(m) -> np.ndarray:
    """Singular values in decreasing order."""
    return np.linalg.svd(_conformed(m, "m"), compute_uv=False)


def rip_target(m, k: int) -> float:
    """Tail quantity the selected columns of ``m`` are measured against."""
    return _tail_target(singular_values(_shaped(m, k)), k)


def _shaped(m, k) -> np.ndarray:
    """``m`` conformed; ``ValueError`` unless ``k >= 1`` and it is ``2k x 4k``."""
    m = _conformed(m, "m")
    if _integer("k", k) < 1 or m.shape != (2 * k, 4 * k):
        raise ValueError(f"need k >= 1 and a 2k x 4k matrix, got k = {k} and {m.shape}")
    return m


def _tail_target(s: np.ndarray, k: int) -> float:
    """:func:`rip_target` of a ``2k x 4k`` matrix with spectrum ``s``."""
    full = np.zeros(4 * k)
    full[: s.shape[0]] = s
    lo = math.ceil(3 * k / 2)  # 1-indexed position
    return float(np.sqrt(np.sum(full[lo - 1 :] ** 2) / k))


def _best_subset(m: np.ndarray, subsets) -> tuple:
    """First subset of largest smallest singular value, and that value.

    One stacked SVD scores every subset (one row of column indices each);
    LAPACK factors each stacked matrix on its own, so each value is the
    one a separate SVD of that subset gives.
    """
    subsets = np.asarray(subsets)
    smin = np.linalg.svd(m[:, subsets].transpose(1, 0, 2), compute_uv=False)[:, -1]
    i = int(np.argmax(smin))
    return tuple(int(c) for c in subsets[i]), float(smin[i])


@dataclass(frozen=True)
class ColumnSelection:
    indices: tuple
    achieved: float
    target: float
    ratio: float
    greedy_indices: tuple
    greedy_achieved: float
    exhaustive_indices: tuple | None
    exhaustive_achieved: float | None


def select_columns(m, k: int, c_rip: float = C_RIP) -> ColumnSelection:
    """Pick ``k`` well-conditioned columns of a real ``2k x 4k`` matrix.

    Greedy augmentation always runs; for ``k <= 3`` every subset is also
    scored and the better selection is returned.  Ties in the greedy
    argmax resolve to the lowest column index.  Raises
    :class:`GuaranteeMissedError` when the best smallest singular value is
    below ``c_rip * target``; ``ValueError`` unless ``c_rip`` is a finite
    nonnegative real.
    """
    c_rip = _real("c_rip", c_rip)
    if not 0.0 <= c_rip < math.inf:
        raise ValueError(f"c_rip must be finite and nonnegative, got {c_rip}")
    m = _shaped(m, k)
    if np.iscomplexobj(m):
        raise ValueError("column selection operates on real matrices")
    s = singular_values(m)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError(
            f"matrix must have full row rank 2k (spectrum {s[-1]:.3e} vs "
            f"{s[0]:.3e})"
        )

    chosen: list = []
    remaining = list(range(4 * k))
    for _ in range(k):
        pick, _ = _best_subset(m, [chosen + [c] for c in remaining])
        chosen.append(pick[-1])
        remaining.remove(pick[-1])
    greedy_idx = tuple(sorted(chosen))
    greedy_val = _best_subset(m, [greedy_idx])[1]

    exhaustive_idx = None
    exhaustive_val = None
    if k <= EXHAUSTIVE_MAX_K:
        exhaustive_idx, exhaustive_val = _best_subset(
            m, list(itertools.combinations(range(4 * k), k))
        )

    if exhaustive_val is not None and exhaustive_val > greedy_val:
        indices, achieved = exhaustive_idx, exhaustive_val
    else:
        indices, achieved = greedy_idx, greedy_val
    target = _tail_target(s, k)
    ratio = achieved / target if target > 0 else np.inf
    if achieved < c_rip * target:
        raise GuaranteeMissedError(
            f"selected columns achieve {achieved:.6f}, below "
            f"{c_rip} * target = {c_rip * target:.6f}"
        )
    return ColumnSelection(
        indices=indices,
        achieved=float(achieved),
        target=target,
        ratio=float(ratio),
        greedy_indices=greedy_idx,
        greedy_achieved=float(greedy_val),
        exhaustive_indices=exhaustive_idx,
        exhaustive_achieved=exhaustive_val,
    )


@dataclass(frozen=True)
class RealizationReport:
    basis: SubspaceBasis
    selection: ColumnSelection
    s_2k: float
    selected_smin: float


def realize_real_subspace(basis: SubspaceBasis) -> RealizationReport:
    """Reduce a complex ``2k``-dimensional subspace to a real ``k``-dim one.

    Builds ``M = [Re B | Im B]``, verifies ``s_{2k}(M) >= 1/sqrt(2)`` up to
    1e-9, row-compresses to the ``2k x 4k`` shape, selects ``k`` columns
    held to ``C_RIP``, and returns the orthonormalized span of those
    columns of ``M`` itself.  ``selected_smin`` is the smallest singular
    value of the selected ambient columns; projections onto the real
    subspace are bounded by ``1/selected_smin`` times projections onto the
    complex one.
    """
    if basis.field != "complex":
        raise ValueError("realization starts from a complex basis")
    if basis.k % 2 != 0 or basis.k < 2:
        raise ValueError("the complex subspace dimension must be even (2k)")
    k = basis.k // 2
    b = basis.columns
    m_full = np.hstack([b.real, b.imag])
    u, s, _ = np.linalg.svd(m_full, full_matrices=False)
    s_2k = float(s[2 * k - 1])
    if s_2k < 1.0 / np.sqrt(2.0) - 1e-9:
        raise GuaranteeMissedError(
            f"s_2k of [Re B | Im B] is {s_2k:.6f}, below 1/sqrt(2)"
        )
    compressed = u[:, : 2 * k].T @ m_full
    selection = select_columns(compressed, k)
    picked = m_full[:, list(selection.indices)]
    real_basis = orthonormalize(picked)
    smin = float(np.linalg.svd(picked, compute_uv=False)[-1])
    return RealizationReport(
        basis=real_basis,
        selection=selection,
        s_2k=s_2k,
        selected_smin=smin,
    )
