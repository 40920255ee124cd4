"""Vectors, decreasing rearrangements, and orthonormal subspace bases.

Conventions used throughout the package:

* the scalar field of an array is its dtype (float64 for real data,
  complex128 for complex data); every routine accepts both,
* the decreasing rearrangement of ``v`` is the vector of moduli ``|v_i|``
  sorted in non-increasing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError

__all__ = [
    "SubspaceBasis",
    "decreasing_rearrangement",
    "decreasing_argsort",
    "orthonormalize",
]

ORTHO_TOL = 1e-9
SUM_ZERO_TOL = 1e-9
RANK_TOL = 1e-10


def _as_matrix(columns) -> np.ndarray:
    a = np.asarray(columns)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("expected a nonempty 2-d array of basis columns")
    if np.iscomplexobj(a):
        return np.ascontiguousarray(a, dtype=np.complex128)
    return np.ascontiguousarray(a, dtype=np.float64)


def _gram_deviation(cols: np.ndarray) -> float:
    """Largest entry of ``|C^H C - I|`` for the columns ``C``."""
    # an overflowing Gram matrix makes the deviation NaN, which must not pass
    # a ``<=`` check
    with np.errstate(over="ignore", invalid="ignore"):
        gram = cols.conj().T @ cols
        return float(np.max(np.abs(gram - np.eye(cols.shape[1]))))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a k-dimensional subspace, stored column-wise.

    Entries must be finite, and orthonormality is validated on construction
    (max deviation of the Gram matrix from the identity at most 1e-9).  When
    ``sum_zero`` is set the columns must additionally have coordinate sums at
    most 1e-9 in modulus, i.e. the subspace sits inside the hyperplane
    orthogonal to the all-ones vector.  The stored array is made read-only,
    and stays so through pickling.
    """

    columns: np.ndarray
    sum_zero: bool = False

    def __post_init__(self):
        cols = _as_matrix(self.columns)
        d, k = cols.shape
        if k > d:
            raise ValueError(f"basis has {k} columns in dimension {d}")
        if not np.isfinite(cols).all():
            raise ValueError("basis columns must be finite")
        err = _gram_deviation(cols)
        if not err <= ORTHO_TOL:
            raise ValueError(f"columns not orthonormal (deviation {err:.3e})")
        self._seal(cols)

    def __reduce__(self):
        # unpickle through the constructor, so the columns are validated and
        # read-only again (pickle restores arrays writable)
        return (type(self), (self.columns, self.sum_zero))

    def _seal(self, cols: np.ndarray) -> None:
        if self.sum_zero:
            worst = float(np.max(np.abs(cols.sum(axis=0))))
            if not worst <= SUM_ZERO_TOL:
                raise ValueError(
                    f"columns not sum-free (coordinate sum {worst:.3e})"
                )
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _from_q_factor(cls, q: np.ndarray, sum_zero: bool) -> "SubspaceBasis":
        """Basis from a QR ``Q`` factor, orthonormal by construction.

        Householder QR returns columns orthonormal to working precision
        whatever the input's conditioning, so the Gram re-check is skipped;
        the sum check still runs.
        """
        basis = object.__new__(cls)
        object.__setattr__(basis, "sum_zero", sum_zero)
        basis._seal(q)
        return basis

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.columns) else "real"

    def complexify(self) -> "SubspaceBasis":
        """Same columns reinterpreted over the complex field."""
        if self.field == "complex":
            return self
        return SubspaceBasis(
            self.columns.astype(np.complex128), sum_zero=self.sum_zero
        )


def _ldexp(a: np.ndarray, n: int) -> np.ndarray:
    """``2^n a`` for a float64 or complex128 array, exact unless an entry
    leaves the normal range; ``a`` itself for ``n = 0``."""
    if not n:
        return a
    if np.iscomplexobj(a):
        return np.ldexp(np.ascontiguousarray(a).view(np.float64), n).view(a.dtype)
    return np.ldexp(a, n)


def _scaled(v):
    """``(2^-s v, s)``, with ``2^s`` the power of two nearest ``||v||``.

    The widths, the search and the orbits all run at this scale, so their
    fixed tolerances always act on a vector of norm in ``[2^-1/2, 2^1/2]``,
    and scale the result back with :func:`_unscaled`.  The width is
    positively homogeneous and a power of two is exact, so ``2^j v`` runs
    on the same bits as ``v`` for every ``j``, and a unit-norm ``v`` gets
    ``s = 0`` and is returned as it is.  ``s`` is read off the largest
    entry, then corrected by the norm of ``v`` scaled by that entry, whose
    square neither overflows nor underflows.  ``s = 0`` for ``v = 0``.
    """
    x = v.view(np.float64) if np.iscomplexobj(v) else v
    peak = float(np.abs(x).max())
    if not peak:
        return v, 0
    shift = math.frexp(peak)[1]
    w = np.ldexp(x, -shift)
    shift += round(0.5 * math.log2(float(w @ w)))
    return _ldexp(v, -shift), shift


def _unscaled(value: float, shift: int) -> float:
    """A width of ``2^-shift v`` scaled back to ``v``; overflow raises."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        raise ValueError("the width overflows float64") from None


def decreasing_rearrangement(v) -> np.ndarray:
    """Moduli of ``v`` sorted in non-increasing order."""
    v = np.asarray(v)
    return np.sort(np.abs(v), kind="stable")[::-1].copy()


def decreasing_argsort(v) -> np.ndarray:
    """Indices ordering ``v`` by decreasing modulus, ties by original index."""
    v = np.asarray(v)
    return np.argsort(-np.abs(v), kind="stable")


def orthonormalize(columns, sum_zero: bool = False) -> SubspaceBasis:
    """Orthonormal basis with the same column span as ``columns``.

    Raises ``ValueError`` on non-finite entries, and
    :class:`RankDeficientError` when the columns do not determine a subspace
    of their full count: there are more columns than coordinates, or the
    smallest singular value is at most ``1e-10`` times the largest.  The
    singular values are taken from the small factor R of ``columns = QR``,
    which has the spectrum of ``columns`` since Q has orthonormal columns.
    The QR factor is normalized to make the diagonal of R real positive, so
    the output is deterministic.
    """
    a = _as_matrix(columns)
    if not np.isfinite(a).all():
        raise ValueError("columns must be finite")
    if a.shape[1] > a.shape[0]:
        # the reduced QR would keep only d of the columns
        raise RankDeficientError(
            f"{a.shape[1]} columns in dimension {a.shape[0]} are dependent"
        )
    q, full_rank, s = _orthonormal_stack(a[None])
    if not full_rank[0]:
        raise RankDeficientError(
            f"columns are numerically rank deficient (spectrum {s[0, -1]:.3e}"
            f" vs {s[0, 0]:.3e})"
        )
    return SubspaceBasis._from_q_factor(q[0], sum_zero)


def _orthonormal_stack(a: np.ndarray):
    """Normalized QR factors of a stack of finite (d, k) matrices, k <= d.

    Returns ``(q, full_rank, s)``: the (S, d, k) Q factors with the diagonal
    of each R made real positive, a mask of the matrices whose smallest
    singular value exceeds ``RANK_TOL`` times the largest, and the (S, k)
    singular values.  The stacked LAPACK calls factor each matrix alone, so
    every ``q[i]`` has the bits that a lone (d, k) call gives.
    """
    q, r = np.linalg.qr(a)
    s = np.linalg.svd(r, compute_uv=False)
    # a zero spectrum fails too, since its smallest value is 0
    full_rank = s[:, -1] > RANK_TOL * s[:, 0]
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.iscomplexobj(diag):
        mod = np.abs(diag)
        phase = np.where(mod > 0, diag / np.where(mod > 0, mod, 1.0), 1.0).conj()
    else:
        # diag / |diag| is exactly -1.0 or 1.0 for a real diagonal
        phase = np.where(diag < 0.0, -1.0, 1.0)
    return q * phase[:, None, :], full_rank, s
