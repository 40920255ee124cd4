"""Vectors, decreasing rearrangements, and orthonormal subspace bases.

Conventions used throughout the package:

* the scalar field of an array is its dtype (float64 for real data,
  complex128 for complex data); every routine accepts both,
* the decreasing rearrangement of ``v`` is the vector of moduli ``|v_i|``
  sorted in non-increasing order.
"""

from __future__ import annotations

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
    q, r = np.linalg.qr(a)
    s = np.linalg.svd(r, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficientError(
            f"columns are numerically rank deficient (spectrum {s[-1]:.3e}"
            f" vs {s[0]:.3e})"
        )
    diag = np.diagonal(r)
    if np.iscomplexobj(diag):
        mod = np.abs(diag)
        phase = np.where(mod > 0, diag / np.where(mod > 0, mod, 1.0), 1.0).conj()
    else:
        # diag / |diag| is exactly -1.0 or 1.0 for a real diagonal
        phase = np.where(diag < 0.0, -1.0, 1.0)
    q = q * phase[None, :]
    return SubspaceBasis._from_q_factor(q, sum_zero)
