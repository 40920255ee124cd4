"""Rearrangements and orthonormal subspace bases."""

import pickle

import numpy as np
import pytest

from cylwidth.errors import RankDeficientError
from cylwidth.vectors import (
    SubspaceBasis,
    decreasing_argsort,
    decreasing_rearrangement,
    orthonormalize,
    projection_norm,
)


def test_rearrangement_sorts_moduli():
    v = np.array([3.0, -5.0, 0.0, 4.0])
    assert np.array_equal(decreasing_rearrangement(v), [5.0, 4.0, 3.0, 0.0])


def test_rearrangement_complex_uses_moduli():
    v = np.array([1.0 + 1.0j, -2.0 + 0.0j, 0.5j])
    assert np.allclose(decreasing_rearrangement(v), [2.0, np.sqrt(2.0), 0.5])


def test_argsort_breaks_ties_by_position():
    v = np.array([2.0, -2.0, 1.0, 2.0])
    assert decreasing_argsort(v).tolist() == [0, 1, 3, 2]


def test_orthonormalize_gram_and_span():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 3))
    basis = orthonormalize(a)
    assert (basis.d, basis.k, basis.field) == (7, 3, "real")
    assert np.allclose(basis.columns.T @ basis.columns, np.eye(3), atol=1e-12)
    for j in range(3):
        assert np.allclose(basis.columns @ (basis.columns.T @ a[:, j]), a[:, j])


def test_orthonormalize_deterministic():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    assert np.array_equal(orthonormalize(a).columns, orthonormalize(a).columns)


def test_orthonormalize_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        orthonormalize(np.ones((5, 2)))
    with pytest.raises(RankDeficientError):
        orthonormalize(np.zeros((4, 1)))
    cols = np.random.default_rng(8).standard_normal((6, 3))
    cols[:, 2] = cols[:, 0] - 2.0 * cols[:, 1]
    with pytest.raises(RankDeficientError):
        orthonormalize(cols)
    # more columns than coordinates: full row rank, yet dependent
    for wide in (np.random.default_rng(7).standard_normal((2, 3)), np.eye(3, 4),
                 np.ones((1, 2), dtype=np.complex128)):
        with pytest.raises(RankDeficientError):
            orthonormalize(wide)
    rng = np.random.default_rng(9)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        for a in (rng.standard_normal((6, 2)),
                  rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))):
            if np.iscomplexobj(bad) and not np.iscomplexobj(a):
                continue
            a[3, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                orthonormalize(a)


def _orthonormalize_reference(columns, sum_zero=False):
    # the rank test on an SVD of the whole input, then the QR, then the
    # full validation of the basis
    a = np.asarray(columns)
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError("rank deficient")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r).copy()
    mod = np.abs(diag)
    phase = np.where(mod > 0, diag / np.where(mod > 0, mod, 1.0), 1.0)
    return SubspaceBasis(q * phase.conj()[None, :], sum_zero=sum_zero)


def test_orthonormalize_equals_the_validated_svd_path():
    # the rank test on R and the skipped Gram check leave Q bit for bit
    rng = np.random.default_rng(10)
    cases = complex_cases = 0
    for i in range(2200):
        d = int(rng.integers(1, 40))
        k = int(rng.integers(1, min(d, 6) + 1))
        a = rng.standard_normal((d, k))
        if i % 40 == 0:
            a = a + 1j * rng.standard_normal((d, k))
        if i % 7 == 0:
            a[:, -1] = a[:, 0] + 1e-6 * a[:, -1]  # ill-conditioned, full rank
        sum_zero = i % 3 == 0 and k < d
        if sum_zero:
            a = a - a.mean(axis=0, keepdims=True)
        try:
            want = _orthonormalize_reference(a, sum_zero)
        except (RankDeficientError, ValueError):
            continue
        got = orthonormalize(a, sum_zero=sum_zero)
        assert got.columns.dtype == want.columns.dtype
        assert got.columns.tobytes() == want.columns.tobytes(), i
        assert got.columns.flags.c_contiguous and not got.columns.flags.writeable
        assert got.sum_zero == sum_zero
        cases += 1
        complex_cases += np.iscomplexobj(a)
    assert cases - complex_cases >= 2000 and complex_cases >= 50
    # the sum check still runs on a trusted Q
    with pytest.raises(ValueError, match="sum-free"):
        orthonormalize(np.eye(4)[:, :2], sum_zero=True)


def test_basis_validation():
    with pytest.raises(ValueError):
        SubspaceBasis(np.ones((3, 2)))
    with pytest.raises(ValueError):
        SubspaceBasis(np.eye(4)[:, :2], sum_zero=True)
    with pytest.raises(ValueError):
        SubspaceBasis(np.ones((2, 3)))
    # NaN slips past a plain `deviation > tol` check
    for bad in (np.nan, np.inf):
        cols = np.eye(3)[:, :2].copy()
        cols[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SubspaceBasis(cols)


def test_basis_rejects_overflowing_columns():
    # finite entries whose Gram matrix overflows to NaN
    with pytest.raises(ValueError, match="not orthonormal"):
        SubspaceBasis(np.array([[1e200 + 1e200j], [1e200 - 1e200j]]))
    # a NaN coordinate sum must not pass the sum check
    with pytest.raises(ValueError, match="sum-free"):
        SubspaceBasis._from_q_factor(np.array([[np.nan], [0.0]]), sum_zero=True)


def test_basis_is_read_only():
    basis = orthonormalize(np.random.default_rng(3).standard_normal((5, 2)))
    with pytest.raises(ValueError):
        basis.columns[0, 0] = 7.0
    # pickle restores arrays writable; the basis is rebuilt sealed
    again = pickle.loads(pickle.dumps(basis))
    assert again.columns.tobytes() == basis.columns.tobytes()
    assert not again.columns.flags.writeable


def test_complexify_preserves_columns_and_flags():
    cols = np.array([[1.0], [-1.0], [0.0], [0.0]]) / np.sqrt(2.0)
    basis = SubspaceBasis(cols, sum_zero=True)
    cplx = basis.complexify()
    assert cplx.field == "complex"
    assert cplx.sum_zero
    assert np.allclose(cplx.columns, basis.columns)
    assert cplx.complexify() is cplx


def test_projection_identities():
    rng = np.random.default_rng(5)
    basis = orthonormalize(rng.standard_normal((8, 3)))
    x = rng.standard_normal(8)
    p = basis.columns @ (basis.columns.T @ x)
    assert np.allclose(basis.columns @ (basis.columns.T @ p), p)
    assert abs(np.linalg.norm(p) - projection_norm(basis, x)) < 1e-12
    assert abs(np.vdot(x - p, p)) < 1e-12
