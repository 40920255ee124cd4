"""Subspace measures: atoms, dyadic blocks, combinators, invariant splits."""

import itertools

import numpy as np
import pytest

from cylwidth import measures
from cylwidth.errors import (
    CertificationFailedError,
    EmptyDyadicIndexError,
    NonOrthogonalImagesError,
)
from cylwidth.groups import GroupPresentation
from cylwidth.measures import (
    AtomMeasure,
    UniformMeasure,
    build_delocalized_subspace,
    coordinate_selection_measure,
    desk_scale_j_min,
    direct_sum_measure,
    dyadic_alt_measure,
    dyadic_index_set,
    invariant_decomposition,
    sample_uniform,
    tensor_product_measure,
)
from cylwidth.tnorm import t_norm_batch
from cylwidth.vectors import SubspaceBasis


def test_sample_uniform_orthonormal_and_deterministic():
    b1 = sample_uniform(3, 10, "complex", seed=4)
    b2 = sample_uniform(3, 10, "complex", seed=4)
    assert np.array_equal(b1.columns, b2.columns)
    assert b1.field == "complex"
    assert np.allclose(b1.columns.conj().T @ b1.columns, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        sample_uniform(5, 4)
    with pytest.raises(ValueError):
        sample_uniform(2, 4, "quaternion")


def test_uniform_measure_wraps_sampler():
    mu = UniformMeasure(k=2, d=6)
    basis = mu.sample(9)
    assert (basis.d, basis.k, basis.field) == (6, 2, "real")
    assert np.array_equal(basis.columns, sample_uniform(2, 6, "real", 9).columns)


def test_atom_measure_returns_fixed_basis():
    basis = sample_uniform(2, 5, "real", seed=0)
    mu = AtomMeasure(basis)
    assert mu.sample(123) is basis
    assert (mu.d, mu.k, mu.field) == (5, 2, "real")


def test_delocalized_subspace_properties():
    basis, cert = build_delocalized_subspace(2, 32, seed=6)
    assert basis.sum_zero and (basis.d, basis.k) == (32, 2)
    assert float(np.max(np.abs(basis.columns.sum(axis=0)))) < 1e-9
    assert cert <= 40.0
    rng = np.random.default_rng(7)
    coef = rng.standard_normal((400, 2))
    coef /= np.linalg.norm(coef, axis=1)[:, None]
    assert float(t_norm_batch(coef @ basis.columns.T).max()) <= cert + 1e-9


def test_delocalized_subspace_monte_carlo_path():
    basis, cert = build_delocalized_subspace(6, 64, seed=8)
    assert (basis.d, basis.k) == (64, 6)
    assert cert <= 40.0


def test_delocalized_threshold_failure(monkeypatch):
    monkeypatch.setattr(measures, "DELOC_ATTEMPTS", 2)
    monkeypatch.setattr(measures, "DELOC_THRESHOLD", 0.1)
    with pytest.raises(CertificationFailedError, match="below 0.1 in 2 attempts"):
        build_delocalized_subspace(2, 32, seed=6)
    with pytest.raises(ValueError):
        build_delocalized_subspace(4, 4, seed=0)


def test_scale_window():
    assert desk_scale_j_min(1) == 2
    assert desk_scale_j_min(2, delta=0) == 2
    assert desk_scale_j_min(3, delta=1) == 4
    assert dyadic_index_set(2, 256, j_min_override=2) == tuple(range(2, 9))
    with pytest.raises(EmptyDyadicIndexError):
        dyadic_index_set(1, 4, j_min_override=3)
    # the asymptotic lower end lies above every scale at small dimension
    with pytest.raises(EmptyDyadicIndexError):
        dyadic_index_set(2, 1024)


def test_dyadic_measure_structure():
    mu = dyadic_alt_measure(2, 64, j_min_override=2, seed=3)
    assert mu.j_values == (2, 3, 4, 5, 6)
    assert (mu.d, mu.k, mu.field) == (64, 2, "complex")
    for i, j in enumerate(mu.j_values):
        ambient = mu.ambient_bases[i]
        assert ambient.field == "complex"
        if 2**j < 64:
            assert float(np.max(np.abs(ambient.columns[2**j :]))) == 0.0
        assert mu.certificate_for(j) <= 40.0
        block = mu.block_basis_for(j)
        assert block.d == 2**j
        assert np.allclose(ambient.columns[: 2**j], block.columns)
    assert np.array_equal(mu.sample(11).columns, mu.sample(11).columns)
    seen = {id(mu.sample([5, i])) for i in range(80)}
    assert len(seen) == len(mu.j_values)


def test_dyadic_measure_rejects_undersized_blocks():
    with pytest.raises(ValueError):
        dyadic_alt_measure(4, 64, j_min_override=2, seed=0)


def test_direct_sum_single_block_stays_inside_it():
    block = SubspaceBasis(np.eye(8)[:, :4])
    mu = direct_sum_measure([(UniformMeasure(k=2, d=4), block)], k=2)
    basis = mu.sample(5)
    assert (basis.d, basis.k) == (8, 2)
    assert float(np.max(np.abs(basis.columns[4:]))) < 1e-12


def test_direct_sum_two_blocks_deterministic():
    b1 = SubspaceBasis(np.eye(6)[:, :3])
    b2 = SubspaceBasis(np.eye(6)[:, 3:])
    mu = direct_sum_measure(
        [(UniformMeasure(k=2, d=3), b1), (UniformMeasure(k=1, d=3), b2)], k=2
    )
    assert (mu.d, mu.k, mu.field) == (6, 2, "real")
    s1 = mu.sample(8)
    s2 = mu.sample(8)
    assert np.array_equal(s1.columns, s2.columns)
    assert (s1.d, s1.k) == (6, 2)


def test_direct_sum_validation():
    b1 = SubspaceBasis(np.eye(6)[:, :3])
    overlapping = SubspaceBasis(np.eye(6)[:, 2:5])
    with pytest.raises(ValueError):
        direct_sum_measure(
            [(UniformMeasure(k=1, d=3), b1), (UniformMeasure(k=1, d=3), overlapping)],
            k=2,
        )
    with pytest.raises(ValueError):
        direct_sum_measure([(UniformMeasure(k=1, d=4), b1)], k=1)
    with pytest.raises(ValueError):
        direct_sum_measure([(UniformMeasure(k=1, d=3), b1)], k=2)


def test_coordinate_selection_expectation_identity():
    rng = np.random.default_rng(9)
    frame = sample_uniform(4, 7, "real", seed=2)
    mu = coordinate_selection_measure(frame, k=2)
    v = rng.standard_normal(7)
    subsets = list(itertools.combinations(range(4), 2))
    exact = np.mean(
        [
            float(np.sum((frame.columns[:, list(sub)].T @ v) ** 2))
            for sub in subsets
        ]
    )
    identity = (2.0 / 4.0) * float(np.sum((frame.columns.T @ v) ** 2))
    assert abs(exact - identity) < 1e-12
    empirical = np.mean(
        [
            float(np.sum((mu.sample([3, i]).columns.T @ v) ** 2))
            for i in range(2000)
        ]
    )
    assert abs(empirical - identity) < 0.05 * identity
    # every sampled column is one of the frame columns
    sampled = mu.sample(0).columns
    for col in sampled.T:
        assert any(np.allclose(col, f) for f in frame.columns.T)


def test_coordinate_selection_validation():
    frame = sample_uniform(3, 5, "real", seed=1)
    with pytest.raises(ValueError):
        coordinate_selection_measure(frame, k=4)


def test_tensor_product_measure_mixing():
    d = 8
    v1 = SubspaceBasis(np.eye(d)[:, :2])
    shift = np.roll(np.eye(d), 2, axis=0)
    mu = tensor_product_measure(
        UniformMeasure(k=1, d=2), UniformMeasure(k=2, d=2), [np.eye(d), shift], v1
    )
    assert (mu.d, mu.k, mu.field) == (8, 2, "real")
    basis = mu.sample(4)
    assert (basis.d, basis.k) == (8, 2)
    # the span stays inside span(e1..e4) = V1 + shift(V1)
    assert float(np.max(np.abs(basis.columns[4:]))) < 1e-12
    assert np.array_equal(basis.columns, mu.sample(4).columns)


def test_tensor_product_rejects_overlapping_images():
    d = 4
    v1 = SubspaceBasis(np.eye(d)[:, :2])
    with pytest.raises(NonOrthogonalImagesError):
        tensor_product_measure(
            UniformMeasure(k=1, d=2),
            UniformMeasure(k=1, d=2),
            [np.eye(d), np.roll(np.eye(d), 1, axis=0)],
            v1,
        )


def test_tensor_product_rejects_non_unitary_mixer():
    v1 = SubspaceBasis(np.eye(4)[:, :1])
    with pytest.raises(ValueError):
        tensor_product_measure(
            UniformMeasure(k=1, d=1),
            UniformMeasure(k=1, d=1),
            [np.diag([2.0, 1.0, 1.0, 1.0])],
            v1,
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            tensor_product_measure(
                UniformMeasure(k=1, d=1),
                UniformMeasure(k=1, d=1),
                [np.diag([bad, 1.0, 1.0, 1.0])],
                v1,
            )


def test_invariant_decomposition_permutation_action_splits():
    swap = np.eye(3)[[1, 0, 2]].astype(np.complex128)
    cycle = np.eye(3)[[1, 2, 0]].astype(np.complex128)
    group = GroupPresentation(d=3, generators=(swap, cycle))
    blocks = invariant_decomposition(group, seed=1)
    assert sorted(b.k for b in blocks) == [1, 2]
    line = next(b for b in blocks if b.k == 1)
    assert np.allclose(np.abs(line.columns[:, 0]), 1.0 / np.sqrt(3.0), atol=1e-8)


def test_invariant_decomposition_signed_action_is_irreducible():
    group = GroupPresentation.signed_permutations(3)
    blocks = invariant_decomposition(group, seed=2)
    assert [b.k for b in blocks] == [3]
