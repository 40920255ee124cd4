"""Witness vectors, coordinate profiles, Gram bounds, adversarial search."""

from fractions import Fraction

import numpy as np
import pytest

from cylwidth.groups import GroupPresentation, enumerate_orbit
from cylwidth.lowerbound import (
    SigmaProfile,
    adversarial_min_width,
    mean_abs_coordinates,
    selberg_check,
    sigma_profile,
    witness_vector,
)
from cylwidth.measures import sample_uniform
from cylwidth.vectors import SubspaceBasis


def test_witness_harmonic_tail_norm():
    wit = witness_vector(4, 2)
    expected = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    assert abs(wit.raw_norm_sq - float(expected)) < 1e-12
    assert abs(float(np.linalg.norm(wit.unit)) - 1.0) < 1e-12
    assert wit.unit[0] >= wit.unit[1] >= wit.unit[2] > 0.0
    assert wit.unit[3] == 0.0


def test_witness_without_shift_for_rank_one():
    wit = witness_vector(5, 1)
    raw = 1.0 / np.sqrt(np.arange(1, 6, dtype=np.float64))
    assert np.allclose(wit.unit, raw / np.linalg.norm(raw))
    with pytest.raises(ValueError):
        witness_vector(3, 4)


def test_sigma_profile_of_coordinate_subspace():
    prof = sigma_profile(SubspaceBasis(np.eye(6)[:, :2]))
    assert np.allclose(prof.sigmas[:2], 1.0 / np.sqrt(2.0))
    assert np.allclose(prof.sigmas[2:], 0.0)


def test_sigma_profile_identities_on_random_subspaces():
    for i in range(50):
        rng = np.random.default_rng([90, i])
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, d + 1))
        field = "complex" if i % 2 else "real"
        prof = sigma_profile(sample_uniform(k, d, field, seed=[91, i]))
        assert abs(float(np.sum(prof.sigmas**2)) - 1.0) < 1e-8
        caps = np.minimum(1.0 / np.sqrt(k), 1.0 / np.sqrt(np.arange(1, d + 1)))
        assert np.all(prof.sigmas <= caps + 1e-9)
        assert np.all(np.diff(prof.sigmas) <= 1e-15)


def test_sigma_profile_validation():
    with pytest.raises(ValueError):
        SigmaProfile(sigmas=np.array([1.0, 1.0]), d=2, k=1)
    with pytest.raises(ValueError):
        SigmaProfile(sigmas=np.array([1.0]), d=2, k=1)


def test_selberg_exact_boundary_cases():
    iso = selberg_check(np.eye(3))
    assert iso.holds
    assert abs(iso.lhs - 1.0) < 1e-12
    assert abs(iso.margin) < 1e-12
    # equal rows sit exactly on the boundary: top eigenvalue m, row sum m
    ones = selberg_check(np.ones((4, 2)) / np.sqrt(2.0))
    assert ones.holds
    assert abs(ones.lhs - 4.0) < 1e-9
    assert abs(ones.margin) < 1e-9


def test_selberg_random_complex_families_hold():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        d = int(rng.integers(1, 12))
        x = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        assert selberg_check(x).holds


def test_selberg_input_validation():
    with pytest.raises(ValueError):
        selberg_check(np.ones(3))
    for bad in (np.nan, np.inf, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            selberg_check(np.eye(3), tol=bad)


def test_mean_abs_coordinates_supported_on_the_subspace():
    basis = SubspaceBasis(np.eye(8)[:, :3])
    m = mean_abs_coordinates(basis, trials=4000, seed=0)
    assert np.allclose(m[3:], 0.0)
    assert np.allclose(m[:3], m[0], rtol=0.1)
    assert np.array_equal(m, mean_abs_coordinates(basis, trials=4000, seed=0))


def test_adversarial_search_basics():
    wit = witness_vector(8, 1)
    res = adversarial_min_width(8, 1, wit.unit, restarts=3, steps=150, seed=4)
    assert 0.0 < res.min_value < 1.0
    assert (res.basis.d, res.basis.k) == (8, 1)
    assert res.evaluations >= 3 * 150
    assert res.min_value * np.sqrt(np.log(16.0)) >= 0.1
    res2 = adversarial_min_width(8, 1, wit.unit, restarts=3, steps=150, seed=4)
    assert res2.min_value == res.min_value
    with pytest.raises(ValueError):
        adversarial_min_width(4, 5, witness_vector(4, 1).unit)
    with pytest.raises(ValueError):
        adversarial_min_width(8, 1, np.ones(5))
    # zero restarts would report an infinite minimum with no frame
    with pytest.raises(ValueError):
        adversarial_min_width(8, 1, wit.unit, restarts=0)
    with pytest.raises(ValueError, match="steps"):
        adversarial_min_width(8, 1, wit.unit, steps=-1)


def test_adversarial_search_accepts_orbit_targets():
    group = GroupPresentation.signed_permutations(4)
    orbit = enumerate_orbit(group, witness_vector(4, 1).unit)
    res = adversarial_min_width(4, 1, orbit, restarts=2, steps=100, seed=1)
    assert 0.0 < res.min_value <= 1.0 + 1e-12
