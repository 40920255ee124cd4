"""Witness vectors, coordinate profiles, Gram bounds, adversarial search."""

from fractions import Fraction

import numpy as np
import pytest

import cylwidth.lowerbound as lowerbound
from cylwidth.errors import RankDeficientError
from cylwidth.groups import GroupPresentation, Orbit, enumerate_orbit
from cylwidth.lowerbound import (
    SEARCH_INITIAL_STEP,
    SEARCH_REJECTION_LIMIT,
    SigmaProfile,
    adversarial_min_width,
    mean_abs_coordinates,
    selberg_check,
    sigma_profile,
    witness_vector,
)
from cylwidth.measures import sample_uniform
from cylwidth.vectors import SubspaceBasis, orthonormalize
from cylwidth.width import width_altmax, width_orbit


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


def test_adversarial_search_rejects_bad_vector_input_up_front(monkeypatch):
    # the search validates the target and the inner restart count once,
    # before it draws its first frame
    def no_frames(*args, **kwargs):
        raise AssertionError("the search drew a frame before validating")

    monkeypatch.setattr(lowerbound, "sample_uniform", no_frames)
    wit = witness_vector(8, 1).unit
    with pytest.raises(ValueError, match="inner restart"):
        adversarial_min_width(8, 1, wit, inner_restarts=0)
    for bad in (np.nan, np.inf, -np.inf):
        target = wit.copy()
        target[3] = bad
        with pytest.raises(ValueError, match="finite"):
            adversarial_min_width(8, 1, target)


def test_adversarial_search_accepts_orbit_targets():
    group = GroupPresentation.signed_permutations(4)
    orbit = enumerate_orbit(group, witness_vector(4, 1).unit)
    res = adversarial_min_width(4, 1, orbit, restarts=2, steps=100, seed=1)
    assert 0.0 < res.min_value <= 1.0 + 1e-12


def _search_with_full_evaluations(d, k, target, restarts, steps, seed, inner_restarts=6):
    # the search as it was before candidates were cut off at the current
    # width: every candidate gets a complete evaluation
    if isinstance(target, Orbit):
        def evaluate(basis, rng):
            return width_orbit(basis, target).value
    else:
        def evaluate(basis, rng):
            return width_altmax(basis, target, restarts=inner_restarts, seed=rng,
                                refine="none").value
    best_val, best_basis, evals = np.inf, None, 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        basis = sample_uniform(k, d, "real", rng)
        current = evaluate(basis, rng)
        evals += 1
        eta, rejected = SEARCH_INITIAL_STEP, 0
        for _ in range(steps):
            noise = rng.standard_normal((d, k))
            try:
                cand = orthonormalize(basis.columns + eta * noise)
            except RankDeficientError:
                rejected += 1
                if rejected >= SEARCH_REJECTION_LIMIT:
                    eta /= 2.0
                    rejected = 0
                continue
            val = evaluate(cand, rng)
            evals += 1
            if val < current:
                basis, current, rejected = cand, val, 0
            else:
                rejected += 1
                if rejected >= SEARCH_REJECTION_LIMIT:
                    eta /= 2.0
                    rejected = 0
        if current < best_val:
            best_val, best_basis = current, basis
    return best_val, best_basis, evals


def _search_cases():
    for d, k, seed in ((8, 1, 1), (12, 2, 2), (16, 4, 3), (20, 3, 4)):
        yield d, k, witness_vector(d, k).unit, 2, 120, seed  # zero tail if k >= 2
    for d, k, seed in ((10, 2, 5), (16, 1, 6)):
        yield d, k, np.random.default_rng(seed).standard_normal(d), 2, 120, seed
    # long enough for the step to collapse: candidates then sit within
    # rounding of the current width, and some are accepted for a gain of
    # one ulp
    yield 4, 1, np.random.default_rng(2).standard_normal(4), 1, 2500, 2
    orbit = enumerate_orbit(GroupPresentation.signed_permutations(4),
                            witness_vector(4, 2).unit)
    yield 4, 2, orbit, 2, 100, 8


def test_adversarial_search_matches_full_evaluations():
    for d, k, target, restarts, steps, seed in _search_cases():
        res = adversarial_min_width(d, k, target, restarts=restarts, steps=steps,
                                    seed=seed)
        want_val, want_basis, want_evals = _search_with_full_evaluations(
            d, k, target, restarts, steps, seed)
        assert np.float64(res.min_value).tobytes() == np.float64(want_val).tobytes()
        assert res.evaluations == want_evals
        assert res.basis.columns.tobytes() == want_basis.columns.tobytes()
