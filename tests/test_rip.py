"""Column selection and the complex-to-real subspace reduction."""

import itertools

import numpy as np
import pytest

from cylwidth.errors import GuaranteeMissedError, RankDeficientError
from cylwidth.groups import GroupPresentation, enumerate_orbit
from cylwidth.measures import sample_uniform
from cylwidth.rip import (
    realize_real_subspace,
    rip_target,
    select_columns,
    singular_values,
)
from cylwidth.width import width_orbit


def test_singular_values_are_decreasing():
    s = singular_values(np.random.default_rng(0).standard_normal((3, 5)))
    assert np.all(np.diff(s) <= 0)


def test_rip_target_duplicated_identity():
    m = np.hstack([np.eye(2), np.eye(2)])
    # spectrum (sqrt 2, sqrt 2, 0, 0); the tail from position 2 has mass 2
    assert abs(rip_target(m, 1) - np.sqrt(2.0)) < 1e-12


def test_select_columns_duplicated_identity():
    m = np.hstack([np.eye(2), np.eye(2)])
    sel = select_columns(m, 1)
    assert abs(sel.achieved - 1.0) < 1e-12
    assert abs(sel.target - np.sqrt(2.0)) < 1e-12
    assert abs(sel.ratio - 1.0 / np.sqrt(2.0)) < 1e-12
    assert sel.exhaustive_achieved is not None
    assert sel.achieved >= sel.greedy_achieved - 1e-15


def test_selection_is_the_exhaustive_optimum_for_small_k():
    for k in (1, 2, 3):
        for i in range(8):
            rng = np.random.default_rng([120, k, i])
            m = rng.standard_normal((2 * k, 4 * k))
            sel = select_columns(m, k, c_rip=0.0)
            best = max(
                float(np.linalg.svd(m[:, list(sub)], compute_uv=False)[-1])
                for sub in itertools.combinations(range(4 * k), k)
            )
            assert abs(sel.achieved - best) < 1e-12
            assert sel.greedy_achieved <= best + 1e-12


def test_select_columns_validation():
    with pytest.raises(ValueError):
        select_columns(np.eye(3), 1)
    with pytest.raises(ValueError):
        select_columns(np.hstack([np.eye(2), np.eye(2)]).astype(np.complex128), 1)
    with pytest.raises(ValueError):
        select_columns(np.hstack([np.eye(2), np.eye(2)]), 0)
    # the matrix misses c_rip=0.9, so a NaN or inf constant would pass vacuously
    for bad in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="c_rip"):
            select_columns(np.hstack([np.eye(2), np.eye(2)]), 1, c_rip=bad)
    degenerate = np.zeros((2, 4))
    degenerate[0, 0] = 1.0
    with pytest.raises(RankDeficientError):
        select_columns(degenerate, 1)


def test_select_columns_guarantee_floor():
    m = np.hstack([np.eye(2), np.eye(2)])
    with pytest.raises(GuaranteeMissedError):
        select_columns(m, 1, c_rip=0.9)


def test_real_pairing_bound_holds_generically():
    for i in range(60):
        d = 4 + (i % 9)
        k = 1 + (i % 2)
        basis = sample_uniform(2 * k, d, "complex", seed=[31, i])
        rep = realize_real_subspace(basis)
        assert rep.s_2k >= 1.0 / np.sqrt(2.0) - 1e-9
        assert rep.basis.field == "real"
        assert (rep.basis.d, rep.basis.k) == (d, k)
        assert rep.selected_smin > 0.0
        assert len(rep.selection.indices) == k


def test_realize_validation():
    with pytest.raises(ValueError):
        realize_real_subspace(sample_uniform(2, 6, "real", seed=0))
    with pytest.raises(ValueError):
        realize_real_subspace(sample_uniform(3, 6, "complex", seed=0))


def test_realized_width_close_to_complex_width_on_an_orbit():
    group = GroupPresentation.signed_permutations(3)
    orbit = enumerate_orbit(group, np.array([0.8, 0.5, 0.2]))
    best_basis = None
    best_width = np.inf
    for i in range(12):
        basis = sample_uniform(2, 3, "complex", seed=[37, i])
        w = width_orbit(basis, orbit).value
        if w < best_width:
            best_basis, best_width = basis, w
    rep = realize_real_subspace(best_basis)
    real_width = width_orbit(rep.basis, orbit).value
    assert real_width <= 2.0 * best_width + 1e-6
