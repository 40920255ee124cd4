"""Column selection and the complex-to-real subspace reduction."""

import itertools

import numpy as np
import pytest

import cylwidth.rip as rip
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


def test_rip_target_checks_k_and_the_shape():
    # k = 0 gave NaN, k = -1 gave -0.0, k = 1.5 and k = 3 on a 2x4 matrix a
    # vacuous 0.0, and True counted as 1
    m = np.hstack([np.eye(2), np.eye(2)])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="need k >= 1"):
            rip_target(m, bad)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            rip_target(m, bad)
    with pytest.raises(ValueError, match=r"got k = 3 and \(2, 4\)"):
        rip_target(m, 3)
    with pytest.raises(ValueError, match=r"got k = 1 and \(4, 2\)"):
        rip_target(m.T, 1)
    assert rip_target(m, np.int64(1)) == rip_target(m, 1)


def test_select_columns_duplicated_identity():
    m = np.hstack([np.eye(2), np.eye(2)])
    sel = select_columns(m, 1)
    assert abs(sel.achieved - 1.0) < 1e-12
    assert abs(sel.target - np.sqrt(2.0)) < 1e-12
    assert abs(sel.ratio - 1.0 / np.sqrt(2.0)) < 1e-12
    assert sel.exhaustive_achieved is not None
    assert sel.achieved >= sel.greedy_achieved - 1e-15


def test_select_columns_takes_one_full_spectrum(monkeypatch):
    # the rank check's spectrum also gives the target, which is the one
    # rip_target computes, bit for bit
    calls = []

    def counted(m):
        calls.append(m.shape)
        return singular_values(m)

    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 4):
        m = rng.standard_normal((2 * k, 4 * k))
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(rip, "singular_values", counted)
            sel = select_columns(m, k, c_rip=0.0)
        assert calls == [(2 * k, 4 * k)], k
        assert sel.target == rip_target(m, k), k


def test_equal_optimum_keeps_the_greedy_pick():
    # greedy takes the long column 3 and then column 0; the exhaustive scan
    # reaches the same value 1.0 first at (0, 1); a tie returns the greedy pick
    m = np.zeros((4, 8))
    m[[0, 1, 2, 3], [0, 1, 2, 3]] = (1.0, 1.0, 0.5, 2.0)
    m[[0, 1, 2, 3], [4, 5, 6, 7]] = 0.1
    sel = select_columns(m, 2, c_rip=0.0)
    assert sel.exhaustive_indices == (0, 1)
    assert sel.exhaustive_achieved == sel.greedy_achieved == 1.0
    assert sel.indices == sel.greedy_indices == (0, 3)
    assert sel.achieved == 1.0


def _first_best(m, subsets):
    # one SVD per subset; a later subset replaces the best only when its
    # smallest singular value is strictly larger
    best_v, best_s = -1.0, None
    for sub in subsets:
        val = float(np.linalg.svd(m[:, list(sub)], compute_uv=False)[-1])
        if val > best_v:
            best_v, best_s = val, tuple(sub)
    return best_s, best_v


def test_selection_is_the_exhaustive_optimum_for_small_k():
    for k in (1, 2, 3, 4):
        for i in range(8):
            rng = np.random.default_rng([120, k, i])
            m = rng.standard_normal((2 * k, 4 * k))
            if i % 2:
                m[:, 2 * k :] = m[:, : 2 * k]  # duplicated columns tie exactly
            sel = select_columns(m, k, c_rip=0.0)
            chosen = []
            for _ in range(k):
                rest = [c for c in range(4 * k) if c not in chosen]
                pick, _ = _first_best(m, [chosen + [c] for c in rest])
                chosen.append(pick[-1])
            assert sel.greedy_indices == tuple(sorted(chosen))
            if k <= 3:
                best_s, best_v = _first_best(m, itertools.combinations(range(4 * k), k))
                assert sel.exhaustive_indices == best_s
                assert sel.exhaustive_achieved == best_v
                # the sorted greedy subset is one of the combinations, so the
                # returned selection reaches the optimum bit for bit
                assert sel.greedy_achieved <= best_v
                assert sel.achieved == best_v
                if sel.greedy_achieved < best_v:
                    assert sel.indices == best_s
                else:
                    assert sel.indices == sel.greedy_indices
            else:
                assert sel.exhaustive_indices is None
                assert sel.indices == sel.greedy_indices
                assert sel.achieved == sel.greedy_achieved


def test_select_columns_validation():
    with pytest.raises(ValueError):
        select_columns(np.eye(3), 1)
    with pytest.raises(ValueError):
        select_columns(np.hstack([np.eye(2), np.eye(2)]).astype(np.complex128), 1)
    with pytest.raises(ValueError):
        select_columns(np.hstack([np.eye(2), np.eye(2)]), 0)
    # True used to pass as k = 1, and 1.0 to raise TypeError
    for bad in (True, 1.0, np.nan):
        with pytest.raises(ValueError, match="k must be an integer"):
            select_columns(np.hstack([np.eye(2), np.eye(2)]), bad)
    assert select_columns(np.hstack([np.eye(2), np.eye(2)]), np.int64(1)).indices
    # the matrix misses c_rip=0.9, so a NaN or inf constant would pass vacuously
    for bad in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="c_rip"):
            select_columns(np.hstack([np.eye(2), np.eye(2)]), 1, c_rip=bad)
    # a non-finite entry used to give target nan and ratio inf with no
    # GuaranteeMissedError (inf), or numpy's LinAlgError (nan)
    for bad in (np.inf, -np.inf, np.nan):
        m = np.hstack([np.eye(2), np.eye(2)])
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            select_columns(m, 1)
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
