"""Group presentations, closures, orbits, and the JSON wire format."""

import json

import numpy as np
import pytest

from cylwidth.errors import GroupTooLargeError, OrbitTooLargeError
from cylwidth.groups import (
    GroupPresentation,
    Orbit,
    enumerate_group_elements,
    enumerate_orbit,
    group_from_dict,
    load_group_json,
    signed_permutation_apply,
    signed_permutation_generators,
)


def test_apply_matches_matrix_action():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        perm = rng.permutation(d)
        signs = rng.choice([-1.0, 1.0], d)
        v = rng.standard_normal(d)
        g = np.zeros((d, d))
        g[np.arange(d), perm] = signs
        assert np.allclose(signed_permutation_apply(perm, signs, v), g @ v)


def test_apply_validates_inputs():
    with pytest.raises(ValueError):
        signed_permutation_apply([0, 0], [1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        signed_permutation_apply([0, 1], [2.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        signed_permutation_apply([0, 1], [1.0, 1.0], [1.0, 2.0, 3.0])


def test_standard_generators_are_orthogonal():
    for d in (1, 2, 3, 6):
        for g in signed_permutation_generators(d):
            assert np.allclose(g @ g.T, np.eye(d), atol=1e-15)


def test_generic_orbit_d3_has_48_points():
    group = GroupPresentation.signed_permutations(3)
    base = np.array([0.9, 0.4, 0.1])
    orbit = enumerate_orbit(group, base)
    assert (orbit.n, orbit.d) == (48, 3)
    assert np.array_equal(orbit.base_point, base)
    norms = np.linalg.norm(orbit.points, axis=1)
    assert np.allclose(norms, np.linalg.norm(base), atol=1e-12)


def test_degenerate_orbit_is_smaller():
    group = GroupPresentation.signed_permutations(3)
    orbit = enumerate_orbit(group, np.array([1.0, 0.0, 0.0]))
    assert orbit.n == 6


def test_group_closure_counts():
    assert len(enumerate_group_elements(GroupPresentation.signed_permutations(2))) == 8
    assert len(enumerate_group_elements(GroupPresentation.signed_permutations(3))) == 48


def test_orbit_and_group_caps():
    group = GroupPresentation.signed_permutations(4)  # order 384
    with pytest.raises(OrbitTooLargeError):
        enumerate_orbit(group, np.array([0.8, 0.5, 0.3, 0.1]), max_size=100)
    with pytest.raises(GroupTooLargeError):
        enumerate_group_elements(group, max_size=50)


def test_rejects_non_unitary_generator():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GroupPresentation(d=2, generators=(shear,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_generators_and_orbits(bad):
    # comparisons with NaN are False, so a tolerance check alone lets it in
    for g in (np.full((2, 2), bad), np.array([[bad, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="finite"):
            GroupPresentation(d=2, generators=(g,))
        with pytest.raises(ValueError, match="finite"):
            GroupPresentation(d=2, generators=(g.astype(np.complex128),))
    for pts in (np.full((3, 2), bad), np.array([[1.0, 0.0], [0.0, bad]])):
        with pytest.raises(ValueError, match="finite"):
            Orbit(pts)
        with pytest.raises(ValueError, match="finite"):
            Orbit(pts.astype(np.complex128))


def test_explicit_dict_real_rotation():
    angle = 2.0 * np.pi / 5.0
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    wire = [[[rot[i, j], 0.0] for j in range(2)] for i in range(2)]
    group = group_from_dict({"d": 2, "kind": "Explicit", "generators": [wire]})
    assert group.field == "real"
    assert len(enumerate_group_elements(group)) == 5


def test_explicit_dict_complex_phase():
    group = group_from_dict(
        {"d": 1, "kind": "explicit", "generators": [[[[0.0, 1.0]]]]}
    )
    assert group.field == "complex"
    assert len(enumerate_group_elements(group)) == 4


def test_wire_format_round_trip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"d": 3, "kind": "SIGNED_PERMUTATIONS"}))
    group = load_group_json(path)
    assert group.kind == "signed_permutations"
    assert group.d == 3
    assert len(group.generators) == 3


def test_wire_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        load_group_json(bad)
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level"):
        load_group_json(top)
    with pytest.raises(ValueError, match="kind"):
        group_from_dict({"d": 2, "kind": "mystery"})
    with pytest.raises(ValueError, match="shape"):
        group_from_dict(
            {"d": 2, "kind": "explicit", "generators": [[[1.0, 0.0], [0.0, 1.0]]]}
        )
    with pytest.raises(ValueError):
        group_from_dict({"kind": "explicit"})
