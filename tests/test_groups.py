"""Group presentations, orbits, and the JSON wire format."""

import hashlib
import json

import numpy as np
import pytest

from cylwidth.errors import OrbitTooLargeError
from cylwidth.groups import (
    GroupPresentation,
    Orbit,
    enumerate_orbit,
    group_dimension,
    group_from_dict,
    read_group_json,
    signed_permutation_apply,
    signed_permutation_generators,
)
from cylwidth.measures import sample_uniform
from cylwidth.width import width_orbit


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
    # a NaN deviation from unit modulus compares False against any tolerance
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit modulus"):
            signed_permutation_apply([1, 0, 2], [bad, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            signed_permutation_apply([1, 0, 2], [1.0, 1.0, 1.0], [1.0, bad, 3.0])


def test_standard_generators_are_orthogonal():
    for d in (1, 2, 3, 6):
        for g in signed_permutation_generators(d):
            assert np.allclose(g @ g.T, np.eye(d), atol=1e-15)


def test_generic_orbit_d3_has_48_points():
    group = GroupPresentation.signed_permutations(3)
    base = np.array([0.9, 0.4, 0.1])
    orbit = enumerate_orbit(group, base)
    assert (orbit.n, orbit.d) == (48, 3)
    assert np.array_equal(orbit.points[0], base)
    norms = np.linalg.norm(orbit.points, axis=1)
    assert np.allclose(norms, np.linalg.norm(base), atol=1e-12)


def test_degenerate_orbit_is_smaller():
    group = GroupPresentation.signed_permutations(3)
    orbit = enumerate_orbit(group, np.array([1.0, 0.0, 0.0]))
    assert orbit.n == 6


def test_orbit_and_group_caps():
    group = GroupPresentation.signed_permutations(4)  # order 384
    with pytest.raises(OrbitTooLargeError):
        enumerate_orbit(group, np.array([0.8, 0.5, 0.3, 0.1]), max_size=100)


@pytest.mark.parametrize("max_size", [float("nan"), float("inf"), 47.5, True, 0, -3])
def test_orbit_cap_must_be_a_positive_integer(max_size):
    # `len(seen) > nan` is False, so a NaN cap would let the closure run on
    with pytest.raises(ValueError, match="max_size"):
        enumerate_orbit(
            GroupPresentation.signed_permutations(3), np.array([1.0, 2.0, 3.0]),
            max_size=max_size,
        )


@pytest.mark.parametrize("d", [True, 2.0, float("nan")], ids=repr)
def test_group_dimensions_must_be_integers(d):
    # signed_permutation_generators(True) used to raise TypeError
    with pytest.raises(ValueError, match="d must be an integer"):
        signed_permutation_generators(d)
    with pytest.raises(ValueError, match="d must be an integer"):
        GroupPresentation(d=d, generators=(np.eye(2),))
    with pytest.raises(ValueError, match="group d must be an integer"):
        group_dimension({"d": d})


def _oracle_key(a):
    r = np.round(a, 8)
    if np.iscomplexobj(r):
        r = np.ascontiguousarray(r).view(np.float64)
    return (r + 0.0).tobytes()


def _oracle_closure(generators, start, max_size):
    """The per-point breadth-first closure: one ``g @ x`` and one key each."""
    items = [start]
    seen = {_oracle_key(start)}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g @ x
                key = _oracle_key(y)
                if key in seen:
                    continue
                seen.add(key)
                items.append(y)
                new.append(y)
                if len(items) > max_size:
                    return None
        frontier = new
    return np.array(items)


def _rotated_signed_permutations(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    gens = [q @ g @ q.T for g in signed_permutation_generators(d)]
    return GroupPresentation(d=d, generators=tuple(gens))


def _phase_group(d):
    # monomial matrices with 10th-root-of-unity entries: 10^d * d! elements
    phase = np.eye(d, dtype=np.complex128)
    phase[0, 0] = np.exp(2j * np.pi / 5)
    return GroupPresentation(
        d=d, generators=tuple(signed_permutation_generators(d)) + (phase,)
    )


_SP = GroupPresentation.signed_permutations
ORBIT_CASES = {
    "signed-d3": (lambda: _SP(3), [0.9, 0.4, 0.1]),
    "signed-d4": (lambda: _SP(4), [0.8, 0.5, 0.3, 0.1]),
    "signed-d5": (lambda: _SP(5), [0.7, 0.5, 0.4, 0.3, 0.1]),
    "rotated-d4": (lambda: _rotated_signed_permutations(4, 3), [0.8, 0.5, 0.3, 0.1]),
    "phase-d3": (lambda: _phase_group(3), [0.8, 0.5, 0.3]),
    "zeros-axis": (lambda: _SP(3), [1.0, 0.0, 0.0]),
    "zeros-mixed": (lambda: _SP(4), [0.6, 0.0, -0.8, 0.0]),
    "zeros-rotated": (lambda: _rotated_signed_permutations(3, 5), [0.0, 0.0, 1.0]),
    "complex-base": (lambda: _SP(3), [0.6 + 0.2j, -0.5j, 0.3]),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_is_byte_identical_to_the_per_point_closure(case):
    make, base = ORBIT_CASES[case]
    group = make()
    base = np.asarray(base)
    cplx = group.field == "complex" or np.iscomplexobj(base)
    want = _oracle_closure(
        group.generators, base.astype(np.complex128 if cplx else np.float64), 10_000
    )
    orbit = enumerate_orbit(group, base)
    assert orbit.points.dtype == want.dtype
    assert orbit.points.shape == want.shape
    assert orbit.points.tobytes() == want.tobytes()
    n = orbit.n
    with pytest.raises(OrbitTooLargeError, match=f"cap of {n - 1} "):
        enumerate_orbit(group, base, max_size=n - 1)
    assert enumerate_orbit(group, base, max_size=n).points.tobytes() == want.tobytes()


def test_d6_signed_permutation_orbit_is_pinned():
    base = np.array([0.9, 0.7, 0.5, 0.3, 0.2, 0.1])
    orbit = enumerate_orbit(_SP(6), base / np.linalg.norm(base), max_size=46_080)
    assert orbit.n == 46_080
    assert hashlib.sha256(orbit.points.tobytes()).hexdigest() == (
        "1b950d4a61359e504ebbda5d9cb2734f8f100a68c549cee2fc664939057aaaf4"
    )


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


def test_rejects_generator_whose_product_overflows():
    # finite entries, but g g* overflows to NaN
    with pytest.raises(ValueError, match="not unitary"):
        GroupPresentation(d=2, generators=([[1e200 + 1e200j, 0], [0, 1]],))


def test_orbit_rejects_points_whose_norm_overflows():
    # finite entries, but the norm of (1.5e308, 1.5e308) exceeds the largest
    # float64, so the points cannot share a finite norm
    for pts in (np.array([[1.5e308, 1.5e308], [1.0, 0.0]]),
                np.array([[1.5e308, 1.5e308]]),
                np.array([[1.0, 0.0], [1.5e308, 1.5e308]])):
        with pytest.raises(ValueError, match="finite norm"):
            Orbit(pts)
        with pytest.raises(ValueError, match="finite norm"):
            Orbit(pts.astype(np.complex128))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumerate_orbit_rejects_a_non_finite_base_point_up_front(bad):
    # before any product is formed, so the closure warns about nothing
    base = np.array([0.5, bad, 0.1])
    with pytest.raises(ValueError, match="finite"):
        enumerate_orbit(_SP(3), base)
    with pytest.raises(ValueError, match="finite"):
        enumerate_orbit(_SP(3), base.astype(np.complex128))


@pytest.mark.parametrize("scale", [1e-9, 1e-170, 1e160])
def test_scaled_orbits_are_the_scaled_unit_orbit(scale):
    # the dedup keys and the norm check are relative to the base point's
    # norm; with absolute ones the 1e-9 copy collapsed to one point, the
    # 1e160 copy was rejected and its width, like the 1e-170 one's, was lost
    base = np.array([0.8, 0.5, 0.3, 0.1])
    base = base / np.linalg.norm(base)
    unit = enumerate_orbit(_SP(4), base)
    assert unit.n == 384
    orbit = enumerate_orbit(_SP(4), scale * base)
    assert orbit.points.tobytes() == (scale * unit.points).tobytes()
    for i in range(3):
        basis = sample_uniform(2, 4, "real", seed=[61, i])
        want = scale * width_orbit(basis, unit).value
        got = width_orbit(basis, orbit)
        assert abs(got.value - want) <= 4e-16 * want
        assert (orbit.points == got.witness).all(axis=1).any()


def test_orbit_norm_check_is_relative_to_the_norm():
    # norms 1e-12 and 0.5e-12 differ by far less than 1e-9, but not relatively
    for pts in (1e-12 * np.array([[1.0, 0.0], [0.5, 0.0]]),
                1e160 * np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]])):
        with pytest.raises(ValueError, match="common finite norm"):
            Orbit(pts)
    assert Orbit(1e160 * np.array([[1.0, 0.0], [0.0, -1.0]])).n == 2


def test_explicit_dict_real_rotation():
    angle = 2.0 * np.pi / 5.0
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    wire = [[[rot[i, j], 0.0] for j in range(2)] for i in range(2)]
    group = group_from_dict({"d": 2, "kind": "Explicit", "generators": [wire]})
    assert group.field == "real"
    assert enumerate_orbit(group, np.array([1.0, 0.0])).n == 5


def test_explicit_dict_complex_phase():
    group = group_from_dict(
        {"d": 1, "kind": "explicit", "generators": [[[[0.0, 1.0]]]]}
    )
    assert group.field == "complex"
    assert enumerate_orbit(group, np.array([1.0])).n == 4


def test_wire_format_round_trip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"d": 3, "kind": "SIGNED_PERMUTATIONS"}))
    group = group_from_dict(read_group_json(path))
    assert group.d == 3
    assert len(group.generators) == 3
    for g, want in zip(group.generators, signed_permutation_generators(3)):
        assert np.array_equal(g, want)


def test_wire_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        read_group_json(bad)
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level"):
        read_group_json(top)
    with pytest.raises(ValueError, match="kind"):
        group_from_dict({"d": 2, "kind": "mystery"})
    with pytest.raises(ValueError, match="shape"):
        group_from_dict(
            {"d": 2, "kind": "explicit", "generators": [[[1.0, 0.0], [0.0, 1.0]]]}
        )
    with pytest.raises(ValueError):
        group_from_dict({"kind": "explicit"})
    # json reads 1e400 as inf, which int() cannot convert; int() truncates 3.7
    for bad in (3.7, float("inf"), float("nan"), "3", True):
        with pytest.raises(ValueError, match="group d"):
            group_from_dict({"d": bad, "kind": "signed_permutations"})
