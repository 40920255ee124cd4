"""Finite unitary group presentations and their orbits.

A group is given by explicit unitary generator matrices (or symbolically as
the full signed permutation group of the coordinate axes, which expands to
three standard generators).  Orbits are computed by breadth-first search,
one level at a time: every (point, generator) product of a level comes from
one stacked ``np.matmul`` over (d, 1) points.  A stacked matmul runs the
same per-point matrix-vector kernel as a lone ``g @ x``, so every product
has the bits the per-point search gave; one matrix-matrix product
``frontier @ g.T`` would block and reorder the sums and change last bits.
Products are deduplicated by rounding coordinates to 1e-8 and hashing the
bytes, checked in the per-point order (point by point, generator by
generator), so the points, their order and the first-seen representative of
each are those of the per-point search.  The coordinates are rounded after
scaling by ``2^-s``, ``2^s`` the power of two nearest the base point's norm
(``vectors._scaled``, the scale every width runs at), so the resolution is
relative to the orbit's norm; for a unit-norm base point ``s = 0``.
Generators whose orbits contain pairs closer than that
resolution are outside the supported domain.

JSON wire format, read by :func:`read_group_json` and built by
:func:`group_from_dict`::

    {"d": 3,
     "kind": "EXPLICIT",
     "generators": [ [[[re, im], ...d entries...], ...d rows...], ... ]}

``kind`` may also be ``"SIGNED_PERMUTATIONS"``, in which case the
``generators`` field is ignored and the standard generators are built from
``d`` alone.  Matrices whose imaginary parts are all zero are stored as
real arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import OrbitTooLargeError, _integer
from .vectors import _ldexp, _scaled, _unscaled

__all__ = [
    "GroupPresentation",
    "Orbit",
    "enumerate_orbit",
    "signed_permutation_apply",
    "signed_permutation_generators",
    "group_dimension",
    "group_from_dict",
    "read_group_json",
]

UNITARY_TOL = 1e-9
DEDUP_DECIMALS = 8


def _round_keys(points: np.ndarray) -> list[bytes]:
    """One dedup key per point of an (n, d, 1) stack: its coordinates
    rounded to ``DEDUP_DECIMALS``, with -0.0 made +0.0, as raw bytes."""
    r = np.round(points.reshape(points.shape[0], -1), DEDUP_DECIMALS)
    if np.iscomplexobj(r):
        r = r.view(np.float64)
    r = r + 0.0  # normalize -0.0
    return r.view(np.dtype((np.void, r.shape[1] * r.itemsize))).ravel().tolist()


def _closure(generators, start: np.ndarray, max_size: int) -> np.ndarray:
    """Breadth-first closure of the (d,) point ``start`` under
    ``generators``, level by level.

    Returns the distinct points in discovery order, shape (n, d).  Raises
    :class:`OrbitTooLargeError` after the first level that brings the count
    of distinct points above ``max_size``.
    """
    gens = np.stack(generators)
    _, shift = _scaled(start)
    frontier = start[None, :, None]
    levels = [frontier]
    seen = set(_round_keys(_ldexp(frontier, -shift)))
    add = seen.add
    while frontier.shape[0]:
        # one matrix-vector product per (point, generator) pair, in the
        # order (point 0, g 0), (point 0, g 1), ...
        products = np.matmul(gens[None], frontier[:, None]).reshape(
            -1, start.shape[0], 1
        )
        # add() returns None, so each new key is kept once, in order
        fresh = [
            i for i, key in enumerate(_round_keys(_ldexp(products, -shift)))
            if key not in seen and not add(key)
        ]
        if len(seen) > max_size:
            raise OrbitTooLargeError(f"orbit exceeded cap of {max_size} points")
        frontier = products[fresh]
        levels.append(frontier)
    return np.concatenate(levels)[:, :, 0]


def signed_permutation_generators(d: int) -> list[np.ndarray]:
    """Standard generators of the signed permutation group on R^d."""
    if _integer("d", d) < 1:
        raise ValueError("dimension must be positive")
    flip = np.eye(d)
    flip[0, 0] = -1.0
    gens = [flip]
    if d >= 2:
        swap = np.eye(d)
        swap[[0, 1]] = swap[[1, 0]]
        gens.append(swap)
    if d >= 3:
        cycle = np.zeros((d, d))
        for i in range(d):
            cycle[i, (i + 1) % d] = 1.0
        gens.append(cycle)
    return gens


@dataclass(frozen=True)
class GroupPresentation:
    """Unitary generators acting on C^d (or R^d when all entries are real)."""

    d: int
    generators: tuple

    def __post_init__(self):
        if _integer("d", self.d) < 1:
            raise ValueError("dimension must be positive")
        if not self.generators:
            raise ValueError("at least one generator required")
        gens = []
        for g in self.generators:
            a = np.asarray(g)
            if np.iscomplexobj(a):
                a = np.ascontiguousarray(a, dtype=np.complex128)
            else:
                a = np.ascontiguousarray(a, dtype=np.float64)
            if a.shape != (self.d, self.d):
                raise ValueError(
                    f"generator shape {a.shape} does not match d={self.d}"
                )
            if not np.isfinite(a).all():
                raise ValueError("generator entries must be finite")
            # an overflowing product makes the deviation NaN, which must not pass
            with np.errstate(over="ignore", invalid="ignore"):
                err = float(np.max(np.abs(a @ a.conj().T - np.eye(self.d))))
            if not err <= UNITARY_TOL:
                raise ValueError(f"generator is not unitary (deviation {err:.3e})")
            a.setflags(write=False)
            gens.append(a)
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def signed_permutations(cls, d: int) -> "GroupPresentation":
        return cls(d=d, generators=tuple(signed_permutation_generators(d)))

    @property
    def field(self) -> str:
        if any(np.iscomplexobj(g) for g in self.generators):
            return "complex"
        return "real"


@dataclass(frozen=True)
class Orbit:
    """Finite set of points of equal Euclidean norm; the first is the base.

    The norms must agree to 1e-9 relative to the base point's norm, which
    must be finite in float64.  They are taken on the points scaled by
    ``2^-s``, ``2^s`` the power of two nearest the base point's norm (the
    scale the widths run it at), so no square of a valid orbit overflows
    or underflows.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("orbit needs a nonempty (n, d) point array")
        if np.iscomplexobj(pts):
            pts = np.ascontiguousarray(pts, dtype=np.complex128)
        else:
            pts = np.ascontiguousarray(pts, dtype=np.float64)
        if not np.isfinite(pts).all():
            raise ValueError("orbit points must be finite")
        # the base point's shift fits every point of its norm, and a point of
        # another norm fails the check whatever its shift
        _, shift = _scaled(pts[0])
        # an overflowing norm makes the deviation NaN, which must not pass
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(_ldexp(pts, -shift), axis=1)
            dev = float(np.max(np.abs(norms - norms[0])))
        try:
            # raises when the base norm, scaled back, overflows
            _unscaled(float(norms[0]), shift)
            common = dev <= 1e-9 * norms[0]
        except ValueError:
            common = False
        if not common:
            raise ValueError("orbit points must share a common finite norm")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def enumerate_orbit(group: GroupPresentation, v, max_size: int = 10_000) -> Orbit:
    """Closure of ``v`` under the generators, as an :class:`Orbit`.

    Raises :class:`OrbitTooLargeError` as soon as the closure exceeds
    ``max_size`` points, a positive integer.  For a finite group the
    generator semigroup equals the group, so no explicit inverses are needed.
    """
    # `len(seen) > nan` is False, so a NaN cap would never stop the search
    if _integer("max_size", max_size) < 1:
        raise ValueError(f"max_size must be a positive integer, got {max_size!r}")
    v = np.asarray(v)
    if v.shape != (group.d,):
        raise ValueError(f"base point must have shape ({group.d},)")
    if not np.isfinite(v).all():
        raise ValueError("base point must be finite")
    if group.field == "complex" or np.iscomplexobj(v):
        v = v.astype(np.complex128)
    else:
        v = v.astype(np.float64)
    return Orbit(_closure(group.generators, v, max_size))


def signed_permutation_apply(perm, signs, v) -> np.ndarray:
    """Apply the signed permutation ``(gv)_i = signs[i] * v[perm[i]]``.

    ``perm`` must be a permutation of ``range(d)``, every sign must have
    unit modulus within 1e-9 (so the map is unitary), and ``v`` must be
    finite.
    """
    perm = np.asarray(perm)
    signs = np.asarray(signs)
    v = np.asarray(v)
    d = v.shape[0]
    if perm.shape != (d,) or signs.shape != (d,):
        raise ValueError("perm, signs, and v must share one length")
    if not np.array_equal(np.sort(perm), np.arange(d)):
        raise ValueError("perm is not a permutation of range(d)")
    # written so that a NaN deviation fails the test
    if not float(np.max(np.abs(np.abs(signs) - 1.0))) <= 1e-9:
        raise ValueError("signs must have unit modulus")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    return signs * v[perm]


def group_dimension(obj: dict) -> int:
    """The dimension of a wire-format object, read without building it."""
    try:
        d = obj["d"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed group object: {exc}") from exc
    return _integer("group d", d)


def group_from_dict(obj: dict) -> GroupPresentation:
    """Build a presentation from the JSON wire format."""
    d = group_dimension(obj)
    try:
        kind = str(obj["kind"]).lower()
    except KeyError as exc:
        raise ValueError(f"malformed group object: {exc}") from exc
    if kind == "signed_permutations":
        return GroupPresentation.signed_permutations(d)
    if kind != "explicit":
        raise ValueError(f"unknown group kind {obj['kind']!r}")
    raw = obj.get("generators")
    if not raw:
        raise ValueError("explicit group needs a nonempty generators list")
    gens = []
    for idx, g in enumerate(raw):
        a = np.asarray(g, dtype=np.float64)
        if a.shape != (d, d, 2):
            raise ValueError(
                f"generator {idx} must be a {d}x{d} matrix of [re, im] "
                f"pairs, got array of shape {a.shape}"
            )
        m = a[..., 0] + 1j * a[..., 1]
        if not np.any(a[..., 1]):
            m = m.real
        gens.append(m)
    return GroupPresentation(d=d, generators=tuple(gens))


def read_group_json(path) -> dict:
    """The wire-format object of a JSON file; parse errors carry positions."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return obj
