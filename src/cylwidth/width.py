"""Supremum of projection norms over signed-permutation images.

For a subspace ``W`` and a vector ``v`` the quantity of interest is

    sup_g || proj_W (g v) ||_2

where ``g`` ranges over the group of coordinate permutations composed with
unit-modulus coordinate scalings (signs in the real case, phases in the
complex case).  The supremum equals ``sup_{w in S(W)} <v~, w~>`` where
``x~`` denotes the decreasing rearrangement: aligning phases removes the
scalars and sorting both factors maximizes the pairing.  That identity
drives the alternating ascent: fix ``w``, build the maximizing image of
``v``; project it back into ``W`` and renormalize; repeat.  Both half-steps
are exact maximizations, so the objective is monotone.

For a line (k = 1) no ascent is needed: with ``u`` spanning it, the
supremum is ``sum_i u~_i v~_i`` by the rearrangement inequality, attained
by the image that pairs the two rearrangements and carries the phases of
``u``.  :func:`width_altmax` builds that witness directly.  For a real
plane (k = 2) and real ``v`` the identity leaves one angle to search, and
the optimal image is constant between the finitely many angles where a
coordinate of ``w`` vanishes or two coordinates tie in modulus, so
valuing the image of each arc between those angles gives the exact width.
For a real 3-frame (k = 3, up to ``SWEEP_MAX_D``) those conditions cut
the unit sphere of ``W`` along great circles; every cell of that
arrangement borders an arc of some circle, so valuing the images on both
sides of every arc gives the exact width too, with the same routine.  For
a real frame up to ``d = min(ENUM_MAX_D, k + 3)`` the images are few
enough to value them all, faster than the sweep: up to sign there are
``d! 2^(d-1)``, at most 322,560.

The same routine evaluates suprema over dominance cones: the projection
norm is convex, the cone is the convex hull of the signed-permutation
orbit, and a convex function attains its supremum at an extreme point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._fork import map_forked
from .errors import _integer, _real, _seed_path
from .groups import Orbit, signed_permutation_apply
from .vectors import (
    SubspaceBasis,
    _conformed,
    _ldexp,
    _scaled,
    _unit_phases,
    _unscaled,
    decreasing_argsort,
    decreasing_rearrangement,
)

__all__ = [
    "GammaWitness",
    "WidthReport",
    "FIntegralEstimate",
    "width_brute_signed_perm",
    "width_altmax",
    "width_orbit",
    "estimate_f_integral",
    "estimate_f_integrals",
    "altmax_evaluator",
]

BRUTE_MAX_D = 8


@dataclass(frozen=True)
class GammaWitness:
    """Signed permutation ``(gv)_i = signs[i] * v[perm[i]]``."""

    perm: np.ndarray
    signs: np.ndarray

    def apply(self, v) -> np.ndarray:
        return signed_permutation_apply(self.perm, self.signs, v)


@dataclass(frozen=True)
class WidthReport:
    """Estimated supremum together with the element attaining it.

    ``witness`` is a :class:`GammaWitness`, except for orbit enumeration,
    where it is the attaining orbit point.  Every width runs on ``v`` (or
    the orbit) scaled by ``2^-s``, ``2^s`` the power of two nearest its
    norm (``s = 0`` at unit norm), and re-evaluating the witness scaled by
    ``2^-s`` reproduces ``value * 2^-s``; so ``2^j v`` gets the witness of
    ``v`` and ``2^j`` times its value, bit for bit, unless that over- or
    underflows.
    """

    value: float
    method: str
    restarts: int
    iterations: int
    witness: object


@dataclass(frozen=True)
class FIntegralEstimate:
    mean: float
    stderr: float
    trials: int
    values: np.ndarray


def _conform(v, d: int, field: str) -> np.ndarray:
    v = _conformed(v, "vector entries", complex_=field == "complex")
    if v.shape != (d,):
        raise ValueError(f"vector must have shape ({d},)")
    return v


def width_brute_signed_perm(basis: SubspaceBasis, v) -> WidthReport:
    """Exact supremum by enumerating all signed permutations (real, d<=8).

    One permutation at a time, each against all ``2^d`` sign rows, on
    ``v`` scaled to unit norm by a power of two, as in :func:`width_altmax`.
    """
    v, shift = _scaled(_conform(v, basis.d, basis.field))
    if np.iscomplexobj(v):  # the basis or v is complex
        raise ValueError("brute enumeration covers the real field only")
    d = basis.d
    if d > BRUTE_MAX_D:
        raise ValueError(f"brute enumeration is capped at d={BRUTE_MAX_D}")
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    cols = basis.columns
    best = -1.0
    best_perm = None
    best_sign = None
    count = 0
    for perm in itertools.permutations(range(d)):
        u = v[np.asarray(perm)]
        coeffs = (signs * u[None, :]) @ cols
        vals = np.einsum("ij,ij->i", coeffs, coeffs)
        i = int(np.argmax(vals))
        count += signs.shape[0]
        if vals[i] > best:
            best = float(vals[i])
            best_perm = np.asarray(perm)
            best_sign = signs[i].copy()
    # the ranking sums inside one matrix product, which can round a few ulps
    # away from the witness's own projection; report the latter, so that
    # re-evaluating the witness reproduces the value
    witness = GammaWitness(perm=best_perm, signs=best_sign)
    return WidthReport(
        value=_unscaled(_value_of(cols, witness.apply(v)), shift),
        method="brute",
        restarts=0,
        iterations=count,
        witness=witness,
    )


def _witness_from(w: np.ndarray, v: np.ndarray) -> GammaWitness:
    order_w = decreasing_argsort(w)
    order_v = decreasing_argsort(v)
    perm = np.empty(v.shape[0], dtype=np.int64)
    perm[order_w] = order_v
    # the image must carry the phases of w, so the witness first cancels
    # the phases v brings along
    signs = _unit_phases(w) * np.conj(_unit_phases(v)[perm])
    return GammaWitness(perm=perm, signs=signs)


ANNEAL_CHAINS = 6
ANNEAL_MOVES = 2500


def _value_of(cols: np.ndarray, image: np.ndarray) -> float:
    return float(np.linalg.norm(cols.conj().T @ image))


def _anneal_refine(cols, v, v_desc, witness, value, rng):
    """Annealed witness search seeded from the ascent result.

    The ascent's fixed points proliferate when the subspace dimension is
    close to the ambient one and their basins can be thin, so random
    restarts alone miss the optimum on a small but persistent fraction of
    instances.  Each chain anneals over the discrete witness space (swap
    moves with closed-form scalar updates, Metropolis acceptance) and its
    endpoint is snapped back onto a fixed point by one more ascent from
    ``c = C^H g v``, ``g v`` its image, unless ``||C c|| <= 1e-14``.  All
    snaps run after the chains in one :func:`_ascend` call, none if no
    endpoint has a start; the candidates are folded as if each snap had
    followed its chain, a later one winning only if strictly greater.
    """
    d = v.shape[0]
    cplx = np.iscomplexobj(cols)
    scale = value
    if scale <= 0.0:
        scale = float(np.linalg.norm(v))
    if scale <= 0.0:
        return witness, value
    rows = np.ascontiguousarray(cols.conj())
    leverage = np.linalg.norm(cols, axis=1)
    # the ascent's witness, then each endpoint and the slot of its snap
    cands, snaps = [(witness, value)], []
    for c in range(ANNEAL_CHAINS):
        if c == 0:
            p0 = witness.perm
            s0 = witness.signs
        elif c == 1:
            # largest moduli onto the rows with most subspace weight
            p0 = np.empty(d, dtype=np.int64)
            p0[np.argsort(-leverage, kind="stable")] = decreasing_argsort(v)
            s0 = np.ones(d, dtype=cols.dtype)
        else:
            p0 = rng.permutation(d)
            if cplx:
                s0 = np.exp(2j * np.pi * rng.random(d))
            else:
                s0 = rng.choice(np.array([-1.0, 1.0]), size=d)
        pairs = rng.integers(0, d, size=(ANNEAL_MOVES, 2))
        scalar_move = rng.random(ANNEAL_MOVES) >= 0.7
        pairs[scalar_move, 1] = pairs[scalar_move, 0]
        acc_u = rng.random(ANNEAL_MOVES)
        p, s, _ = _kernels.anneal_best(
            rows, v, p0, s0, 0.25 * scale, 1e-5 * scale, pairs, acc_u
        )
        end = GammaWitness(perm=np.asarray(p), signs=np.asarray(s))
        image = end.apply(v)
        cands.append((end, _value_of(cols, image)))
        start = cols.conj().T @ image
        if float(np.linalg.norm(cols @ start)) > 1e-14:
            snaps.append((len(cands), start))
            cands.append(None)
    if snaps:
        results, _ = _ascend(np.broadcast_to(cols, (len(snaps), *cols.shape)), v, v_desc,
                             np.stack([x for _, x in snaps])[:, None], [math.inf] * len(snaps))
        for (i, _), result in zip(snaps, results):
            cands[i] = result
    # max keeps the first largest: a later candidate wins only if greater
    return max(cands, key=lambda cand: cand[1])


def _ascend(cols, v, v_desc, starts, ceilings):
    """The ascent on frames ``cols`` (S, d, k) from ``starts`` (S, R, k).

    Runs ``_kernels.altmax_best`` under ``ceilings`` (S,), ``v`` of ``cols``'
    dtype, and returns ``(results, iterations)``: ``results[s]`` is the
    witness of frame ``s``'s best endpoint and its value, or None where the
    frame crossed its ceiling.
    """
    w, _, iters, crossed = _kernels.altmax_best(cols, v_desc, starts, ceilings)
    return [None if crossed[s] else _witness_and_value(cols[s], v, w[s])
            for s in range(cols.shape[0])], iters


def _draw_gaussian(rng, m, k, cplx):
    """``m`` Gaussian coefficient rows of length ``k`` from ``rng``."""
    # the same stream as m consecutive draws of k (real, then imaginary)
    if cplx:
        g = rng.standard_normal((m, 2, k))
        return g[:, 0] + 1j * g[:, 1]
    return rng.standard_normal((m, k))


def _stacked_starts(cols, v, restarts, rngs):
    """The ascent's ``restarts`` starts on each frame ``cols[s]``, stacked.

    Frame ``s``'s first start is its projection of ``v``, ``c0 = C^T v``,
    when ``C c0`` is not zero; its others are Gaussian coefficient vectors
    drawn from ``rngs[s]``.  One stacked product gives every frame's ``c0``
    and one its ``C c0``, each frame's bits those of its own product; then
    each frame draws its rows from its own stream, so a stream advances as
    it would for that frame alone.
    """
    k = cols.shape[2]
    cplx = np.iscomplexobj(cols)
    c0 = cols.conj().transpose(0, 2, 1) @ v
    have_det = np.linalg.norm(cols @ c0[:, :, None], axis=(1, 2)) > 1e-15
    starts = np.empty((cols.shape[0], restarts, k), dtype=c0.dtype)
    starts[have_det, 0] = c0[have_det]
    for s, rng in enumerate(rngs):
        h = int(have_det[s])
        starts[s, h:] = _draw_gaussian(rng, restarts - h, k, cplx)
    # a row too short to give a start is drawn again after all of its
    # frame's rows, not at once, so from such a row on the stream differs
    # from drawing the starts one by one; a Gaussian k-vector is that short
    # with probability of order 1e-12**k
    bad = np.linalg.norm(starts, axis=2) < 1e-12
    bad[:, 0] &= ~have_det
    for s in np.flatnonzero(bad.any(axis=1)):  # pragma: no cover - measure zero
        h = int(have_det[s])
        g, short = starts[s, h:], bad[s, h:]
        while short.any():
            g[short] = _draw_gaussian(rngs[s], int(short.sum()), k, cplx)
            short = np.linalg.norm(g, axis=1) < 1e-12
    return starts


def _witness_and_value(cols, v, w):
    """The witness an ascent endpoint ``w`` defines, and its value."""
    witness = _witness_from(np.asarray(w), v)
    return witness, _value_of(cols, witness.apply(v))


def _line_width(basis: SubspaceBasis, v) -> WidthReport:
    """Exact width of a line; ``v`` is conformed, ``basis`` of its field.

    The witness pairs the rearrangement of ``v`` with that of the spanning
    vector, which is the optimal image, so no start is drawn.
    """
    cols = basis.columns
    witness, value = _witness_and_value(cols, v, cols[:, 0])
    return WidthReport(
        value=value,
        method="rearrangement",
        restarts=0,
        iterations=0,
        witness=witness,
    )


SWEEP_ANGLE_TOL = 1e-12
# image entries valued at once: from 2^13 to 2^16 the sweep runs as fast,
# and the smaller block keeps its arrays to about 1 MB at the cut-over
SWEEP_BLOCK = 1 << 14
# the largest d at which a real 3-frame takes the sweep: at d = 13 it runs
# about as long as the ascent and anneal it replaces.  Below d = 7 the
# enumeration runs instead, which is faster there
SWEEP_MAX_D = 13


def _pairs(n):
    """The index pairs ``i < j`` below ``n``, as ``np.triu_indices(n, 1)``."""
    r = np.arange(n)
    return np.nonzero(r[:, None] < r)


def _plane_angles(a, b):
    """Sorted angles in ``[0, pi]`` where the optimal image may change.

    Row ``r`` of ``a`` and ``b`` is the circle ``y(theta) = a_r cos(theta) +
    b_r sin(theta)``, and its row of angles holds those where some ``y_i``,
    ``y_i - y_j`` or ``y_i + y_j`` changes sign.  A condition that vanishes
    identically on the circle, such as one of a zero row, has no such angle;
    it repeats the row's smallest one, which adds no arc.
    """
    iu, ju = _pairs(a.shape[1])
    alpha = np.concatenate((a, a[:, iu] - a[:, ju], a[:, iu] + a[:, ju]), axis=1)
    beta = np.concatenate((b, b[:, iu] - b[:, ju], b[:, iu] + b[:, ju]), axis=1)
    # alpha cos(theta) + beta sin(theta) vanishes where (cos, sin) is
    # parallel to (-beta, alpha)
    angles = np.arctan2(alpha, -beta) % np.pi
    dead = (alpha == 0.0) & (beta == 0.0)
    least = np.where(dead, np.inf, angles).min(axis=1, keepdims=True)
    return np.sort(np.where(dead, least, angles), axis=1)


def _great_circles(cols):
    """The circles a 3-frame's sweep walks, with their own ties made exact.

    For unit ``x`` in R^3 and ``y = C x``, the optimal image of ``v`` can
    change only where some ``y_i``, ``y_i - y_j`` or ``y_i + y_j`` vanishes:
    on the great circle orthogonal to ``c_i``, ``c_i - c_j`` or ``c_i +
    c_j``, with ``c_i`` the rows of ``C``.  Conditions whose normals are
    parallel within ``SWEEP_ANGLE_TOL`` (parallel rows, or ``c_a -+ c_b``
    parallel to ``c_c``) share one circle, and zero normals (zero, equal or
    opposite rows) give none.

    Returns ``(a, b, push)``, one row per circle: ``a = C p`` and ``b = C q``
    for an orthonormal pair ``p, q`` spanning the circle's plane, and ``push
    = C n`` for its unit normal ``n``, the direction in which ``y`` leaves
    the circle.  A circle's own conditions hold all along it, so ``a`` and
    ``b`` are made to satisfy them bit for bit: a tied entry copies its
    partner's (negated for ``y_i = -y_j``), and an entry that vanishes is
    set to 0.  :func:`_plane_angles` then sees no crossing of them, and the
    images along the circle see the ties exactly.
    """
    live = np.flatnonzero((cols != 0.0).any(axis=1))
    iu, ju = _pairs(live.size)
    pi, pj = live[iu], live[ju]
    # a condition reads y[first] = 0 (second = -1), or y[second] = tie * y[first]
    first = np.concatenate((live, pi, pi))
    second = np.concatenate((np.full(live.size, -1), pj, pj))
    tie = np.repeat([0.0, 1.0, -1.0], (live.size, iu.size, iu.size))
    normals = np.concatenate((cols[live], cols[pi] - cols[pj], cols[pi] + cols[pj]))
    norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    real = norms > 0.0
    first, second, tie = first[real], second[real], tie[real]
    u = normals[real] / norms[real, None]
    # each circle is labelled by its first condition.  Two normals are
    # parallel when the sine of their angle, |u x w|, is at most the
    # tolerance; |cos| > 1 - 1e-6 is only a loose filter before that test,
    # and u[:, 1:4] = (u_y, u_z, u_x), u[:, 2:5] = (u_z, u_x, u_y)
    i, j = np.nonzero(np.abs(u @ u.T) > 1.0 - 1e-6)
    ui, uj = np.concatenate((u, u[:, :2]), axis=1)[[i, j]]
    cross = ui[:, 1:4] * uj[:, 2:5] - ui[:, 2:5] * uj[:, 1:4]
    same = np.einsum("ij,ij->i", cross, cross) <= SWEEP_ANGLE_TOL**2
    label = np.arange(u.shape[0])
    np.minimum.at(label, j[same], i[same])
    leads = label == np.arange(u.shape[0])
    circle = (np.cumsum(leads) - 1)[label]
    n = u[leads]
    # an orthonormal pair orthogonal to each normal (Duff et al., 2017)
    s = _unit_phases(n[:, 2])
    h = -1.0 / (s + n[:, 2])
    g = n[:, 0] * n[:, 1] * h
    p = np.stack((1.0 + s * n[:, 0] ** 2 * h, s * g, -s * n[:, 0]), axis=1)
    q = np.stack((g, s + n[:, 1] ** 2 * h, -n[:, 1]), axis=1)
    frame = np.concatenate((p, q, n))
    # entry by entry, so that equal rows of cols give equal entries
    m = n.shape[0]
    abp = frame[:, :1] * cols[:, 0] + frame[:, 1:2] * cols[:, 1] + frame[:, 2:] * cols[:, 2]
    a, b, push = abp[:m], abp[m : 2 * m], abp[2 * m :]
    alone = np.bincount(circle)[circle] == 1
    pair = alone & (second >= 0)
    c, f, t = circle[pair], first[pair], second[pair]
    a[c, t] = tie[pair] * a[c, f]
    b[c, t] = tie[pair] * b[c, f]
    zero = alone & (second < 0)
    a[circle[zero], first[zero]] = b[circle[zero], first[zero]] = 0.0
    # a shared circle's ties can chain, so they are set one at a time, by
    # increasing tied entry (which copies a smaller one, already set), and
    # the vanishing entries last
    shared = np.flatnonzero(~alone)
    target = np.where(second[shared] < 0, cols.shape[0], second[shared])
    for cond in shared[np.argsort(target, kind="stable")]:
        c, f, t = circle[cond], first[cond], second[cond]
        if t >= 0:
            a[c, t], b[c, t] = tie[cond] * a[c, f], tie[cond] * b[c, f]
        else:
            a[c, f] = b[c, f] = 0.0
    return a, b, push


def _ranked(y, push):
    """Order and signs of the optimal image at each row of ``y``.

    The optimal image puts the i-th largest modulus of ``v`` where ``y`` has
    its i-th largest modulus, with ``y``'s sign there.  With ``push`` (one
    row per row of ``y``) the image is the one at ``y + eps push`` for
    small ``eps > 0``, which breaks the exact ties of ``y`` combinatorially:
    to first order that point's moduli are ``|y_i| + eps sign(y_i) push_i``,
    or ``eps |push_i|`` with sign ``sign(push_i)`` where ``y_i = 0``, so the
    order is by decreasing ``|y|`` and then by decreasing first-order term,
    which a complex sort key compares lexicographically.  Without ``push``
    ties go by index.
    """
    if push is None:
        return decreasing_argsort(y), _unit_phases(y)
    sign = np.sign(y)
    zero = sign == 0.0
    sign[zero] = _unit_phases(push[zero])
    key = np.empty(y.shape, dtype=np.complex128)
    key.real = np.abs(y)
    key.imag = push * sign
    np.negative(key, out=key)
    return np.argsort(key, axis=1, kind="stable"), sign


def _sweep_width(basis: SubspaceBasis, v) -> WidthReport:
    """Exact width of a real plane or 3-frame against real ``v``.

    For unit ``x`` and ``y = C x`` the optimal image of ``v`` (see
    :func:`_witness_from`) depends only on the signs of ``y`` and the order
    of ``|y|``, so it is constant on each cell of the arrangement of the
    circles where some ``y_i``, ``y_i - y_j`` or ``y_i + y_j`` vanishes.
    The optimal image's own direction lies in the closure of its cell, so
    the width is the largest ``||P_W g v||`` over the cells' images ``g``.

    A plane (k = 2) is one circle, ``x = (cos(theta), sin(theta))``, and its
    cells are the arcs between the angles of :func:`_plane_angles`.  For a
    3-frame the cells are regions of the sphere, bounded by arcs of the
    circles of :func:`_great_circles`, and no other circle crosses the
    inside of an arc.  So each cell's image is the one at the midpoint of
    such an arc with the ties of the arc's own circle broken towards the
    cell's side, and the sweep values both sides of every arc; each
    candidate is a real signed permutation of ``v``, so the sweep can never
    overshoot.  The images
    along half of each circle suffice, since ``-x`` has the negated image.

    Arcs no longer than ``SWEEP_ANGLE_TOL`` are skipped.  Every other arc's
    images are built from its midpoint by :func:`_ranked` and valued,
    ``SWEEP_BLOCK`` image entries at a time.  The images whose value lies
    within ``d eps ||v||^2`` of the largest, a bound on the rounding of one
    value, are rebuilt by :func:`_witness_and_value`, each image and its
    negation once; the first best of those is the report's witness.
    ``iterations`` counts the arcs valued.  A plane takes O(d^3 log d) time
    and O(d^2) memory; a 3-frame has up to d^2 circles, so O(d^5 log d)
    time, in blocks of O(``SWEEP_BLOCK``) memory up to ``SWEEP_MAX_D``.
    """
    cols = basis.columns
    d = cols.shape[0]
    if basis.k == 2:
        a, b, push = cols[None, :, 0], cols[None, :, 1], None
    else:
        a, b, push = _great_circles(cols)
    v_desc = decreasing_rearrangement(v)
    sides = 1 if push is None else 2
    per = max(1, SWEEP_BLOCK // (d * d))
    step = max(1, SWEEP_BLOCK // (sides * d))
    slack = d * np.finfo(np.float64).eps * float(v_desc @ v_desc)
    best, arcs = -math.inf, 0
    # the images within slack of the best value so far, each up to sign,
    # in the order first met
    near = {}
    for c0 in range(0, a.shape[0], per):
        angles = _plane_angles(a[c0 : c0 + per], b[c0 : c0 + per])
        lo = np.concatenate((angles[:, -1:] - np.pi, angles[:, :-1]), axis=1)
        circle, m = np.nonzero(angles - lo > SWEEP_ANGLE_TOL)
        mids = 0.5 * (lo[circle, m] + angles[circle, m])
        circle += c0
        arcs += mids.size
        for s in range(0, mids.size, step):
            c, t = circle[s : s + step], mids[s : s + step]
            y = np.cos(t)[:, None] * a[c] + np.sin(t)[:, None] * b[c]
            off = None
            if push is not None:
                y = np.concatenate((y, y))
                off = np.concatenate((push[c], -push[c]))
            order, sign = _ranked(y, off)
            images = np.empty_like(y)
            images[np.arange(y.shape[0])[:, None], order] = v_desc
            images *= sign
            p = images @ cols
            vals = np.einsum("ij,ij->i", p, p)
            top = float(vals.max())
            if top > best:
                best = top
                near = {key: e for key, e in near.items() if e[0] >= best - slack}
            for r in np.flatnonzero(vals >= best - slack):
                # + 0.0 turns -0.0 into 0.0
                key = (images[r] + 0.0).tobytes()
                if key not in near and (0.0 - images[r]).tobytes() not in near:
                    near[key] = (vals[r], images[r].copy())
    witness, value = None, -math.inf
    for _, image in near.values():
        cand, cand_val = _witness_and_value(cols, v, image)
        if cand_val > value:
            witness, value = cand, cand_val
    return WidthReport(
        value=value,
        method="sweep",
        restarts=0,
        iterations=arcs,
        witness=witness,
    )


# the largest d at which a real frame takes the enumeration: its d! 2^(d-1)
# images take ~2 ms at d = 7, and the 16 times as many at d = 8 ~27 ms,
# longer than the ascent and anneal (17-26 ms).  A plane or a 3-frame takes
# it only up to d = k + 3, past which the sweep is faster
ENUM_MAX_D = 7
# permutations valued at once: 64 keeps a block's images to ~200 kB at
# d = 7.  256 takes a quarter off planes and 3-frames at d = 6 but up to
# 45% longer for k = 4-5 there, and moves d = 7 by -3% to +9%
ENUM_BLOCK = 64


@functools.cache
def _enum_tables(d):
    """The ``d!`` permutations of ``range(d)`` and the sign rows of ``R^d``.

    The permutations come in lexicographic order, and the ``2^(d-1)`` sign
    rows are those whose first sign is +1, in ``itertools.product`` order;
    both are read-only, since every caller shares them.
    """
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(d))),
        dtype=np.int64,
        count=math.factorial(d) * d,
    ).reshape(-1, d)
    signs = np.ones((2 ** (d - 1), d))
    signs[:, 1:] = list(itertools.product((1.0, -1.0), repeat=d - 1))
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def _enum_width(basis: SubspaceBasis, v) -> WidthReport:
    """Exact width of a real frame against real ``v``, image by image.

    Every signed permutation ``g`` of ``v`` is valued, except that
    ``||C^T (-g v)|| = ||C^T g v||`` leaves only the sign rows whose first
    sign is +1 to try: ``d! 2^(d-1)`` images, which ``iterations`` counts.
    ``ENUM_BLOCK`` permutations at a time, one stacked matrix product of
    the sign rows against ``v[perm][:, :, None] * C`` gives each image's
    coefficients, and the sum of their squares ranks it.  The first
    largest, in the order of :func:`_enum_tables`, is the witness; the
    report's value is its own projection norm, so re-evaluating the
    witness reproduces it.
    """
    cols = basis.columns
    perms, signs = _enum_tables(basis.d)
    ones = np.ones(basis.k)
    best, first = -math.inf, 0
    for p0 in range(0, perms.shape[0], ENUM_BLOCK):
        coeffs = np.matmul(signs, v[perms[p0 : p0 + ENUM_BLOCK]][:, :, None] * cols)
        # squaring in place and summing by a matrix-vector product takes
        # ~20% less time at d = 7 than an einsum of the squares
        vals = np.square(coeffs, out=coeffs) @ ones
        i = int(np.argmax(vals))
        if vals.flat[i] > best:
            best, first = float(vals.flat[i]), p0 * signs.shape[0] + i
    perm, sign = divmod(first, signs.shape[0])
    witness = GammaWitness(perm=perms[perm].copy(), signs=signs[sign].copy())
    return WidthReport(
        value=_value_of(cols, witness.apply(v)),
        method="enumerate",
        restarts=0,
        iterations=perms.shape[0] * signs.shape[0],
        witness=witness,
    )


def _altmax_width(basis: SubspaceBasis, v, restarts, seed, refine) -> WidthReport:
    """The ascent, then with ``refine="auto"`` the anneal.

    ``v`` is conformed and scaled already, and ``basis`` of its field;
    :func:`width_altmax` runs this wherever no exact path applies.
    """
    rng = np.random.default_rng(seed)
    v_desc = decreasing_rearrangement(v)
    cols = basis.columns
    starts = _stacked_starts(cols[None], v, restarts, [rng])
    ((witness, value),), iters = _ascend(cols[None], v, v_desc, starts, [math.inf])
    if refine == "auto":
        witness, value = _anneal_refine(cols, v, v_desc, witness, value, rng)
    return WidthReport(
        value=value,
        method="altmax",
        restarts=restarts,
        iterations=iters,
        witness=witness,
    )


def width_altmax(
    basis: SubspaceBasis,
    v,
    restarts: int = 20,
    seed=None,
    refine: str = "auto",
) -> WidthReport:
    """Signed-permutation supremum, exact for lines and small real frames.

    Past those cases an alternating ascent runs.  One start is deterministic
    (the normalized projection of ``v`` itself, which guarantees the result
    is at least ``||proj_W v||``); the remaining ``restarts - 1`` starts are
    random unit vectors of the subspace, whose basis coefficients are drawn
    from ``seed`` in one batch.  The kernel runs every start in lockstep,
    each with the bits of its own sequential ascent, which stops when the
    objective gains less than ``_kernels.ASCENT_TOL`` or after
    ``_kernels.ASCENT_MAX_ITER`` iterations.  The reported value is the
    projection norm of the witness image, so the witness reproduces it
    exactly.  A complex ``v`` against a real basis runs over the
    complexified span, exactly as ``basis.complexify()`` would.

    ``refine`` controls the annealed witness search that follows the
    ascent: the default ``"auto"`` runs it, since ascent basins fragment
    for k >= 2, and ``"none"`` never does.

    For a line (k = 1) the width is exact and no ascent runs.  With ``u``
    the basis vector, the rearrangement inequality gives
    ``width = sum_i |u|~_i |v|~_i``, attained by the witness that sends the
    i-th largest modulus of ``v`` to the coordinate of the i-th largest
    modulus of ``u`` with ``u``'s phase there.  The report carries that
    witness and its projection norm (over the complexified line when ``v``
    is complex), with ``method="rearrangement"``, ``iterations=0`` and
    ``restarts=0``.  ``restarts`` and ``refine`` are validated and otherwise
    unused, and nothing is drawn from ``seed``.

    A real frame (real basis, k >= 2) against a real ``v`` takes the
    fastest path that applies:

    - :func:`_enum_width` for ``d <= min(ENUM_MAX_D, k + 3)``: a plane up
      to d = 5, a 3-frame up to d = 6, and k >= 4 up to d = 7;
    - :func:`_sweep_width` for a plane above d = 5, and for a 3-frame from
      d = 7 up to ``d = SWEEP_MAX_D``;
    - the ascent everywhere else.

    The two exact paths draw nothing from ``seed`` for either ``refine``,
    so ``restarts`` and ``refine`` are only validated there, and no ascent
    or anneal runs.  Both report the projection norm of an optimal image,
    which on a generic frame is unique up to sign, so they give the same
    bits there; on tied frames or vectors each may pick another optimal
    image, a few ulps apart.  Per call, the median over 40 frames,
    enumeration against sweep (2 vCPUs, BLAS on 1 thread):

    ===  ==============  ===============
    d    k = 2           k = 3
    ===  ==============  ===============
    4    0.02 / 0.07 ms  0.02 / 0.22 ms
    5    0.04 / 0.07 ms  0.04 / 0.32 ms
    6    0.19 / 0.07 ms  0.20 / 0.65 ms
    7    1.7 / 0.08 ms   1.8 / 1.2 ms
    ===  ==============  ===============

    The sweep of a plane splits the angle of ``w = cos(t) c_1 + sin(t)
    c_2`` into the at most ``d^2`` arcs on which the optimal image of ``v``
    stays the same, values each arc's image from its midpoint, and reports
    the best arc's witness and its projection norm, with
    ``method="sweep"``, ``restarts=0`` and ``iterations`` the number of
    arcs.  It takes O(d^3 log d) time and O(d^2) memory: under 0.1 ms up
    to d = 8, 5 ms at d = 64, and at d = 1024 ~27 s and ~50 MB on one CPU,
    far slower than the ascent estimate it replaces there.  Nothing calls
    it above d = 64.

    The sweep of a 3-frame walks the up to ``d^2`` great circles where some
    ``y_i`` or ``y_i -+ y_j`` vanishes, ``y`` the unit vectors of ``W``:
    each arc is valued on both sides, with its circle's own ties broken
    combinatorially (see :func:`_great_circles`).  The report is as for a
    plane, ``iterations`` counting the arcs, ``d^2 (d - 1)^2`` for a
    generic frame.  It takes O(d^5 log d) time, and the ascent with
    ``refine="auto"`` (20 restarts) 15-20 ms at every d here, so past the
    cut-over the ascent runs instead (2 vCPUs, BLAS on 1 thread, one
    call):

    ====  =======  =======
    d     sweep    "auto"
    ====  =======  =======
    7     1.1 ms   16 ms
    10    4.9 ms   17 ms
    13    15 ms    18 ms
    14    22 ms    18 ms
    16    40 ms    20 ms
    ====  =======  =======

    The 6-start ``refine="none"`` ascent takes ~0.3 ms at d <= 7, but
    misses the exact width on most real 3-frames there.

    The enumeration values every signed permutation of ``v`` whose first
    sign is +1 (the others repeat their negations' values),
    ``ENUM_BLOCK`` permutations at a time, and reports the first largest
    image's witness and its projection norm, with ``method="enumerate"``,
    ``restarts=0`` and ``iterations = d! 2^(d-1)``.  The images grow
    16-fold from d = 7 to d = 8, so past the cut-over the ascent runs
    instead (2 vCPUs, BLAS on 1 thread, one call, k = 4..d-1):

    ====  ==========  ========  ========
    d     enumerate   "auto"    "none"
    ====  ==========  ========  ========
    5     0.05 ms     17-21 ms  0.3 ms
    6     0.27 ms     17-25 ms  0.3 ms
    7     2.1-2.4 ms  17-23 ms  0.3 ms
    8     26-29 ms    17-26 ms  0.3 ms
    ====  ==========  ========  ========

    On gate 4's 25 frames with k >= 4 (d <= 6), the ascent with
    ``refine="none"`` misses the exact width on all 25, with 6 starts or
    with 20, and ``"auto"`` (20 starts) on one.

    Any other input, a complex ``v`` or a complex basis among them, runs
    the ascent over the complexified span, as described above, in
    ``_altmax_width``.

    Every path runs on ``2^-s v``, ``2^s`` the power of two nearest
    ``||v||`` (``vectors._scaled``), and scales the value back, so the
    ascent's fixed tolerances act on a vector of about unit norm and
    ``2^j v`` gets ``2^j`` times the value of ``v``, with its witness, bit
    for bit.  A unit-norm ``v`` runs as it is.  A width that overflows
    float64 raises ``ValueError``.

    The start draw lives in ``_stacked_starts``, and the ascent and its
    witnesses in ``_ascend``, the one caller of ``_kernels.altmax_best``.
    Here it runs on one frame with no ceiling, then on one frame per snap
    of the anneal; :func:`~cylwidth.lowerbound.adversarial_min_width` calls
    it once per step for all its candidates, each under its own ceiling.
    """
    _integer("restarts", restarts, 1)
    if refine not in ("auto", "none"):
        raise ValueError("refine must be 'auto' or 'none'")
    v, shift = _scaled(_conform(v, basis.d, basis.field))
    if np.iscomplexobj(v):
        basis = basis.complexify()
    real = basis.field == "real"
    if basis.k == 1:
        report = _line_width(basis, v)
    elif real and basis.d <= min(ENUM_MAX_D, basis.k + 3):
        report = _enum_width(basis, v)
    elif real and (basis.k == 2 or (basis.k == 3 and basis.d <= SWEEP_MAX_D)):
        report = _sweep_width(basis, v)
    else:
        report = _altmax_width(basis, v, restarts, seed, refine)
    if shift:
        report = replace(report, value=_unscaled(report.value, shift))
    return report


ORBIT_BLOCK = 2048


def width_orbit(
    basis: SubspaceBasis, orbit: Orbit, ceiling: float = math.inf
) -> WidthReport:
    """Exact supremum of projection norms over an enumerated orbit.

    The orbit is evaluated ``ORBIT_BLOCK`` points at a time, and the witness
    is the first point attaining the maximum.  A finite ``ceiling`` stops
    the evaluation after the first block whose running maximum exceeds it;
    the report then carries that maximum and its first attaining point, so
    ``value > ceiling`` and the witness still reproduces ``value``.  A
    ceiling at or above the width changes nothing.  ``iterations`` counts
    the points evaluated.

    The orbit is evaluated scaled by ``2^-s``, ``2^s`` the power of two
    nearest its norm, as :func:`width_altmax` scales a vector, and the
    value back; the ceiling is compared with the value scaled back, and the
    witness is the unscaled orbit point.  ``ValueError`` unless ``ceiling``
    is a real number other than NaN.
    """
    ceiling = _real("ceiling", ceiling)
    if orbit.d != basis.d:
        raise ValueError("orbit and basis dimensions differ")
    cols = basis.columns.conj()
    # every point shares the base point's norm, so its shift fits them all
    _, shift = _scaled(orbit.points[0])
    best = value = -math.inf
    best_i = 0
    end = 0
    while end < orbit.n and value <= ceiling:
        start, end = end, min(end + ORBIT_BLOCK, orbit.n)
        vals = np.linalg.norm(_ldexp(orbit.points[start:end], -shift) @ cols, axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_i = float(vals[i]), start + i
            value = _unscaled(best, shift)
    return WidthReport(
        value=value,
        method="orbit",
        restarts=0,
        iterations=end,
        witness=orbit.points[best_i].copy(),
    )


def altmax_evaluator(v, restarts: int = 20):
    """Evaluator computing the ascent width against a fixed vector."""
    _integer("restarts", restarts, 1)

    def evaluate(basis: SubspaceBasis, rng) -> float:
        return width_altmax(basis, v, restarts=restarts, seed=rng).value

    return evaluate


def estimate_f_integral(
    measure, evaluator, trials: int, seed
) -> FIntegralEstimate:
    """Monte-Carlo mean of the squared supremum under a subspace measure.

    Trial ``i`` draws its subspace and evaluates with the derived stream
    ``(seed, i)``, so the result is independent of evaluation order.
    ``seed`` may be an integer or a list or tuple of integers to derive
    from, each at least 0; any other ``seed`` raises ``ValueError``.  This
    is the one-job case of :func:`estimate_f_integrals`, whose one map
    spreads the trials over this process and forked workers, one process
    per usable CPU; they come back in trial order, so the result is the
    same bit for bit for any number of processes.
    """
    return estimate_f_integrals([(measure, evaluator, seed)], trials)[0]


def estimate_f_integrals(jobs, trials: int) -> list:
    """:func:`estimate_f_integral` of each ``(measure, evaluator, seed)`` job.

    Every seed is checked before any trial runs.  The ``trials`` trials of
    every job run in one :func:`~cylwidth._fork.map_forked` (``scaling``
    passes both vectors of every row), dealt out by cost, so that short
    trials fill the CPUs that long ones would leave idle.  Each trial keeps
    its own derived stream, so each estimate is the one
    :func:`estimate_f_integral` returns for its job, bit for bit.
    """
    _integer("trials", trials, 1)
    jobs = [(measure, evaluator, _seed_path(seed)) for measure, evaluator, seed in jobs]
    draws = [(measure, evaluator, [*base, i])
             for measure, evaluator, base in jobs for i in range(trials)]

    def trial(n):
        measure, evaluator, path = draws[n]
        rng = np.random.default_rng(path)
        return evaluator(measure.sample(rng), rng) ** 2

    # the anneal's moves on zero rows are O(1), so a trial costs about the
    # nonzero rows of its subspace, drawn here once more from its stream
    costs = [
        np.count_nonzero(measure.sample(np.random.default_rng(path)).columns.any(axis=1))
        for measure, _, path in draws
    ]
    values = map_forked(trial, len(draws), costs)
    return [_estimate(values[n:n + trials]) for n in range(0, len(values), trials)]


def _estimate(values) -> FIntegralEstimate:
    values = np.array(values, dtype=np.float64)
    trials = values.size
    stderr = 0.0
    if trials > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(trials))
    values.setflags(write=False)
    return FIntegralEstimate(
        mean=float(values.mean()), stderr=stderr, trials=trials, values=values
    )
