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

The same routine evaluates suprema over dominance cones: the projection
norm is convex, the cone is the convex hull of the signed-permutation
orbit, and a convex function attains its supremum at an extreme point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import Orbit, signed_permutation_apply
from .vectors import SubspaceBasis, decreasing_argsort, decreasing_rearrangement

__all__ = [
    "GammaWitness",
    "WidthReport",
    "FIntegralEstimate",
    "width_brute_signed_perm",
    "width_altmax",
    "width_orbit",
    "estimate_f_integral",
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

    ``witness`` is a :class:`GammaWitness` for the brute-force and ascent
    methods and the attaining orbit point for orbit enumeration.  In every
    case re-evaluating the witness reproduces ``value``.
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
    v = np.asarray(v)
    if v.shape != (d,):
        raise ValueError(f"vector must have shape ({d},)")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if field == "complex" or np.iscomplexobj(v):
        return v.astype(np.complex128)
    return v.astype(np.float64)


def width_brute_signed_perm(basis: SubspaceBasis, v) -> WidthReport:
    """Exact supremum by enumerating all signed permutations (real, d<=8)."""
    if basis.field != "real" or np.iscomplexobj(np.asarray(v)):
        raise ValueError("brute enumeration covers the real field only")
    v = _conform(v, basis.d, basis.field)
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
    return WidthReport(
        value=float(np.sqrt(best)),
        method="brute",
        restarts=0,
        iterations=count,
        witness=GammaWitness(perm=best_perm, signs=best_sign),
    )


def _unit_phases(w: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(w):
        m = np.abs(w)
        ph = np.ones_like(w)
        nz = m > 0.0
        ph[nz] = w[nz] / m[nz]
        return ph
    return np.where(w < 0.0, -1.0, 1.0)


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
ASCENT_MAX_ITER = 500
ASCENT_TOL = 1e-10


def _value_of(cols: np.ndarray, image: np.ndarray) -> float:
    return float(np.linalg.norm(cols.conj().T @ image))


def _snap(cols, v_desc, v, image):
    """Ascend once from the projection direction of ``image``."""
    c = cols.conj().T @ image
    if float(np.linalg.norm(cols @ c)) <= 1e-14:
        return None
    w_new, _, _, status = _kernels.altmax_best(
        cols, v_desc, c[None, :], ASCENT_MAX_ITER, ASCENT_TOL
    )
    if status == 1:
        return None
    return _witness_from(np.asarray(w_new), v)


def _anneal_refine(cols, v, v_desc, witness, value, rng):
    """Annealed witness search seeded from the ascent result.

    The ascent's fixed points proliferate when the subspace dimension is
    close to the ambient one and their basins can be thin, so random
    restarts alone miss the optimum on a small but persistent fraction of
    instances.  Each chain anneals over the discrete witness space (swap
    moves with closed-form scalar updates, Metropolis acceptance) and its
    endpoint is snapped back onto a fixed point by one more ascent.
    """
    d = v.shape[0]
    cplx = np.iscomplexobj(cols) or np.iscomplexobj(v)
    scale = value
    if scale <= 0.0:
        scale = float(np.linalg.norm(v))
    if scale <= 0.0:
        return witness, value
    rows = np.ascontiguousarray(cols.conj())
    leverage = np.linalg.norm(cols, axis=1)
    best_wit, best_val = witness, value
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
        cand = GammaWitness(perm=np.asarray(p), signs=np.asarray(s))
        cand_val = _value_of(cols, cand.apply(v))
        if cand_val > best_val:
            best_wit, best_val = cand, cand_val
        snapped = _snap(cols, v_desc, v, cand.apply(v))
        if snapped is not None:
            snap_val = _value_of(cols, snapped.apply(v))
            if snap_val > best_val:
                best_wit, best_val = snapped, snap_val
    return best_wit, best_val


def _ascend(basis: SubspaceBasis, v, v_desc, restarts, rng, ceiling):
    """Draw the ascent's starts and run it; ``v`` is conformed already.

    Returns ``(cols, w_best, best_obj, iterations)``.  ``cols`` are the
    columns the ascent ran on: those of ``basis``, complexified when ``v``
    is complex, since the supremum then ranges over complex images.  An
    objective above ``ceiling * (1 + ALTMAX_CEILING_SLACK)`` means the
    ascent stopped there; otherwise it ran in full.
    """
    if np.iscomplexobj(v):
        basis = basis.complexify()
    cols = basis.columns
    k = basis.k
    cplx = np.iscomplexobj(cols)
    c0 = cols.conj().T @ v
    have_det = float(np.linalg.norm(cols @ c0)) > 1e-15
    n = restarts - 1 if have_det else restarts

    def draw(m):
        # the same stream as m consecutive draws of k (real, then imaginary)
        if cplx:
            g = rng.standard_normal((m, 2, k))
            return g[:, 0] + 1j * g[:, 1]
        return rng.standard_normal((m, k))

    g = draw(n)
    # a row too short to give a start is drawn again after all n rows, not
    # at once, so from such a row on the stream differs from drawing the
    # starts one by one; a Gaussian k-vector is that short with probability
    # of order 1e-12**k
    bad = np.linalg.norm(g, axis=1) < 1e-12
    while bad.any():  # pragma: no cover - measure-zero restart
        g[bad] = draw(int(bad.sum()))
        bad = np.linalg.norm(g, axis=1) < 1e-12
    starts = np.concatenate((c0[None, :], g)) if have_det else g
    w_best, obj, iters, status = _kernels.altmax_best(
        cols, v_desc, starts, ASCENT_MAX_ITER, ASCENT_TOL, ceiling
    )
    if status == 1:
        raise RuntimeError("alternating ascent objective decreased")
    return cols, w_best, obj, int(iters)


def _witness_and_value(cols, v, w):
    """The witness an ascent endpoint ``w`` defines, and its value."""
    witness = _witness_from(np.asarray(w), v)
    return witness, _value_of(cols, witness.apply(v))


def width_altmax(
    basis: SubspaceBasis,
    v,
    restarts: int = 20,
    seed=None,
    refine: str = "auto",
    ceiling: float = math.inf,
) -> WidthReport:
    """Alternating ascent estimate of the signed-permutation supremum.

    One start is deterministic (the normalized projection of ``v`` itself,
    which guarantees the result is at least ``||proj_W v||``); the remaining
    ``restarts - 1`` starts are random unit vectors of the subspace, whose
    basis coefficients are drawn from ``seed`` in one batch.  The kernel
    forms each start only when its ascent begins.  Each ascent stops when
    the objective gains less than ``ASCENT_TOL`` or after
    ``ASCENT_MAX_ITER`` iterations.  The reported value is the projection
    norm of the witness image, so the witness reproduces it exactly.  A
    complex ``v`` against a real basis runs over the complexified span,
    exactly as ``basis.complexify()`` would.

    ``refine`` controls the annealed witness search that follows the
    ascent: the default ``"auto"`` runs it for k >= 2, where ascent basins
    fragment, and ``"none"`` never does.  For k = 1 the ascent converges to
    the optimum from any start with positive projection, so refinement
    adds nothing there.

    A finite ``ceiling`` stops the ascent at the first iterate whose
    objective exceeds ``ceiling`` by the kernel's relative slack; the report
    then carries that iterate's witness, so ``value >= ceiling`` and the
    witness still reproduces ``value``.  The random coefficients are drawn
    before the ascent runs, so ``seed`` is consumed the same either way.  A
    ceiling at or above the width changes nothing.

    The start draw and the kernel call live in ``_ascend``, which
    :func:`~cylwidth.lowerbound.adversarial_min_width` calls directly; the
    search skips the witness of a candidate whose ascent hit the ceiling.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if math.isnan(ceiling):
        raise ValueError("ceiling must not be NaN")
    if refine not in ("auto", "none"):
        raise ValueError("refine must be 'auto' or 'none'")
    v = _conform(v, basis.d, basis.field)
    rng = np.random.default_rng(seed)
    v_desc = decreasing_rearrangement(v)
    cols, w_best, _, iters = _ascend(basis, v, v_desc, restarts, rng, ceiling)
    witness, value = _witness_and_value(cols, v, w_best)
    if refine == "auto" and basis.k >= 2:
        witness, value = _anneal_refine(cols, v, v_desc, witness, value, rng)
    return WidthReport(
        value=value,
        method="altmax",
        restarts=restarts,
        iterations=iters,
        witness=witness,
    )


def width_orbit(basis: SubspaceBasis, orbit: Orbit) -> WidthReport:
    """Exact supremum of projection norms over an enumerated orbit."""
    if orbit.d != basis.d:
        raise ValueError("orbit and basis dimensions differ")
    coeffs = orbit.points @ basis.columns.conj()
    vals = np.linalg.norm(coeffs, axis=1)
    i = int(np.argmax(vals))
    return WidthReport(
        value=float(vals[i]),
        method="orbit",
        restarts=0,
        iterations=orbit.n,
        witness=orbit.points[i].copy(),
    )


def altmax_evaluator(v, restarts: int = 20):
    """Evaluator computing the ascent width against a fixed vector."""

    def evaluate(basis: SubspaceBasis, rng) -> float:
        return width_altmax(basis, v, restarts=restarts, seed=rng).value

    return evaluate


def estimate_f_integral(
    measure, evaluator, trials: int, seed
) -> FIntegralEstimate:
    """Monte-Carlo mean of the squared supremum under a subspace measure.

    Trial ``i`` draws its subspace and evaluates with the derived stream
    ``(seed, i)``, so the result is independent of evaluation order.
    ``seed`` may be an integer or a list of integers to derive from.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    values = np.empty(trials, dtype=np.float64)
    for i in range(trials):
        rng = np.random.default_rng([*base, i])
        basis = measure.sample(rng)
        values[i] = evaluator(basis, rng) ** 2
    stderr = 0.0
    if trials > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(trials))
    values.setflags(write=False)
    return FIntegralEstimate(
        mean=float(values.mean()), stderr=stderr, trials=trials, values=values
    )
