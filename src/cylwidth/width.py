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
coordinate of ``w`` vanishes or two coordinates tie in modulus, so an
angular sweep over those arcs gives the exact width.

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
from ._fork import map_forked
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

    ``witness`` is a :class:`GammaWitness`, except for orbit enumeration,
    where it is the attaining orbit point.  In every
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
    # the ranking sums inside one matrix product, which can round a few ulps
    # away from the witness's own projection; report the latter, so that
    # re-evaluating the witness reproduces the value
    witness = GammaWitness(perm=best_perm, signs=best_sign)
    return WidthReport(
        value=_value_of(cols, witness.apply(v)),
        method="brute",
        restarts=0,
        iterations=count,
        witness=witness,
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


def _value_of(cols: np.ndarray, image: np.ndarray) -> float:
    return float(np.linalg.norm(cols.conj().T @ image))


def _snap(cols, v_desc, v, image):
    """Ascend once from the projection direction of ``image``."""
    c = cols.conj().T @ image
    if float(np.linalg.norm(cols @ c)) <= 1e-14:
        return None
    w_new, _, _, status = _kernels.altmax_best(cols, v_desc, c[None, :])
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

    Returns ``(cols, w_best, best_obj, iterations, stopped)``.  ``cols`` are
    the columns the ascent ran on: those of ``basis``, complexified when
    ``v`` is complex, since the supremum then ranges over complex images.
    ``stopped`` says the kernel stopped at an iterate that proves the width
    exceeds ``ceiling``; otherwise the ascent ran in full.
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
    w_best, obj, iters, status = _kernels.altmax_best(cols, v_desc, starts, ceiling)
    if status == 1:
        raise RuntimeError("alternating ascent objective decreased")
    return cols, w_best, obj, int(iters), status == 2


def _witness_and_value(cols, v, w):
    """The witness an ascent endpoint ``w`` defines, and its value."""
    witness = _witness_from(np.asarray(w), v)
    return witness, _value_of(cols, witness.apply(v))


def _line_width(basis: SubspaceBasis, v) -> WidthReport:
    """Exact width of a line; ``v`` is conformed already.

    The witness pairs the rearrangement of ``v`` with that of the spanning
    vector, which is the optimal image, so no start is drawn.
    """
    if np.iscomplexobj(v):
        basis = basis.complexify()
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


def _plane_events(a, b):
    """Sorted event angles of the plane with rows ``(a_i, b_i)``.

    Returns ``(angles, i, j)``: ``y_i(theta) = a_i cos(theta) + b_i sin(theta)``
    changes sign at ``angles`` in ``[0, pi]`` where ``j = -1``, and
    ``y_i - y_j`` or ``y_i + y_j`` changes sign where ``j >= 0``.  Zero rows
    and the sums or differences of equal rows vanish identically, so they
    give no event.
    """
    live = np.flatnonzero((a != 0.0) | (b != 0.0))
    iu, ju = np.triu_indices(live.size, 1)
    pi, pj = live[iu], live[ju]
    i = np.concatenate((live, pi, pi))
    j = np.concatenate((np.full(live.size, -1), pj, pj))
    alpha = np.concatenate((a[live], a[pi] - a[pj], a[pi] + a[pj]))
    beta = np.concatenate((b[live], b[pi] - b[pj], b[pi] + b[pj]))
    keep = (alpha != 0.0) | (beta != 0.0)
    # alpha cos(theta) + beta sin(theta) vanishes where (cos, sin) is
    # parallel to (-beta, alpha)
    angles = np.arctan2(alpha[keep], -beta[keep]) % np.pi
    # the order among equal angles does not matter: they bound an arc too
    # short to count, after which the sweep rebuilds its state
    order = np.argsort(angles)
    return angles[order], i[keep][order], j[keep][order]


def _plane_width(basis: SubspaceBasis, v) -> WidthReport:
    """Exact width of a real plane against real ``v`` by an angular sweep.

    For ``y(theta) = cos(theta) c_1 + sin(theta) c_2`` the optimal image of
    ``v`` (see :func:`_witness_from`) depends only on the signs of ``y`` and
    the order of ``|y|``.  These change only at the events of
    :func:`_plane_events`, so on each arc between consecutive events one
    signed permutation ``g`` is optimal, and the width is the largest
    ``||P_W g v||`` over the arcs: the optimal image's own direction lies in
    the closure of its arc.

    The walk keeps the rank and sign of every coordinate and the 2-vector
    ``P_W g v``.  A zero event flips one sign; a pair event swaps two ranks,
    which are adjacent at that angle.  Each updates the projection in O(1).
    Where events lie within ``SWEEP_ANGLE_TOL`` of each other, or an event
    does not meet the state it expects, the state is rebuilt from the next
    arc's midpoint.  Every arc whose running value lies within the walk's
    rounding bound of the largest is then rebuilt from its midpoint and
    valued exactly; the first best of those is the report's witness.
    O(d^2 log d) time and O(d^2) memory.
    """
    cols = basis.columns
    d = cols.shape[0]
    a, b = cols[:, 0], cols[:, 1]
    angles, ev_i, ev_j = _plane_events(a, b)
    n = angles.size
    lo = np.concatenate(([angles[-1] - np.pi], angles[:-1]))
    mids = 0.5 * (lo + angles)
    tiny = (angles - lo <= SWEEP_ANGLE_TOL).tolist()
    v_desc = decreasing_rearrangement(v)
    vd = v_desc.tolist()
    live = int(np.count_nonzero((a != 0.0) | (b != 0.0)))

    def point(m):
        return cols @ np.array([math.cos(mids[m]), math.sin(mids[m])])

    def state(m):
        y = point(m)
        rank = np.empty(d, dtype=np.int64)
        rank[decreasing_argsort(y)] = np.arange(d)
        sign = np.where(y < 0.0, -1.0, 1.0)
        p = (sign * v_desc[rank]) @ cols
        return rank.tolist(), sign.tolist(), float(p[0]), float(p[1])

    al, bl, ei, ej = a.tolist(), b.tolist(), ev_i.tolist(), ev_j.tolist()
    # each step moves a running coordinate by at most 4 ||v|| and rounds it
    # by a few ulps of that, so a running square is off by well under this
    slack = 64.0 * (n + 1) * np.finfo(np.float64).eps * float(v_desc @ v_desc)
    # (squared running value, arc) of every arc that came within the slack
    # of the best so far; an arc too short to count, or holding the same
    # image as the arc before it, adds none
    best, cands = -math.inf, []
    rank, sign, p0, p1 = state(0)
    if not tiny[0]:
        best = p0 * p0 + p1 * p1
        cands.append((best, 0))
    for m in range(n - 1):
        if tiny[m + 1]:
            continue
        i, j = ei[m], ej[m]
        ri = rank[i]
        rj = rank[j] if j >= 0 else live
        # a crossing of zero moves the least live modulus; a crossing of two
        # moduli swaps adjacent ranks
        if tiny[m] or (ri - rj != 1 and rj - ri != 1):
            rank, sign, p0, p1 = state(m + 1)
        elif j < 0:
            c = 2.0 * sign[i] * vd[ri]
            sign[i] = -sign[i]
            if not c:
                continue
            p0 -= c * al[i]
            p1 -= c * bl[i]
        else:
            rank[i], rank[j] = rj, ri
            dm = vd[rj] - vd[ri]
            if not dm:
                continue
            si, sj = sign[i], sign[j]
            p0 += dm * (si * al[i] - sj * al[j])
            p1 += dm * (si * bl[i] - sj * bl[j])
        val = p0 * p0 + p1 * p1
        if val >= best - slack:
            cands.append((val, m + 1))
            if val > best:
                best = val
    witness, value = None, -math.inf
    for val, m in cands:
        if val < best - slack:
            continue
        cand, cand_val = _witness_and_value(cols, v, point(m))
        if cand_val > value:
            witness, value = cand, cand_val
    return WidthReport(
        value=value,
        method="sweep",
        restarts=0,
        iterations=n,
        witness=witness,
    )


def width_altmax(
    basis: SubspaceBasis,
    v,
    restarts: int = 20,
    seed=None,
    refine: str = "auto",
) -> WidthReport:
    """Signed-permutation supremum, exact for lines and real planes.

    Past those cases an alternating ascent runs.  One start is deterministic
    (the normalized projection of ``v`` itself, which guarantees the result
    is at least ``||proj_W v||``); the remaining ``restarts - 1`` starts are
    random unit vectors of the subspace, whose basis coefficients are drawn
    from ``seed`` in one batch.  The kernel forms each start only when its
    ascent begins.  Each ascent stops when the objective gains less than
    ``_kernels.ASCENT_TOL`` or after ``_kernels.ASCENT_MAX_ITER`` iterations.
    The reported value is the projection norm of the witness image, so the
    witness reproduces it exactly.  A complex ``v`` against a real basis runs
    over the complexified span, exactly as ``basis.complexify()`` would.

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

    A real plane (k = 2, real basis) against a real ``v`` is exact too:
    :func:`_plane_width` sweeps the angle of ``w = cos(t) c_1 + sin(t) c_2``
    over the at most ``d^2`` arcs on which the optimal image of ``v`` stays
    the same, and reports the best arc's witness and its projection norm,
    with ``method="sweep"``, ``restarts=0`` and ``iterations`` the number of
    arcs.  As for a line, no start is drawn, no ascent or anneal runs, and
    ``restarts`` and ``refine`` are only validated.  The sweep takes
    O(d^2 log d) time and O(d^2) memory, so at d = 1024 (~1 s and ~130 MB)
    it is slower than the ascent estimate it replaces.  A complex ``v`` runs
    the ascent over the complexified span, below.

    The start draw and the kernel call live in ``_ascend``, which
    :func:`~cylwidth.lowerbound.adversarial_min_width` calls directly with a
    ceiling; the search skips the witness of a candidate whose ascent
    stopped at it.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if refine not in ("auto", "none"):
        raise ValueError("refine must be 'auto' or 'none'")
    v = _conform(v, basis.d, basis.field)
    if basis.k == 1:
        return _line_width(basis, v)
    if basis.k == 2 and basis.field == "real" and not np.iscomplexobj(v):
        return _plane_width(basis, v)
    rng = np.random.default_rng(seed)
    v_desc = decreasing_rearrangement(v)
    cols, w_best, _, iters, _ = _ascend(basis, v, v_desc, restarts, rng, math.inf)
    witness, value = _witness_and_value(cols, v, w_best)
    if refine == "auto":
        witness, value = _anneal_refine(cols, v, v_desc, witness, value, rng)
    return WidthReport(
        value=value,
        method="altmax",
        restarts=restarts,
        iterations=iters,
        witness=witness,
    )


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
    """
    if math.isnan(ceiling):
        raise ValueError("ceiling must not be NaN")
    if orbit.d != basis.d:
        raise ValueError("orbit and basis dimensions differ")
    cols = basis.columns.conj()
    best = -math.inf
    best_i = 0
    end = 0
    while end < orbit.n and best <= ceiling:
        start, end = end, min(end + ORBIT_BLOCK, orbit.n)
        vals = np.linalg.norm(orbit.points[start:end] @ cols, axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_i = float(vals[i]), start + i
    return WidthReport(
        value=best,
        method="orbit",
        restarts=0,
        iterations=end,
        witness=orbit.points[best_i].copy(),
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
    ``seed`` may be an integer or a list of integers to derive from.  The
    trials are spread by :func:`~cylwidth._fork.map_forked` over this
    process and forked workers, one process per usable CPU, and come back
    in trial order, so the result is the same bit for bit for any number of
    processes.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]

    def trial(i):
        rng = np.random.default_rng([*base, i])
        return evaluator(measure.sample(rng), rng) ** 2

    values = np.array(map_forked(trial, trials), dtype=np.float64)
    stderr = 0.0
    if trials > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(trials))
    values.setflags(write=False)
    return FIntegralEstimate(
        mean=float(values.mean()), stderr=stderr, trials=trials, values=values
    )
