"""Lower-bound machinery: witness vectors, coordinate profiles, and an
adversarial search for subspaces of minimal width.

The witness vector has coordinates ``a_i = 1 / sqrt(floor(k/2) + i)`` for
``i = 1 .. d - floor(k/2)`` and zero afterwards, so its squared norm is the
harmonic tail ``H_d - H_{floor(k/2)}``.  Its decreasing rearrangement is
itself, which makes suprema over signed permutations easy to reason about:
for any ``y``, ``sup_g <a, g y> = <a, y~>`` is at least ``sum_i a_i |y_i|``.

For a subspace basis the coordinate profile ``sigma_i`` is the i-th largest
projection norm of a coordinate vector divided by ``sqrt(k)``.  The profile
sums to one in squares and obeys ``sigma_i <= min(1/sqrt(k), 1/sqrt(i))``.

The adversarial minimizer is a derivative-free random search over frames
against a target vector: Gaussian perturbations of the basis columns are
re-orthonormalized, moves are accepted when the width drops, and the step
size halves after ``SEARCH_REJECTION_LIMIT`` consecutive rejections.  Lines
(k = 1) need no search: the least width over real lines is
``min_m (v~_1 + ... + v~_m) / sqrt(m)``, attained by the normalized
indicator of the first ``m`` coordinates (see
:func:`adversarial_min_width`).  The restarts of a search are independent,
so they are spread over the usable CPUs; the output does not depend on how
many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _fork, _kernels
from .errors import _integer
from .measures import sample_uniform
from .vectors import (
    SubspaceBasis,
    _orthonormal_stack,
    _scaled,
    _unscaled,
    decreasing_rearrangement,
)
from .width import _conform, _line_width, _stacked_starts, _witness_and_value

__all__ = [
    "WitnessVector",
    "SigmaProfile",
    "SelbergReport",
    "AdversarialResult",
    "witness_vector",
    "sigma_profile",
    "selberg_check",
    "adversarial_min_width",
]

SEARCH_INITIAL_STEP = 0.5
SEARCH_REJECTION_LIMIT = 20


@dataclass(frozen=True)
class WitnessVector:
    """Unit witness direction plus the squared norm of its raw form."""

    unit: np.ndarray
    raw_norm_sq: float
    d: int
    k: int


def witness_vector(d: int, k: int) -> WitnessVector:
    """Unit-normalized harmonic witness for dimension ``d`` and rank ``k``."""
    if not 1 <= _integer("k", k) <= _integer("d", d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    half = k // 2
    a = np.zeros(d)
    n = d - half
    i = np.arange(1, n + 1, dtype=np.float64)
    a[:n] = 1.0 / np.sqrt(half + i)
    norm_sq = float(np.sum(a**2))
    unit = a / np.sqrt(norm_sq)
    unit.setflags(write=False)
    return WitnessVector(unit=unit, raw_norm_sq=norm_sq, d=d, k=k)


@dataclass(frozen=True)
class SigmaProfile:
    """Sorted coordinate profile of a subspace.

    ``sigmas[i]`` is the (i+1)-th largest value of
    ``||proj_W e_j||_2 / sqrt(k)``.  Construction rejects non-finite
    entries and validates the exact identities: squares sum to one within
    1e-8 and ``sigmas[i] <= min(1/sqrt(k), 1/sqrt(i+1)) + 1e-9``.
    """

    sigmas: np.ndarray
    d: int
    k: int

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=np.float64)
        if s.shape != (self.d,):
            raise ValueError("profile length must match the dimension")
        if not np.isfinite(s).all():
            raise ValueError("profile entries must be finite")
        total = float(np.sum(s**2))
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"profile squares sum to {total}, expected 1")
        ranks = np.arange(1, self.d + 1, dtype=np.float64)
        cap = np.minimum(1.0 / np.sqrt(self.k), 1.0 / np.sqrt(ranks))
        if np.any(s > cap + 1e-9):
            raise ValueError("profile exceeds the rank/coordinate caps")
        s.setflags(write=False)
        object.__setattr__(self, "sigmas", s)


def sigma_profile(basis: SubspaceBasis) -> SigmaProfile:
    """Coordinate profile of a subspace, sorted in decreasing order."""
    rows = np.linalg.norm(basis.columns, axis=1)
    sig = np.sort(rows)[::-1] / np.sqrt(basis.k)
    return SigmaProfile(sigmas=sig, d=basis.d, k=basis.k)


@dataclass(frozen=True)
class SelbergReport:
    lhs: float
    rhs: float
    margin: float
    holds: bool


def selberg_check(points, tol: float = 1e-9) -> SelbergReport:
    """Check the largest Gram eigenvalue against the worst absolute row sum.

    For any finite family ``x_1..x_m`` the supremum over unit ``w`` of
    ``sum_i |<w, x_i>|^2`` is the top eigenvalue of the Gram matrix, and it
    never exceeds ``max_i sum_j |<x_i, x_j>|``.  ``tol`` must be finite and
    nonnegative, so the check cannot hold vacuously, and the points must be
    finite with finite Gram row sums, so it cannot fail on invalid input.
    The points are converted to float64 (complex128 if complex) first, so
    integer points cannot wrap around in the Gram product.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    x = np.asarray(points)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a nonempty (m, d) array of row vectors")
    # a non-finite point or an overflowing Gram matrix makes a row sum inf
    # or NaN, which must not pass
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.conj().T
        gram = (gram + gram.conj().T) / 2.0
        rhs = float(np.max(np.sum(np.abs(gram), axis=1)))
    if not rhs < math.inf:
        raise ValueError("points must be finite, with finite Gram row sums")
    lhs = float(np.linalg.eigvalsh(gram)[-1])
    return SelbergReport(lhs=lhs, rhs=rhs, margin=rhs - lhs, holds=lhs <= rhs + tol)


@dataclass(frozen=True)
class AdversarialResult:
    min_value: float
    basis: SubspaceBasis
    restarts: int
    steps: int
    evaluations: int


def _least_line_width(v, v_desc) -> AdversarialResult:
    """The exact minimum over real lines; see :func:`adversarial_min_width`."""
    d = v.shape[0]
    ratios = np.cumsum(v_desc) / np.sqrt(np.arange(1, d + 1))
    m = int(np.argmin(ratios)) + 1
    cols = np.zeros((d, 1))
    cols[:m] = 1.0 / math.sqrt(m)
    basis = SubspaceBasis(cols)
    return AdversarialResult(
        min_value=_line_width(basis, v).value,
        basis=basis,
        restarts=0,
        steps=0,
        evaluations=1,
    )


def _evaluate(cols, starts, v, v_desc, currents):
    """Widths of the candidate frames ``cols[s]``, or None where rejected.

    ``starts[s]`` are frame ``s``'s ascent starts and ``currents[s]`` the
    width it must get below, inf for none.  A frame whose lockstep race
    crosses its current width is rejected unrun; the others run the plain
    ascent with the current width as ceiling, and one whose ascent stopped
    at a crossing iterate is rejected without a witness.  Every other frame
    gets the width of its ascent's witness, as a full evaluation would.
    """
    crossed = _kernels.altmax_race(cols, v_desc, starts, currents)
    values = []
    for s, current in enumerate(currents):
        if crossed[s]:
            values.append(None)
            continue
        w, _, _, status = _kernels.altmax_best(cols[s], v_desc, starts[s], current)
        values.append(None if status == 2 else _witness_and_value(cols[s], v, w)[1])
    return values


def _share(v, v_desc, d, k, steps, inner_restarts, streams):
    """The restarts of one share of the search, run in lockstep.

    Restart ``r`` runs on the random stream ``streams[r]`` and returns the
    least width it reached, the frame that reached it and the number of
    evaluations made.  At each step every running restart draws its noise,
    and then its candidate's ascent starts, from its own stream, so each
    restart draws what it would draw alone.  The candidates are
    re-orthonormalized by one stacked QR and their starts drawn by one call
    of :func:`~cylwidth.width._stacked_starts`, each giving every frame the
    bits it would get alone, and they are valued together by
    :func:`_evaluate`.

    A restart ends early once its step cannot move the width past the
    ascent's own tolerance: a perturbation ``eta * noise`` has norm about
    ``eta * sqrt(d k)``, and moves the width against the target, which
    runs at about unit norm, by at most about that much, so once that is
    below ``_kernels.ASCENT_TOL`` a candidate differs from the current
    frame only by what the ascent does not resolve.
    """
    rngs = [np.random.default_rng(stream) for stream in streams]
    frames = [sample_uniform(k, d, "real", rng).columns for rng in rngs]
    stack = np.stack(frames)
    current = _evaluate(stack, _stacked_starts(stack, v, inner_restarts, rngs), v, v_desc,
                        [math.inf] * len(rngs))
    evals = [1] * len(rngs)
    eta = [SEARCH_INITIAL_STEP] * len(rngs)
    rejected = [0] * len(rngs)

    def reject(r):
        rejected[r] += 1
        if rejected[r] >= SEARCH_REJECTION_LIMIT:
            eta[r] /= 2.0
            rejected[r] = 0

    running = list(range(len(rngs)))
    for _ in range(steps):
        running = [r for r in running if eta[r] * math.sqrt(d * k) >= _kernels.ASCENT_TOL]
        if not running:
            break
        moved = np.stack([frames[r] + eta[r] * rngs[r].standard_normal((d, k))
                          for r in running])
        cands, full_rank, _ = _orthonormal_stack(moved)
        live = []
        for r, ok in zip(running, full_rank):
            if ok:
                live.append(r)
            else:  # pragma: no cover - tiny probability
                reject(r)
        if not live:  # pragma: no cover - tiny probability
            continue
        cands = cands[full_rank]
        starts = _stacked_starts(cands, v, inner_restarts, [rngs[r] for r in live])
        values = _evaluate(cands, starts, v, v_desc, [current[r] for r in live])
        for r, cand, val in zip(live, cands, values):
            evals[r] += 1
            if val is not None and val < current[r]:
                frames[r] = cand
                current[r] = val
                rejected[r] = 0
            else:
                reject(r)
    return list(zip(current, frames, evals))


def adversarial_min_width(
    d: int,
    k: int,
    target,
    restarts: int = 10,
    steps: int = 2000,
    seed: int = 0,
    inner_restarts: int = 6,
) -> AdversarialResult:
    """Real frame of minimal width: exact for lines, a random search above.

    ``target`` is a vector, and a frame's width against it is evaluated by
    the alternating ascent over signed permutations with ``inner_restarts``
    starts.  Restart ``r`` runs on the derived stream ``(seed, r)``: a
    uniform random frame is perturbed by Gaussian noise of scale
    ``SEARCH_INITIAL_STEP`` and re-orthonormalized; strict improvements are
    accepted and the scale halves after ``SEARCH_REJECTION_LIMIT``
    consecutive rejections, until ``steps`` candidates are drawn or the
    scale times ``sqrt(d k)`` falls below ``_kernels.ASCENT_TOL``.
    Underestimation by the inner ascent can only lower the reported
    minimum, so the result is a one-sided probe of the true minimal width.

    The restarts are split into one share per usable CPU, never more than
    ``restarts``: share ``w`` holds restarts ``w, w + n, ...``, and
    :func:`~cylwidth._fork.map_forked` runs each share in this process or
    a forked worker.  A share runs its restarts in lockstep, one step of
    each at a time.  Each restart draws only from its own stream, and the
    results are folded in restart order, the first least width winning, so
    the result is the same bit for bit for any number of processes.

    The target is validated and rearranged once, and each frame is valued
    by the plain ascent that :func:`~cylwidth.width.width_altmax` runs (with
    ``refine="none"``), from random starts drawn before it runs.  A step's
    candidates are raced first, all their starts in one stacked lockstep
    ascent (``_kernels.altmax_race``), each candidate against its own
    restart's current width.  A candidate whose race crosses that width,
    with the ascent's relative slack, is rejected: its sequential ascent
    would reach an objective within rounding of the crossing value, lose at
    most 1e-12 on the way to its endpoint, and the witness of that endpoint
    is worth at least its objective, so the full evaluation's width would
    exceed the current one too.  The other candidates run the sequential
    ascent with the current width as ceiling; one stopped at an iterate
    above it is rejected as well, and only one that ran in full builds its
    witness.  A candidate is rejected exactly when a full evaluation would
    reject it, and the lockstep values never reach the output, so the
    stream, and with it the result, is the same bit for bit as with full
    evaluations.

    A target at k = 1 is solved exactly, with no search: ``restarts``,
    ``steps`` and ``inner_restarts`` are validated and otherwise unused, and
    the result reports one evaluation and zero restarts and steps.  Let
    ``A_m = v~_1 + ... + v~_m`` and ``1_[m]`` be the vector with ones on the
    first ``m`` coordinates.  A real unit ``u`` spans a line of width
    ``sum_i u~_i v~_i`` (see :func:`~cylwidth.width.width_altmax`).  The
    decreasing non-negative ``u~`` is ``sum_m lam_m 1_[m]`` with
    ``lam_m = u~_m - u~_(m+1) >= 0``, so its width is ``sum_m lam_m A_m``,
    while the triangle inequality gives
    ``1 = ||u~|| <= sum_m lam_m ||1_[m]|| = sum_m lam_m sqrt(m)``.  Hence
    ``width >= sum_m lam_m A_m / sum_m lam_m sqrt(m) >= min_m A_m / sqrt(m)``,
    and ``1_[m*] / sqrt(m*)`` attains it for ``m*`` the first minimizer.
    The returned basis is that line and ``min_value`` its width, from the
    witness that :func:`~cylwidth.width.width_altmax` builds.

    The target is searched as ``2^-s`` times itself, ``2^s`` the power of
    two nearest its norm, as :func:`~cylwidth.width.width_altmax` scales a
    vector, and ``min_value`` is scaled back; so ``2^j`` times a target
    gives the same frames and ``2^j`` times the minimum, bit for bit, and
    the stop on ``_kernels.ASCENT_TOL`` above is relative to its norm.  A
    value that overflows float64 raises ``ValueError``.
    """
    if not 1 <= _integer("k", k) <= _integer("d", d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if _integer("restarts", restarts) < 1:
        raise ValueError("need at least one restart")
    if _integer("steps", steps) < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    if _integer("inner_restarts", inner_restarts) < 1:
        raise ValueError("need at least one inner restart")
    v, shift = _scaled(_conform(target, d, "real"))
    v_desc = decreasing_rearrangement(v)
    if k == 1:
        result = _least_line_width(v, v_desc)
    else:
        result = _search(v, v_desc, d, k, restarts, steps, seed, inner_restarts)
    if shift:
        result = replace(result, min_value=_unscaled(result.min_value, shift))
    return result


def _search(v, v_desc, d, k, restarts, steps, seed, inner_restarts):
    """The random search of :func:`adversarial_min_width` at k >= 2."""
    # the search re-evaluates thousands of candidates, so it runs the plain
    # ascent; underestimates only lower the one-sided probe
    seed_base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    n = min(_fork._usable_cpus(), restarts)
    shares = _fork.map_forked(
        lambda w: _share(v, v_desc, d, k, steps, inner_restarts,
                         [[*seed_base, r] for r in range(w, restarts, n)]),
        n,
    )
    runs = [shares[r % n][r // n] for r in range(restarts)]
    best_val = np.inf
    best_cols = None
    for current, cols, _ in runs:
        if current < best_val:
            best_val = current
            best_cols = cols
    return AdversarialResult(
        min_value=float(best_val),
        basis=SubspaceBasis._from_q_factor(best_cols, False),
        restarts=restarts,
        steps=steps,
        evaluations=sum(evals for _, _, evals in runs),
    )
