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
from dataclasses import dataclass

import numpy as np

from ._fork import map_forked
from .errors import RankDeficientError
from .measures import sample_uniform
from .vectors import SubspaceBasis, decreasing_rearrangement, orthonormalize
from .width import _ascend, _conform, _line_width, _witness_and_value

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
    if not 1 <= k <= d:
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


def _restart(evaluate, d, k, steps, stream):
    """One restart of the search on the random stream ``stream``.

    Returns the least width it reached, the frame that reached it and the
    number of evaluations made.
    """
    rng = np.random.default_rng(stream)
    basis = sample_uniform(k, d, "real", rng)
    current = evaluate(basis, rng, math.inf)
    evals = 1
    eta = SEARCH_INITIAL_STEP
    rejected = 0
    for _ in range(steps):
        noise = rng.standard_normal((d, k))
        try:
            cand = orthonormalize(basis.columns + eta * noise)
        except RankDeficientError:  # pragma: no cover - tiny probability
            rejected += 1
            if rejected >= SEARCH_REJECTION_LIMIT:
                eta /= 2.0
                rejected = 0
            continue
        val = evaluate(cand, rng, current)
        evals += 1
        if val < current:
            basis = cand
            current = val
            rejected = 0
        else:
            rejected += 1
            if rejected >= SEARCH_REJECTION_LIMIT:
                eta /= 2.0
                rejected = 0
    return current, basis, evals


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
    consecutive rejections.  Underestimation by the inner ascent can only
    lower the reported minimum, so the result is a one-sided probe of the
    true minimal width.

    The restarts are spread by :func:`~cylwidth._fork.map_forked` over
    this process and forked workers, one process per usable CPU and never
    more than ``restarts``.  Each restart draws only from its own stream,
    and the results are folded in restart order, the first least width
    winning, so the result is the same bit for bit for any number of
    processes.

    The target is validated and rearranged once, and each frame is evaluated
    by the ascent helper that :func:`~cylwidth.width.width_altmax` runs (with
    ``refine="none"``).  A candidate's ascent runs with the current width as
    its ceiling, and the kernel stops it at an iterate whose objective
    exceeds that ceiling if some start's own sequential ascent reaches one.
    Every objective is a lower bound on the width the full ascent would
    report, so a stopped candidate is rejected either way: the search takes
    the objective as its value and builds no witness.  A candidate is
    rejected exactly when a full evaluation would reject it, and its random
    starts are drawn before the ascent, so the stream, and with it the
    result, is the same bit for bit as with full evaluations.

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
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    if inner_restarts < 1:
        raise ValueError("need at least one inner restart")
    v = _conform(target, d, "real")
    v_desc = decreasing_rearrangement(v)
    if k == 1:
        return _least_line_width(v, v_desc)

    # the search re-evaluates thousands of candidates, so it runs the plain
    # ascent; underestimates only lower the one-sided probe.  A stopped
    # ascent's objective exceeds the ceiling, so the caller rejects the
    # candidate unwitnessed
    def evaluate(basis, rng, ceiling):
        cols, w, obj, _, stopped = _ascend(
            basis, v, v_desc, inner_restarts, rng, ceiling
        )
        return obj if stopped else _witness_and_value(cols, v, w)[1]

    seed_base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    runs = map_forked(
        lambda r: _restart(evaluate, d, k, steps, [*seed_base, r]), restarts
    )
    best_val = np.inf
    best_basis = None
    for current, basis, _ in runs:
        if current < best_val:
            best_val = current
            best_basis = basis
    return AdversarialResult(
        min_value=float(best_val),
        basis=best_basis,
        restarts=restarts,
        steps=steps,
        evaluations=sum(evals for _, _, evals in runs),
    )
