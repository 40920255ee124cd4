"""The three hot loops of the width engine, one implementation each.

* ``altmax_best``: the alternating ascent, vectorized with numpy; at large
  d each iteration is dominated by the two projections.  Starts come as
  basis coefficients.  It owns its stopping rules: each start stops on a
  small gain or after ``ASCENT_MAX_ITER`` iterations, and an optional
  ceiling ends the whole ascent early, with status 2, once an objective
  proves the width exceeds it.  ``altmax_race`` races a stack of frames
  in lockstep for a few steps, each under its own ceiling, and names the
  frames whose ascents would cross it, so their sequential ascents need not
  run.
* ``anneal_best``: the annealed witness search.  Each move touches one or
  two rows of a k-column matrix and is scored from cached inner products
  in a few scalar operations; only an accepted move updates the k-vector
  image.  The loop runs over plain Python floats or complexes, where
  per-element numpy indexing would dominate.
* ``greedy_pack``: greedy sphere packing, each candidate checked against
  every point kept before it.
"""

from __future__ import annotations

import math
import operator

import numpy as np


# ---------------------------------------------------------------------------
# alternating ascent
#
#   cols     (d, k) orthonormal columns, float64 or complex128
#   v_desc   (d,) float64, decreasing moduli of the target vector
#   starts   (R, k) basis coefficients of the starts, dtype matching cols,
#            each with cols @ starts[r] != 0; R >= 1
#   ceiling  float; once an iterate's objective exceeds
#            bound = ceiling * (1 + ALTMAX_CEILING_SLACK), the ascent stops
#            and returns that crossing iterate
# Returns (w_best, best_obj, total_iters, status) where status is
#   0 normal, 2 stopped at a crossing iterate, whose objective exceeds the
#   bound; the objective is sum_r v_desc[r] * r-th largest modulus of w.
#   Each start's ascent stops once its objective gains less than ASCENT_TOL,
#   or after ASCENT_MAX_ITER.  An objective that falls by more than 1e-12
#   raises RuntimeError (never expected: both half-steps maximize).  These
#   tolerances, like the 1e-15 projection guard, act on a v_desc of about
#   unit norm: every caller scales v by vectors._scaled.
#
# Start r is the unit vector w = cols @ starts[r] / ||cols @ starts[r]||, and
# its sequential ascent (_ascent) depends on that start alone.  Callers that
# know a start as a vector of the subspace pass its coefficients cols^H w
# instead.  The starts run one after the other, each formed only when its
# ascent begins.
#
# The objective of an iterate w is <gv, w> for the image gv aligned with w,
# so the witness norm ||proj gv|| is at least obj(w); the early return thus
# certifies that the full ascent's width would exceed the ceiling as well.
# In floats the two differ by rounding of order 1e-15 relative, and an
# objective may dip by rounding within a start; the relative slack dominates
# both by orders of magnitude, so a width reported below the ceiling by the
# full ascent never triggers the early return.
#
# altmax_race runs many frames' ascents at once, each under its own ceiling,
# to reject frames before their sequential ascents run:
#
#   cols      (S, d, k) orthonormal columns, one frame each
#   starts    (S, R, k) coefficient starts, as above, R per frame
#   ceilings  (S,) float64
# Returns an (S,) bool mask of the frames whose race crossed their bound.
#
# Every start of every frame is formed at once and the (S, d, R) stack is
# advanced in lockstep for at most RACE_STEPS steps, the iterates left
# unnormalized.  A start takes part while its lockstep gains are at least
# ASCENT_TOL, as its sequential ascent goes on while they are; a frame
# crosses once a taking-part start's objective exceeds its frame's bound.
# Lockstep values are the sequential ones up to rounding of order 1e-15
# relative and never reach an output; they only decide rejection.  A frame
# that crosses has a start whose sequential ascent reaches an objective
# within that rounding of a value above the bound, and the sequential
# ascent loses at most 1e-12 on its way to its endpoint, whose witness
# value is at least its objective.  So the full ascent's width, from the
# start with the best objective, exceeds the ceiling too: the slack, 1e-9
# relative, dominates both losses, as it does for the early return.
# ---------------------------------------------------------------------------

ALTMAX_CEILING_SLACK = 1e-9
ASCENT_MAX_ITER = 500
ASCENT_TOL = 1e-10
RACE_STEPS = 4


def _ascent(cols, cols_h, v_desc, start, bound):
    """One start's sequential ascent: ``(w, obj, iters, status)``.

    status 0: stopped below the bound, with its endpoint and last objective;
    2: ``w`` is the first iterate whose objective ``obj`` exceeds ``bound``.
    """
    w = cols @ start
    w = w / np.linalg.norm(w)
    obj_prev = -1.0
    for it in range(1, ASCENT_MAX_ITER + 1):
        m = np.abs(w)
        order = np.argsort(-m, kind="stable")
        obj = float(v_desc @ m[order])
        if obj < obj_prev - 1e-12:
            raise RuntimeError("alternating ascent objective decreased")
        if obj > bound:
            return w, obj, it, 2
        gain = obj - obj_prev
        obj_prev = obj
        u = np.zeros_like(w)
        ph = np.ones_like(w)
        nz = m > 0.0
        ph[nz] = w[nz] / m[nz]
        u[order] = ph[order] * v_desc
        c = cols_h @ u
        pn = float(np.linalg.norm(c))
        if pn < 1e-15:
            break
        w = (cols @ c) / pn
        if gain < ASCENT_TOL:
            break
    return w, obj_prev, it, 0


def altmax_best(cols, v_desc, starts, ceiling=math.inf):
    """Run the alternating ascent from every start, return the best endpoint."""
    cols_h = cols.conj().T
    bound = ceiling * (1.0 + ALTMAX_CEILING_SLACK)
    best_obj = -1.0
    best_w = None
    total = 0
    for start in starts:
        w, obj, iters, status = _ascent(cols, cols_h, v_desc, start, bound)
        total += iters
        if status == 2:
            return w, obj, total, 2
        if obj > best_obj:
            best_obj = obj
            best_w = w
    return best_w, best_obj, total, 0


def altmax_race(cols, v_desc, starts, ceilings):
    """Mask of the frames whose lockstep ascents cross their bounds."""
    slack = 1.0 + ALTMAX_CEILING_SLACK
    bounds = np.asarray(ceilings, dtype=np.float64)[:, None] * slack
    cols_h = cols.conj().swapaxes(1, 2)
    # w[s, :, r] is start r of frame s, left unnormalized; going[s, r] says
    # it takes part.  cols @ c has the norm of c, so from the second step on
    # a start whose sequential ascent ends on a short projection c has an
    # iterate of that norm
    w = cols @ starts.swapaxes(1, 2)
    n_frames, _, n_starts = w.shape
    crossed = np.zeros(n_frames, dtype=np.bool_)
    going = np.ones((n_frames, n_starts), dtype=np.bool_)
    prev = -1.0
    vr = np.empty(w.shape)
    frame = np.arange(n_frames)[:, None, None]
    start = np.arange(n_starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        for step in range(RACE_STEPS):
            if step:
                u = np.divide(w, m, out=np.ones_like(w), where=m > 0.0) * vr
                w = cols @ (cols_h @ u)
            m = np.abs(w)
            # vr[s, :, r] holds v_desc in the order of the moduli of w[s, :, r]
            vr[frame, np.argsort(-m, axis=1, kind="stable"), start] = v_desc[:, None]
            norm = np.sqrt((m * m).sum(axis=1))
            obj = (m * vr).sum(axis=1) / norm
            if step:
                going &= norm >= 1e-15
            crossed |= (going & (obj > bounds)).any(axis=1)
            going &= (obj - prev >= ASCENT_TOL) & ~crossed[:, None]
            if not going.any():
                break
            prev = obj
    return crossed


# ---------------------------------------------------------------------------
# annealed search over signed-permutation witnesses
#
# State: an assignment p of vector indices to positions and unit scalars s,
# valued at ||y||, y = sum_i s[i] * vvals[p[i]] * rows[i], rows = conj(cols).
# Moves either swap the assignments of two positions or re-optimize one
# scalar; after a swap the two touched scalars are set to their closed-form
# optima.  Swaps that lower the value are accepted with the Metropolis
# probability under a geometric temperature schedule from t0 down to t1.
# The random choices (touched positions, acceptance draws) are supplied by
# the caller.
#
# A move changes y only along rows i and j, so it is scored in Gram form,
# with <a, b> = sum conj(a) b: from z_i = <rows[i], y>, n_i = ||rows[i]||^2
# and g = <rows[i], rows[j]>, the closed-form scalars and the change of
# ||y||^2 take a few scalar operations instead of loops over the k entries
# of y.  The n_i are computed up front, each g on the first swap of its
# pair, and each z_i on first use in a state; a state change (an accepted
# swap or a changed scalar) updates y, recomputes ||y|| from it and drops
# the z_i.  A move that changes nothing costs O(1) once its z_i and g are
# cached, and late in the schedule most moves change nothing.
#
# In exact arithmetic this is the chain that builds every candidate image
# and takes its norm; in floats the scalars and the gain come from other
# sums, so results agree with that chain only up to rounding.  A complex
# scalar can differ in its last bits, and a real sign or a Metropolis
# decision decided by rounding can go the other way: at k = d every state
# has the same value, so there the whole chain is decided by rounding.  y is
# updated by removing the old terms and adding the new ones, in the order a
# direct evaluation of the candidate uses, so a real chain that makes the
# same decisions carries the same bits as one that evaluates directly.
#
#   rows    (d, k) float64 or complex128
#   vvals   (d,) matching field
#   p0      (d,) int initial assignment
#   s0      (d,) initial unit scalars, matching field
#   pairs   (M, 2) int, pairs[m] = (i, j); i == j requests a scalar move
#   acc_u   (M,) float64 uniforms for the Metropolis draws
# Returns (best_p, best_s, best_val), best_val = ||y|| of the best state.
# ---------------------------------------------------------------------------


def _sqnorm(y):
    # a float's imag is 0.0, so real vectors sum the same squares
    acc = 0.0
    for t in y:
        acc += t.real * t.real + t.imag * t.imag
    return acc


def anneal_best(rows, vvals, p0, s0, t0, t1, pairs, acc_u):
    """Run the annealed witness search, return the best visited state."""
    cplx = np.iscomplexobj(rows) or np.iscomplexobj(vvals)
    field = np.complex128 if cplx else np.float64
    rows = np.asarray(rows, dtype=field)
    norms = (rows.real ** 2 + rows.imag ** 2).sum(axis=1).tolist()
    crows = rows.conj().tolist()
    rows = rows.tolist()
    vvals = np.asarray(vvals, dtype=field)
    cvals = vvals.conj().tolist()
    vvals = vvals.tolist()
    p = np.asarray(p0, dtype=np.int64).tolist()
    s = np.asarray(s0, dtype=field).tolist()
    pairs = np.asarray(pairs).tolist()
    acc_u = np.asarray(acc_u, dtype=np.float64).tolist()
    d, k = len(rows), len(rows[0])
    y = [0.0] * k
    for i, r in enumerate(rows):
        a = s[i] * vvals[p[i]]
        for l in range(k):
            y[l] += a * r[l]
    sq = _sqnorm(y)
    val = math.sqrt(sq)
    best_p, best_s, best_val = p[:], s[:], val
    t0, t1 = float(t0), float(t1)
    ratio = t1 / t0
    denom = max(len(pairs) - 1, 1)
    mul = operator.mul
    z = {}
    zget = z.get
    gram = {}
    # each new scalar is the unit s maximizing Re(conj(s) * w), that is
    # w / |w|, exactly +-1.0 for a float
    for m, (i, j) in enumerate(pairs):
        zi = zget(i)
        if zi is None:
            zi = z[i] = sum(map(mul, crows[i], y))
        vi = vvals[p[i]]
        if i == j:
            w = cvals[p[i]] * (zi - s[i] * vi * norms[i])
            s_new = w / abs(w) if w else s[i]
            if s_new == s[i]:
                continue
            delta = (s_new - s[i]) * vi
            ri = rows[i]
            for l in range(k):
                y[l] += delta * ri[l]
            s[i] = s_new
        else:
            zj = zget(j)
            if zj is None:
                zj = z[j] = sum(map(mul, crows[j], y))
            g = gram.get(i * d + j)
            if g is None:
                g = gram[i * d + j] = sum(map(mul, crows[i], rows[j]))
            vj = vvals[p[j]]
            ni, nj = norms[i], norms[j]
            ai = s[i] * vi
            aj = s[j] * vj
            # a real swap breaks a tie towards +1, a complex one keeps the
            # old phase; ci and cj are the changes of y's coefficients
            w = cvals[p[j]] * (zi - ai * ni - aj * g)
            si2 = w / abs(w) if w else (s[i] if cplx else 1.0)
            bi = si2 * vj
            ci = bi - ai
            w = cvals[p[i]] * (zj + ci * g.conjugate() - aj * nj)
            sj2 = w / abs(w) if w else (s[j] if cplx else 1.0)
            bj = sj2 * vi
            cj = bj - aj
            # ||y + ci rows[i] + cj rows[j]||^2 - ||y||^2
            gain = (ci.conjugate() * (2 * zi + ci * ni + 2 * cj * g)
                    + cj.conjugate() * (2 * zj + cj * nj)).real
            if not (gain > 0.0 or acc_u[m] < math.exp(
                    (math.sqrt(max(sq + gain, 0.0)) - val)
                    / (t0 * ratio ** (m / denom)))):
                continue
            ri, rj = rows[i], rows[j]
            y = [y[l] - ai * ri[l] - aj * rj[l] + bi * ri[l] + bj * rj[l]
                 for l in range(k)]
            p[i], p[j] = p[j], p[i]
            s[i], s[j] = si2, sj2
        sq = _sqnorm(y)
        val = math.sqrt(sq)
        z.clear()
        if val > best_val:
            best_p, best_s, best_val = p[:], s[:], val
    return (np.array(best_p, dtype=np.int64), np.array(best_s, dtype=field),
            best_val)


# ---------------------------------------------------------------------------
# greedy sphere packing (maximal min_dist-separated subsequence)
#
# Each candidate is checked against every point kept before it.  Squared
# distances are summed over the axes from left to right: numpy's own row sum
# adds in this order only for rows of at most 7 entries, and spelling it out
# keeps the mask independent of how numpy orders a reduction.
# ---------------------------------------------------------------------------


def greedy_pack(points, min_dist):
    """Boolean mask of a greedy maximal min_dist-separated subsequence.

    ``points`` is an (n, k) array of finite coordinates, k >= 1, taken in
    order; ``min_dist`` is a finite distance >= 0.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("greedy_pack needs an (n, k) array of points, k >= 1")
    if not np.isfinite(points).all():
        raise ValueError("greedy_pack needs finite points")
    md = float(min_dist)
    if not 0.0 <= md < math.inf:
        raise ValueError("greedy_pack needs a finite min_dist >= 0")
    md2 = md ** 2
    keep = np.zeros(points.shape[0], dtype=np.bool_)
    kept = np.empty_like(points)
    m = 0
    for i, p in enumerate(points):
        if m:
            d2 = (kept[:m, 0] - p[0]) ** 2
            for j in range(1, points.shape[1]):
                d2 += (kept[:m, j] - p[j]) ** 2
            if float(d2.min()) < md2:
                continue
        keep[i] = True
        kept[m] = p
        m += 1
    return keep
