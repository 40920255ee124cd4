"""The three hot loops of the width engine, one implementation each.

* ``altmax_best``: the alternating ascent, vectorized with numpy.  Every
  start of every frame it is given advances in lockstep, and each start
  keeps the bits of its own sequential ascent; at large d an iteration is
  dominated by the sort and the two projections.  Starts come as basis
  coefficients.  It owns its stopping rules: each start stops on a small
  gain, a vanishing projection or after ``ASCENT_MAX_ITER`` iterations, and
  a frame stops as a whole once an objective proves its width exceeds the
  frame's ceiling.  Its one caller is ``width._ascend``, which builds the
  witnesses of its endpoints for every width, snap and search step.
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
#   cols      (S, d, k) orthonormal columns of S frames, float64 or complex128
#   v_desc    (d,) float64, decreasing moduli of the target vector
#   starts    (S, R, k) basis coefficients of each frame's R >= 1 starts,
#             dtype matching cols, each with cols[s] @ starts[s, r] != 0
#   ceilings  (S,) float64; frame s crosses once an iterate's objective
#             exceeds ceilings[s] * (1 + ALTMAX_CEILING_SLACK)
# Returns (w_best, obj, total_iters, crossed), crossed the (S,) mask of the
# frames that crossed.  For every other frame, w_best[s] and obj[s] are the
# endpoint and objective of its best start, the first in start order with
# the largest objective; the rows of a crossed frame hold no endpoint.
# total_iters counts the iterations of every start, crossed frames' too.
#
# Start r of frame s begins at the unit vector w = C c / ||C c||, with
# C = cols[s] and c = starts[s, r]; a caller that knows a start as a vector
# w of the subspace passes its coefficients C^H w.  The objective of an iterate w is
# sum_i v_desc[i] * (i-th largest modulus of w).  A start stops once its
# objective gains less than ASCENT_TOL, once its projection C^H u is
# shorter than 1e-15, or after ASCENT_MAX_ITER iterations, and reports its
# last iterate and the last objective it computed.  An objective that falls
# by more than 1e-12 raises RuntimeError (never expected: both half-steps
# maximize).  These tolerances act on a v_desc of about unit norm: the one
# caller, width._ascend, runs on v scaled by vectors._scaled.
#
# The live starts advance in lockstep, and a start leaves the stack when it
# stops; all starts of a frame leave once one of them crosses.  One frame's
# columns are broadcast over its starts, a stack's gathered per start.
# Every product is shaped as a stacked gemv, (N, d, k) @ (N, k, 1), or a
# stacked dot, (N, 1, d) @ (N, d, 1), and numpy's matmul calls BLAS once
# per row for these shapes, so each start has the bits of its lone
# sequential ascent: of cols @ c, of v_desc @ m[order] and of
# np.linalg.norm, whose complex case dots strided .real and .imag views
# (tests/test_numpy_contract.py checks this).  Gemm-shaped products, einsum
# and np.sum round another way.  So a frame gets the same result alone as
# in any stack, and it crosses exactly when its sequential ascent under the
# ceiling reaches an iterate above the bound.
#
# The objective of an iterate w is <gv, w> for the image gv aligned with w,
# so the witness norm ||proj gv|| is at least obj(w).  A crossing thus
# certifies that the full ascent's width would exceed the ceiling too: the
# crossing start's later objectives dip by at most 1e-12 each, and the
# witness of the best endpoint is worth at least its objective up to
# rounding of order 1e-15 relative.  The relative slack dominates both by
# orders of magnitude, so a frame whose full ascent reports a width below
# its ceiling never crosses.
# ---------------------------------------------------------------------------

ALTMAX_CEILING_SLACK = 1e-9
ASCENT_MAX_ITER = 500
ASCENT_TOL = 1e-10


def _row_dots(x):
    """``x[i] @ x[i]`` for each row of the real (N, d) ``x``, as one stacked dot."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _row_norms(x):
    """``np.linalg.norm(x[i])`` for each row of ``x``, bit for bit."""
    if np.iscomplexobj(x):
        return np.sqrt(_row_dots(x.real) + _row_dots(x.imag))
    return np.sqrt(_row_dots(x))


def altmax_best(cols, v_desc, starts, ceilings):
    """Run every frame's ascent from every start; see the contract above."""
    n_frames, n_starts, k = starts.shape
    bounds = np.asarray(ceilings, dtype=np.float64) * (1.0 + ALTMAX_CEILING_SLACK)
    cols_h = cols.conj().swapaxes(1, 2)

    def stacked(frame):
        if n_frames == 1:
            return cols, cols_h
        return cols[frame], cols_h[frame]

    # the live starts: their ids s * n_starts + r, frames, iterates and
    # last objectives
    ids = np.arange(n_frames * n_starts)
    frame = ids // n_starts
    a, a_h = stacked(frame)
    w = (a @ starts.reshape(-1, k, 1))[:, :, 0]
    w /= _row_norms(w)[:, None]
    prev = np.full(ids.size, -1.0)
    end_w = np.zeros((ids.size, w.shape[1]), dtype=w.dtype)
    end_obj = np.full(ids.size, -1.0)
    crossed = np.zeros(n_frames, dtype=np.bool_)
    total = 0
    for it in range(1, ASCENT_MAX_ITER + 1):
        total += ids.size
        m = np.abs(w)
        # each row's moduli in decreasing order, as indices into m.ravel()
        order = np.argsort(-m, axis=1, kind="stable")
        order += np.arange(0, m.size, m.shape[1])[:, None]
        obj = (v_desc @ m.ravel()[order][:, :, None])[:, 0]
        if (obj < prev - 1e-12).any():
            raise RuntimeError("alternating ascent objective decreased")
        crossed[frame[obj > bounds[frame]]] = True
        gain = obj - prev
        prev = obj
        # u takes v_desc's i-th entry where w has its i-th largest modulus,
        # with w's phase there
        vr = np.empty_like(m)
        vr.ravel()[order] = v_desc
        u = np.divide(w, m, out=np.ones_like(w), where=m > 0.0)
        u *= vr
        c = a_h @ u[:, :, None]
        pn = _row_norms(c[:, :, 0])
        short = pn < 1e-15
        w_next = (a @ c)[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            w_next /= pn[:, None]
        w_next[short] = w[short]
        w = w_next
        stop = short | (gain < ASCENT_TOL) | crossed[frame] | (it == ASCENT_MAX_ITER)
        if stop.any():
            end_w[ids[stop]] = w[stop]
            end_obj[ids[stop]] = prev[stop]
            go = ~stop
            ids, frame, w, prev = ids[go], frame[go], w[go], prev[go]
            if not ids.size:
                break
            a, a_h = stacked(frame)
    end_obj = end_obj.reshape(n_frames, n_starts)
    best = np.argmax(end_obj, axis=1)
    rows = np.arange(n_frames)
    w_best = end_w.reshape(n_frames, n_starts, -1)[rows, best]
    return w_best, end_obj[rows, best], total, crossed


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
# A move whose touched rows are all exactly zero leaves y as it is, and so
# costs O(1) always: a scalar move keeps its scalar, and a swap gains
# exactly 0, so it is accepted (acc_u < exp(0) = 1) with its complex phases
# kept and its real signs set to +1, the closed form's tie rule.  It only
# swaps p, resets those signs and keeps the z_i.  The dyadic atoms of the
# width measures put a block on the first 2^j of d coordinates, so most of
# their rows are zero.  The test reads the entries, not n_i: a row below
# ~1e-154 has n_i = 0.0 but is not zero, and its moves take the full path.
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
#   acc_u   (M,) float64 uniforms in [0, 1) for the Metropolis draws
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
    zero = (rows == 0).all(axis=1).tolist()
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
        if zero[i] and zero[j]:
            # y, ||y||, the z_i and the best state stay as they are
            if i != j:
                p[i], p[j] = p[j], p[i]
                if not cplx:
                    s[i] = s[j] = 1.0
            continue
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
