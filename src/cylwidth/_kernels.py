"""The three hot loops of the width engine, one implementation each.

* ``altmax_best``: the alternating ascent, vectorized with numpy; at large
  d each iteration is dominated by the two projections.  Starts come as
  basis coefficients and are formed only when their ascent begins.  An
  optional ceiling ends it early once an objective proves the width
  exceeds it.
* ``anneal_best``: the annealed witness search.  Each move touches one or
  two rows of a k-column matrix and is scored from cached inner products
  in a few scalar operations; only an accepted move updates the k-vector
  image.  The loop runs over plain Python floats or complexes, where
  per-element numpy indexing would dominate.
* ``greedy_pack``: greedy sphere packing.  Candidates go in blocks of 64:
  one broadcast drops those already covered by a kept point near the block,
  and only the rest are checked one by one against the points kept within
  the block.  The mask equals that of the plain one-by-one check.
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
#            each with cols @ starts[r] != 0; R >= 1 and max_iter >= 1
#   ceiling  float; once an iterate's objective exceeds
#            ceiling * (1 + ALTMAX_CEILING_SLACK), the ascent stops and
#            returns that iterate, its objective and the iterations so far
# Returns (w_best, best_obj, total_iters, status) where status is
#   0 normal, 1 monotonicity violation (never expected), and the objective is
#   sum_r v_desc[r] * r-th largest modulus of w.
#
# Start r is the unit vector w = cols @ starts[r] / ||cols @ starts[r]||.  It
# is formed only when its ascent begins, so a return at the ceiling during
# start r never pays for the starts after it.  Callers that know a start as
# a vector of the subspace pass its coefficients cols^H w instead.
#
# The objective of an iterate w is <gv, w> for the image gv aligned with w,
# so the witness norm ||proj gv|| is at least obj(w); the early return thus
# certifies that the full ascent's width would exceed the ceiling as well.
# In floats the two differ by rounding of order 1e-15 relative, and an
# objective may dip by rounding within a start; the relative slack dominates
# both by orders of magnitude, so a width reported below the ceiling by the
# full ascent never triggers the early return.  The early return is also the
# only way the returned objective can exceed the bound, so callers can tell
# it from the objective alone.
# ---------------------------------------------------------------------------

ALTMAX_CEILING_SLACK = 1e-9


def altmax_best(cols, v_desc, starts, max_iter, tol, ceiling=math.inf):
    """Run the alternating ascent from every start, return the best endpoint."""
    cols_h = cols.conj().T
    bound = ceiling * (1.0 + ALTMAX_CEILING_SLACK)
    best_obj = -1.0
    best_w = None
    total = 0
    status = 0
    for r in range(starts.shape[0]):
        w = cols @ starts[r]
        w = w / np.linalg.norm(w)
        obj_prev = -1.0
        for _ in range(max_iter):
            total += 1
            m = np.abs(w)
            order = np.argsort(-m, kind="stable")
            obj = float(v_desc @ m[order])
            if obj < obj_prev - 1e-12:
                status = 1
                break
            if obj > bound:
                return w, obj, total, 0
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
            if gain < tol:
                break
        if status:
            break
        if obj_prev > best_obj:
            best_obj = obj_prev
            best_w = w
    return best_w, best_obj, total, status


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
# Candidates are taken in blocks of _PACK_BLOCK consecutive points.  A kept
# point b can cover a candidate a of the block only if, on every axis j,
# fl(b_j - max_j) <= min_dist and fl(min_j - b_j) <= min_dist, max and min
# taken over the block: otherwise fl(b_j - a_j) exceeds min_dist on that
# axis by monotone rounding, so its square alone rounds to at least md2, and
# a sum of non-negative squares never rounds below one of its terms.  The
# block's candidates are checked against those nearby points in one
# broadcast, with the same squares and sums as the sequential check, and
# only the uncovered ones go through the sequential check against the
# points kept within the block.  Every "< md2" comparison is thus made on
# the same float as in a plain candidate-by-candidate loop, and the mask is
# the same; on spatially coherent input, such as the shell grid, few kept
# points are nearby and most candidates fall to the broadcast.
# ---------------------------------------------------------------------------

_PACK_BLOCK = 64


def greedy_pack(points, min_dist):
    """Boolean mask of a greedy maximal min_dist-separated subsequence.

    ``points`` is an (n, k) array of finite coordinates, taken in order.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValueError("greedy_pack needs finite points")
    keep = np.zeros(points.shape[0], dtype=np.bool_)
    kept = np.empty_like(points)
    m = 0
    md = float(min_dist)
    md2 = md ** 2
    for lo in range(0, points.shape[0], _PACK_BLOCK):
        block = points[lo:lo + _PACK_BLOCK]
        near = kept[:m]
        near = near[((near - block.max(axis=0) <= md)
                     & (block.min(axis=0) - near <= md)).all(axis=1)]
        d2 = np.sum((block[:, None, :] - near) ** 2, axis=-1)
        m0 = m
        for i in np.flatnonzero(~(d2 < md2).any(axis=1)):
            p = block[i]
            if m > m0 and float(np.sum((kept[m0:m] - p) ** 2, axis=1).min()) < md2:
                continue
            keep[lo + i] = True
            kept[m] = p
            m += 1
    return keep
