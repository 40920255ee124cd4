"""The three hot loops of the width engine, one implementation each.

* ``altmax_best``: the alternating ascent, vectorized with numpy; at large
  d each iteration is dominated by the two projections.  An optional
  ceiling ends it early once an objective proves the width exceeds it.
* ``anneal_best``: the annealed witness search.  Each move touches one or
  two rows of a k-column matrix, so the loop runs over plain Python floats
  or complexes, where per-element numpy indexing would dominate.
* ``greedy_pack``: greedy sphere packing.  Candidates go in blocks of 64:
  one broadcast drops those already covered by a kept point near the block,
  and only the rest are checked one by one against the points kept within
  the block.  The mask equals that of the plain one-by-one check.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# alternating ascent
#
#   cols     (d, k) orthonormal columns, float64 or complex128
#   v_desc   (d,) float64, decreasing moduli of the target vector
#   starts   (R, d) unit vectors inside span(cols), dtype matching cols
#   ceiling  float; once an iterate's objective exceeds
#            ceiling * (1 + ALTMAX_CEILING_SLACK), the ascent stops and
#            returns that iterate, its objective and the iterations so far
# Returns (w_best, best_obj, total_iters, status) where status is
#   0 normal, 1 monotonicity violation (never expected), and the objective is
#   sum_r v_desc[r] * r-th largest modulus of w.
#
# The objective of an iterate w is <gv, w> for the image gv aligned with w,
# so the witness norm ||proj gv|| is at least obj(w); the early return thus
# certifies that the full ascent's width would exceed the ceiling as well.
# In floats the two differ by rounding of order 1e-15 relative, and an
# objective may dip by rounding within a start; the relative slack dominates
# both by orders of magnitude, so a width reported below the ceiling by the
# full ascent never triggers the early return.
# ---------------------------------------------------------------------------

ALTMAX_CEILING_SLACK = 1e-9


def altmax_best(cols, v_desc, starts, max_iter, tol, ceiling=math.inf):
    """Run the alternating ascent from every start, return the best endpoint."""
    cols_h = cols.conj().T
    bound = ceiling * (1.0 + ALTMAX_CEILING_SLACK)
    best_obj = -1.0
    best_w = starts[0]
    total = 0
    status = 0
    for r in range(starts.shape[0]):
        w = starts[r]
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
# valued at || sum_i s[i] * vvals[p[i]] * rows[i] || where rows = conj(cols).
# Moves either swap the assignments of two positions or re-optimize one
# scalar; after a swap the two touched scalars are set to their closed-form
# optima.  Swaps that lower the value are accepted with the Metropolis
# probability under a geometric temperature schedule from t0 down to t1.
# The random choices (touched positions, acceptance draws) are supplied by
# the caller.
#
#   rows    (d, k) float64 or complex128
#   vvals   (d,) matching field
#   p0      (d,) int initial assignment
#   s0      (d,) initial unit scalars, matching field
#   pairs   (M, 2) int, pairs[m] = (i, j); i == j requests a scalar move
#   acc_u   (M,) float64 uniforms for the Metropolis draws
# Returns (best_p, best_s, best_val).
# ---------------------------------------------------------------------------


def _sign(z, tie):
    # z / |z| is exactly +-1.0
    return z / abs(z) if z else tie


def _phase(z, tie):
    # np.abs and the reciprocal multiply reproduce numpy's complex128
    # arithmetic bit for bit; Python's abs(complex) can differ in the last bit
    mag = float(np.abs(z))
    return z.conjugate() * (1.0 / mag) if mag else tie


def _norm(y):
    # a float's imag is 0.0, so real vectors sum the same squares
    acc = 0.0
    for t in y:
        acc += t.real * t.real + t.imag * t.imag
    return math.sqrt(acc)


def anneal_best(rows, vvals, p0, s0, t0, t1, pairs, acc_u):
    """Run the annealed witness search, return the best visited state."""
    cplx = np.iscomplexobj(rows) or np.iscomplexobj(vvals)
    field = np.complex128 if cplx else np.float64
    unit = _phase if cplx else _sign
    rows = np.asarray(rows, dtype=field).tolist()
    vvals = np.asarray(vvals, dtype=field).tolist()
    p = np.asarray(p0, dtype=np.int64).tolist()
    s = np.asarray(s0, dtype=field).tolist()
    pairs = np.asarray(pairs).tolist()
    acc_u = np.asarray(acc_u, dtype=np.float64).tolist()
    k = len(rows[0])
    y = [0.0] * k
    for i, r in enumerate(rows):
        a = s[i] * vvals[p[i]]
        for l in range(k):
            y[l] += a * r[l]
    val = _norm(y)
    best_p, best_s, best_val = p[:], s[:], val
    t0, t1 = float(t0), float(t1)
    ratio = t1 / t0
    denom = max(len(pairs) - 1, 1)
    for m, (i, j) in enumerate(pairs):
        if i == j:
            vi, ri = vvals[p[i]], rows[i]
            a = s[i] * vi
            inner = 0.0
            for l in range(k):
                inner += (y[l] - a * ri[l]).conjugate() * (vi * ri[l])
            s_new = unit(inner, s[i])
            if s_new != s[i]:
                delta = (s_new - s[i]) * vi
                for l in range(k):
                    y[l] += delta * ri[l]
                val = _norm(y)
                s[i] = s_new
        else:
            vi, vj, ri, rj = vvals[p[i]], vvals[p[j]], rows[i], rows[j]
            ai, aj = s[i] * vi, s[j] * vj
            rest = [y[l] - ai * ri[l] - aj * rj[l] for l in range(k)]
            # a real swap breaks a tie towards +1, a complex one keeps the
            # old phase
            inner = 0.0
            for l in range(k):
                inner += rest[l].conjugate() * (vj * ri[l])
            si2 = unit(inner, s[i] if cplx else 1.0)
            bi = si2 * vj
            inner = 0.0
            for l in range(k):
                inner += (rest[l] + bi * ri[l]).conjugate() * (vi * rj[l])
            sj2 = unit(inner, s[j] if cplx else 1.0)
            bj = sj2 * vi
            y2 = [rest[l] + bi * ri[l] + bj * rj[l] for l in range(k)]
            val2 = _norm(y2)
            temp = t0 * ratio ** (m / denom)
            if val2 > val or acc_u[m] < math.exp((val2 - val) / temp):
                y = y2
                p[i], p[j] = p[j], p[i]
                s[i], s[j] = si2, sj2
                val = val2
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
