"""Width estimation: brute oracle, alternating ascent, orbit evaluation."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cylwidth._kernels as kernels
import cylwidth.width as width
from cylwidth.groups import GroupPresentation, enumerate_orbit, signed_permutation_apply
from cylwidth.lowerbound import witness_vector
from cylwidth.measures import UniformMeasure, sample_uniform
from cylwidth.vectors import SubspaceBasis, decreasing_rearrangement, projection_norm
from cylwidth.width import (
    _value_of,
    estimate_f_integral,
    width_altmax,
    width_brute_signed_perm,
    width_orbit,
)


def test_brute_hand_checked_case():
    # W = span(e1) in R^2: the best signed permutation moves the larger
    # modulus into the first coordinate
    basis = SubspaceBasis(np.eye(2)[:, :1])
    v = np.array([0.3, -0.8])
    rep = width_brute_signed_perm(basis, v)
    assert abs(rep.value - 0.8) < 1e-15
    image = rep.witness.apply(v)
    assert abs(abs(image[0]) - 0.8) < 1e-15
    assert abs(projection_norm(basis, image) - rep.value) < 1e-15


def test_brute_rejects_complex_and_large_inputs():
    line = SubspaceBasis(np.eye(2)[:, :1])
    with pytest.raises(ValueError):
        width_brute_signed_perm(line.complexify(), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        width_brute_signed_perm(SubspaceBasis(np.eye(9)[:, :1]), np.ones(9))


def test_rearrangement_pairing_dominates_every_group_element():
    rng = np.random.default_rng(0)
    d = 5
    for _ in range(5):
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        pair = float(decreasing_rearrangement(v) @ decreasing_rearrangement(w))
        for perm in itertools.permutations(range(d)):
            pv = v[list(perm)]
            for signs in itertools.product((1.0, -1.0), repeat=d):
                assert abs(float(np.dot(np.asarray(signs) * pv, w))) <= pair + 1e-9


def test_ascent_within_brute_and_mostly_exact():
    hits = 0
    n = 60
    for i in range(n):
        rng = np.random.default_rng([70, i])
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        basis = sample_uniform(k, d, "real", seed=[71, i])
        v = rng.standard_normal(d)
        brute = width_brute_signed_perm(basis, v).value
        ascent = width_altmax(basis, v, restarts=12, seed=[72, i]).value
        assert ascent <= brute + 1e-9
        hits += abs(ascent - brute) <= 1e-9
    assert hits >= int(0.9 * n)


def test_ascent_witness_reproduces_value():
    rng = np.random.default_rng(2)
    basis = sample_uniform(3, 12, "complex", seed=5)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    rep = width_altmax(basis, v, restarts=8, seed=3)
    image = rep.witness.apply(v)
    assert abs(rep.value - projection_norm(basis, image)) < 1e-12
    # the witness acts unitarily on moduli
    assert np.allclose(
        decreasing_rearrangement(image), decreasing_rearrangement(v)
    )
    # the deterministic start makes the plain projection a floor
    assert rep.value >= projection_norm(basis, v) - 1e-12
    assert rep.value <= float(np.linalg.norm(v)) + 1e-12


def test_ascent_deterministic():
    basis = sample_uniform(2, 10, "real", seed=1)
    v = np.random.default_rng(4).standard_normal(10)
    r1 = width_altmax(basis, v, seed=9)
    r2 = width_altmax(basis, v, seed=9)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness.perm, r2.witness.perm)
    assert np.array_equal(r1.witness.signs, r2.witness.signs)
    with pytest.raises(ValueError):
        width_altmax(basis, v, restarts=0)
    with pytest.raises(ValueError, match="refine"):
        width_altmax(basis, v, refine="anneal")


def test_ascent_rejects_non_finite_vectors():
    basis = sample_uniform(2, 4, "real", seed=0)
    for bad in (np.nan, np.inf):
        v = np.array([0.5, bad, -0.2, 0.1])
        with pytest.raises(ValueError, match="finite"):
            width_altmax(basis, v)
        with pytest.raises(ValueError, match="finite"):
            width_brute_signed_perm(basis, v)


def test_altmax_kernel_contract():
    # the endpoint is a unit vector of the subspace that scores at least the
    # reported objective, and no start scores above that objective
    rng = np.random.default_rng(3)
    for field in ("real", "complex"):
        basis = sample_uniform(3, 20, field, seed=2)
        cols = basis.columns
        v = rng.standard_normal(20)
        if field == "complex":
            v = v + 1j * rng.standard_normal(20)
        v_desc = decreasing_rearrangement(v)
        g = rng.standard_normal((10, 3))
        if field == "complex":
            g = g + 1j * rng.standard_normal((10, 3))
        # the kernel takes the starts as coefficients; these are the vectors
        starts = g @ cols.T
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        w, obj, iters, status = kernels.altmax_best(cols, v_desc, g, 500, 1e-10)
        assert status == 0
        assert 10 <= iters <= 10 * 500
        assert abs(float(np.linalg.norm(w)) - 1.0) < 1e-12
        assert np.allclose(cols @ (cols.conj().T @ w), w, atol=1e-12)
        assert float(v_desc @ decreasing_rearrangement(w)) >= obj - 1e-12
        for x in starts:
            assert float(v_desc @ decreasing_rearrangement(x)) <= obj + 1e-12


def test_altmax_kernel_returns_the_first_iterate_above_the_ceiling():
    cols = sample_uniform(2, 12, "real", seed=4).columns
    v_desc = decreasing_rearrangement(witness_vector(12, 2).unit)
    g = np.random.default_rng(5).standard_normal((4, 2))
    # the start vectors the kernel forms from the coefficients g
    starts = np.array([cols @ c / np.linalg.norm(cols @ c) for c in g])
    first = float(v_desc @ decreasing_rearrangement(np.abs(starts[0])))
    w, obj, iters, status = kernels.altmax_best(
        cols, v_desc, g, 500, 1e-10, ceiling=0.999 * first
    )
    assert (iters, status) == (1, 0)
    assert w.tobytes() == starts[0].tobytes()
    assert obj == first
    # the default ceiling is never reached
    assert kernels.altmax_best(cols, v_desc, g, 500, 1e-10)[2] > 4


def _report_bytes(rep):
    return (np.float64(rep.value).tobytes(), rep.iterations,
            rep.witness.perm.tobytes(), rep.witness.signs.tobytes())


def _eager_altmax_best(cols, v_desc, starts, max_iter, tol, ceiling=math.inf):
    # the ascent over (R, d) unit-vector starts, all formed before it runs
    cols_h = cols.conj().T
    bound = ceiling * (1.0 + kernels.ALTMAX_CEILING_SLACK)
    best_obj, best_w, total, status = -1.0, starts[0], 0, 0
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
            best_obj, best_w = obj_prev, w
    return best_w, best_obj, total, status


def _eager_snap(cols, v_desc, v, image):
    w = cols @ (cols.conj().T @ image)
    n = float(np.linalg.norm(w))
    if n <= 1e-14:
        return None
    start = (w / n)[None, :].astype(cols.dtype)
    w_new, _, _, status = _eager_altmax_best(
        cols, v_desc, start, width.ASCENT_MAX_ITER, width.ASCENT_TOL
    )
    if status == 1:
        return None
    return width._witness_from(np.asarray(w_new), v)


def _eager_width_altmax(basis, v, restarts, seed, refine, ceiling):
    # width_altmax with every start drawn one at a time and formed up front
    cols = basis.columns
    cplx = np.iscomplexobj(cols)
    v = np.asarray(v, dtype=np.complex128 if cplx else np.float64)
    d, k = basis.d, basis.k
    rng = np.random.default_rng(seed)
    v_desc = decreasing_rearrangement(v)
    starts = np.empty((restarts, d), dtype=cols.dtype)
    p = cols @ (cols.conj().T @ v)
    pn = float(np.linalg.norm(p))
    have_det = pn > 1e-15
    if have_det:
        starts[0] = p / pn
    for r in range(restarts - 1 if have_det else restarts):
        g = rng.standard_normal(k)
        if cplx:
            g = g + 1j * rng.standard_normal(k)
        w = cols @ g
        starts[int(have_det) + r] = w / float(np.linalg.norm(w))
    w_best, _, iters, status = _eager_altmax_best(
        cols, v_desc, starts, width.ASCENT_MAX_ITER, width.ASCENT_TOL, ceiling
    )
    assert status == 0
    witness = width._witness_from(np.asarray(w_best), v)
    value = _value_of(cols, witness.apply(v))
    if refine == "auto" and k >= 2:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(width, "_snap", _eager_snap)
            witness, value = width._anneal_refine(cols, v, v_desc, witness, value, rng)
    return width.WidthReport(value, "altmax", restarts, int(iters), witness)


def test_width_altmax_matches_the_eager_start_reference():
    # coefficient starts formed on demand and one batched draw give the same
    # bits as drawing each start and forming every unit vector up front
    d = 6
    cases = itertools.product(("real", "complex"), ("none", "auto"), (1, d),
                              (1, 20), range(2))
    for field, refine, k, restarts, i in cases:
        basis = sample_uniform(k, d, field, seed=[31, k, i])
        rng = np.random.default_rng([32, k, i])
        v = rng.standard_normal(d) if i == 0 else np.zeros(d)
        if field == "complex" and i == 0:
            v = v + 1j * rng.standard_normal(d)
        seed = [33, k, i, restarts]
        full = _eager_width_altmax(basis, v, restarts, seed, refine, math.inf)
        for ceiling in (math.inf, full.value, 0.5 * full.value):
            ref = _eager_width_altmax(basis, v, restarts, seed, refine, ceiling)
            rep = width_altmax(basis, v, restarts=restarts, seed=seed,
                               refine=refine, ceiling=ceiling)
            assert _report_bytes(rep) == _report_bytes(ref), (
                field, refine, k, restarts, i, ceiling)


def test_complex_vector_on_a_real_basis_runs_over_the_complexified_span():
    rng = np.random.default_rng(41)
    for i in range(6):
        basis = sample_uniform(2, 8, "real", seed=[42, i])
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for refine in ("none", "auto"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = width_altmax(basis, v, restarts=6, seed=[43, i], refine=refine)
            ref = width_altmax(basis.complexify(), v, restarts=6, seed=[43, i],
                               refine=refine)
            assert _report_bytes(rep) == _report_bytes(ref)


def test_width_altmax_ceiling_contract():
    rng = np.random.default_rng(21)
    for i in range(24):
        d = int(rng.integers(4, 25))
        k = int(rng.integers(1, min(d - 1, 5) + 1))
        basis = sample_uniform(k, d, "real", seed=[22, i])
        v = witness_vector(d, k).unit if i % 2 else rng.standard_normal(d)
        refine = "auto" if i % 3 == 0 else "none"
        full = width_altmax(basis, v, restarts=6, seed=[23, i], refine=refine)
        # a ceiling at or above the width changes nothing
        for ceiling in (full.value, 1.5 * full.value, math.inf):
            rep = width_altmax(basis, v, restarts=6, seed=[23, i], refine=refine,
                               ceiling=ceiling)
            assert _report_bytes(rep) == _report_bytes(full)
        # below it the ascent may stop early, but the report still bounds
        # the ceiling and its witness reproduces the value
        for ceiling in (0.0, 0.5 * full.value, 0.999 * full.value):
            rep = width_altmax(basis, v, restarts=6, seed=[23, i], refine=refine,
                               ceiling=ceiling)
            assert rep.value >= ceiling
            assert rep.value == projection_norm(basis, rep.witness.apply(v))
            assert rep.iterations <= full.iterations
    # with v = 0 every objective is 0, which does not exceed a zero ceiling
    basis = sample_uniform(2, 6, "real", seed=1)
    full = width_altmax(basis, np.zeros(6), restarts=5, seed=2)
    rep = width_altmax(basis, np.zeros(6), restarts=5, seed=2, ceiling=0.0)
    assert _report_bytes(rep) == _report_bytes(full)
    assert full.iterations == 5
    with pytest.raises(ValueError, match="NaN"):
        width_altmax(basis, np.ones(6), ceiling=math.nan)


def test_anneal_kernel_returns_a_valid_witness():
    # the endpoint is a signed permutation whose value is the reported one
    rng = np.random.default_rng(8)
    for field, (k, d) in itertools.product(("real", "complex"),
                                           ((3, 7), (7, 7), (2, 256))):
        basis = sample_uniform(k, d, field, seed=4)
        v = rng.standard_normal(d)
        v[2] = 0.0
        s0 = rng.choice(np.array([-1.0, 1.0]), size=d)
        if field == "complex":
            v = v + 1j * rng.standard_normal(d)
            s0 = np.exp(2j * np.pi * rng.random(d))
        rows = basis.columns.conj()
        p0 = rng.permutation(d)
        pairs = rng.integers(0, d, size=(400, 2))
        pairs[::3, 1] = pairs[::3, 0]
        acc = rng.random(400)
        start = float(np.linalg.norm(rows.T @ (s0 * v[p0])))
        p, s, val = kernels.anneal_best(rows, v, p0, s0, 0.3, 1e-5, pairs, acc)
        assert p.dtype == np.int64
        assert sorted(p.tolist()) == list(range(d))
        assert np.allclose(np.abs(s), 1.0, atol=1e-12)
        if field == "real":
            assert set(s.tolist()) <= {-1.0, 1.0}
        assert abs(val - float(np.linalg.norm(rows.T @ (s * v[p])))) < 1e-12
        assert val >= start - 1e-12


def _norm(y):
    acc = 0.0
    for t in y:
        acc += t.real * t.real + t.imag * t.imag
    return math.sqrt(acc)


def _anneal_loop(rows, vvals, p0, s0, t0, t1, pairs, acc_u):
    """Reference anneal: build every candidate image in k-space, take its norm."""
    cplx = np.iscomplexobj(rows) or np.iscomplexobj(vvals)
    field = np.complex128 if cplx else np.float64

    def unit(z, tie):
        # a float's z / |z| is exactly +-1.0; a complex phase is taken with
        # numpy's abs and a reciprocal multiply
        if not z:
            return tie
        return z.conjugate() * (1.0 / float(np.abs(z))) if cplx else z / abs(z)

    rows = np.asarray(rows, dtype=field).tolist()
    vvals = np.asarray(vvals, dtype=field).tolist()
    p = np.asarray(p0, dtype=np.int64).tolist()
    s = np.asarray(s0, dtype=field).tolist()
    k = len(rows[0])
    y = [0.0] * k
    for i, r in enumerate(rows):
        a = s[i] * vvals[p[i]]
        for l in range(k):
            y[l] += a * r[l]
    val = _norm(y)
    best_p, best_s, best_val = p[:], s[:], val
    ratio = t1 / t0
    denom = max(len(pairs) - 1, 1)
    for m, (i, j) in enumerate(np.asarray(pairs).tolist()):
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
    return np.array(best_p), np.array(best_s, dtype=field), best_val


def test_anneal_kernel_matches_the_k_space_loop():
    # The kernel scores moves in Gram form and the reference builds every
    # candidate image, so their floats differ by rounding.  A real chain
    # makes the same choices up to a global sign flip, which negation keeps
    # exact, except at k = d: there every state is worth ||v|| and rounding
    # picks among them, unless a coordinate-aligned basis makes the ties
    # exact.  Complex phases at 1 < k < d converge slowly on flat optima,
    # where rounding moves the path after some hundreds of moves, so those
    # chains are short.
    rng = np.random.default_rng(21)
    for field, d, k, kind, axis in itertools.product(
        ("real", "complex"), (3, 6), (1, 2, "d"), ("plain", "zero", "repeated"),
        (False, True),
    ):
        k = d if k == "d" else k
        if axis:
            cols = np.eye(d)[:, rng.permutation(d)[:k]].astype(
                np.complex128 if field == "complex" else np.float64)
        else:
            cols = sample_uniform(k, d, field, seed=[21, d, k]).columns
        v = rng.standard_normal(d)
        s0 = rng.choice(np.array([-1.0, 1.0]), size=d)
        if field == "complex":
            v = v + 1j * rng.standard_normal(d)
            s0 = np.exp(2j * np.pi * rng.random(d))
        if kind == "zero":
            v[1] = 0.0
        elif kind == "repeated":
            v[1], v[2] = -v[0], v[0]
        moves = 100 if field == "complex" and 1 < k < d else 1500
        pairs = rng.integers(0, d, size=(moves, 2))
        scalar_move = rng.random(moves) >= 0.7
        pairs[scalar_move, 1] = pairs[scalar_move, 0]
        acc = rng.random(moves)
        scale = float(np.linalg.norm(v))
        args = (cols.conj(), v, rng.permutation(d), s0, 0.25 * scale,
                1e-5 * scale, pairs, acc)
        p_ref, s_ref, val_ref = _anneal_loop(*args)
        p, s, val = kernels.anneal_best(*args)
        if field == "real" and (k < d or axis):
            assert p.tolist() == p_ref.tolist()
            image, image_ref = s * v[p], s_ref * v[p_ref]
            assert (image == image_ref).all() or (image == -image_ref).all()
            assert _value_of(cols, image) == _value_of(cols, image_ref)
        else:
            assert abs(val - val_ref) <= 1e-12 * val_ref


def test_width_orbit_matches_manual_maximum():
    group = GroupPresentation.signed_permutations(3)
    orbit = enumerate_orbit(group, np.array([0.8, 0.5, 0.2]))
    basis = sample_uniform(1, 3, "real", seed=11)
    rep = width_orbit(basis, orbit)
    values = [projection_norm(basis, p) for p in orbit.points]
    assert abs(rep.value - max(values)) < 1e-12
    assert any(np.allclose(rep.witness, p) for p in orbit.points)
    with pytest.raises(ValueError):
        width_orbit(sample_uniform(1, 4, "real", seed=0), orbit)


def test_orbit_enumeration_equals_signed_perm_enumeration():
    group = GroupPresentation.signed_permutations(4)
    v = np.array([0.7, 0.5, 0.3, 0.2])
    orbit = enumerate_orbit(group, v)
    basis = sample_uniform(2, 4, "real", seed=13)
    assert (
        abs(width_orbit(basis, orbit).value - width_brute_signed_perm(basis, v).value)
        < 1e-9
    )


def test_dominance_cone_supremum_sits_on_the_orbit():
    # the projection norm is convex, so the cone supremum equals the
    # supremum over the generating orbit
    basis = sample_uniform(2, 5, "real", seed=17)
    v = np.random.default_rng(21).standard_normal(5)
    cone = width_altmax(basis, v, restarts=16, seed=2).value
    brute = width_brute_signed_perm(basis, v).value
    assert cone <= brute + 1e-9
    assert cone >= brute - 1e-8


def test_estimate_f_integral_deterministic_and_prefix_stable():
    mu = UniformMeasure(k=1, d=6, field="real")
    orbit = enumerate_orbit(
        GroupPresentation.signed_permutations(6), np.eye(6)[0]
    )

    def evaluator(basis, rng):
        return width_orbit(basis, orbit).value

    est1 = estimate_f_integral(mu, evaluator, 40, seed=5)
    est2 = estimate_f_integral(mu, evaluator, 40, seed=5)
    assert est1.mean == est2.mean
    assert np.array_equal(est1.values, est2.values)
    assert est1.values.flags.writeable is False
    assert abs(est1.mean - float(est1.values.mean())) < 1e-15
    expected_stderr = float(est1.values.std(ddof=1) / np.sqrt(40))
    assert abs(est1.stderr - expected_stderr) < 1e-15
    single = estimate_f_integral(mu, evaluator, 1, seed=5)
    assert single.stderr == 0.0
    assert single.values[0] == est1.values[0]
    with pytest.raises(ValueError):
        estimate_f_integral(mu, evaluator, 0, seed=5)


_d_and_k = st.integers(2, 5).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d - 1))
)
_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw):
    d, k = draw(_d_and_k)
    basis = sample_uniform(k, d, "real", draw(st.integers(0, 2**32 - 1)))
    v = draw(hnp.arrays(np.float64, d, elements=_entries))
    return basis, v


@settings(max_examples=40, deadline=None)
@given(inst=_instances(), seed=st.integers(0, 2**32 - 1))
def test_property_ascent_stays_below_brute_and_its_witness_reproduces_it(inst, seed):
    basis, v = inst
    rep = width_altmax(basis, v, restarts=4, seed=seed)
    assert rep.value == projection_norm(basis, rep.witness.apply(v))
    assert rep.value <= width_brute_signed_perm(basis, v).value + 1e-9


@settings(max_examples=40, deadline=None)
@given(inst=_instances(), data=st.data())
def test_property_brute_width_is_signed_permutation_invariant(inst, data):
    basis, v = inst
    d = v.shape[0]
    perm = data.draw(st.permutations(range(d)))
    signs = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([-1.0, 1.0])))
    moved = signed_permutation_apply(perm, signs, v)
    want = width_brute_signed_perm(basis, v).value
    assert abs(width_brute_signed_perm(basis, moved).value - want) <= 1e-12
