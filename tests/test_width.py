"""Width estimation: brute oracle, alternating ascent, orbit evaluation."""

import hashlib
import inspect
import itertools
import math
import textwrap
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cylwidth._fork as _fork
import cylwidth._kernels as kernels
import cylwidth.vectors as vectors
import cylwidth.width as width
from cylwidth.groups import GroupPresentation, enumerate_orbit, signed_permutation_apply
from cylwidth.lowerbound import witness_vector
from cylwidth.measures import sample_uniform
from cylwidth.vectors import SubspaceBasis, decreasing_rearrangement
from cylwidth.width import (
    _value_of,
    estimate_f_integral,
    width_altmax,
    width_brute_signed_perm,
    width_orbit,
)


def projection_norm(basis, x):
    """Euclidean norm of the projection of ``x`` onto the span of ``basis``."""
    return float(np.linalg.norm(basis.columns.conj().T @ np.asarray(x)))


def uniform_real_measure(k, d):
    """A measure for ``estimate_f_integral``, which reads only ``sample``."""
    return SimpleNamespace(sample=partial(sample_uniform, k, d, "real"))


def test_brute_hand_checked_case():
    # W = span(e1) in R^2: the best signed permutation moves the larger
    # modulus into the first coordinate
    basis = SubspaceBasis(np.eye(2)[:, :1])
    v = np.array([0.3, -0.8])
    rep = width_brute_signed_perm(basis, v)
    assert rep.value == 0.8
    image = rep.witness.apply(v)
    assert abs(image[0]) == 0.8
    assert projection_norm(basis, image) == rep.value


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


NON_INTEGERS = (math.nan, math.inf, 2.5, 3.0, True, np.float64(4.0))


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_count_arguments_reject_non_integers(bad):
    # on every exact path (k = 1, 2, 3) and on the ascent (k = 4), and for
    # the trial count of the Monte-Carlo mean
    v = np.random.default_rng(107).standard_normal(6)
    for k in (1, 2, 3, 4):
        basis = sample_uniform(k, 6, "real", seed=[108, k])
        with pytest.raises(ValueError, match="restarts must be an integer"):
            width_altmax(basis, v, restarts=bad)
        # a numpy integer is an integer
        assert width_altmax(basis, v, restarts=np.int64(2), seed=0).value > 0.0
    with pytest.raises(ValueError, match="trials must be an integer"):
        estimate_f_integral(uniform_real_measure(2, 6), width.altmax_evaluator(v), bad, 0)


def test_ascent_rejects_non_finite_vectors():
    basis = sample_uniform(2, 4, "real", seed=0)
    for bad in (np.nan, np.inf):
        v = np.array([0.5, bad, -0.2, 0.1])
        with pytest.raises(ValueError, match="finite"):
            width_altmax(basis, v)
        with pytest.raises(ValueError, match="finite"):
            width_brute_signed_perm(basis, v)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_width_is_scale_safe(k):
    # v runs scaled by the power of two nearest its norm and the value is
    # scaled back; at 1e160, ||v||^2 used to overflow: inf at k = 1, -inf
    # with no witness at k = 2 and 3, a RuntimeError at k = 4.  Each k takes
    # its own exact path: k = 2 and 3 the sweep (k = 3 from d = 7), k = 4
    # the enumeration
    d = 7 if k == 3 else 6
    basis = sample_uniform(k, d, "real", seed=1)
    v = np.random.default_rng(109).standard_normal(d)
    plain = width_altmax(basis, v, seed=110)
    assert plain.method == ("rearrangement", "sweep", "sweep", "enumerate")[k - 1]
    for e in (600, -600):
        rep = width_altmax(basis, 2.0**e * v, seed=110)
        assert rep.value == plain.value * 2.0**e
        assert np.array_equal(rep.witness.perm, plain.witness.perm)
        assert np.array_equal(rep.witness.signs, plain.witness.signs)
        assert (rep.method, rep.iterations) == (plain.method, plain.iterations)
    for f in (1e160, 1e-160, 1e-170):
        value = width_altmax(basis, f * v, seed=110).value
        assert value == pytest.approx(f * plain.value, rel=1e-12, abs=0)
    with pytest.raises(ValueError, match="overflows"):
        width_altmax(basis, np.full(d, np.finfo(np.float64).max), seed=110)


def test_brute_force_is_scale_safe():
    # at 1e160 the squared norms that rank the images used to overflow, and
    # the value read inf; far below 1 they underflowed to 0
    basis = sample_uniform(2, 6, "real", seed=2)
    v = np.random.default_rng(125).standard_normal(6)
    plain = width_brute_signed_perm(basis, v)
    for e in (600, -600):
        rep = width_brute_signed_perm(basis, 2.0**e * v)
        assert rep.value == plain.value * 2.0**e
        assert np.array_equal(rep.witness.perm, plain.witness.perm)
        assert np.array_equal(rep.witness.signs, plain.witness.signs)
    for f in (1e160, 1e-160):
        value = width_brute_signed_perm(basis, f * v).value
        assert value == pytest.approx(f * plain.value, rel=1e-12, abs=0)
    with pytest.raises(ValueError, match="overflows"):
        width_brute_signed_perm(basis, np.full(6, np.finfo(np.float64).max))


# powers of two far enough from 1 that absolute tolerances would act on
# another scale, up to the edges of the float range
SCALE_EXPONENTS = (-900, -60, -20, 20, 60, 450, 900)


def _ascent_cases():
    # complex unit v on real and complex frames, and real v on real k >= 4
    # frames past the enumeration: inputs that no exact path takes
    rng = np.random.default_rng(141)
    for i, (field, k) in enumerate(itertools.product(("real", "complex"), (2, 3, 4))):
        d = int(rng.integers(8, 20))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        yield sample_uniform(k, d, field, seed=[142, i]), v / np.linalg.norm(v)
    for i, (k, d) in enumerate(((4, 8), (5, 12))):
        v = rng.standard_normal(d)
        yield sample_uniform(k, d, "real", seed=[143, i]), v / np.linalg.norm(v)


@pytest.mark.parametrize("refine", ["none", "auto"])
def test_ascent_widths_are_scale_equivariant_bit_for_bit(refine):
    # the ascent's tolerances are absolute, so it runs at the power of two
    # nearest ||v||: 2^j v gets v's witness and iterations and 2^j times its
    # value.  With the tolerances acting on 2^j v itself, the ascent raised
    # on a decreased objective at 2^20 and stopped after two iterations per
    # start far below 1
    for i, (basis, v) in enumerate(_ascent_cases()):
        unit = width_altmax(basis, v, restarts=6, seed=[144, i], refine=refine)
        assert unit.method == "altmax"
        for j in SCALE_EXPONENTS:
            rep = width_altmax(basis, 2.0**j * v, restarts=6, seed=[144, i],
                               refine=refine)
            assert rep.value == math.ldexp(unit.value, j), (i, j)
            assert rep.iterations == unit.iterations, (i, j)
            assert rep.witness.perm.tobytes() == unit.witness.perm.tobytes(), (i, j)
            assert rep.witness.signs.tobytes() == unit.witness.signs.tobytes(), (i, j)


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
        w, obj, iters, status = kernels.altmax_best(cols, v_desc, g)
        assert status == 0
        assert 10 <= iters <= 10 * kernels.ASCENT_MAX_ITER
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
    w, obj, iters, status = kernels.altmax_best(cols, v_desc, g, ceiling=0.999 * first)
    assert (iters, status) == (1, 2)
    assert w.tobytes() == starts[0].tobytes()
    assert obj == first
    # the default ceiling is never reached
    _, _, iters, status = kernels.altmax_best(cols, v_desc, g)
    assert iters > 4 and status == 0


def _report_bytes(rep):
    return (np.float64(rep.value).tobytes(), rep.iterations,
            rep.witness.perm.tobytes(), rep.witness.signs.tobytes())


def _eager_altmax_best(cols, v_desc, starts, ceiling=math.inf):
    # the ascent over (R, d) unit-vector starts, all formed before it runs
    cols_h = cols.conj().T
    bound = ceiling * (1.0 + kernels.ALTMAX_CEILING_SLACK)
    best_obj, best_w, total = -1.0, starts[0], 0
    for r in range(starts.shape[0]):
        w = starts[r]
        obj_prev = -1.0
        for _ in range(kernels.ASCENT_MAX_ITER):
            total += 1
            m = np.abs(w)
            order = np.argsort(-m, kind="stable")
            obj = float(v_desc @ m[order])
            if obj < obj_prev - 1e-12:
                raise RuntimeError("alternating ascent objective decreased")
            if obj > bound:
                return w, obj, total, 2
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
            if gain < kernels.ASCENT_TOL:
                break
        if obj_prev > best_obj:
            best_obj, best_w = obj_prev, w
    return best_w, best_obj, total, 0


def _race_cases():
    # (cols, v_desc, coefficient starts, unit-vector starts): real and
    # complex columns, Gaussian targets, the witness vector (a zero tail and
    # tied moduli) and v = 0
    rng = np.random.default_rng(51)
    for field, (k, d), target in itertools.product(
            ("real", "complex"), ((2, 12), (4, 16)),
            ("gaussian", "witness", "zero")):
        for i in range(2):
            cols = sample_uniform(k, d, field, seed=[52, k, d, i]).columns
            if target == "gaussian":
                v = rng.standard_normal(d)
            elif target == "witness":
                v = witness_vector(d, k).unit
            else:
                v = np.zeros(d)
            g = rng.standard_normal((6, k))
            if field == "complex":
                g = g + 1j * rng.standard_normal((6, k))
            starts = np.array([cols @ c / np.linalg.norm(cols @ c) for c in g])
            yield cols, decreasing_rearrangement(v), g, starts


def _ceilings(value):
    # at, just above, within the slack below, just below the slack and at
    # half the sequential value; with v = 0 the value is 0 and only a zero
    # ceiling is tried
    if value == 0.0:
        return (0.0,)
    slack = kernels.ALTMAX_CEILING_SLACK
    return (value, math.nextafter(value, math.inf), value * (1.0 - 0.5 * slack),
            value * (1.0 - 2.0 * slack), 0.5 * value)


def _as_bytes(result):
    w, obj, iters, status = result
    return (np.asarray(w).tobytes(), np.float64(obj).tobytes(), iters, status)


def test_altmax_best_under_a_ceiling_is_the_sequential_ascent():
    # below the bound the kernel returns the sequential ascent's bits, above
    # it the sequential ascent's first crossing iterate
    crossed = 0
    for cols, v_desc, g, starts in _race_cases():
        value = _eager_altmax_best(cols, v_desc, starts)[1]
        for ceiling in _ceilings(value):
            eager = _eager_altmax_best(cols, v_desc, starts, ceiling)
            got = kernels.altmax_best(cols, v_desc, g, ceiling)
            assert _as_bytes(got) == _as_bytes(eager)
            crossed += got[3] == 2
    assert crossed


def _race_failures(race):
    """What a stacked race ``race`` gets wrong on the ``_race_cases()`` frames.

    Each frame's decision must be the same raced alone as raced in a stack
    of the frames of its shape, each against the same target under other
    ceilings.  A frame that crosses must be one whose own sequential ascent
    crosses the same bound, and whose full ascent's witness value exceeds
    the ceiling, so a search that rejects it rejects what a full evaluation
    rejects.
    """
    failures = []
    crossings = 0
    cases = list(_race_cases())
    for i, (cols, v_desc, g, starts) in enumerate(cases):
        v = v_desc.astype(cols.dtype)
        value = _eager_altmax_best(cols, v_desc, starts)[1]
        witness_value = width._witness_and_value(
            cols, v, _eager_altmax_best(cols, v_desc, starts)[0])[1]
        for ceiling in _ceilings(value):
            alone = bool(race(cols[None], v_desc, g[None], np.array([ceiling]))[0])
            crossings += alone
            stops = _eager_altmax_best(cols, v_desc, starts, ceiling)[3] == 2
            if alone and not (stops and witness_value > ceiling):
                failures.append((i, ceiling, "crossed", value, witness_value))
        # every frame of this shape against this target, each under its own
        # ceilings, shifted so that neighbours differ
        stack = [c for c in cases if c[0].shape == cols.shape and c[0].dtype == cols.dtype]
        frames = np.stack([c[0] for c in stack])
        coeffs = np.stack([c[2] for c in stack])
        ladders = [_ceilings(_eager_altmax_best(c[0], v_desc, c[3])[1]) for c in stack]
        for shift in range(5):
            ceilings = np.array([ladder[(j + shift) % len(ladder)]
                                 for j, ladder in enumerate(ladders)])
            together = race(frames, v_desc, coeffs, ceilings)
            for j, c in enumerate(stack):
                alone = race(c[0][None], v_desc, c[2][None], ceilings[j:j + 1])[0]
                if together[j] != alone:
                    failures.append((i, j, shift, "stacked"))
    return failures, crossings


def test_altmax_race_rejects_only_frames_a_full_evaluation_rejects():
    failures, crossings = _race_failures(kernels.altmax_race)
    assert failures == []
    assert crossings


@pytest.mark.parametrize("old, new", [
    # no slack: a frame whose width is within rounding of its bound crosses
    ("[:, None] * slack", "[:, None]"),
    # each frame raced against its neighbour's bound
    ("np.asarray(ceilings, dtype=np.float64)",
     "np.roll(np.asarray(ceilings, dtype=np.float64), 1)"),
])
def test_race_check_catches_a_wrong_race(old, new):
    # mutate the source of the race and run the mutant through the check
    # above, which must report it
    source = textwrap.dedent(inspect.getsource(kernels.altmax_race))
    assert old in source
    namespace = dict(vars(kernels))
    exec(source.replace(old, new), namespace)
    assert _race_failures(namespace["altmax_race"])[0]


def _eager_snap(cols, v_desc, v, image):
    w = cols @ (cols.conj().T @ image)
    n = float(np.linalg.norm(w))
    if n <= 1e-14:
        return None
    start = (w / n)[None, :].astype(cols.dtype)
    w_new = _eager_altmax_best(cols, v_desc, start)[0]
    return width._witness_from(np.asarray(w_new), v)


def _eager_starts(basis, v, restarts, rng):
    # the ascent's starts drawn one at a time and formed up front
    cols = basis.columns
    d, k = basis.d, basis.k
    cplx = np.iscomplexobj(cols)
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
    return starts


def _eager_width_altmax(basis, v, restarts, seed, refine):
    # width_altmax with every start drawn one at a time and formed up front
    cols = basis.columns
    v = np.asarray(v, dtype=np.complex128 if np.iscomplexobj(cols) else np.float64)
    rng = np.random.default_rng(seed)
    v_desc = decreasing_rearrangement(v)
    starts = _eager_starts(basis, v, restarts, rng)
    w_best, _, iters, status = _eager_altmax_best(cols, v_desc, starts)
    assert status == 0
    witness = width._witness_from(np.asarray(w_best), v)
    value = _value_of(cols, witness.apply(v))
    if refine == "auto" and basis.k >= 2:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(width, "_snap", _eager_snap)
            witness, value = width._anneal_refine(cols, v, v_desc, witness, value, rng)
    return width.WidthReport(value, "altmax", restarts, int(iters), witness)


def _line_reference(basis, v):
    # the rearrangement pairing written out: the j-th largest modulus of v
    # goes where u has its j-th largest modulus, and takes u's phase there
    cols = basis.columns.astype(np.complex128 if np.iscomplexobj(v) else basis.columns.dtype)
    u = cols[:, 0]
    mu, mv = np.abs(u), np.abs(v)
    perm = np.empty(v.shape[0], dtype=np.int64)
    perm[np.argsort(-mu, kind="stable")] = np.argsort(-mv, kind="stable")
    phase_u = np.where(mu > 0, u / np.where(mu > 0, mu, 1.0), 1.0)
    phase_v = np.where(mv > 0, v / np.where(mv > 0, mv, 1.0), 1.0)
    signs = phase_u * np.conj(phase_v[perm])
    value = float(np.linalg.norm(cols.conj().T @ (signs * v[perm])))
    return width.WidthReport(value, "rearrangement", 0, 0,
                             width.GammaWitness(perm=perm, signs=signs))


def test_width_altmax_matches_the_eager_start_reference():
    # coefficient starts formed on demand and one batched draw give the same
    # bits as drawing each start and forming every unit vector up front; a
    # line is solved exactly, by the rearrangement pairing, and a real k = d
    # frame by the enumeration, so there the ascent-and-anneal helper that
    # width_altmax runs past its exact paths is checked directly
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
        if k == 1:
            ref = _line_reference(basis, v.astype(basis.columns.dtype))
        else:
            ref = _eager_width_altmax(basis, v, restarts, seed, refine)
        if k == d and field == "real":
            rep = width._altmax_width(basis, width._conform(v, d, field), restarts, seed,
                                      refine)
        else:
            rep = width_altmax(basis, v, restarts=restarts, seed=seed, refine=refine)
        assert _report_bytes(rep) == _report_bytes(ref), (field, refine, k, restarts, i)
        assert rep.method == ("rearrangement" if k == 1 else "altmax")


def test_ascend_matches_the_eager_start_reference_under_a_ceiling():
    # the ascent's starts, run by the kernel under a ceiling: none (the
    # ascent itself), the value (which no objective exceeds) and half of it
    # (which one exceeds unless v = 0)
    d = 6
    for field, k, restarts, i in itertools.product(("real", "complex"), (2, d),
                                                   (1, 20), range(2)):
        basis = sample_uniform(k, d, field, seed=[31, k, i])
        rng = np.random.default_rng([32, k, i])
        v = rng.standard_normal(d) if i == 0 else np.zeros(d)
        if field == "complex" and i == 0:
            v = v + 1j * rng.standard_normal(d)
        v = width._conform(v, d, field)
        v_desc = decreasing_rearrangement(v)
        seed = [33, k, i, restarts]
        starts = _eager_starts(basis, v, restarts, np.random.default_rng(seed))
        value = _eager_altmax_best(basis.columns, v_desc, starts)[1]
        _, w, obj, iters = width._ascend(basis, v, v_desc, restarts,
                                         np.random.default_rng(seed))
        assert _as_bytes((w, obj, iters, 0)) == _as_bytes(
            _eager_altmax_best(basis.columns, v_desc, starts)), (field, k, restarts, i)
        coeffs = width._draw_starts(basis.columns, v, restarts,
                                    np.random.default_rng(seed))
        for ceiling in (value, 0.5 * value):
            want = _eager_altmax_best(basis.columns, v_desc, starts, ceiling)
            got = kernels.altmax_best(basis.columns, v_desc, coeffs, ceiling)
            assert _as_bytes(got) == _as_bytes(want), (field, k, restarts, i, ceiling)
            assert (got[3] == 2) == (i == 0 and ceiling == 0.5 * value)


def _plain_ascent(basis, v, restarts, seed):
    # the alternating ascent without the anneal: what width_altmax ran on
    # lines and real planes before their widths were taken exactly, and the
    # adversarial search's inner evaluation
    v = width._conform(v, basis.d, basis.field)
    rng = np.random.default_rng(seed)
    cols, w, _, _ = width._ascend(basis, v, decreasing_rearrangement(v), restarts, rng)
    return width._witness_and_value(cols, v, w)[1]


def test_line_width_is_exact():
    # real lines with d <= 8: the brute-force width up to its summation
    # order (the brute force takes each product sum inside one matrix
    # product, which can round it another way by up to two ulps)
    rng = np.random.default_rng(61)
    dims = [*range(1, 7)] * 50 + [7] * 10 + [8]
    for i, d in enumerate(dims):
        basis = sample_uniform(1, d, "real", seed=[62, i])
        v = rng.standard_normal(d)
        if i % 5 == 1:
            v[0] = 0.0
        elif i % 5 == 2 and d > 1:
            v[1] = -v[0]
        rep = width_altmax(basis, v, seed=[63, i])
        brute = width_brute_signed_perm(basis, v).value
        assert abs(rep.value - brute) <= 2 * np.spacing(brute), (i, d)
        assert rep.value == projection_norm(basis, rep.witness.apply(v))
        # the ascent it replaces ends on the same value, bit for bit
        assert rep.value == _plain_ascent(basis, v, 6, [63, i]), (i, d)
    # up to d = 1024: bit for bit the ascent on real input, and within
    # 1e-15 relative of it on complex input, where the ascent ends on
    # another global phase
    for i, (d, field, vfield) in enumerate(itertools.product(
            (2, 16, 128, 1024), ("real", "complex"), ("real", "complex"))):
        for rep_i in range(3):
            basis = sample_uniform(1, d, field, seed=[64, i, rep_i])
            v = rng.standard_normal(d)
            if vfield == "complex":
                v = v + 1j * rng.standard_normal(d)
            rep = width_altmax(basis, v)
            ascent = _plain_ascent(basis, v, 6, [65, i, rep_i])
            if field == "real" and vfield == "real":
                assert rep.value == ascent, d
                assert rep.value == projection_norm(basis, rep.witness.apply(v))
            else:
                assert abs(rep.value - ascent) <= 1e-15 * rep.value, (d, field, vfield)
                cplx = basis.complexify()
                assert rep.value == projection_norm(cplx, rep.witness.apply(v))


def test_line_width_report_and_contract():
    basis = sample_uniform(1, 9, "real", seed=66)
    v = np.random.default_rng(67).standard_normal(9)
    rng = np.random.default_rng(68)
    state = rng.bit_generator.state
    rep = width_altmax(basis, v, restarts=4, seed=rng)
    # nothing is drawn from the stream
    assert rng.bit_generator.state == state
    assert (rep.method, rep.iterations, rep.restarts) == ("rearrangement", 0, 0)
    # the exact value is the same whatever the budget or seed
    for kwargs in ({"restarts": 1}, {"seed": 5, "refine": "none"}):
        assert _report_bytes(width_altmax(basis, v, **kwargs)) == _report_bytes(rep)
    # the arguments are still validated
    with pytest.raises(ValueError, match="restart"):
        width_altmax(basis, v, restarts=0)
    with pytest.raises(ValueError, match="refine"):
        width_altmax(basis, v, refine="anneal")
    with pytest.raises(ValueError, match="finite"):
        width_altmax(basis, np.full(9, np.inf))


def test_plane_width_matches_brute_force():
    # from d = 3 on, the optimal image is unique up to sign, so its value is
    # the brute-force optimum's bit for bit; at d = 2 every image is optimal
    # and the test on degenerate inputs covers it.  width_altmax enumerates
    # the images up to d = 5, so the sweep runs directly, and the two agree
    rng = np.random.default_rng(81)
    dims = [*range(3, 7)] * 75 + [7] * 10 + [8]
    for i, d in enumerate(dims):
        basis = sample_uniform(2, d, "real", seed=[82, i])
        v = rng.standard_normal(d)
        rep = width._sweep_width(basis, v)
        assert rep.method == "sweep"
        assert rep.value == width_brute_signed_perm(basis, v).value, (i, d)
        assert rep.value == projection_norm(basis, rep.witness.apply(v))
        assert width_altmax(basis, v).value == rep.value, (i, d)


def _frame(rows):
    # orthonormal columns whose rows keep the given relations: zero, equal
    # and opposite rows stay so bit for bit, and doubled rows too; a row that
    # is a sum or difference of others stays one up to rounding
    rows = np.asarray(rows, dtype=np.float64)
    r_inv = np.linalg.inv(np.linalg.qr(rows)[1])
    return SubspaceBasis(sum(rows[:, i : i + 1] * r_inv[i] for i in range(rows.shape[1])))


def _degenerate_planes():
    rng = np.random.default_rng(84)
    for i in range(6):
        g = rng.standard_normal((8, 2))
        yield "zero rows", _frame(np.concatenate((g[:4], np.zeros((2, 2))))[
            rng.permutation(6)])
        yield "equal rows", _frame(g[[0, 1, 2, 0, 3, 1]])
        yield "opposite rows", _frame(np.concatenate((g[:3], -g[:2])))
        yield "doubled rows", _frame(np.concatenate((g[:3], 2.0 * g[:3])))
        yield "near-parallel rows", _frame(np.concatenate((g[:3], 0.3 * g[:3])))
        yield "mixed", _frame(np.concatenate((g[:2], -g[:1], 0.5 * g[1:2],
                                                    np.zeros((2, 2)))))
        d = int(rng.integers(2, 7))
        yield "coordinate plane", SubspaceBasis(np.eye(d)[:, rng.permutation(d)[:2]])
        yield "d = 2", _frame(rng.standard_normal((2, 2)))


def test_plane_width_on_degenerate_inputs():
    # width_altmax enumerates the images of these planes up to d = 5, so the
    # sweep also runs directly
    rng = np.random.default_rng(85)
    for i, (kind, basis) in enumerate(_degenerate_planes()):
        d = basis.d
        vs = [rng.standard_normal(d), np.zeros(d),
              rng.choice([-1.0, 1.0], size=d) * rng.choice([0.5, 2.0], size=d)]
        tied = rng.standard_normal(d)
        tied[: d // 2] = tied[0] * rng.choice([-1.0, 1.0], size=d // 2)
        vs.append(tied)
        for j, v in enumerate(vs):
            brute = width_brute_signed_perm(basis, v).value
            for rep in (width_altmax(basis, v), width._sweep_width(basis, v)):
                assert abs(rep.value - brute) <= 4 * np.spacing(brute), (kind, i, j)
                assert rep.value == projection_norm(basis, rep.witness.apply(v))
                assert sorted(rep.witness.perm.tolist()) == list(range(d))


def _midpoint_reference(basis, v):
    # every arc between consecutive angles where some y_i, y_i - y_j or
    # y_i + y_j vanishes (degenerate pairs included), valued independently
    # from its midpoint with the image width_altmax would build there
    a, b = basis.columns[:, 0], basis.columns[:, 1]
    alpha = np.concatenate((a, (a[:, None] - a).ravel(), (a[:, None] + a).ravel()))
    beta = np.concatenate((b, (b[:, None] - b).ravel(), (b[:, None] + b).ravel()))
    angles = np.unique(np.arctan2(alpha, -beta) % np.pi)
    lo = np.concatenate(([angles[-1] - np.pi], angles[:-1]))
    mids = 0.5 * (lo + angles)
    y = np.stack((np.cos(mids), np.sin(mids)), axis=1) @ basis.columns.T
    order = np.argsort(-np.abs(y), axis=1, kind="stable")
    rows = np.arange(mids.size)[:, None]
    images = np.empty_like(y)
    images[rows, order] = (np.where(y < 0.0, -1.0, 1.0)[rows, order]
                           * decreasing_rearrangement(v))
    return max(_value_of(basis.columns, image) for image in np.unique(images, axis=0))


def test_plane_width_extends_gate_4_to_larger_d():
    # gate 4 asks whether the width methods reach the exact width at
    # d <= 8.  At k = 2 and d = 16..64 the sweep is the exact width: it
    # equals the midpoint reference bit for bit, and the search's inner
    # evaluation, a 6-start ascent, never exceeds it
    rng = np.random.default_rng(86)
    short = worst = 0.0
    cases = [(d, i) for d in (16, 24, 32, 48, 64) for i in range(6)]
    for d, i in cases:
        basis = sample_uniform(2, d, "real", seed=[87, d, i])
        v = rng.standard_normal(d)
        if i % 3 == 1:
            v[: d // 4] = v[0] * rng.choice([-1.0, 1.0], size=d // 4)
        rep = width_altmax(basis, v)
        assert rep.value == _midpoint_reference(basis, v), (d, i)
        ascent = _plain_ascent(basis, v, 6, [88, d, i])
        assert ascent <= rep.value + 1e-9, (d, i)
        short += ascent < rep.value - 1e-9
        worst = max(worst, rep.value - ascent)
    # measured: the ascent falls short on 19 of the 30 frames, by up to 2.2e-2
    print(f"6-start ascent below the sweep on {short:.0f}/{len(cases)} frames, "
          f"worst gap {worst:.2e}")


@pytest.mark.parametrize("drop", ["difference", "sum"])
def test_plane_width_check_catches_dropped_events(drop):
    # a source mutant of the sweep that never sees y_i = y_j (or y_i = -y_j)
    # misses the brute-force width on some frame
    dropped = {"difference": [("a[:, iu] - a[:, ju], ", ""), ("b[:, iu] - b[:, ju], ", "")],
               "sum": [(", a[:, iu] + a[:, ju]", ""), (", b[:, iu] + b[:, ju]", "")]}[drop]
    source = inspect.getsource(width._plane_angles)
    for old, new in dropped:
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(width))
    exec(source, namespace)
    rng = np.random.default_rng(89)
    misses = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(width, "_plane_angles", namespace["_plane_angles"])
        for i in range(40):
            d = int(rng.integers(3, 7))
            basis = sample_uniform(2, d, "real", seed=[90, i])
            v = rng.standard_normal(d)
            brute = width_brute_signed_perm(basis, v).value
            misses += width._sweep_width(basis, v).value < brute - 1e-12
    assert misses


def test_plane_width_report_and_contract():
    basis = sample_uniform(2, 9, "real", seed=91)
    v = np.random.default_rng(92).standard_normal(9)
    rng = np.random.default_rng(93)
    state = rng.bit_generator.state
    rep = width_altmax(basis, v, restarts=4, seed=rng)
    # nothing is drawn from the stream
    assert rng.bit_generator.state == state
    # 9 zero crossings and 2 * 36 pair crossings, one arc after each
    assert (rep.method, rep.iterations, rep.restarts) == ("sweep", 81, 0)
    # the exact value is the same whatever the budget or seed
    for kwargs in ({"restarts": 1}, {"seed": 5, "refine": "none"}):
        assert _report_bytes(width_altmax(basis, v, **kwargs)) == _report_bytes(rep)
    # the arguments are still validated
    with pytest.raises(ValueError, match="restart"):
        width_altmax(basis, v, restarts=0)
    with pytest.raises(ValueError, match="refine"):
        width_altmax(basis, v, refine="anneal")
    with pytest.raises(ValueError, match="finite"):
        width_altmax(basis, np.full(9, np.inf))
    # a complex vector, or a complex basis, still runs the ascent
    assert width_altmax(basis, v + 0j, restarts=2).method == "altmax"
    assert width_altmax(basis.complexify(), v, restarts=2).method == "altmax"


def _test_vectors(d, rng):
    # a generic vector, zero, tied moduli, a tied block, and zeros
    tied = rng.standard_normal(d)
    tied[: d // 2] = tied[0] * rng.choice([-1.0, 1.0], size=d // 2)
    holes = rng.standard_normal(d)
    holes[::2] = 0.0
    return [rng.standard_normal(d), np.zeros(d),
            rng.choice([-1.0, 1.0], size=d) * rng.choice([0.5, 2.0], size=d), tied, holes]


def _degenerate_frames():
    rng = np.random.default_rng(95)
    for _ in range(3):
        g = rng.standard_normal((8, 3))
        yield "zero rows", _frame(np.concatenate((g[:4], np.zeros((2, 3))))[
            rng.permutation(6)])
        yield "equal rows", _frame(g[[0, 1, 2, 0, 3, 1]])
        yield "opposite rows", _frame(np.concatenate((g[:4], -g[:2])))
        yield "parallel rows", _frame(np.concatenate((g[:4], 2.0 * g[:1], -0.5 * g[1:2])))
        yield "difference parallel to a row", _frame(np.concatenate(
            (g[:4], g[:1] - g[1:2], 0.5 * (g[2:3] - g[3:4]))))
        yield "sum parallel to a row", _frame(np.concatenate((g[:4], g[:1] + g[1:2])))
        yield "mixed", _frame(np.concatenate((g[:3], -g[:1], 2.0 * (g[1:2] - g[2:3]),
                                              np.zeros((1, 3)))))
        d = int(rng.integers(3, 7))
        yield "coordinate frame", SubspaceBasis(np.eye(d)[:, rng.permutation(d)[:3]])
        yield "d = 3", _frame(rng.standard_normal((3, 3)))


def test_frame_width_matches_brute_force():
    # real 3-frames up to the brute force's d = 8: generic frames from d = 4
    # on, where the optimal image is unique up to sign and its value is the
    # brute-force optimum's bit for bit, and degenerate frames and vectors
    # (d = 3 among them, where every image is optimal), where ties let the
    # two pick images that round a few ulps apart.  width_altmax enumerates
    # the images up to d = 6, so the sweep runs directly, and on the generic
    # frames the two agree
    rng = np.random.default_rng(96)
    dims = [*range(4, 7)] * 25 + [7] * 4 + [8]
    for i, d in enumerate(dims):
        basis = sample_uniform(3, d, "real", seed=[97, i])
        v = rng.standard_normal(d)
        rep = width._sweep_width(basis, v)
        assert rep.method == "sweep"
        assert rep.value == width_brute_signed_perm(basis, v).value, (i, d)
        assert rep.value == projection_norm(basis, rep.witness.apply(v))
        assert width_altmax(basis, v).value == rep.value, (i, d)
    count = len(dims)
    for i, (kind, basis) in enumerate(_degenerate_frames()):
        for j, v in enumerate(_test_vectors(basis.d, rng)):
            brute = width_brute_signed_perm(basis, v).value
            for rep in (width_altmax(basis, v), width._sweep_width(basis, v)):
                assert abs(rep.value - brute) <= 4 * np.spacing(brute), (kind, i, j)
                assert rep.value == projection_norm(basis, rep.witness.apply(v))
                assert sorted(rep.witness.perm.tolist()) == list(range(basis.d))
            count += 1
    assert count >= 200


def test_frame_width_is_never_below_the_annealed_ascent(monkeypatch):
    # past brute force, up to the cut-over, the sweep is at least the
    # ascent and anneal that run above it
    rng = np.random.default_rng(98)
    short = 0
    cases = [(d, i) for d in range(9, width.SWEEP_MAX_D + 1) for i in range(2)]
    for d, i in cases:
        basis = sample_uniform(3, d, "real", seed=[99, d, i])
        v = rng.standard_normal(d)
        rep = width_altmax(basis, v)
        assert rep.method == "sweep"
        with monkeypatch.context() as mp:
            mp.setattr(width, "SWEEP_MAX_D", d - 1)
            ascent = width_altmax(basis, v, seed=[100, d, i])
        assert ascent.method == "altmax"
        assert ascent.value <= rep.value + 1e-9, (d, i)
        short += ascent.value < rep.value - 1e-9
    print(f"ascent and anneal below the sweep on {short}/{len(cases)} frames")


def test_frame_width_report_and_contract():
    d = 5
    basis = sample_uniform(3, d, "real", seed=101)
    v = np.random.default_rng(102).standard_normal(d)
    # d^2 circles, each cut into (d - 1)^2 arcs: on y_a = 0 the conditions
    # y_b = 0 and y_b = +-y_c cross once in half a turn, and y_a = +-y_b
    # cross where y_b = 0; on y_a = +-y_b likewise.  width_altmax enumerates
    # the images at this d, so the sweep runs directly
    rep = width._sweep_width(basis, v)
    assert (rep.method, rep.iterations, rep.restarts) == ("sweep", d**2 * (d - 1) ** 2, 0)
    rng = np.random.default_rng(103)
    state = rng.bit_generator.state
    exact = width_altmax(basis, v, restarts=4, seed=rng)
    # nothing is drawn from the stream
    assert rng.bit_generator.state == state
    assert exact.value == rep.value
    for kwargs in ({"restarts": 1}, {"seed": 5, "refine": "none"}, {"refine": "auto"}):
        assert _report_bytes(width_altmax(basis, v, **kwargs)) == _report_bytes(exact)
    # past the cut-over, and for complex input, the ascent runs
    big = sample_uniform(3, width.SWEEP_MAX_D + 1, "real", seed=104)
    assert width_altmax(big, np.ones(big.d), restarts=2).method == "altmax"
    assert width_altmax(basis, v + 0j, restarts=2).method == "altmax"
    assert width_altmax(basis.complexify(), v, restarts=2).method == "altmax"


def test_frame_width_memory_at_the_cut_over_is_one_block(monkeypatch):
    # the sweep's arrays are SWEEP_BLOCK image entries (8 bytes each) at a
    # time, about a dozen of them live at once, some complex; what does not
    # scale with the block is O(d^4)
    d = width.SWEEP_MAX_D
    basis = sample_uniform(3, d, "real", seed=105)
    v = np.random.default_rng(106).standard_normal(d)
    peaks = {}
    for block in (width.SWEEP_BLOCK, width.SWEEP_BLOCK // 8):
        monkeypatch.setattr(width, "SWEEP_BLOCK", block)
        tracemalloc.start()
        value = width_altmax(basis, v).value
        peaks[block] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert value == width_altmax(basis, v).value
    big, small = sorted(peaks, reverse=True)
    assert peaks[big] <= 24 * 8 * big
    assert peaks[small] <= peaks[big] / 2


def _enum_frames():
    # random real frames with k >= 4 at d = 4..7, then degenerate ones:
    # coordinate frames, k = d, and zero, equal or opposite rows
    rng = np.random.default_rng(111)
    dims = [4] * 4 + [5] * 8 + [6] * 8 + [7] * 3
    for i, d in enumerate(dims):
        k = int(rng.integers(4, d + 1))
        yield "random", sample_uniform(k, d, "real", seed=[112, i])
    for i in range(2):
        d = 5 + i
        yield "coordinate frame", SubspaceBasis(np.eye(d)[:, rng.permutation(d)[:4]])
        yield "k = d", sample_uniform(d, d, "real", seed=[113, i])
        yield "identity", SubspaceBasis(np.eye(d))
        g = rng.standard_normal((8, 4))
        yield "zero rows", _frame(np.concatenate((g[:4], np.zeros((2, 4))))[
            rng.permutation(6)])
        yield "equal rows", _frame(g[[0, 1, 2, 3, 0, 1]])
        yield "opposite rows", _frame(np.concatenate((g[:4], -g[:2])))


def test_enum_width_matches_brute_force():
    # the ranking sums inside a stacked matrix product, the brute force
    # inside another, so ties and near-ties can pick images a few ulps apart
    rng = np.random.default_rng(114)
    count = 0
    for i, (kind, basis) in enumerate(_enum_frames()):
        vs = _test_vectors(basis.d, rng) if kind != "random" else [
            rng.standard_normal(basis.d)]
        for j, v in enumerate(vs):
            rep = width_altmax(basis, v)
            assert rep.method == "enumerate"
            brute = width_brute_signed_perm(basis, v).value
            assert abs(rep.value - brute) <= 4 * np.spacing(brute), (kind, i, j)
            assert rep.value == projection_norm(basis, rep.witness.apply(v))
            assert sorted(rep.witness.perm.tolist()) == list(range(basis.d))
            assert rep.witness.signs[0] == 1.0
            count += 1
    assert count >= 80


def test_enum_width_equals_the_orbit_width():
    # the orbit enumeration is a third, independent evaluation of the same
    # maximum over the signed permutations of v
    rng = np.random.default_rng(115)
    for d, k in ((4, 4), (5, 4), (6, 4), (6, 5)):
        basis = sample_uniform(k, d, "real", seed=[116, d, k])
        v = rng.standard_normal(d)
        orbit = enumerate_orbit(GroupPresentation.signed_permutations(d), v,
                                max_size=2**d * math.factorial(d))
        assert orbit.n == 2**d * math.factorial(d)
        want = width_orbit(basis, orbit).value
        got = width_altmax(basis, v).value
        assert abs(got - want) <= 4 * np.spacing(want), (d, k)


def test_enum_width_report_and_contract():
    d = 6
    basis = sample_uniform(4, d, "real", seed=117)
    v = np.random.default_rng(118).standard_normal(d)
    rng = np.random.default_rng(119)
    state = rng.bit_generator.state
    rep = width_altmax(basis, v, restarts=4, seed=rng)
    # nothing is drawn from the stream
    assert rng.bit_generator.state == state
    # d! permutations, each with the 2^(d-1) sign rows whose first sign is +1
    assert (rep.method, rep.iterations, rep.restarts) == (
        "enumerate", math.factorial(d) * 2 ** (d - 1), 0)
    for kwargs in ({"restarts": 1}, {"seed": 5, "refine": "none"}, {"refine": "auto"}):
        assert _report_bytes(width_altmax(basis, v, **kwargs)) == _report_bytes(rep)
    # the arguments are still validated
    with pytest.raises(ValueError, match="restart"):
        width_altmax(basis, v, restarts=0)
    with pytest.raises(ValueError, match="refine"):
        width_altmax(basis, v, refine="anneal")
    # past the cut-over, and for complex input, the ascent runs
    big = sample_uniform(4, width.ENUM_MAX_D + 1, "real", seed=120)
    assert width_altmax(big, np.ones(big.d), restarts=2).method == "altmax"
    assert width_altmax(basis, v + 0j, restarts=2).method == "altmax"
    assert width_altmax(basis.complexify(), v, restarts=2).method == "altmax"
    # the shared tables are read-only
    perms, signs = width._enum_tables(d)
    assert not perms.flags.writeable and not signs.flags.writeable


def test_enum_width_memory_at_the_cut_over_is_one_block(monkeypatch):
    # a block's images are ENUM_BLOCK 2^(d-1) k coefficients (8 bytes each),
    # squared in place, and two blocks are live while the next replaces the
    # last (measured: 2.3 blocks at ENUM_BLOCK = 64); the tables, built on
    # first use, cost 8 d! d bytes for the permutations and 8 2^(d-1) d for
    # the signs
    d, k = width.ENUM_MAX_D, width.ENUM_MAX_D - 1
    basis = sample_uniform(k, d, "real", seed=121)
    v = np.random.default_rng(122).standard_normal(d)
    tables = 8 * math.factorial(d) * d + 8 * 2 ** (d - 1) * d
    peaks = {}
    for block in (width.ENUM_BLOCK, width.ENUM_BLOCK // 8):
        monkeypatch.setattr(width, "ENUM_BLOCK", block)
        width._enum_tables.cache_clear()
        tracemalloc.start()
        value = width_altmax(basis, v).value
        peaks[block] = tracemalloc.get_traced_memory()[1] - tables
        tracemalloc.stop()
        assert value == width_altmax(basis, v).value
    big, small = sorted(peaks, reverse=True)
    assert peaks[big] <= 3 * 8 * big * 2 ** (d - 1) * k
    assert peaks[small] <= peaks[big] / 2


def test_enum_width_check_catches_two_fixed_signs():
    # a source mutant of the tables that fixes the first two signs, not
    # just the first, misses the brute-force width on some frame
    source = inspect.getsource(width._enum_tables)
    for old, new in (("2 ** (d - 1)", "2 ** (d - 2)"), ("signs[:, 1:]", "signs[:, 2:]"),
                     ("repeat=d - 1", "repeat=d - 2")):
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(width))
    exec(source, namespace)
    rng = np.random.default_rng(123)
    misses = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(width, "_enum_tables", namespace["_enum_tables"])
        for i in range(10):
            d = int(rng.integers(4, 7))
            basis = sample_uniform(4, d, "real", seed=[124, i])
            v = rng.standard_normal(d)
            rep = width_altmax(basis, v)
            assert rep.method == "enumerate"
            misses += rep.value < width_brute_signed_perm(basis, v).value - 1e-12
    assert misses


def test_exact_paths_cut_over_where_each_is_fastest():
    # the enumeration up to d = min(ENUM_MAX_D, k + 3), then the sweep (a
    # plane at any d, a 3-frame up to SWEEP_MAX_D), then the ascent; where
    # the enumeration takes over from the sweep the two agree bit for bit,
    # and no exact path draws from the stream
    cases = {(2, 5): "enumerate", (2, 6): "sweep", (3, 6): "enumerate", (3, 7): "sweep",
             (4, 7): "enumerate", (4, 8): "altmax", (3, width.SWEEP_MAX_D + 1): "altmax"}
    for (k, d), method in cases.items():
        basis = sample_uniform(k, d, "real", seed=[129, k, d])
        v = np.random.default_rng([130, k, d]).standard_normal(d)
        rng = np.random.default_rng(131)
        state = rng.bit_generator.state
        rep = width_altmax(basis, v, restarts=2, seed=rng, refine="none")
        assert rep.method == method, (k, d)
        assert (rng.bit_generator.state == state) == (method != "altmax"), (k, d)
        if method == "enumerate" and k <= 3:
            assert rep.value == width._sweep_width(basis, v).value, (k, d)


def _exact_path_values():
    # generic real frames at k = 2-4 and d = 3-8, on both sides of every
    # cut-over between the enumeration, the sweep and the ascent; then the
    # degenerate frames above (those of _enum_frames past its 23 random
    # ones) against the degenerate vectors
    rng = np.random.default_rng(125)
    generic = []
    for k, d, i in itertools.product((2, 3, 4), range(3, 9), range(6)):
        if k <= d:
            basis = sample_uniform(k, d, "real", seed=[126, k, d, i])
            generic.append(width_altmax(basis, rng.standard_normal(d), seed=[127, d, i]).value)
    rng = np.random.default_rng(128)
    degenerate = []
    for _, basis in itertools.chain(_degenerate_planes(), _degenerate_frames(),
                                    itertools.islice(_enum_frames(), 23, None)):
        degenerate += [width_altmax(basis, v).value for v in _test_vectors(basis.d, rng)]
    return generic, degenerate


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_exact_path_values_are_pinned():
    # a change that moves any value, even by one ulp, must update the digest
    # and say why.  The generic frames' digest is the one recorded before
    # the enumeration took the small planes and 3-frames from the sweep: an
    # optimal image unique up to sign gives both the same bits.  On tied
    # frames and vectors each may pick another optimal image, and 12 of the
    # 435 degenerate values moved then, each by 1 ulp
    generic, degenerate = _exact_path_values()
    assert (len(generic), len(degenerate)) == (102, 435)
    assert _digest(generic) == (
        "85275c157a83f01b94165aef821dfd6f4a4c82c86b820df85f4e001c889ef1c3")
    assert _digest(degenerate) == (
        "3e6c53d41111054d538426b45512c35e465ef7f561c247e17f239e0d64bfb9c2")


def test_the_anneal_on_gate_4s_larger_frames_stays_checked_against_brute_force():
    # gate 4's frames with k >= 4 now take the enumeration, so the ascent and
    # anneal that width_altmax runs past its exact paths are run on them
    # directly, with the gate's seeds; measured: 24/25 exact, no overshoot
    exact = overshoot = frames = 0
    for i in range(200):
        rng = np.random.default_rng([104, i])
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        if k < 4:
            continue
        basis = sample_uniform(k, d, "real", seed=[104, i, 1])
        v = rng.standard_normal(d)
        brute = width_brute_signed_perm(basis, v).value
        rep = width._altmax_width(basis, v, 20, [104, i, 2], "auto")
        assert rep.method == "altmax"
        frames += 1
        overshoot += rep.value > brute + 1e-9
        exact += abs(rep.value - brute) <= 1e-9
    assert frames == 25
    assert overshoot == 0
    assert exact >= 24


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


def _kernel_bytes(cols, v, restarts, seed, ceiling):
    # the kernel on the starts that the ascent draws from seed
    starts = width._draw_starts(cols, v, restarts, np.random.default_rng(seed))
    return _as_bytes(kernels.altmax_best(cols, decreasing_rearrangement(v), starts,
                                         ceiling))


def test_altmax_best_ceiling_contract():
    rng = np.random.default_rng(21)
    slack = 1.0 + kernels.ALTMAX_CEILING_SLACK
    for i in range(24):
        d = int(rng.integers(4, 25))
        k = int(rng.integers(1, min(d - 1, 5) + 1))
        cols = sample_uniform(k, d, "real", seed=[22, i]).columns
        v = witness_vector(d, k).unit if i % 2 else rng.standard_normal(d)
        full = _kernel_bytes(cols, v, 6, [23, i], math.inf)
        assert full[3] == 0
        value = width._witness_and_value(cols, v, np.frombuffer(full[0]))[1]
        # a ceiling at or above the width changes nothing
        for ceiling in (value, 1.5 * value):
            assert _kernel_bytes(cols, v, 6, [23, i], ceiling) == full
        # below it the ascent stops at an iterate whose objective exceeds
        # the bound, and whose witness exceeds the ceiling
        for ceiling in (0.0, 0.5 * value, 0.999 * value):
            starts = width._draw_starts(cols, v, 6, np.random.default_rng([23, i]))
            w, obj, iters, status = kernels.altmax_best(
                cols, decreasing_rearrangement(v), starts, ceiling)
            assert status == 2 and obj > ceiling * slack
            assert width._witness_and_value(cols, v, w)[1] >= ceiling
            assert iters <= full[2]
    # with v = 0 every objective is 0, which does not exceed a zero ceiling
    cols = sample_uniform(3, 6, "real", seed=1).columns
    full = _kernel_bytes(cols, np.zeros(6), 5, 2, math.inf)
    assert _kernel_bytes(cols, np.zeros(6), 5, 2, 0.0) == full
    assert full[2:] == (5, 0)


def test_altmax_best_raises_on_a_decreasing_objective():
    # the half-steps maximize only for a decreasing v_desc; an increasing
    # one lets the objective fall, which the kernel reports by raising
    cols = sample_uniform(2, 8, "real", seed=3).columns
    v_desc = np.arange(1.0, 9.0)
    starts = np.random.default_rng(4).standard_normal((4, 2))
    with pytest.raises(RuntimeError, match="objective decreased"):
        kernels.altmax_best(cols, v_desc, starts)


def _starts_alone(cols, v, restarts, rng):
    # one frame's starts as the ascent drew them before the search stacked
    # its frames: the projection of v unless that is zero, then Gaussian rows
    k = cols.shape[1]
    c0 = cols.conj().T @ v
    have_det = float(np.linalg.norm(cols @ c0)) > 1e-15
    n = restarts - 1 if have_det else restarts
    if np.iscomplexobj(cols):
        g = rng.standard_normal((n, 2, k))
        g = g[:, 0] + 1j * g[:, 1]
    else:
        g = rng.standard_normal((n, k))
    return np.concatenate((c0[None, :], g)) if have_det else g


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_starts_equal_each_frames_own_draw(field):
    # the search draws a step's starts for all its frames in one call; each
    # frame gets the bits of its own draw and leaves its stream in the same
    # state.  v vanishes on the rows where the third frame lives, so that
    # frame has no deterministic start and draws one more Gaussian row
    d, k = 9, 3
    v = np.random.default_rng(132).standard_normal(d)
    v[4:] = 0.0
    if field == "complex":
        v = v + 1j * np.random.default_rng(133).standard_normal(d) * (v != 0.0)
    frames = [sample_uniform(k, d, field, seed=[134, s]).columns for s in range(5)]
    frames[2] = np.zeros_like(frames[2])
    frames[2][4:] = sample_uniform(k, d - 4, field, seed=135).columns
    assert not np.linalg.norm(frames[2] @ (frames[2].conj().T @ v))
    stack = np.stack(frames)
    for restarts in (1, 6):
        rngs = [np.random.default_rng([136, s]) for s in range(5)]
        got = width._stacked_starts(stack, v, restarts, rngs)
        assert got.shape == (5, restarts, k)
        for s in range(5):
            alone, one = np.random.default_rng([136, s]), np.random.default_rng([136, s])
            want = _starts_alone(frames[s], v, restarts, alone)
            assert got[s].tobytes() == want.tobytes(), (restarts, s)
            assert width._draw_starts(frames[s], v, restarts, one).tobytes() == want.tobytes()
            assert rngs[s].bit_generator.state == alone.bit_generator.state
            assert one.bit_generator.state == alone.bit_generator.state


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


def test_width_orbit_ceiling_contract():
    # 46,080 points: 23 blocks, the last one partial
    orbit = enumerate_orbit(GroupPresentation.signed_permutations(6),
                            np.array([0.9, 0.5, 0.3, 0.2, 0.1, 0.05]), max_size=50_000)
    assert orbit.n % width.ORBIT_BLOCK != 0
    for i in range(8):
        field = "complex" if i % 2 else "real"
        basis = sample_uniform(1 + i % 4, 6, field, seed=[24, i])
        # reference: width_orbit's formula over the whole orbit at once
        vals = np.linalg.norm(orbit.points @ basis.columns.conj(), axis=1)
        top = int(np.argmax(vals))
        # a ceiling at or above the width changes nothing
        for ceiling in (math.inf, 1.5 * vals[top], vals[top]):
            rep = width_orbit(basis, orbit, ceiling)
            assert np.float64(rep.value).tobytes() == vals[top].tobytes()
            assert rep.witness.tobytes() == orbit.points[top].tobytes()
            assert rep.iterations == orbit.n
        # below it the evaluation stops after the first block whose running
        # maximum exceeds the ceiling, and reports that maximum
        for ceiling in (-math.inf, 0.0, 0.5 * vals[top], vals[top] * (1 - 1e-15)):
            rep = width_orbit(basis, orbit, ceiling)
            n = rep.iterations
            assert n == orbit.n or n % width.ORBIT_BLOCK == 0
            assert vals[: n - width.ORBIT_BLOCK].max(initial=-math.inf) <= ceiling
            assert rep.value > ceiling
            j = int(np.argmax(vals[:n]))
            assert np.float64(rep.value).tobytes() == vals[j].tobytes()
            assert rep.witness.tobytes() == orbit.points[j].tobytes()
        assert width_orbit(basis, orbit, 0.0).iterations == width.ORBIT_BLOCK
    with pytest.raises(ValueError, match="NaN"):
        width_orbit(basis, orbit, math.nan)


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
    mu = uniform_real_measure(1, 6)
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


def test_estimate_f_integral_does_not_depend_on_the_worker_count(monkeypatch):
    mu = uniform_real_measure(2, 6)
    evaluator = width.altmax_evaluator(witness_vector(6, 2).unit, restarts=4)
    for trials in (1, 2, 5):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_fork, "_usable_cpus", lambda w=workers: w)
            est = estimate_f_integral(mu, evaluator, trials, seed=[9, trials])
            results.append((est.values.tobytes(), np.float64(est.mean).tobytes(),
                            np.float64(est.stderr).tobytes()))
        assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("failing", [3, 4])
def test_estimate_f_integral_reraises_a_failing_trial(monkeypatch, failing):
    # trial 3 runs in this process with 3 processes and in a worker with 2;
    # trial 4 the other way round
    mu = uniform_real_measure(1, 4)

    def evaluator(basis, rng):
        # trial i draws from the stream (seed, i)
        if rng.bit_generator.seed_seq.entropy[-1] == failing:
            raise FloatingPointError(f"trial {failing} failed")
        return 1.0

    for workers in (1, 2, 3):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda w=workers: w)
        with pytest.raises(FloatingPointError, match=f"trial {failing}"):
            estimate_f_integral(mu, evaluator, 5, seed=[2])


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


def _witness_value(basis, rep, v):
    # v runs scaled to about unit norm, where its squares do not underflow,
    # and its witness reproduces the value there
    scaled, shift = vectors._scaled(v)
    return vectors._unscaled(projection_norm(basis, rep.witness.apply(scaled)), shift)


@settings(max_examples=40, deadline=None)
@given(inst=_instances(), seed=st.integers(0, 2**32 - 1))
def test_property_ascent_stays_below_brute_and_its_witness_reproduces_it(inst, seed):
    basis, v = inst
    rep = width_altmax(basis, v, restarts=4, seed=seed)
    assert rep.value == _witness_value(basis, rep, v)
    assert rep.value <= width_brute_signed_perm(basis, v).value + 1e-9


@settings(max_examples=40, deadline=None)
@given(inst=_instances(), data=st.data())
def test_property_brute_width_is_signed_permutation_invariant(inst, data):
    basis, v = inst
    d = v.shape[0]
    perm = data.draw(st.permutations(range(d)))
    signs = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([-1.0, 1.0])))
    moved = signed_permutation_apply(perm, signs, v)
    rep = width_brute_signed_perm(basis, v)
    assert rep.value == _witness_value(basis, rep, v)
    assert abs(width_brute_signed_perm(basis, moved).value - rep.value) <= 1e-12
