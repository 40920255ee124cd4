"""Witness vectors, coordinate profiles, Gram bounds, adversarial search."""

import functools
import inspect
import itertools
import math
import os
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import cylwidth._fork as _fork
import cylwidth._kernels as kernels
import cylwidth.lowerbound as lowerbound
from cylwidth.errors import RankDeficientError
from cylwidth.lowerbound import (
    SEARCH_INITIAL_STEP,
    SEARCH_REJECTION_LIMIT,
    SigmaProfile,
    adversarial_min_width,
    selberg_check,
    sigma_profile,
    witness_vector,
)
from cylwidth.measures import sample_uniform
from cylwidth.vectors import SubspaceBasis, decreasing_rearrangement, orthonormalize
import cylwidth.width as width
from cylwidth.width import _altmax_width, width_brute_signed_perm


def test_witness_harmonic_tail_norm():
    wit = witness_vector(4, 2)
    expected = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    assert abs(wit.raw_norm_sq - float(expected)) < 1e-12
    assert abs(float(np.linalg.norm(wit.unit)) - 1.0) < 1e-12
    assert wit.unit[0] >= wit.unit[1] >= wit.unit[2] > 0.0
    assert wit.unit[3] == 0.0


def test_witness_without_shift_for_rank_one():
    wit = witness_vector(5, 1)
    raw = 1.0 / np.sqrt(np.arange(1, 6, dtype=np.float64))
    assert np.allclose(wit.unit, raw / np.linalg.norm(raw))
    with pytest.raises(ValueError):
        witness_vector(3, 4)


NON_INTEGER_SIZES = (2.5, 8.0, True, math.nan)


@pytest.mark.parametrize("bad", NON_INTEGER_SIZES, ids=repr)
def test_witness_vector_rejects_non_integer_sizes(bad):
    # a float d used to reach np.zeros and raise TypeError
    for d, k in ((bad, 2), (8, bad)):
        with pytest.raises(ValueError, match="must be an integer"):
            witness_vector(d, k)


def test_sigma_profile_of_coordinate_subspace():
    prof = sigma_profile(SubspaceBasis(np.eye(6)[:, :2]))
    assert np.allclose(prof.sigmas[:2], 1.0 / np.sqrt(2.0))
    assert np.allclose(prof.sigmas[2:], 0.0)


def test_sigma_profile_identities_on_random_subspaces():
    for i in range(50):
        rng = np.random.default_rng([90, i])
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, d + 1))
        field = "complex" if i % 2 else "real"
        prof = sigma_profile(sample_uniform(k, d, field, seed=[91, i]))
        assert abs(float(np.sum(prof.sigmas**2)) - 1.0) < 1e-8
        caps = np.minimum(1.0 / np.sqrt(k), 1.0 / np.sqrt(np.arange(1, d + 1)))
        assert np.all(prof.sigmas <= caps + 1e-9)
        assert np.all(np.diff(prof.sigmas) <= 1e-15)


def test_sigma_profile_validation():
    with pytest.raises(ValueError):
        SigmaProfile(sigmas=np.array([1.0, 1.0]), d=2, k=1)
    with pytest.raises(ValueError):
        SigmaProfile(sigmas=np.array([1.0]), d=2, k=1)
    # every comparison against NaN is False, so both identity checks pass it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SigmaProfile(sigmas=np.array([bad, 0.5, 0.5, 0.5]), d=4, k=1)


def test_selberg_exact_boundary_cases():
    iso = selberg_check(np.eye(3))
    assert iso.holds
    assert abs(iso.lhs - 1.0) < 1e-12
    assert abs(iso.margin) < 1e-12
    # equal rows sit exactly on the boundary: top eigenvalue m, row sum m
    ones = selberg_check(np.ones((4, 2)) / np.sqrt(2.0))
    assert ones.holds
    assert abs(ones.lhs - 4.0) < 1e-9
    assert abs(ones.margin) < 1e-9


def test_selberg_random_complex_families_hold():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        d = int(rng.integers(1, 12))
        x = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        assert selberg_check(x).holds


def test_selberg_integer_points_do_not_wrap_around():
    # in int64 the Gram entry 2 * 2**64 wraps to 0
    points = np.array([[2**32, 2**32], [1, 0]])
    got = selberg_check(points)
    want = selberg_check(points.astype(np.float64))
    assert got.lhs == want.lhs and got.rhs == want.rhs
    assert abs(got.lhs - 2.0**65) <= 1e-12 * 2.0**65
    assert got.holds


def test_selberg_input_validation():
    with pytest.raises(ValueError):
        selberg_check(np.ones(3))
    # a non-finite point, or a Gram matrix that overflows, would report a
    # missed guarantee for invalid input
    for bad in ([[np.nan, 1.0], [1.0, 0.0]], [[np.inf, 1.0], [1.0, 0.0]],
                [[1e200, 1.0], [1.0, 0.0]], [[1e154, 1e154], [1.0, 0.0]],
                [[1e200j, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            selberg_check(np.array(bad))
    for bad in (np.nan, np.inf, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            selberg_check(np.eye(3), tol=bad)


def test_adversarial_search_basics():
    # k = 2: a vector target at k = 1 is solved without a search
    wit = witness_vector(8, 2)
    res = adversarial_min_width(8, 2, wit.unit, restarts=3, steps=150, seed=4)
    assert 0.0 < res.min_value < 1.0
    assert (res.basis.d, res.basis.k) == (8, 2)
    assert res.evaluations >= 3 * 150
    assert (res.restarts, res.steps) == (3, 150)
    assert res.min_value * np.sqrt(np.log(8.0)) >= 0.1
    res2 = adversarial_min_width(8, 2, wit.unit, restarts=3, steps=150, seed=4)
    assert res2.min_value == res.min_value
    with pytest.raises(ValueError):
        adversarial_min_width(4, 5, witness_vector(4, 1).unit)
    for k in (1, 2):
        with pytest.raises(ValueError):
            adversarial_min_width(8, k, np.ones(5))
        # zero restarts would report an infinite minimum with no frame
        with pytest.raises(ValueError):
            adversarial_min_width(8, k, wit.unit, restarts=0)
        with pytest.raises(ValueError, match="steps"):
            adversarial_min_width(8, k, wit.unit, steps=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, True], ids=repr)
def test_adversarial_search_rejects_non_integer_counts(bad):
    # on the exact k = 1 path and on the search
    for k in (1, 2):
        wit = witness_vector(8, k).unit
        for name in ("restarts", "steps", "inner_restarts"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                adversarial_min_width(8, k, wit, **{name: bad})


@pytest.mark.parametrize("bad", NON_INTEGER_SIZES, ids=repr)
def test_adversarial_search_rejects_non_integer_sizes(bad):
    wit = witness_vector(8, 2).unit
    for d, k in ((bad, 2), (8, bad)):
        with pytest.raises(ValueError, match="must be an integer"):
            adversarial_min_width(d, k, wit)


def test_long_search_stops_once_its_step_is_below_the_ascent_tolerance():
    # 2000 steps halve the scale 100 times, far below what the ascent
    # resolves; each restart stops once eta * sqrt(d k) < ASCENT_TOL
    d, k, restarts, steps = 8, 2, 2, 2000
    wit = witness_vector(d, k).unit
    res = adversarial_min_width(d, k, wit, restarts=restarts, steps=steps, seed=5)
    assert res.evaluations < restarts * (steps + 1)
    # each halving takes at least SEARCH_REJECTION_LIMIT steps, and the stop
    # comes after the halving that crosses the tolerance
    halvings = math.ceil(math.log2(
        lowerbound.SEARCH_INITIAL_STEP * math.sqrt(d * k) / kernels.ASCENT_TOL))
    assert res.evaluations >= restarts * (halvings * lowerbound.SEARCH_REJECTION_LIMIT + 1)
    # a short search is not cut
    res = adversarial_min_width(d, k, wit, restarts=restarts, steps=150, seed=5)
    assert res.evaluations == restarts * 151


def test_adversarial_search_rejects_bad_vector_input_up_front(monkeypatch):
    # the search validates the target and the inner restart count once,
    # before it draws its first frame
    def no_frames(*args, **kwargs):
        raise AssertionError("the search drew a frame before validating")

    monkeypatch.setattr(lowerbound, "sample_uniform", no_frames)
    wit = witness_vector(8, 1).unit
    with pytest.raises(ValueError, match="^need inner_restarts >= 1, got 0$"):
        adversarial_min_width(8, 1, wit, inner_restarts=0)
    for bad in (np.nan, np.inf, -np.inf):
        target = wit.copy()
        target[3] = bad
        with pytest.raises(ValueError, match="finite"):
            adversarial_min_width(8, 1, target)


def _least_line_search_failures(search):
    """What a k = 1 minimizer gets wrong against brute-force line widths.

    ``search(d, v)`` returns ``(min_value, basis)``.  The minimum must equal
    the least brute-force width of the 2^d - 1 normalized indicator lines,
    stay at or below the brute-force width of random lines, and be attained
    by the returned basis.
    """
    failures = []
    for i, (v, floor, random_min) in enumerate(_least_line_cases()):
        value, basis = search(v.shape[0], v)
        attained = width_brute_signed_perm(basis, v).value
        if abs(value - floor) > 1e-12 * max(floor, 1.0):
            failures.append((i, "indicator minimum", value, floor))
        if value > random_min + 1e-12 * max(value, 1.0):
            failures.append((i, "random line", value, random_min))
        off = abs(attained - value) > 1e-15 * max(value, 1.0)
        if (basis.d, basis.k) != (v.shape[0], 1) or off:
            failures.append((i, "attained", value, attained))
    return failures


@pytest.mark.parametrize("k", [1, 2])
def test_adversarial_search_is_scale_safe(k):
    # the target is searched scaled by the power of two nearest its norm and
    # the minimum is scaled back; at 1e160 it used to read inf at k = 1 and
    # to raise a RuntimeError at k = 2
    v = np.random.default_rng(126).standard_normal(6)
    plain = adversarial_min_width(6, k, v, restarts=2, steps=30, seed=127)
    for e in (600, -600):
        res = adversarial_min_width(6, k, 2.0**e * v, restarts=2, steps=30, seed=127)
        assert res.min_value == plain.min_value * 2.0**e
        assert res.basis.columns.tobytes() == plain.basis.columns.tobytes()
        assert res.evaluations == plain.evaluations
    for f, e in ((1e160, 600), (1e-160, -600)):
        res = adversarial_min_width(6, k, f * v, restarts=2, steps=30, seed=127)
        # f v and 2^-e f v are searched at the same scale, which is not v's
        shifted = adversarial_min_width(6, k, 2.0**-e * (f * v), restarts=2, steps=30,
                                        seed=127)
        assert res.min_value == shifted.min_value * 2.0**e
        assert math.isfinite(res.min_value)
        if k == 1:
            assert res.min_value == pytest.approx(f * plain.min_value, rel=1e-12, abs=0)


@pytest.mark.parametrize("e", [40, -40])
def test_adversarial_search_is_scale_equivariant_bit_for_bit(e):
    # the search runs its target at the power of two nearest its norm, so
    # 2^e w gives w's frames and evaluations and 2^e times its minimum; with
    # the ascent's tolerances acting on 2^-40 w itself the minimum moved
    w = witness_vector(16, 2).unit
    plain = adversarial_min_width(16, 2, w, restarts=2, steps=150, seed=128)
    res = adversarial_min_width(16, 2, 2.0**e * w, restarts=2, steps=150, seed=128)
    assert res.min_value == math.ldexp(plain.min_value, e)
    assert res.basis.columns.tobytes() == plain.basis.columns.tobytes()
    assert res.evaluations == plain.evaluations


def _brute_line_widths(lines, v):
    # the width of every real line (a column of ``lines``), by enumerating
    # all signed permutations of v
    d = v.shape[0]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    best = np.zeros(lines.shape[1])
    for perm in itertools.permutations(range(d)):
        np.maximum(best, np.abs((signs * v[list(perm)]) @ lines).max(axis=0), out=best)
    return best


@functools.cache
def _least_line_cases():
    """Target vectors with d <= 7, each with its least indicator-line width
    and its least width over 200 random lines, both by brute force."""
    rng = np.random.default_rng(96)
    vectors = [witness_vector(d, 1).unit for d in range(1, 8)]
    for d in range(2, 8):
        flat = np.ones(d)
        flat[0] = 3.0
        vectors += [rng.standard_normal(d), np.abs(rng.standard_normal(d)) ** 3, flat,
                    np.concatenate((np.ones(d - 1), [0.0])), np.zeros(d)]
    cases = []
    for v in vectors:
        d = v.shape[0]
        member = (np.arange(1, 2**d)[None, :] >> np.arange(d)[:, None]) & 1
        lines = rng.standard_normal((d, 200))
        lines = np.hstack((member / np.sqrt(member.sum(axis=0)),
                           lines / np.linalg.norm(lines, axis=0)))
        widths = _brute_line_widths(lines, v)
        cases.append((v, float(widths[: 2**d - 1].min()), float(widths[2**d - 1 :].min())))
    return tuple(cases)


def _closed_form_search(d, v):
    res = adversarial_min_width(d, 1, v, restarts=1, steps=0)
    return res.min_value, res.basis


def test_adversarial_k1_minimum_is_the_least_indicator_line_width():
    assert _least_line_search_failures(_closed_form_search) == []
    v = witness_vector(7, 1).unit
    res = adversarial_min_width(7, 1, v, restarts=4, steps=50, seed=9)
    assert (res.restarts, res.steps, res.evaluations) == (0, 0, 1)
    # nothing is drawn, so the seed and the search budget change nothing
    again = adversarial_min_width(7, 1, v, restarts=1, steps=0, seed=1)
    assert np.float64(again.min_value).tobytes() == np.float64(res.min_value).tobytes()
    assert again.basis.columns.tobytes() == res.basis.columns.tobytes()


@pytest.mark.parametrize("old, new", [
    ("np.sqrt(np.arange(1, d + 1))", "np.sqrt(np.arange(2, d + 2))"),
    ("np.argmin(", "np.argmax("),
])
def test_least_line_check_catches_a_wrong_minimizer(old, new):
    # mutate the source of the closed form and run the mutant through the
    # check above, which must report it
    source = textwrap.dedent(inspect.getsource(lowerbound._least_line_width))
    assert old in source
    namespace = dict(vars(lowerbound))
    exec(source.replace(old, new), namespace)
    mutant = namespace["_least_line_width"]

    def search(d, v):
        v = np.asarray(v, dtype=np.float64)
        res = mutant(v, decreasing_rearrangement(v))
        return res.min_value, res.basis

    assert _least_line_search_failures(search)


def _search_with_full_evaluations(d, k, target, restarts, steps, seed, inner_restarts=6):
    # the search as it was before candidates were cut off at the current
    # width: every candidate gets a complete evaluation.  Also counts the
    # candidates whose width lies within rounding of the current one.
    v = np.asarray(target, dtype=np.float64)

    def evaluate(basis, rng):
        # the search's inner evaluation, a plain ascent
        return _altmax_width(basis, v, inner_restarts, rng, "none").value
    best_val, best_basis, evals, near = np.inf, None, 0, 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        basis = sample_uniform(k, d, "real", rng)
        current = evaluate(basis, rng)
        evals += 1
        eta, rejected = SEARCH_INITIAL_STEP, 0
        for _ in range(steps):
            if eta * math.sqrt(d * k) < kernels.ASCENT_TOL:
                break
            noise = rng.standard_normal((d, k))
            try:
                cand = orthonormalize(basis.columns + eta * noise)
            except RankDeficientError:
                rejected += 1
                if rejected >= SEARCH_REJECTION_LIMIT:
                    eta /= 2.0
                    rejected = 0
                continue
            val = evaluate(cand, rng)
            evals += 1
            near += abs(val - current) <= 4e-16 * current
            if val < current:
                basis, current, rejected = cand, val, 0
            else:
                rejected += 1
                if rejected >= SEARCH_REJECTION_LIMIT:
                    eta /= 2.0
                    rejected = 0
        if current < best_val:
            best_val, best_basis = current, basis
    return best_val, best_basis, evals, near


def _search_cases():
    # vector targets need k >= 2: at k = 1 the minimum is exact, no search
    for d, k, seed in ((8, 2, 1), (12, 2, 2), (16, 4, 3), (20, 3, 4)):
        yield d, k, witness_vector(d, k).unit, 2, 120, seed  # zero tail
    for d, k, seed in ((10, 2, 5), (16, 2, 6)):
        yield d, k, np.random.default_rng(seed).standard_normal(d), 2, 120, seed
    # long enough for the step to fall below the ascent's tolerance, where
    # the search stops
    yield 4, 2, np.random.default_rng(2).standard_normal(4), 1, 2500, 2
    # a frame of full rank has width ||v||, so every candidate sits within
    # rounding of the current width, which the test checks
    yield 3, 3, np.random.default_rng(3).standard_normal(3), 1, 400, 3


def test_adversarial_search_matches_full_evaluations():
    for d, k, target, restarts, steps, seed in _search_cases():
        res = adversarial_min_width(d, k, target, restarts=restarts, steps=steps,
                                    seed=seed)
        want_val, want_basis, want_evals, near = _search_with_full_evaluations(
            d, k, target, restarts, steps, seed)
        assert np.float64(res.min_value).tobytes() == np.float64(want_val).tobytes()
        assert res.evaluations == want_evals
        assert res.basis.columns.tobytes() == want_basis.columns.tobytes()
        if k == d:
            assert near > 0


def test_search_builds_a_witness_only_for_candidates_whose_ascent_ran_in_full(
        monkeypatch):
    # a stopped ascent already proves the candidate wider than the current
    # frame, so building its witness would only cost time
    counts = {"stopped": 0, "full": 0, "witness": 0}
    real_ascend, real_witness = lowerbound._ascend, width._witness_and_value

    def ascend(*args):
        # a candidate whose ascent crossed its ceiling has no witness
        results, iters = real_ascend(*args)
        for result in results:
            counts["stopped" if result is None else "full"] += 1
        return results, iters

    def witness(*args):
        counts["witness"] += 1
        return real_witness(*args)

    monkeypatch.setattr(lowerbound, "_ascend", ascend)
    monkeypatch.setattr(width, "_witness_and_value", witness)
    res = adversarial_min_width(8, 2, witness_vector(8, 2).unit, restarts=2, steps=150,
                                seed=4)
    assert counts["stopped"] > 0 and counts["full"] > 0
    assert counts["witness"] == counts["full"]
    assert counts["stopped"] + counts["full"] == res.evaluations


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_worker_that_sends_nothing_is_reported(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)

    def item(i):
        if i == 1:
            os._exit(5)  # runs in the forked worker, never in this process
        return i

    with pytest.raises(RuntimeError, match="sent no result"):
        _fork.map_forked(item, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fork.map_forked(lambda i: i * i, 5) == [0, 1, 4, 9, 16]
