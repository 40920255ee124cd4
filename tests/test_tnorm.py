"""Tail-weighted norm: closed-form values, norm axioms, certified bounds."""

import functools
import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cylwidth import _fork, tnorm
from cylwidth.nets import sphere_net
from cylwidth.tnorm import (
    _BATCH_ELEMENTS,
    GaussianTnormStats,
    gaussian_tnorm_statistics,
    lipschitz_bound,
    t_norm,
    t_norm_batch,
    t_norm_subspace_bound,
)
from cylwidth.vectors import SubspaceBasis, _gram_deviation, orthonormalize


def subset_oracle(v):
    """Evaluate the norm over every nonempty coordinate subset directly."""
    v = np.asarray(v)
    d = v.size
    mod2 = np.abs(v) ** 2
    best = 0.0
    for mask in range(1, 1 << d):
        idx = [i for i in range(d) if (mask >> i) & 1]
        score = np.log(2.0 * d / len(idx)) ** 4 * mod2[idx].sum()
        best = max(best, score)
    return float(np.sqrt(best))


def full_sort_t_norm(v):
    """The norm and its smallest maximizing size, scoring every size after a
    full sort of the moduli."""
    v = np.asarray(v)
    d = v.size
    mod2 = np.sort(np.abs(v).astype(np.float64) ** 2)[::-1]
    sizes = np.arange(1, d + 1, dtype=np.float64)
    scores = np.log(2.0 * d / sizes) ** 4 * np.cumsum(mod2)
    i = int(np.argmax(scores))
    return float(np.sqrt(scores[i])), i + 1


@functools.cache
def _prefix_families(d):
    """Three rows of each shape the prefix argument must hold for."""
    rng = np.random.default_rng([17, d])
    shape = (3, d)
    return {
        "gaussian": rng.standard_normal(shape),
        "flat": np.ones(shape),
        "integers": rng.integers(0, 3, shape).astype(np.float64),
        "harmonic": np.tile(1.0 / np.arange(1, d + 1), (3, 1)),
        "heavy-tailed": rng.standard_cauchy(shape),
        "complex": rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        "zero": np.zeros(shape),
        "eighth power": rng.standard_normal(shape) ** 8,
        "near flat": np.abs(rng.standard_normal(shape)) ** 0.01,
    }


PREFIX_DIMS = (*range(1, 81), 255, 256, 257, 4096)


def _prefix_failures(dims, families=None):
    """Rows where t_norm or t_norm_batch differs in any bit from the full sort."""
    failures = []
    for d in dims:
        for name, rows in _prefix_families(d).items():
            if families is not None and name not in families:
                continue
            batch = t_norm_batch(rows)
            for i, v in enumerate(rows):
                value, size = full_sort_t_norm(v)
                got = t_norm(v)
                same = (np.float64(got.value).tobytes() == np.float64(value).tobytes()
                        and batch[i].tobytes() == np.float64(value).tobytes())
                if not same or got.argmax_size != size:
                    failures.append((d, name, i))
    return failures


def test_prefix_equals_a_full_sort_bit_for_bit():
    assert _prefix_failures(PREFIX_DIMS) == []


def test_smallest_maximizing_size_is_at_most_the_peak_of_g():
    # score_t < score_c for t > c = ceil(2d/e^4), where g(s) = s ln(2d/s)^4 falls
    for d in PREFIX_DIMS:
        for rows in _prefix_families(d).values():
            for v in rows:
                assert t_norm(v).argmax_size <= math.ceil(2 * d / math.exp(4))


def test_prefix_check_catches_a_short_prefix(monkeypatch):
    # a prefix of c - 1 entries misses the maximum of flat rows whose score
    # peaks at c; the check above must report it
    source = textwrap.dedent(inspect.getsource(tnorm._prefix_scores))
    old = "2 * math.ceil(2.0 * d / math.exp(4.0)) - 1"
    assert old in source
    namespace = dict(vars(tnorm))
    exec(source.replace(old, "max(1, math.ceil(2.0 * d / math.exp(4.0)) - 1)"), namespace)
    monkeypatch.setattr(tnorm, "_prefix_scores", namespace["_prefix_scores"])
    assert _prefix_failures(range(1, 201), families=("flat",))


def test_unit_vector_in_r2():
    val = t_norm([1.0, 0.0])
    assert val.argmax_size == 1
    assert abs(val.value - np.log(4.0) ** 2) < 1e-12


def test_flat_vector_prefers_single_coordinate():
    val = t_norm(np.ones(4))
    assert val.argmax_size == 1
    assert abs(val.value - np.log(8.0) ** 2) < 1e-12


def test_matches_subset_oracle():
    rng = np.random.default_rng(10)
    for _ in range(40):
        d = int(rng.integers(1, 9))
        v = rng.standard_normal(d)
        if rng.integers(2):
            v = v + 1j * rng.standard_normal(d)
        assert abs(t_norm(v).value - subset_oracle(v)) < 1e-10


def test_sandwich_homogeneity_triangle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 40))
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        tv = t_norm(v).value
        l2 = float(np.linalg.norm(v))
        assert np.log(2.0) ** 2 * l2 <= tv + 1e-12
        assert tv <= lipschitz_bound(d) * l2 + 1e-12
        assert abs(t_norm(3.5 * v).value - 3.5 * tv) < 1e-9
        assert t_norm(v + w).value <= tv + t_norm(w).value + 1e-9


def test_invariance_under_signed_permutation():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(9)
    w = (rng.choice([-1.0, 1.0], 9) * v)[rng.permutation(9)]
    assert abs(t_norm(v).value - t_norm(w).value) < 1e-12
    assert t_norm(v).argmax_size == t_norm(w).argmax_size


def test_complex_vector_equals_modulus_vector():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert abs(t_norm(v).value - t_norm(np.abs(v)).value) < 1e-12


def test_batch_matches_single():
    rng = np.random.default_rng(14)
    vs = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
    batch = t_norm_batch(vs)
    for i in range(20):
        assert abs(batch[i] - t_norm(vs[i]).value) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        t_norm(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t_norm_batch(np.ones(3))
    with pytest.raises(ValueError, match="nonempty rows"):
        t_norm_batch(np.ones((3, 0)))
    with pytest.raises(ValueError):
        lipschitz_bound(0)


@pytest.mark.parametrize("d", [float("nan"), float("inf"), 2.5, 4.0, True, 0, -3])
def test_lipschitz_bound_rejects_non_integer_dimensions(d):
    # NaN used to give nan, inf gave inf, and 2.5 a value
    integral = isinstance(d, int) and not isinstance(d, bool)
    with pytest.raises(ValueError, match=f"^need d >= 1, got {d}$" if integral else
                       "d must be an integer"):
        lipschitz_bound(d)


# NaN, inf, a finite entry whose square overflows, and finite squares whose
# weighted tail sum overflows
@pytest.mark.parametrize("bad", [
    [1.0, np.nan, 0.5], [np.inf, 1.0, 0.5], [1e200, 1.0, 0.5], [1e154, 1e154, 1e154],
    [1.0, complex(0.0, np.nan), 0.5], [complex(np.inf, 1.0), 1.0, 0.5],
    [complex(1e200, 1e200), 1.0, 0.5], [complex(0.0, 1e154)] * 3,
])
def test_non_finite_input_is_rejected(bad):
    bad = np.asarray(bad)
    with pytest.raises(ValueError, match="finite"):
        t_norm(bad)
    rows = np.ones((5, 3), dtype=bad.dtype)
    rows[3] = bad
    with pytest.raises(ValueError, match="finite"):
        t_norm_batch(rows)


def test_subspace_bound_is_exact_for_lines():
    rng = np.random.default_rng(15)
    for d in (12, 100, 500):
        basis = orthonormalize(rng.standard_normal((d, 1)))
        exact = t_norm(basis.columns[:, 0]).value
        assert t_norm_subspace_bound(basis) == pytest.approx(exact, rel=1e-12, abs=0)


def test_subspace_bound_certifies_sampled_unit_vectors():
    # the net for k = 2, 3, the row profile for the other k
    rng = np.random.default_rng(16)
    for k in (1, 2, 3, 4, 5, 8, 16):
        basis = orthonormalize(rng.standard_normal((64, k)))
        bound = t_norm_subspace_bound(basis)
        coef = rng.standard_normal((500, k))
        coef /= np.linalg.norm(coef, axis=1)[:, None]
        assert float(t_norm_batch(coef @ basis.columns.T).max()) <= bound
        # the same certificate covers the complexified span
        ccoef = rng.standard_normal((200, k)) + 1j * rng.standard_normal((200, k))
        ccoef /= np.linalg.norm(ccoef, axis=1)[:, None]
        cvals = t_norm_batch(ccoef @ basis.columns.T.astype(np.complex128))
        assert float(cvals.max()) <= bound


@pytest.mark.parametrize("d", [1, 8, 64, 1024])
def test_subspace_bound_of_the_whole_space_is_attained(d):
    # every row norm is 1, so the capped profile scores ln(2d/s)^4 at each s
    # and the bound is ln(2d)^2, the norm of a coordinate vector
    bound = t_norm_subspace_bound(orthonormalize(np.eye(d)))
    assert bound == pytest.approx(math.log(2 * d) ** 2, rel=1e-12, abs=0)
    assert bound >= t_norm(np.eye(d)[0]).value


# on these bases, evaluating the net one row at a time moves the maximum
@pytest.mark.parametrize("k, step, d, seed", [(2, 0.25, 16, 18), (3, 0.25, 2048, 2051),
                                               (3, 0.4, 2048, 2017)])
def test_subspace_bound_equals_the_whole_net_evaluation(k, step, d, seed, monkeypatch):
    # the bound walks the net in row chunks; it must equal the one-shot value
    monkeypatch.setattr(tnorm, "NET_STEP", step)
    basis = orthonormalize(np.random.default_rng(seed).standard_normal((d, k)))
    whole = t_norm_batch(sphere_net(k, step) @ basis.columns.T).max()
    root = math.sqrt(1.0 - k * _gram_deviation(basis.columns))
    assert t_norm_subspace_bound(basis) == float(whole / (1.0 - step)) / root


@pytest.mark.parametrize("k", [1, 3, 4, 5])
def test_subspace_bound_covers_accepted_non_orthonormal_bases(k):
    # columns sqrt(1 - 0.9e-9) e_i pass SubspaceBasis's 1e-9 Gram check, and
    # the unit vector e_1 of their span scores ln(128)^2; a certificate
    # without the Gershgorin factor reads ~1e-8 below it at k = 1, 4, 5
    d = 64
    basis = SubspaceBasis(math.sqrt(1.0 - 0.9e-9) * np.eye(d)[:, :k])
    worst = t_norm(np.eye(d)[0]).value
    assert worst == 23.542197681991865
    assert t_norm_subspace_bound(basis) >= worst


def test_subspace_bound_rejects_unsupported_inputs():
    rng = np.random.default_rng(17)
    cplx = orthonormalize(
        rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    )
    with pytest.raises(ValueError, match="real basis"):
        t_norm_subspace_bound(cplx)


def test_statistics_deterministic_and_ordered():
    s1 = gaussian_tnorm_statistics(32, 25, sum_zero=True, seed=5)
    s2 = gaussian_tnorm_statistics(32, 25, sum_zero=True, seed=5)
    assert s1 == s2
    assert 0.0 < s1.q50_ratio <= s1.q90_ratio <= s1.q99_ratio <= s1.max_ratio
    assert s1.mean_ratio <= s1.max_ratio


@pytest.mark.parametrize("d, sum_zero", [(0, False), (-1, False), (1, True), (2.5, False),
                                         (True, False), (math.nan, False)])
def test_statistics_reject_bad_dimension(d, sum_zero):
    with pytest.raises(ValueError):
        gaussian_tnorm_statistics(d, 4, sum_zero=sum_zero)


@pytest.mark.parametrize("trials", [math.nan, math.inf, 2.5, True, 0])
def test_statistics_reject_bad_trial_counts(trials):
    with pytest.raises(ValueError, match="trial"):
        gaussian_tnorm_statistics(8, trials)


def sample_gaussian(d, sum_zero, seed):
    """Standard Gaussian vector, conditioned on coordinate sum 0 if asked.

    The conditional law given ``sum(w) = 0`` is the projection onto the
    hyperplane orthogonal to the all-ones vector, i.e. mean subtraction.
    """
    w = np.random.default_rng(seed).standard_normal(d)
    return w - w.mean() if sum_zero else w


def _statistics_reference(d, trials, sum_zero, seed):
    """All trials in one (trials, d) array, each scored by a full sort."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    samples = np.empty((trials, d))
    for i in range(trials):
        samples[i] = sample_gaussian(d, sum_zero, [*base, i])
    ratios = np.array([full_sort_t_norm(v)[0] for v in samples]) / np.sqrt(d)
    return GaussianTnormStats(
        d=d,
        trials=trials,
        sum_zero=sum_zero,
        mean_ratio=float(ratios.mean()),
        max_ratio=float(ratios.max()),
        q50_ratio=float(np.quantile(ratios, 0.5)),
        q90_ratio=float(np.quantile(ratios, 0.9)),
        q99_ratio=float(np.quantile(ratios, 0.99)),
    )


# 4096 columns make 64-row blocks: 150 trials end in a partial block and 5
# fit in one; above _BATCH_ELEMENTS columns a block is a single row
@pytest.mark.parametrize("d, trials", [(4096, 150), (4096, 5), (_BATCH_ELEMENTS + 3, 3)])
@pytest.mark.parametrize("sum_zero", [False, True])
@pytest.mark.parametrize("seed", [11, [4, 32, 9]])
def test_statistics_equal_the_one_batch_reference(d, trials, sum_zero, seed):
    got = gaussian_tnorm_statistics(d, trials, sum_zero=sum_zero, seed=seed)
    want = _statistics_reference(d, trials, sum_zero, seed)
    for field, value in vars(want).items():
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(value).tobytes(), field


# the trial counts end below, at and across block boundaries, so the
# processes get uneven shares
@pytest.mark.parametrize("sum_zero", [False, True])
def test_statistics_do_not_depend_on_the_worker_count(monkeypatch, sum_zero):
    rows = _BATCH_ELEMENTS // 4096
    for trials in (1, rows, rows + 1, 2 * rows + 3):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_fork, "_usable_cpus", lambda w=workers: w)
            got = gaussian_tnorm_statistics(4096, trials, sum_zero=sum_zero,
                                            seed=[3, trials])
            results.append([np.float64(v).tobytes() for v in vars(got).values()])
        assert results[1] == results[0] and results[2] == results[0]


def test_statistics_memory_is_one_block():
    # one (2048, 4096) array of samples alone would be 64 MiB
    tracemalloc.start()
    try:
        gaussian_tnorm_statistics(4096, 2048, sum_zero=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_statistics_seed_list_prefix_matches_int_seed():
    a = gaussian_tnorm_statistics(16, 10, seed=7)
    b = gaussian_tnorm_statistics(16, 10, seed=[7])
    assert a == b


@settings(max_examples=50, deadline=None)
@given(
    v=hnp.arrays(
        np.float64,
        st.integers(1, 5),
        elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    ),
    data=st.data(),
)
def test_property_t_norm_is_monotone_under_dominance(v, data):
    # u is dominated by v after decreasing rearrangement of the moduli
    d = v.shape[0]
    shrink = data.draw(hnp.arrays(np.float64, d, elements=st.floats(0.0, 1.0)))
    perm = data.draw(st.permutations(range(d)))
    u = (-v * shrink)[list(perm)]
    assert t_norm(u).value <= t_norm(v).value
