"""Tail-weighted norm: closed-form values, norm axioms, certified bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cylwidth.nets import sphere_net
from cylwidth.tnorm import (
    _BATCH_ELEMENTS,
    GaussianTnormStats,
    gaussian_tnorm_statistics,
    lipschitz_bound,
    sample_gaussian,
    t_norm,
    t_norm_batch,
    t_norm_subspace_bound,
)
from cylwidth.vectors import orthonormalize


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
    basis = orthonormalize(np.random.default_rng(15).standard_normal((12, 1)))
    bound = t_norm_subspace_bound(basis)
    assert abs(bound - t_norm(basis.columns[:, 0]).value) < 1e-12


def test_subspace_bound_certifies_sampled_unit_vectors():
    rng = np.random.default_rng(16)
    for k in (2, 3):
        basis = orthonormalize(rng.standard_normal((16, k)))
        bound = t_norm_subspace_bound(basis, net_step=0.3)
        coef = rng.standard_normal((500, k))
        coef /= np.linalg.norm(coef, axis=1)[:, None]
        assert float(t_norm_batch(coef @ basis.columns.T).max()) <= bound + 1e-9
        # the same certificate covers the complexified span
        ccoef = rng.standard_normal((200, k)) + 1j * rng.standard_normal((200, k))
        ccoef /= np.linalg.norm(ccoef, axis=1)[:, None]
        cvals = t_norm_batch(ccoef @ basis.columns.T.astype(np.complex128))
        assert float(cvals.max()) <= bound + 1e-9


# on these bases, evaluating the net one row at a time moves the maximum
@pytest.mark.parametrize("k, step, d, seed", [(2, 0.25, 16, 18), (3, 0.25, 2048, 2051),
                                               (4, 0.4, 2048, 2452)])
def test_subspace_bound_equals_the_whole_net_evaluation(k, step, d, seed):
    # the bound walks the net in row chunks; it must equal the one-shot value
    basis = orthonormalize(np.random.default_rng(seed).standard_normal((d, k)))
    whole = t_norm_batch(sphere_net(k, step) @ basis.columns.T).max()
    assert t_norm_subspace_bound(basis, step) == float(whole / (1.0 - step))


def test_subspace_bound_rejects_unsupported_inputs():
    rng = np.random.default_rng(17)
    wide = orthonormalize(rng.standard_normal((16, 5)))
    with pytest.raises(ValueError):
        t_norm_subspace_bound(wide)
    cplx = orthonormalize(
        rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    )
    with pytest.raises(ValueError):
        t_norm_subspace_bound(cplx)
    with pytest.raises(ValueError):
        t_norm_subspace_bound(orthonormalize(np.eye(4)[:, :2]), net_step=0.8)


def test_sample_gaussian_sum_zero_and_deterministic():
    w = sample_gaussian(50, sum_zero=True, seed=3)
    assert abs(float(w.sum())) < 1e-12
    assert np.array_equal(w, sample_gaussian(50, sum_zero=True, seed=3))
    with pytest.raises(ValueError):
        sample_gaussian(1, sum_zero=True)


def test_statistics_deterministic_and_ordered():
    s1 = gaussian_tnorm_statistics(32, 25, sum_zero=True, seed=5)
    s2 = gaussian_tnorm_statistics(32, 25, sum_zero=True, seed=5)
    assert s1 == s2
    assert 0.0 < s1.q50_ratio <= s1.q90_ratio <= s1.q99_ratio <= s1.max_ratio
    assert s1.mean_ratio <= s1.max_ratio


@pytest.mark.parametrize("d, sum_zero", [(0, False), (-1, False), (1, True), (2.5, False)])
def test_statistics_reject_bad_dimension(d, sum_zero):
    with pytest.raises(ValueError):
        gaussian_tnorm_statistics(d, 4, sum_zero=sum_zero)


def _statistics_reference(d, trials, sum_zero, seed):
    """All trials in one (trials, d) array and one t_norm_batch call."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    samples = np.empty((trials, d))
    for i in range(trials):
        samples[i] = sample_gaussian(d, sum_zero=sum_zero, seed=[*base, i])
    ratios = t_norm_batch(samples) / np.sqrt(d)
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
