"""Sphere nets: unit norms, covering radius, packing separation."""

import hashlib
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cylwidth import _kernels
from cylwidth._kernels import greedy_pack
from cylwidth.nets import _shell_grid, sphere_net


def sampled_covering_radius(net, k, trials, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, k))
    x /= np.linalg.norm(x, axis=1)[:, None]
    d2 = ((x[:, None, :] - net[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min(axis=1)).max())


def test_k1_net_is_the_sign_pair():
    net = sphere_net(1, 0.5)
    assert sorted(net.ravel().tolist()) == [-1.0, 1.0]


def test_circle_net_size_and_cover():
    delta = 0.25
    net = sphere_net(2, delta)
    n = max(int(np.ceil(np.pi / (2.0 * np.arcsin(delta / 2.0)))), 3)
    assert net.shape == (n, 2)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)
    assert sampled_covering_radius(net, 2, 4000, 0) <= delta


def test_shell_nets_cover_and_separate():
    for k in (3, 4):
        delta = 0.4
        net = sphere_net(k, delta)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)
        assert sampled_covering_radius(net, k, 3000, k) <= delta
        # greedy thinning keeps points delta/2 apart
        gram = net @ net.T
        np.fill_diagonal(gram, -1.0)
        min_dist = float(np.sqrt(max(2.0 - 2.0 * gram.max(), 0.0)))
        assert min_dist >= delta / 2.0 - 1e-9


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sphere_net(5, 0.3)
    with pytest.raises(ValueError):
        sphere_net(2, 0.6)
    with pytest.raises(ValueError):
        sphere_net(2, 0.0)


def test_greedy_pack_is_greedy_and_maximal():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    keep = greedy_pack(pts, 0.2)
    assert keep.dtype == np.bool_ and keep[0]
    # kept points are pairwise separated
    kept = pts[keep]
    gram = kept @ kept.T
    np.fill_diagonal(gram, -1.0)
    assert float(np.sqrt(max(2.0 - 2.0 * gram.max(), 0.0))) >= 0.2 - 1e-12
    # every dropped point is within min_dist of a point kept before it
    for i in np.flatnonzero(~keep):
        earlier = pts[:i][keep[:i]]
        assert float(np.linalg.norm(earlier - pts[i], axis=1).min()) < 0.2


# sha256 of the net's bytes; the certificates of k = 3 blocks rest on the
# step-0.25 one, and the k = 4 block tests use that one as an oracle
NET_DIGESTS = {
    (3, 0.25): ((542, 3), "605fb56d3a49b552f0482a5c44cbe0a707d5e80b1cfef01546596e8c5f6d2aa3"),
    (3, 0.4): ((215, 3), "3bdc231e66c12a3a5e7914da6f2ceead7149ebd4b4bb028443ea5005bdecde6b"),
    (4, 0.4): ((1830, 4), "d606b80fd6b410244853c5ee5dff628fac66a31290d05f52fc71b5a2940f96ed"),
    (4, 0.25): ((7463, 4), "10fd405f72a558d8c17f34a6f2b325e74170e7234aa74b554e06087438f6a22c"),
}


@pytest.mark.parametrize("k, delta", sorted(NET_DIGESTS))
def test_shell_nets_are_pinned(k, delta):
    shape, digest = NET_DIGESTS[(k, delta)]
    net = sphere_net(k, delta)
    assert net.shape == shape
    assert hashlib.sha256(net.tobytes()).hexdigest() == digest


def greedy_pack_reference(points, min_dist):
    """The plain greedy loop: each candidate against every point kept so far.

    Squared distances are summed over the axes from left to right; numpy's
    own row sum adds in another order from 8 axes on.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    keep = np.zeros(points.shape[0], dtype=np.bool_)
    kept = np.empty_like(points)
    m = 0
    md2 = float(min_dist) ** 2
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


def _pack_cases():
    rng = np.random.default_rng(11)
    sphere = rng.standard_normal((700, 3))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    yield "unordered sphere", sphere, 0.2
    yield "unordered wide", rng.standard_normal((400, 4)) * 10.0, 3.0
    yield "unordered k=9", rng.standard_normal((300, 9)), 2.5
    dup = np.repeat(rng.integers(-2, 3, (90, 2)).astype(np.float64), 3, axis=0)
    yield "duplicates", dup[rng.permutation(dup.shape[0])], 1.0
    yield "duplicates, zero distance", dup, 0.0
    # neighbours exactly min_dist apart are not within it
    g = np.stack(np.meshgrid(*[np.arange(9) * 0.5] * 2, indexing="ij"), -1)
    yield "grid tie", g.reshape(-1, 2), 0.5
    h = 0.1
    g = np.stack(np.meshgrid(*[np.arange(-5, 6) * h] * 3, indexing="ij"), -1)
    yield "inexact grid", g.reshape(-1, 3), h
    for n in (0, 1, 10, 63, 64, 65, 200):
        yield f"n={n}", sphere[:n], 0.3
    # the first coordinate rises slab by slab, so the window skips most kept
    # points; reversed, it falls, and the window must never skip
    shell = _shell_grid(3, 0.25)
    yield "shell grid k=3", shell, 0.125
    yield "shell grid k=3 reversed", shell[::-1], 0.125
    # one ulp of 1e8 is 1.49e-8: kept points one ulp behind a block on the
    # first axis can cover, two ulps behind cannot
    ulp = float(np.spacing(1e8))
    far = np.column_stack((1e8 + ulp * np.sort(rng.integers(0, 160, 600)),
                           ulp * rng.integers(0, 3, 600)))
    yield "far offset", far, 1.5e-8


@pytest.mark.parametrize("name, points, min_dist", list(_pack_cases()))
def test_greedy_pack_matches_the_plain_loop(name, points, min_dist):
    keep = greedy_pack(points, min_dist)
    assert keep.shape == (points.shape[0],)
    assert np.array_equal(keep, greedy_pack_reference(points, min_dist))


_coord = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    st.integers(-16, 16).map(lambda i: i / 8.0),
)


@settings(max_examples=100, deadline=None)
@given(
    points=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 150), st.integers(1, 4)),
        elements=_coord,
    ),
    min_dist=st.one_of(
        st.floats(0.0, 4.0, allow_nan=False),
        st.integers(0, 16).map(lambda i: i / 8.0),
    ),
)
def test_greedy_pack_property_matches_the_plain_loop(points, min_dist):
    assert np.array_equal(
        greedy_pack(points, min_dist), greedy_pack_reference(points, min_dist)
    )


def test_greedy_pack_window_check_catches_a_wide_skip():
    # a window that skips one kept point more than the bisection allows
    # must change the mask on some case above
    source = textwrap.dedent(inspect.getsource(_kernels.greedy_pack))
    old = "key=lambda t: b0 - t <= md)"
    assert old in source
    namespace = dict(vars(_kernels))
    exec(source.replace(old, old + " + 1"), namespace)
    mutant = namespace["greedy_pack"]
    assert any(
        not np.array_equal(mutant(points, md), greedy_pack_reference(points, md))
        for _, points, md in _pack_cases()
    )


def test_greedy_pack_rejects_bad_min_dist():
    pts = np.random.default_rng(3).standard_normal((300, 3))
    for bad in (np.nan, np.inf, -np.inf, -0.5):
        with pytest.raises(ValueError, match="min_dist"):
            greedy_pack(pts, bad)


def test_greedy_pack_rejects_non_finite_points():
    for bad in (np.nan, np.inf):
        pts = np.zeros((70, 2))
        pts[66, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            greedy_pack(pts, 0.1)


def test_greedy_pack_rejects_points_without_axes():
    for shape in ((5,), (5, 0), (2, 3, 2)):
        with pytest.raises(ValueError, match="k >= 1"):
            greedy_pack(np.zeros(shape), 0.1)
