"""Sphere nets: unit norms, covering radius, packing separation."""

import hashlib

import numpy as np
import pytest

from cylwidth._kernels import greedy_pack
from cylwidth.nets import _shell_grid, sphere_net


def sampled_covering_radius(net, k, trials, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, k))
    x /= np.linalg.norm(x, axis=1)[:, None]
    d2 = ((x[:, None, :] - net[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min(axis=1)).max())


def test_circle_net_size_and_cover():
    delta = 0.25
    net = sphere_net(2, delta)
    n = max(int(np.ceil(np.pi / (2.0 * np.arcsin(delta / 2.0)))), 3)
    assert net.shape == (n, 2)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)
    assert sampled_covering_radius(net, 2, 4000, 0) <= delta


def test_shell_nets_cover_and_separate():
    delta = 0.4
    net = sphere_net(3, delta)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)
    assert sampled_covering_radius(net, 3, 3000, 3) <= delta
    # greedy thinning keeps points delta/2 apart
    gram = net @ net.T
    np.fill_diagonal(gram, -1.0)
    min_dist = float(np.sqrt(max(2.0 - 2.0 * gram.max(), 0.0)))
    assert min_dist >= delta / 2.0 - 1e-9


def test_rejects_bad_arguments():
    # only the k = 2 and k = 3 certificates walk a net
    for k in (1, 4, 5, 3.0, True):
        with pytest.raises(ValueError):
            sphere_net(k, 0.3)
    with pytest.raises(ValueError):
        sphere_net(2, 0.6)
    with pytest.raises(ValueError):
        sphere_net(2, 0.0)


# sha256 of the net's bytes; the certificates of k = 3 blocks rest on the
# step-0.25 one
NET_DIGESTS = {
    (3, 0.25): ((542, 3), "605fb56d3a49b552f0482a5c44cbe0a707d5e80b1cfef01546596e8c5f6d2aa3"),
    (3, 0.4): ((215, 3), "3bdc231e66c12a3a5e7914da6f2ceead7149ebd4b4bb028443ea5005bdecde6b"),
}


@pytest.mark.parametrize("k, delta", sorted(NET_DIGESTS))
def test_shell_nets_are_pinned(k, delta):
    shape, digest = NET_DIGESTS[(k, delta)]
    net = sphere_net(k, delta)
    assert net.shape == shape
    assert hashlib.sha256(net.tobytes()).hexdigest() == digest


def _sq_dists(points, p):
    """Squared distances from ``p`` to each row, summed over the axes from
    left to right as the packer sums them."""
    d2 = (points[:, 0] - p[0]) ** 2
    for j in range(1, points.shape[1]):
        d2 += (points[:, j] - p[j]) ** 2
    return d2


def assert_greedy_and_maximal(points, min_dist, keep):
    """The plain greedy loop's mask is the only one whose kept points are
    pairwise at least ``min_dist`` apart and whose every dropped point lies
    within ``min_dist`` of a point kept before it."""
    assert keep.dtype == np.bool_ and keep.shape == (points.shape[0],)
    md2 = float(min_dist) ** 2
    kept = points[keep]
    for i in range(1, kept.shape[0]):
        assert float(_sq_dists(kept[:i], kept[i]).min()) >= md2
    for i in np.flatnonzero(~keep):
        earlier = points[:i][keep[:i]]
        assert earlier.shape[0] and float(_sq_dists(earlier, points[i]).min()) < md2


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
    shell = _shell_grid(0.25)
    yield "shell grid k=3", shell, 0.125
    yield "shell grid k=3 reversed", shell[::-1], 0.125
    # one ulp of 1e8 is 1.49e-8, just below min_dist
    ulp = float(np.spacing(1e8))
    far = np.column_stack((1e8 + ulp * np.sort(rng.integers(0, 160, 600)),
                           ulp * rng.integers(0, 3, 600)))
    yield "far offset", far, 1.5e-8


@pytest.mark.parametrize("name, points, min_dist", list(_pack_cases()))
def test_greedy_pack_matches_the_plain_loop(name, points, min_dist):
    assert_greedy_and_maximal(points, min_dist, greedy_pack(points, min_dist))


def test_greedy_pack_is_greedy_and_maximal():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    keep = greedy_pack(pts, 0.2)
    assert keep[0]
    assert_greedy_and_maximal(pts, 0.2, keep)
    # grid neighbours exactly min_dist apart are not within it
    grid = np.stack(np.meshgrid(*[np.arange(9) * 0.5] * 2, indexing="ij"), -1)
    assert greedy_pack(grid.reshape(-1, 2), 0.5).sum() == 81


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
