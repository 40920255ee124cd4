"""Sphere nets: unit norms, covering radius, packing separation."""

import numpy as np
import pytest

from cylwidth._kernels import greedy_pack
from cylwidth.nets import sphere_net


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
