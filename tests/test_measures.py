"""Subspace measures: uniform draws, delocalized blocks and the dyadic measure."""

import hashlib

import numpy as np
import pytest

from cylwidth import cli, measures, nets, tnorm
from cylwidth.errors import CertificationFailedError, EmptyDyadicIndexError
from cylwidth.measures import (
    build_delocalized_subspace,
    desk_scale_j_min,
    dyadic_alt_measure,
    dyadic_index_set,
    sample_uniform,
)
from cylwidth.tnorm import t_norm_batch, t_norm_subspace_bound


def test_sample_uniform_orthonormal_and_deterministic():
    b1 = sample_uniform(3, 10, "complex", seed=4)
    b2 = sample_uniform(3, 10, "complex", seed=4)
    assert np.array_equal(b1.columns, b2.columns)
    assert b1.field == "complex"
    assert np.allclose(b1.columns.conj().T @ b1.columns, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        sample_uniform(5, 4)
    with pytest.raises(ValueError):
        sample_uniform(2, 4, "quaternion")


NON_INTEGER_SIZES = (2.5, 8.0, True, float("nan"))


@pytest.mark.parametrize("bad", NON_INTEGER_SIZES, ids=repr)
def test_sample_uniform_rejects_non_integer_sizes(bad):
    # a float d used to reach the Gaussian draw and raise TypeError
    for k, d in ((bad, 8), (2, bad)):
        with pytest.raises(ValueError, match="must be an integer"):
            sample_uniform(k, d)


@pytest.mark.parametrize("bad", NON_INTEGER_SIZES, ids=repr)
def test_delocalized_subspace_rejects_non_integer_sizes(bad):
    for k, d in ((bad, 8), (2, bad)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_delocalized_subspace(k, d, seed=0)


def test_delocalized_subspace_properties():
    basis, cert = build_delocalized_subspace(2, 32, seed=6)
    assert basis.sum_zero and (basis.d, basis.k) == (32, 2)
    assert float(np.max(np.abs(basis.columns.sum(axis=0)))) < 1e-9
    assert cert <= 40.0
    rng = np.random.default_rng(7)
    coef = rng.standard_normal((400, 2))
    coef /= np.linalg.norm(coef, axis=1)[:, None]
    assert float(t_norm_batch(coef @ basis.columns.T).max()) <= cert + 1e-9


def test_delocalized_subspace_profile_path():
    # k = 1 and k >= 4 are certified by the row profile, a proven bound
    for k in (4, 6):
        basis, cert = build_delocalized_subspace(k, 64, seed=8)
        assert (basis.d, basis.k) == (64, k)
        assert cert == t_norm_subspace_bound(basis) <= 40.0
        coef = np.random.default_rng(9).standard_normal((2000, k))
        coef /= np.linalg.norm(coef, axis=1)[:, None]
        assert float(t_norm_batch(coef @ basis.columns.T).max()) <= cert


def test_k4_certification_builds_no_sphere_net(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a k = 4 certificate built a sphere net")

    for module in (nets, tnorm):
        monkeypatch.setattr(module, "sphere_net", refuse)
    basis, cert = build_delocalized_subspace(4, 64, seed=0)
    assert basis.k == 4 and cert <= 40.0
    argv = ["scaling", "--seed", "1", "--d", "16", "--k", "4", "--trials", "2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


# sha256 of the complexified ambient columns of dyadic_alt_measure(4, d) in
# the desk window, seeds [7, 11, d, 4], and the exact repr of each block's
# row-profile certificate
K4_BLOCK_DIGESTS = {
    2**10: "16d140ac9006066776a1a03adc3288f892be644916bad6ded9f3e445f84f5a6c",
    2**12: "15ebb6ce1326012acb97db3a5ce8a2a9649a3007fd326af9a1ff50487728f549",
}
K4_BLOCK_CERTIFICATES = {
    2**10: ("7.3284230393933765", "8.782764026640145", "10.343905092639053",
            "10.76430512308311", "10.588308459923976", "10.802592298737517",
            "11.161920757474242"),
    2**12: ("9.783229601315675", "9.658411921603479", "9.474908346786098",
            "9.895108407678347", "11.27418263815564", "10.903256861837333",
            "11.248288675631429", "11.111031741883247", "11.323154753936832"),
}


@pytest.mark.parametrize("d", sorted(K4_BLOCK_DIGESTS))
def test_k4_blocks_and_certificates_are_pinned(d):
    mu = dyadic_alt_measure(4, d, j_min_override=desk_scale_j_min(4), seed=[7, 11, d, 4])
    digest = hashlib.sha256()
    for ambient in mu.ambient_bases:
        digest.update(ambient.columns.tobytes())
    assert digest.hexdigest() == K4_BLOCK_DIGESTS[d]
    assert tuple(map(repr, mu.certificates)) == K4_BLOCK_CERTIFICATES[d]


def test_delocalized_threshold_failure(monkeypatch):
    monkeypatch.setattr(measures, "DELOC_ATTEMPTS", 2)
    monkeypatch.setattr(measures, "DELOC_THRESHOLD", 0.1)
    with pytest.raises(CertificationFailedError, match="below 0.1 in 2 attempts"):
        build_delocalized_subspace(2, 32, seed=6)
    with pytest.raises(ValueError):
        build_delocalized_subspace(4, 4, seed=0)


def test_scale_window():
    assert desk_scale_j_min(1) == 2
    assert desk_scale_j_min(2, delta=0) == 2
    assert desk_scale_j_min(3, delta=1) == 4
    assert dyadic_index_set(2, 256, j_min_override=2) == tuple(range(2, 9))
    with pytest.raises(EmptyDyadicIndexError):
        dyadic_index_set(1, 4, j_min_override=3)
    # the asymptotic lower end lies above every scale at small dimension
    with pytest.raises(EmptyDyadicIndexError):
        dyadic_index_set(2, 1024)


@pytest.mark.parametrize("override", [2.7, 2.0, float("nan"), True, "2"])
def test_scale_override_must_be_an_integer(override):
    # int() would truncate 2.7 to the window (2, 3, 4) without a word
    with pytest.raises(ValueError, match="j_min_override"):
        dyadic_index_set(1, 16, j_min_override=override)


@pytest.mark.parametrize("k, delta", [
    (1, float("nan")), (1, 1.5), (1, float("inf")), (1, True),
    (float("inf"), 1), (float("nan"), 1), (2.5, 1), (True, 1),
])
def test_desk_scale_j_min_rejects_non_integers(k, delta):
    with pytest.raises(ValueError, match="must be an integer"):
        desk_scale_j_min(k, delta)


@pytest.mark.parametrize("k, d", [
    (1, 16.5), (1, float("inf")), (1, float("nan")), (1, True),
    (1.0, 16), (float("inf"), 16), (True, 16),
])
def test_dyadic_index_set_rejects_non_integers(k, d):
    # 16.5 used to give the window (2, 3, 4), and inf an OverflowError
    with pytest.raises(ValueError, match="must be an integer"):
        dyadic_index_set(k, d, j_min_override=2)


def test_dyadic_measure_structure():
    mu = dyadic_alt_measure(2, 64, j_min_override=2, seed=3)
    assert mu.j_values == (2, 3, 4, 5, 6)
    assert (mu.d, mu.k) == (64, 2)
    for i, j in enumerate(mu.j_values):
        ambient = mu.ambient_bases[i]
        assert ambient.field == "complex"
        if 2**j < 64:
            assert float(np.max(np.abs(ambient.columns[2**j :]))) == 0.0
        # block j is the delocalized subspace of the stream (seed, j)
        block, cert = build_delocalized_subspace(2, 2**j, seed=[3, j])
        assert mu.certificates[i] == cert <= 40.0
        assert np.array_equal(ambient.columns[: 2**j], block.columns)
    assert np.array_equal(mu.sample(11).columns, mu.sample(11).columns)
    seen = {id(mu.sample([5, i])) for i in range(80)}
    assert len(seen) == len(mu.j_values)


def test_dyadic_measure_rejects_undersized_blocks():
    with pytest.raises(ValueError):
        dyadic_alt_measure(4, 64, j_min_override=2, seed=0)
