"""The numpy behaviour that the stacked kernels rely on.

``_kernels.altmax_best`` advances the ascents of many starts at once, and
``groups._closure`` applies every generator to every point at once.  Each
promises the bits that one product at a time gives.  They rely on numpy's
matmul calling BLAS gemv or dot once per row for stacked matrix-vector
shapes, (N, d, k) @ (N, k, 1), and stacked row-column shapes,
(N, 1, d) @ (N, d, 1), so that each row of a stacked product has the bits
of its lone product.  pyproject allows any numpy >= 1.25; on one whose
stacked products round another way these tests fail, rather than the
ascent drifting by ulps from the widths it has always reported.
"""

import itertools

import numpy as np
import pytest

import cylwidth._kernels as kernels

DIMS = (3, 4, 7, 8, 16, 33, 100, 257, 1024, 4096)


def _draw(rng, shape, field):
    x = rng.standard_normal(shape)
    if field == "complex":
        x = x + 1j * rng.standard_normal(shape)
    return x


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_matvecs_have_the_bits_of_lone_matvecs(field):
    rng = np.random.default_rng(71)
    for d, k in itertools.product(DIMS, (1, 2, 5)):
        a = _draw(rng, (4, d, k), field)
        c = _draw(rng, (4, k), field)
        x = _draw(rng, (4, d), field)
        stacked = (a @ c[:, :, None])[:, :, 0]
        # one matrix broadcast over the rows, as for the starts of one frame
        broadcast = (a[:1] @ c[:, :, None])[:, :, 0]
        # the conjugate transpose, a strided view of a conjugated copy
        projected = (a.conj().swapaxes(1, 2) @ x[:, :, None])[:, :, 0]
        for i in range(4):
            assert stacked[i].tobytes() == (a[i] @ c[i]).tobytes(), (d, k, i)
            assert broadcast[i].tobytes() == (a[0] @ c[i]).tobytes(), (d, k, i)
            assert projected[i].tobytes() == (a[i].conj().T @ x[i]).tobytes(), (d, k, i)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_dots_have_the_bits_of_lone_dots_and_norms(field):
    rng = np.random.default_rng(72)
    for d in DIMS:
        x = _draw(rng, (4, d), field)
        v = np.abs(rng.standard_normal(d))
        m = np.abs(x)
        objectives = (v @ m[:, :, None])[:, 0]
        # np.linalg.norm of a complex vector dots its strided .real and
        # .imag views, which the kernel's row norms dot as stacked views
        norms = kernels._row_norms(x)
        for i in range(4):
            assert objectives[i].tobytes() == np.float64(v @ m[i]).tobytes(), (d, i)
            assert norms[i].tobytes() == np.linalg.norm(x[i]).tobytes(), (d, i)


def test_broadcast_matvecs_have_the_bits_of_lone_matvecs():
    # groups._closure's product: every generator on every point, one
    # matrix-vector product per pair
    rng = np.random.default_rng(73)
    for d, field in itertools.product((3, 6, 17, 64), ("real", "complex")):
        gens = rng.standard_normal((3, d, d))
        points = _draw(rng, (5, d), field)
        products = np.matmul(gens[None], points[:, None, :, None])[..., 0]
        for p, g in itertools.product(range(5), range(3)):
            assert products[p, g].tobytes() == (gens[g] @ points[p]).tobytes(), (d, p, g)
