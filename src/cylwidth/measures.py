"""Probability measures on Grassmannians of k-dimensional subspaces.

Every measure object exposes ``d`` (ambient dimension), ``k`` (subspace
dimension), ``kind`` and a ``sample(seed_or_rng)`` method returning a
:class:`~cylwidth.vectors.SubspaceBasis`.  Identical seeds give bitwise
identical draws.

The central construction is the dyadic alternative measure: for each scale
``j`` in a window ``J`` it fixes one ``k``-dimensional, coordinate-sum-free,
delocalized subspace ``W_j`` living on the first ``2^j`` coordinates, and a
draw picks ``j`` uniformly from ``J``.  Delocalization means the supremum
of the tail-weighted norm (with respect to the block dimension) over unit
vectors of the block subspace stays below a certification threshold; the
certificate bounds every top-``s`` coordinate mass of unit vectors by
``certificate^2 / ln(2 * 2^j / s)^4``, and it transfers verbatim to the
complexified subspace.

Combinators follow: direct sums over mutually orthogonal blocks, uniform
coordinate selections from an orthonormal frame, and the pushforward of a
product measure under ``(x, lam) -> sum_j lam_j g_j x`` for unitaries
``g_j`` with mutually orthogonal images of the first factor.  A numerical
averaging argument splits a representation into invariant blocks when a
group is fully enumerable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationFailedError,
    EmptyDyadicIndexError,
    NonOrthogonalImagesError,
    RankDeficientError,
)
from .groups import GroupPresentation, enumerate_group_elements
from .tnorm import t_norm_batch, t_norm_subspace_bound
from .vectors import SubspaceBasis, orthonormalize

__all__ = [
    "UniformMeasure",
    "AtomMeasure",
    "DyadicAltMeasure",
    "DirectSumMeasure",
    "CoordinateSelectionMeasure",
    "TensorProductMeasure",
    "sample_uniform",
    "build_delocalized_subspace",
    "dyadic_index_set",
    "desk_scale_j_min",
    "dyadic_alt_measure",
    "direct_sum_measure",
    "coordinate_selection_measure",
    "tensor_product_measure",
    "invariant_decomposition",
]

DELOC_THRESHOLD = 40.0
DELOC_ATTEMPTS = 8
DELOC_NET_STEP = 0.25
DELOC_MC_SAMPLES = 10_000
CROSS_BLOCK_TOL = 1e-8
DECOMPOSITION_MAX_GROUP = 10_000
DECOMPOSITION_GAP_TOL = 1e-6
DECOMPOSITION_INVARIANCE_TOL = 1e-6
DECOMPOSITION_MAX_ROUNDS = 10


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_uniform(k: int, d: int, field: str = "real", seed=None) -> SubspaceBasis:
    """Rotation-invariant random subspace from orthonormalized Gaussians."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    rng = _rng(seed)
    g = rng.standard_normal((d, k))
    if field == "complex":
        g = g + 1j * rng.standard_normal((d, k))
    return orthonormalize(g)


@dataclass(frozen=True)
class UniformMeasure:
    k: int
    d: int
    field: str = "real"
    kind = "uniform"

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise ValueError(f"need 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")

    def sample(self, seed=None) -> SubspaceBasis:
        return sample_uniform(self.k, self.d, self.field, seed)


@dataclass(frozen=True)
class AtomMeasure:
    """Point mass at one fixed subspace."""

    basis: SubspaceBasis
    kind = "atom"

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def field(self) -> str:
        return self.basis.field

    def sample(self, seed=None) -> SubspaceBasis:
        return self.basis


def build_delocalized_subspace(k: int, d: int, seed=None):
    """Random sum-free subspace whose unit vectors have certified small norm.

    Draws a Gaussian ``d x k`` matrix, subtracts column means (placing the
    span inside the hyperplane orthogonal to the all-ones vector) and
    orthonormalizes.  The supremum of the tail-weighted norm over unit
    vectors of the span is then bounded: for ``k <= 4`` by an exact
    deterministic ``DELOC_NET_STEP``-net certificate, otherwise by twice the
    maximum over ``DELOC_MC_SAMPLES`` random unit vectors.  Draws are
    retried until the bound is at most ``DELOC_THRESHOLD``.

    Returns ``(basis, certificate)``.  Raises
    :class:`CertificationFailedError` after ``DELOC_ATTEMPTS`` failures.  The
    advertised constant-certificate regime is ``k <= d/4``; the function
    itself only requires ``k <= d - 1`` so that small dyadic blocks remain
    feasible.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1 for sum-free spans, got k={k}, d={d}")
    rng = _rng(seed)
    last = None
    for _ in range(DELOC_ATTEMPTS):
        g = rng.standard_normal((d, k))
        g = g - g.mean(axis=0, keepdims=True)
        try:
            basis = orthonormalize(g, sum_zero=True)
        except RankDeficientError:  # pragma: no cover - measure-zero event
            continue
        if k <= 4:
            cert = t_norm_subspace_bound(basis, DELOC_NET_STEP)
        else:
            coef = rng.standard_normal((DELOC_MC_SAMPLES, k))
            coef /= np.linalg.norm(coef, axis=1)[:, None]
            cert = 2.0 * float(t_norm_batch(coef @ basis.columns.T).max())
        last = cert
        if cert <= DELOC_THRESHOLD:
            return basis, float(cert)
    raise CertificationFailedError(
        f"no draw certified below {DELOC_THRESHOLD} in {DELOC_ATTEMPTS} "
        f"attempts (last certificate {last})"
    )


def desk_scale_j_min(k: int, delta: int = 1) -> int:
    """Small-dimension replacement for the asymptotic lower scale index."""
    if k < 1:
        raise ValueError("k must be positive")
    return math.ceil(math.log2(2 * k)) + delta


def dyadic_index_set(k: int, d: int, j_min_override=None) -> tuple:
    """Scale window ``J = {j_min, ..., floor(log2 d)}``.

    Without an override the lower end is ``ceil(log2(2k * ln(d)^4))``,
    which is empty at desk scale for most ``(k, d)``; pass a
    ``j_min_override`` (see :func:`desk_scale_j_min`) to work below the
    asymptotic regime.  Raises :class:`EmptyDyadicIndexError` when the
    window contains no index.
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    j_max = math.floor(math.log2(d))
    if j_min_override is None:
        j_min = math.ceil(math.log2(2.0 * k * math.log(d) ** 4))
    else:
        j_min = int(j_min_override)
    if j_min > j_max:
        raise EmptyDyadicIndexError(
            f"scale window empty: j_min={j_min} exceeds floor(log2 d)={j_max}"
            + ("" if j_min_override is not None else "; pass a j_min override")
        )
    return tuple(range(j_min, j_max + 1))


@dataclass(frozen=True)
class DyadicAltMeasure:
    """Uniform pick among per-scale delocalized block subspaces."""

    k: int
    d: int
    j_values: tuple
    block_bases: tuple
    certificates: tuple
    ambient_bases: tuple
    kind = "dyadic_alt"
    field = "complex"

    def sample(self, seed=None) -> SubspaceBasis:
        rng = _rng(seed)
        i = int(rng.integers(len(self.j_values)))
        return self.ambient_bases[i]

    def certificate_for(self, j: int) -> float:
        return self.certificates[self.j_values.index(j)]

    def block_basis_for(self, j: int) -> SubspaceBasis:
        return self.block_bases[self.j_values.index(j)]


def dyadic_alt_measure(k: int, d: int, j_min_override=None, seed=0) -> DyadicAltMeasure:
    """Build the dyadic alternative measure on complexified subspaces.

    For every scale ``j`` in the window a sum-free delocalized subspace is
    built on the first ``2^j`` coordinates with the derived stream
    ``(seed, j)``, zero-padded to dimension ``d`` and complexified.  The
    tail-weighted norm in the certificate refers to the block dimension
    ``2^j``.  Each block is certified by :func:`build_delocalized_subspace`
    (at most ``DELOC_THRESHOLD`` within ``DELOC_ATTEMPTS`` draws), which
    raises :class:`CertificationFailedError` otherwise.
    """
    j_values = dyadic_index_set(k, d, j_min_override)
    if 2 ** j_values[0] - 1 < k:
        raise ValueError(
            f"k={k} does not fit in the smallest block 2^{j_values[0]}; "
            "raise the scale override"
        )
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    blocks = []
    certs = []
    ambients = []
    for j in j_values:
        m = 2**j
        basis, cert = build_delocalized_subspace(k, m, seed=[*base, j])
        blocks.append(basis)
        certs.append(cert)
        cols = np.zeros((d, k), dtype=np.complex128)
        cols[:m] = basis.columns
        ambients.append(SubspaceBasis(cols, sum_zero=True))
    return DyadicAltMeasure(
        k=k,
        d=d,
        j_values=j_values,
        block_bases=tuple(blocks),
        certificates=tuple(certs),
        ambient_bases=tuple(ambients),
    )


@dataclass(frozen=True)
class DirectSumMeasure:
    """Independent component draws inside orthogonal blocks, then a uniform
    k-dimensional subspace of their direct sum."""

    components: tuple
    k: int
    kind = "direct_sum"

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        d = self.components[0][1].d
        total = 0
        for measure, block in self.components:
            if block.d != d:
                raise ValueError("blocks must share the ambient dimension")
            if measure.d != block.k:
                raise ValueError(
                    "component measure dimension must equal its block size"
                )
            total += measure.k
        for i, (_, bi) in enumerate(self.components):
            for _, bj in self.components[i + 1 :]:
                cross = float(np.max(np.abs(bi.columns.conj().T @ bj.columns)))
                if cross > CROSS_BLOCK_TOL:
                    raise ValueError(
                        f"blocks are not mutually orthogonal (overlap {cross:.3e})"
                    )
        if not 1 <= self.k <= total:
            raise ValueError(
                f"need 1 <= k <= {total} (sum of component dimensions)"
            )

    @property
    def d(self) -> int:
        return self.components[0][1].d

    @property
    def field(self) -> str:
        fields = {m.field for m, _ in self.components}
        fields.update(b.field for _, b in self.components)
        return "complex" if "complex" in fields else "real"

    def sample(self, seed=None) -> SubspaceBasis:
        rng = _rng(seed)
        parts = []
        for measure, block in self.components:
            inner = measure.sample(rng)
            parts.append(block.columns @ inner.columns)
        stacked = np.hstack(parts)
        total = stacked.shape[1]
        coeff = sample_uniform(self.k, total, self.field, rng)
        return SubspaceBasis(stacked @ coeff.columns)


def direct_sum_measure(components, k: int) -> DirectSumMeasure:
    """``components`` is a list of ``(measure, block_basis)`` pairs."""
    return DirectSumMeasure(components=tuple(components), k=k)


@dataclass(frozen=True)
class CoordinateSelectionMeasure:
    """Uniform k-subset of a fixed orthonormal frame."""

    frame: SubspaceBasis
    k: int
    kind = "coordinate_selection"

    def __post_init__(self):
        if not 1 <= self.k <= self.frame.k:
            raise ValueError(
                f"need 1 <= k <= {self.frame.k} (frame size), got {self.k}"
            )

    @property
    def d(self) -> int:
        return self.frame.d

    @property
    def field(self) -> str:
        return self.frame.field

    def sample(self, seed=None) -> SubspaceBasis:
        rng = _rng(seed)
        idx = np.sort(rng.choice(self.frame.k, size=self.k, replace=False))
        return SubspaceBasis(self.frame.columns[:, idx])


def coordinate_selection_measure(frame, k: int) -> CoordinateSelectionMeasure:
    """``frame`` is either a SubspaceBasis or a (d, l) column array."""
    if not isinstance(frame, SubspaceBasis):
        frame = SubspaceBasis(frame)
    return CoordinateSelectionMeasure(frame=frame, k=k)


@dataclass(frozen=True)
class TensorProductMeasure:
    """Pushforward of a product measure under the bilinear mixing map.

    A draw takes a basis ``x_1..x_{k1}`` from the first factor (written in
    the coordinates of ``v1_basis``), a basis ``lam_1..lam_{k2}`` from the
    second factor, and returns the span of ``sum_m lam_j[m] g_m x_i``.
    Orthonormality of that spanning set is exactly the mutual orthogonality
    of the images ``g_m V_1``, which is validated at construction.
    """

    mu1: object
    mu2: object
    gammas: tuple
    v1_basis: SubspaceBasis
    kind = "tensor_product"

    def __post_init__(self):
        gammas = tuple(np.asarray(g) for g in self.gammas)
        if not gammas:
            raise ValueError("need at least one mixing unitary")
        d = gammas[0].shape[0]
        images = []
        for g in gammas:
            if g.shape != (d, d):
                raise ValueError("mixing unitaries must be square and equal size")
            if not np.isfinite(g).all():
                raise ValueError("mixing matrix entries must be finite")
            err = float(np.max(np.abs(g @ g.conj().T - np.eye(d))))
            if err > 1e-9:
                raise ValueError(f"mixing matrix not unitary (deviation {err:.3e})")
            images.append(g @ self.v1_basis.columns)
        if self.v1_basis.d != d:
            raise ValueError("v1 basis must live in the mixing dimension")
        if self.mu1.d != self.v1_basis.k:
            raise ValueError(
                "first factor must be a measure in the v1 coordinate dimension"
            )
        if self.mu2.d != len(gammas):
            raise ValueError(
                "second factor dimension must equal the number of unitaries"
            )
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                cross = float(
                    np.max(np.abs(images[i].conj().T @ images[j]))
                )
                if cross > CROSS_BLOCK_TOL:
                    raise NonOrthogonalImagesError(
                        f"images of V1 under unitaries {i} and {j} overlap "
                        f"({cross:.3e})"
                    )
        object.__setattr__(self, "gammas", gammas)

    @property
    def d(self) -> int:
        return self.gammas[0].shape[0]

    @property
    def k(self) -> int:
        return self.mu1.k * self.mu2.k

    @property
    def field(self) -> str:
        fields = {self.mu1.field, self.mu2.field, self.v1_basis.field}
        if "complex" in fields or any(np.iscomplexobj(g) for g in self.gammas):
            return "complex"
        return "real"

    def sample(self, seed=None) -> SubspaceBasis:
        rng = _rng(seed)
        x = self.mu1.sample(rng).columns
        lam = self.mu2.sample(rng).columns
        amb = self.v1_basis.columns @ x
        stack = np.stack([g @ amb for g in self.gammas])  # (d1, d, k1)
        k1 = x.shape[1]
        k2 = lam.shape[1]
        dtype = np.result_type(stack.dtype, lam.dtype)
        cols = np.empty((self.d, k1 * k2), dtype=dtype)
        for j in range(k2):
            mixed = np.tensordot(lam[:, j], stack, axes=(0, 0))  # (d, k1)
            for i in range(k1):
                cols[:, i * k2 + j] = mixed[:, i]
        return SubspaceBasis(cols)


def tensor_product_measure(mu1, mu2, gammas, v1_basis) -> TensorProductMeasure:
    if not isinstance(v1_basis, SubspaceBasis):
        v1_basis = SubspaceBasis(v1_basis)
    return TensorProductMeasure(
        mu1=mu1, mu2=mu2, gammas=tuple(gammas), v1_basis=v1_basis
    )


def invariant_decomposition(group: GroupPresentation, seed: int = 0) -> list:
    """Split the representation into invariant blocks by averaging.

    Conjugates of a random Hermitian matrix are averaged over the whole
    group, which yields an operator commuting with every element; clustered
    eigenspaces (gap above ``DECOMPOSITION_GAP_TOL``) of that operator are
    invariant subspaces.  Each block is re-split with a fresh Hermitian draw
    until no block splits further or ``DECOMPOSITION_MAX_ROUNDS`` is
    reached, and invariance of every block under every generator is
    verified to ``DECOMPOSITION_INVARIANCE_TOL``.  The group may have at
    most ``DECOMPOSITION_MAX_GROUP`` elements.
    """
    elements = enumerate_group_elements(group, DECOMPOSITION_MAX_GROUP)
    d = group.d
    complex_field = group.field == "complex"
    rng = _rng(seed)
    eye = np.eye(d, dtype=np.complex128 if complex_field else np.float64)

    def split(basis_cols: np.ndarray):
        m = basis_cols.shape[1]
        if m == 1:
            return [basis_cols]
        a = rng.standard_normal((m, m))
        if complex_field:
            a = a + 1j * rng.standard_normal((m, m))
        h = (a + a.conj().T) / 2.0
        avg = np.zeros((m, m), dtype=np.complex128 if complex_field else np.float64)
        for g in elements:
            gv = basis_cols.conj().T @ g @ basis_cols
            avg += gv @ h @ gv.conj().T
        avg /= len(elements)
        avg = (avg + avg.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(avg)
        pieces = []
        start = 0
        for i in range(1, m + 1):
            if i == m or vals[i] - vals[i - 1] > DECOMPOSITION_GAP_TOL:
                pieces.append(basis_cols @ vecs[:, start:i])
                start = i
        return pieces

    blocks = [eye]
    for _ in range(DECOMPOSITION_MAX_ROUNDS):
        new_blocks = []
        changed = False
        for b in blocks:
            pieces = split(b)
            if len(pieces) > 1:
                changed = True
            new_blocks.extend(pieces)
        blocks = new_blocks
        if not changed:
            break

    out = []
    for cols in blocks:
        basis = orthonormalize(cols)
        proj = basis.projector()
        for g in group.generators:
            leak = float(np.linalg.norm((g @ proj) - proj @ (g @ proj), ord=2))
            if leak > DECOMPOSITION_INVARIANCE_TOL:
                raise RuntimeError(
                    f"block of dimension {basis.k} failed invariance "
                    f"check (leak {leak:.3e})"
                )
        out.append(basis)
    return out
