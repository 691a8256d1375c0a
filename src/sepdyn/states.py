"""Complex state primitives for multipartite pure states.

Kets, component tuples, full tensor-product states and density matrices,
plus the tensor/trace machinery needed to move between them. The flattening
convention throughout the package is row-major with subsystem 0 as the
slowest-varying index, so state and operator tensor products compose via the
ordinary Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("amplitudes must be finite")
    vec = vec.copy()
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class Ket:
    """A single-subsystem pure state as a complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _as_complex_vector(self.amplitudes)
        if vec.size < 2:
            raise ValueError("a ket needs at least two amplitudes")
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(vec)


@dataclass(frozen=True)
class ComponentState:
    """An ordered tuple of subsystem kets, one per tensor factor."""

    parts: tuple[Ket, ...]
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        parts = tuple(
            p if isinstance(p, Ket) else Ket(np.asarray(p)) for p in self.parts
        )
        dims = tuple(int(d) for d in self.dims) if self.dims else tuple(p.dim for p in parts)
        if len(parts) < 2:
            raise ValueError("a component state needs at least two factors")
        if len(dims) != len(parts):
            raise ValueError("dims and parts disagree in length")
        for j, (part, d) in enumerate(zip(parts, dims)):
            if part.dim != d:
                raise ValueError(f"part {j} has dimension {part.dim}, expected {d}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "dims", dims)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def vectors(self) -> list[np.ndarray]:
        return [p.amplitudes for p in self.parts]


@dataclass(frozen=True)
class FullState:
    """A state on the composite space, flattened per the Kronecker convention."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = _as_complex_vector(self.amplitudes)
        dims = tuple(int(d) for d in self.dims)
        if vec.size != prod(dims):
            raise ValueError(
                f"amplitude length {vec.size} does not match subsystem dims {dims}"
            )
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "dims", dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite matrix with a real trace.

    Trace 1 is not enforced: projectors of unnormalized states carry trace
    equal to the squared state norm, which callers may want to inspect.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        if np.min(np.linalg.eigvalsh(mat)) < -PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @classmethod
    def from_state(cls, psi: np.ndarray | Ket | FullState) -> "DensityMatrix":
        vec = psi.amplitudes if hasattr(psi, "amplitudes") else np.asarray(psi, dtype=complex)
        return cls(np.outer(vec, vec.conj()))


def kron(factors) -> np.ndarray:
    """Kronecker product of vectors over their last axis, row by row if stacked.

    One broadcast multiply per factor, which is the same complex product
    ``np.kron`` forms for each entry, so the result matches chained
    ``np.kron`` bit for bit, without its per-call Python overhead.
    """
    out = factors[0]
    for factor in factors[1:]:
        out = out[..., :, None] * factor[..., None, :]
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def tensor_product(state: ComponentState) -> FullState:
    """Flatten a component tuple into the full product-state vector."""
    return FullState(kron(state.vectors()), state.dims)


def tensor_product_rows(components: np.ndarray, dims) -> np.ndarray:
    """Row-wise ``tensor_product`` of stacked components, (T, sum(dims)) -> (T, prod(dims))."""
    bounds = np.cumsum((0,) + tuple(dims))
    return kron([components[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])


def inner(x, y) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    xv = x.amplitudes if hasattr(x, "amplitudes") else np.asarray(x, dtype=complex)
    yv = y.amplitudes if hasattr(y, "amplitudes") else np.asarray(y, dtype=complex)
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape} vs {yv.shape}")
    return complex(np.vdot(xv, yv))


def partial_trace(rho: DensityMatrix, keep: int, dims) -> DensityMatrix:
    """Trace out every subsystem except ``keep`` (0-based index)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} subsystems")
    if rho.dim != prod(dims):
        raise ValueError(f"density matrix dimension {rho.dim} does not match dims {dims}")
    before = prod(dims[:keep])
    after = prod(dims[keep + 1 :])
    d_k = dims[keep]
    grouped = rho.entries.reshape(before, d_k, after, before, d_k, after)
    reduced = np.einsum("ambanb->mn", grouped)
    return DensityMatrix(reduced)


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """Cartesian Bloch coordinates of a qubit density matrix."""
    if rho.dim != 2:
        raise ValueError("bloch_vector requires a 2x2 density matrix")
    m = rho.entries
    x = 2.0 * m[0, 1].real
    y = 2.0 * m[1, 0].imag
    z = (m[0, 0] - m[1, 1]).real
    return (x, y, z)


# Traceless Hermitian generators of SU(3), in the standard order: the three
# symmetric off-diagonal pairs interleaved with their antisymmetric partners
# on (0,1), (0,2), (1,2), then the two diagonal generators.
GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    ],
    dtype=complex,
)
_LAMBDA8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0)
GELL_MANN = np.concatenate([GELL_MANN, _LAMBDA8[None, :, :]], axis=0)
GELL_MANN.setflags(write=False)


def gellmann_vector(rho: DensityMatrix) -> np.ndarray:
    """Generalized Bloch vector tr(rho * G_i) for the eight qutrit generators."""
    if rho.dim != 3:
        raise ValueError("gellmann_vector requires a 3x3 density matrix")
    return np.real(np.einsum("ij,kji->k", rho.entries, GELL_MANN))


def nuclear_norm(matrix) -> float:
    """Sum of singular values."""
    mat = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(mat, compute_uv=False).sum())
