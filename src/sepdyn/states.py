"""Complex state primitives for multipartite pure states.

Kets, component tuples and full tensor-product states, plus the Kronecker
product and the component split that move between them. The flattening
convention throughout the package is row-major with subsystem 0 as the
slowest-varying index, so state and operator tensor products compose via the
ordinary Kronecker product. Reduced density matrices live in ``analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-12


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


@dataclass(frozen=True)
class ComponentState:
    """An ordered tuple of subsystem kets, one per tensor factor, and their dims."""

    parts: tuple[Ket, ...]
    dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        parts = tuple(
            p if isinstance(p, Ket) else Ket(np.asarray(p)) for p in self.parts
        )
        if len(parts) < 2:
            raise ValueError("a component state needs at least two factors")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "dims", tuple(p.dim for p in parts))

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


def split_components(x: np.ndarray, dims) -> list[np.ndarray]:
    """Views of the subsystem blocks a_1, ..., a_N of stacked components.

    ``x`` holds concat(a_1, ..., a_N) on its last axis, so one stacked vector
    and a (T, sum(dims)) stack of them split alike; ``np.concatenate`` undoes
    the split.
    """
    parts = []
    offset = 0
    for d in dims:
        parts.append(x[..., offset : offset + d])
        offset += d
    return parts


def tensor_product_rows(components: np.ndarray, dims) -> np.ndarray:
    """Row-wise ``tensor_product`` of stacked components, (T, sum(dims)) -> (T, prod(dims))."""
    return kron(split_components(components, dims))


def inner(x, y) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    xv = x.amplitudes if hasattr(x, "amplitudes") else np.asarray(x, dtype=complex)
    yv = y.amplitudes if hasattr(y, "amplitudes") else np.asarray(y, dtype=complex)
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape} vs {yv.shape}")
    return complex(np.vdot(xv, yv))


def nuclear_norm(matrix) -> float:
    """Sum of singular values."""
    mat = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(mat, compute_uv=False).sum())
