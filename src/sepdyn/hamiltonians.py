"""Hamiltonian constructors: exchange, seeded random and r-party correlators.

Operators are dense complex matrices wrapped in :class:`HermitianOperator`,
which records the subsystem dimensions the operator acts on, enforces
Hermitian symmetry at construction and keeps its eigendecomposition once
computed; ``check_dims`` is the one test that an operator and a state act
on the same subsystems. The three-qutrit correlator takes the number of
coupled parties r, the only coupling the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix on a tensor product of subsystems.

    Two views are computed on first use and kept, read-only: ``spectrum``,
    the eigendecomposition, and ``slot_blocks``, the per-subsystem blocks
    that ``reduced.contract_reduced`` reduces against context states.
    """

    entries: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        side = prod(dims)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("operator is not Hermitian to 1e-12")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dims", dims)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of the matrix, from one ``eigh`` on first use."""
        evals, evecs = np.linalg.eigh(self.entries)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs

    @cached_property
    def slot_blocks(self) -> tuple[np.ndarray, ...]:
        """One block per subsystem k, built on first use.

        Block k is the (dims + dims) tensor with slot k leading, then the
        other slots in order, on both the ket and the bra side, reshaped to
        (d_k m d_k, m) with m = D / d_k: entry ((i, r, j), s) is
        <e_i ⊗ r| H |e_j ⊗ s> for context basis states r and s.
        """
        dims = self.dims
        n = len(dims)
        tensor = self.entries.reshape(dims + dims)
        side = self.entries.shape[0]
        blocks = []
        for k, d in enumerate(dims):
            others = [j for j in range(n) if j != k]
            axes = [k, *others, n + k, *(n + j for j in others)]
            block = tensor.transpose(axes).reshape(d * side, side // d)
            block.setflags(write=False)
            blocks.append(block)
        return tuple(blocks)


def check_dims(H: HermitianOperator, dims: tuple[int, ...]):
    """Raise ValueError unless H acts on subsystems of exactly ``dims``."""
    if H.dims != dims:
        raise ValueError(f"operator dims {H.dims} do not match state dims {dims}")


def swap_hamiltonian(d: int) -> HermitianOperator:
    """Exchange operator on two d-dimensional subsystems: |a,b> -> |b,a>."""
    if d < 2:
        raise ValueError("subsystem dimension must be at least 2")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mat[j * d + i, i * d + j] = 1.0
    return HermitianOperator(mat, (d, d))


def random_hermitian(n_qubits: int, seed: int) -> HermitianOperator:
    """Seeded random Hermitian matrix on ``n_qubits`` qubits.

    The free entries (upper triangle including the diagonal) get independent
    standard-normal real and imaginary parts, in row-major order, with the
    diagonal imaginary parts zeroed afterwards; the lower triangle follows by
    conjugate symmetry. Sampling uses numpy's PCG64 generator, so a fixed seed
    reproduces the same matrix on every platform.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    n = 2**n_qubits
    rng = np.random.Generator(np.random.PCG64(seed))
    n_free = n * (n + 1) // 2
    re = rng.standard_normal(n_free)
    im = rng.standard_normal(n_free)
    mat = np.zeros((n, n), dtype=complex)
    rows, cols = np.triu_indices(n)
    mat[rows, cols] = re + 1j * im
    mat[np.diag_indices(n)] = mat.diagonal().real
    lower = np.tril_indices(n, k=-1)
    mat[lower] = mat.conj().T[lower]
    return HermitianOperator(mat, (2,) * n_qubits)


def ladder_operators() -> tuple[np.ndarray, np.ndarray]:
    """Raising and lowering operators for a spin-1 triplet.

    Basis labels (-1, 0, +1) map to indices (0, 1, 2); raising sends index i
    to i+1 with amplitude sqrt(2).
    """
    j_plus = np.zeros((3, 3), dtype=complex)
    j_plus[1, 0] = np.sqrt(2.0)
    j_plus[2, 1] = np.sqrt(2.0)
    return j_plus, j_plus.conj().T


def correlator_hamiltonian(r_party: int) -> HermitianOperator:
    """Three-qutrit r-party correlator built from the spin-1 ladder operators.

    Sums J+^k1 x J+^k2 x J+^k3 plus its adjoint, with J- in place of J+, over
    the exponents k in {0, 1}^3 with k1 + k2 + k3 == r_party; exponent 0
    contributes the identity, so each term couples exactly r_party qutrits.
    """
    if r_party not in (1, 2, 3):
        raise ValueError("r_party must be in {1, 2, 3}")
    j_plus, j_minus = ladder_operators()
    eye = np.eye(3, dtype=complex)
    plus_pow = [eye, j_plus]
    minus_pow = [eye, j_minus]
    total = np.zeros((27, 27), dtype=complex)
    for k1, k2, k3 in product((0, 1), repeat=3):
        if k1 + k2 + k3 == r_party:
            raise_term = np.kron(np.kron(plus_pow[k1], plus_pow[k2]), plus_pow[k3])
            lower_term = np.kron(np.kron(minus_pow[k1], minus_pow[k2]), minus_pow[k3])
            total += raise_term + lower_term
    return HermitianOperator(total, (3, 3, 3))
