"""Hamiltonian constructors: exchange, seeded random, local sums, correlators.

Operators are dense complex matrices wrapped in :class:`HermitianOperator`,
which records the subsystem dimensions the operator acts on, enforces
Hermitian symmetry at construction and keeps its eigendecomposition once
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .states import HERMITIAN_TOL


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


@dataclass(frozen=True)
class CouplingTensor:
    """Complex coupling strengths indexed by (k1, k2, k3) in {0, 1}^3."""

    eta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.eta, dtype=complex)
        if arr.shape != (2, 2, 2):
            raise ValueError(f"eta must have shape (2, 2, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("eta entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "eta", arr)


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


def local_sum_hamiltonian(locals_: list[HermitianOperator]) -> HermitianOperator:
    """Sum of one-subsystem operators embedded with identities elsewhere.

    Operator j acts on subsystem j, whose dimension is the operator's side.
    """
    dims = tuple(op.entries.shape[0] for op in locals_)
    side = prod(dims)
    total = np.zeros((side, side), dtype=complex)
    for j, op in enumerate(locals_):
        term = np.eye(1, dtype=complex)
        for i, d in enumerate(dims):
            factor = op.entries if i == j else np.eye(d, dtype=complex)
            term = np.kron(term, factor)
        total += term
    return HermitianOperator(total, dims)


def ladder_operators() -> tuple[np.ndarray, np.ndarray]:
    """Raising and lowering operators for a spin-1 triplet.

    Basis labels (-1, 0, +1) map to indices (0, 1, 2); raising sends index i
    to i+1 with amplitude sqrt(2).
    """
    j_plus = np.zeros((3, 3), dtype=complex)
    j_plus[1, 0] = np.sqrt(2.0)
    j_plus[2, 1] = np.sqrt(2.0)
    return j_plus, j_plus.conj().T


def r_party_eta(r: int) -> CouplingTensor:
    """Coupling tensor that is 1 exactly where k1 + k2 + k3 == r."""
    if r not in (0, 1, 2, 3):
        raise ValueError("r must be in {0, 1, 2, 3}")
    eta = np.zeros((2, 2, 2), dtype=complex)
    for k1 in range(2):
        for k2 in range(2):
            for k3 in range(2):
                if k1 + k2 + k3 == r:
                    eta[k1, k2, k3] = 1.0
    return CouplingTensor(eta)


def correlator_hamiltonian(eta: CouplingTensor) -> HermitianOperator:
    """Three-qutrit correlator built from powers of the spin-1 ladder operators.

    Sums eta[k] * (J+^k1 x J+^k2 x J+^k3) plus the conjugate term with J- in
    place of J+; exponent 0 contributes the identity, so eta[0,0,0] enters both
    sums and yields 2*Re(eta[0,0,0]) times the identity.
    """
    j_plus, j_minus = ladder_operators()
    eye = np.eye(3, dtype=complex)
    plus_pow = [eye, j_plus]
    minus_pow = [eye, j_minus]
    total = np.zeros((27, 27), dtype=complex)
    for k1 in range(2):
        for k2 in range(2):
            for k3 in range(2):
                coeff = eta.eta[k1, k2, k3]
                if coeff == 0:
                    continue
                raise_term = np.kron(np.kron(plus_pow[k1], plus_pow[k2]), plus_pow[k3])
                lower_term = np.kron(np.kron(minus_pow[k1], minus_pow[k2]), minus_pow[k3])
                total += coeff * raise_term + np.conj(coeff) * lower_term
    return HermitianOperator(total, (3, 3, 3))
