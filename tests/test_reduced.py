import numpy as np
import pytest

from sepdyn.hamiltonians import (
    HermitianOperator,
    local_sum_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn.reduced import DegenerateStateError, contract_reduced, partially_reduced
from sepdyn.states import ComponentState, Ket

from conftest import random_ket


def random_local(rng, d=2):
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(0.5 * (mat + mat.conj().T), (d,))


def embedding_oracle(H, state, k):
    """Reduce via explicit rectangular embedding matrices.

    Independent of the implementation's broadcast construction: builds the
    linear map x -> a_1 x ... x x x ... x a_N column by column with np.kron
    and sandwiches the full operator.
    """
    dims = state.dims
    d_k = dims[k]
    side = H.entries.shape[0]
    embed = np.zeros((side, d_k), dtype=complex)
    for m in range(d_k):
        factors = [
            state.parts[j].amplitudes if j != k else np.eye(d_k)[m]
            for j in range(len(dims))
        ]
        column = factors[0]
        for f in factors[1:]:
            column = np.kron(column, f)
        embed[:, m] = column
    denom = 1.0
    for j, part in enumerate(state.parts):
        if j != k:
            denom *= np.linalg.norm(part.amplitudes) ** 2
    return embed.conj().T @ H.entries @ embed / denom


def random_hermitian_matrix(rng, dims):
    side = int(np.prod(dims))
    mat = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return mat + mat.conj().T


def einsum_reduction(matrix, vectors, keep, dims):
    """The reduction as one many-operand einsum, divided by the context norms².

    Contracts row axis j with conj(vectors[j]) and column axis j with
    vectors[j] for every j != keep: an oracle for the embedding GEMMs.
    """
    n = len(dims)
    operands = [matrix.reshape(dims + dims), list(range(2 * n))]
    denom = 1.0
    for j in range(n):
        if j == keep:
            continue
        operands.extend([np.conj(vectors[j]), [j], vectors[j], [n + j]])
        denom *= np.real(np.vdot(vectors[j], vectors[j]))
    return np.einsum(*operands, [keep, n + keep]) / denom


class TestSwapReduction:
    def test_reduces_to_partner_projector(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        reduced = partially_reduced(H, state, 0)
        expected = np.outer(b.amplitudes, b.amplitudes.conj())
        assert np.max(np.abs(reduced.entries - expected)) < 1e-13
        reduced_b = partially_reduced(H, state, 1)
        expected_b = np.outer(a.amplitudes, a.amplitudes.conj())
        assert np.max(np.abs(reduced_b.entries - expected_b)) < 1e-13


class TestLocalSumReduction:
    def test_partner_contributes_identity_shift(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2])
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        reduced = partially_reduced(H, state, 0)
        shift = np.real(np.vdot(b.amplitudes, h2.entries @ b.amplitudes))
        expected = h1.entries + shift * np.eye(2)
        assert np.max(np.abs(reduced.entries - expected)) < 1e-12


class TestIdentityReduction:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_identity_reduces_to_identity(self, rng, k):
        dims = (2, 3, 2)
        H = HermitianOperator(np.eye(12), dims)
        parts = tuple(random_ket(rng, d) for d in dims)
        reduced = partially_reduced(H, ComponentState(parts), k)
        assert np.max(np.abs(reduced.entries - np.eye(dims[k]))) < 1e-12


class TestReductionProperties:
    def test_matches_embedding_oracle_three_parties(self, rng):
        H = random_hermitian(3, seed=17)
        parts = tuple(random_ket(rng) for _ in range(3))
        state = ComponentState(parts)
        for k in range(3):
            reduced = partially_reduced(H, state, k)
            oracle = embedding_oracle(H, state, k)
            assert np.max(np.abs(reduced.entries - oracle)) < 1e-12

    def test_output_hermitian(self, rng):
        H = random_hermitian(2, seed=3)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        reduced = partially_reduced(H, state, 1).entries
        assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-12

    def test_invariant_under_context_rescaling(self, rng):
        H = random_hermitian(2, seed=8)
        a, b = random_ket(rng), random_ket(rng)
        base = partially_reduced(H, ComponentState((a, b)), 0).entries
        scaled_b = Ket((0.3 - 1.7j) * b.amplitudes)
        rescaled = partially_reduced(H, ComponentState((a, scaled_b)), 0).entries
        assert np.max(np.abs(base - rescaled)) < 1e-10

    def test_linear_in_hamiltonian(self, rng):
        H1 = random_hermitian(2, seed=1)
        H2 = random_hermitian(2, seed=2)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        combined = HermitianOperator(H1.entries + H2.entries, H1.dims)
        lhs = partially_reduced(combined, state, 0).entries
        rhs = (partially_reduced(H1, state, 0).entries
               + partially_reduced(H2, state, 0).entries)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_degenerate_context_rejected(self, rng):
        H = random_hermitian(2, seed=4)
        a = random_ket(rng)
        zero = Ket(np.zeros(2, dtype=complex))
        with pytest.raises(DegenerateStateError):
            partially_reduced(H, ComponentState((a, zero)), 0)

    def test_dims_mismatch_rejected(self, rng):
        H = random_hermitian(2, seed=4)
        parts = tuple(random_ket(rng, 3) for _ in range(2))
        with pytest.raises(ValueError):
            partially_reduced(H, ComponentState(parts), 0)


class TestContractReducedKernel:
    """The array kernel the step maps call, against the einsum oracle."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3),
                                      (2,) * 5])
    def test_matches_einsum_oracle_for_every_subsystem(self, rng, dims):
        matrix = random_hermitian_matrix(rng, dims)
        # Unnormalized contexts, with norms spread over a decade either way.
        vectors = [rng.uniform(0.1, 10.0) * random_ket(rng, d, normalize=False).amplitudes
                   for d in dims]
        for k in range(len(dims)):
            kernel = contract_reduced(matrix, vectors, k)
            oracle = einsum_reduction(matrix, vectors, k, dims)
            assert kernel.shape == (dims[k], dims[k])
            assert np.max(np.abs(kernel - oracle)) <= 1e-13 * np.max(np.abs(oracle))
            assert np.array_equal(kernel, kernel.conj().T)

    def test_zero_context_rejected(self, rng):
        matrix = random_hermitian_matrix(rng, (2, 3))
        vectors = [random_ket(rng).amplitudes, np.zeros(3, dtype=complex)]
        with pytest.raises(DegenerateStateError):
            contract_reduced(matrix, vectors, 0)
