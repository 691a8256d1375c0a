import numpy as np
import pytest

from sepdyn.hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn import propagators
from sepdyn.propagators import (
    SplittingScheme,
    evolve,
    lie_trotter_step,
    sse_component_flow,
    strang_step,
)
from sepdyn.reduced import DegenerateStateError, contract_reduced, partially_reduced
from sepdyn.states import ComponentState, Ket

from conftest import local_sum_hamiltonian, random_ket


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
        with pytest.raises(DegenerateStateError, match="context state 1"):
            partially_reduced(H, ComponentState((a, zero)), 0)
        # The reduced subsystem's own vector is not a context.
        assert partially_reduced(H, ComponentState((a, zero)), 1).dims == (2,)

    def test_dims_mismatch_rejected(self, rng):
        H = random_hermitian(2, seed=4)
        parts = tuple(random_ket(rng, 3) for _ in range(2))
        with pytest.raises(ValueError):
            partially_reduced(H, ComponentState(parts), 0)


class TestContractReducedKernel:
    """The array kernel the step maps call, on H's slot blocks, against the einsum oracle."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3),
                                      (2,) * 5, (2, 3, 2), (3, 2, 2), (4, 2, 3)])
    def test_matches_einsum_oracle_for_every_subsystem(self, rng, dims):
        matrix = random_hermitian_matrix(rng, dims)
        H = HermitianOperator(matrix, dims)
        # Unnormalized contexts, with norms spread over a decade either way.
        vectors = [rng.uniform(0.1, 10.0) * random_ket(rng, d, normalize=False).amplitudes
                   for d in dims]
        for k in range(len(dims)):
            sandwich, norm2 = contract_reduced(H.slot_blocks[k], vectors, k)
            oracle = einsum_reduction(matrix, vectors, k, dims)
            assert sandwich.shape == (dims[k], dims[k])
            contexts = np.prod([np.vdot(v, v).real for j, v in enumerate(vectors) if j != k])
            assert norm2 == pytest.approx(contexts, rel=1e-14)
            kernel = sandwich / norm2
            assert np.max(np.abs(kernel - oracle)) <= 1e-13 * np.max(np.abs(oracle))
            # Not symmetrized: Hermitian up to rounding only.
            assert np.max(np.abs(kernel - kernel.conj().T)) <= 1e-13 * np.max(np.abs(oracle))
            reduced = partially_reduced(H, ComponentState(tuple(map(Ket, vectors))), k)
            assert np.array_equal(reduced.entries, (sandwich + sandwich.conj().T) * (0.5 / norm2))
            assert np.array_equal(reduced.entries, reduced.entries.conj().T)

    @pytest.mark.parametrize("system", ["swap", "random5", "ladder", "232"])
    def test_a_stack_is_its_rows_alone(self, rng, system):
        """(B, d_j) stacks give a (B, d, d) stack of sandwiches and B norms²,
        each row bit for bit the call on that row alone."""
        H = {"swap": lambda: swap_hamiltonian(2),
             "random5": lambda: random_hermitian(5, seed=21),
             "ladder": lambda: correlator_hamiltonian(2),
             "232": lambda: HermitianOperator(random_hermitian_matrix(rng, (2, 3, 2)),
                                              (2, 3, 2))}[system]()
        batch = 5
        stacks = [rng.uniform(0.1, 10.0, (batch, 1))
                  * np.stack([random_ket(rng, d, normalize=False).amplitudes
                              for _ in range(batch)]) for d in H.dims]
        for k, d in enumerate(H.dims):
            sandwiches, norms2 = contract_reduced(H.slot_blocks[k], stacks, k)
            assert sandwiches.shape == (batch, d, d) and norms2.shape == (batch,)
            for b in range(batch):
                sandwich, norm2 = contract_reduced(H.slot_blocks[k], [s[b] for s in stacks], k)
                assert sandwiches[b].tobytes() == sandwich.tobytes()
                assert norms2[b].tobytes() == np.float64(norm2).tobytes()


class TestZeroContextsAtTheBoundary:
    """The kernel checks nothing; every caller of it rejects a zero context
    in any slot, before any reduction, by ``check_contexts``."""

    CASES = [((2, 3), 1), ((2, 3, 2), 1), ((3, 2, 2), 0), ((4, 2, 3), 2), ((2,) * 5, 4)]

    @staticmethod
    def kernel_calls(monkeypatch):
        calls = []

        def counting(*args, _kernel=propagators.contract_reduced):
            calls.append(args[2])
            return _kernel(*args)

        monkeypatch.setattr(propagators, "contract_reduced", counting)
        return calls

    @pytest.mark.parametrize("dims, zero", CASES)
    def test_partially_reduced(self, rng, dims, zero):
        H = HermitianOperator(random_hermitian_matrix(rng, dims), dims)
        parts = [random_ket(rng, d) for d in dims]
        parts[zero] = Ket(np.zeros(dims[zero], dtype=complex))
        state = ComponentState(tuple(parts))
        for k in range(len(dims)):
            if k == zero:  # the reduced subsystem's own vector is not a context
                assert partially_reduced(H, state, k).dims == (dims[k],)
            else:
                with pytest.raises(DegenerateStateError, match=f"context state {zero} "):
                    partially_reduced(H, state, k)

    @pytest.mark.parametrize("dims, zero", CASES)
    def test_step_maps(self, rng, monkeypatch, dims, zero):
        H = HermitianOperator(random_hermitian_matrix(rng, dims), dims)
        parts = [random_ket(rng, d).amplitudes for d in dims]
        parts[zero] = np.zeros(dims[zero], dtype=complex)
        x = np.concatenate(parts)
        calls = self.kernel_calls(monkeypatch)
        for step in (lie_trotter_step, strang_step):
            with pytest.raises(DegenerateStateError, match=f"context state {zero} "):
                step(H, x, 0.1)
        for k in range(len(dims)):
            if k != zero:
                with pytest.raises(DegenerateStateError, match=f"context state {zero} "):
                    sse_component_flow(H, x, k, 0.1)
        assert calls == []
        # Flowing the zero component itself is defined: it stays zero.
        assert np.array_equal(sse_component_flow(H, x, zero, 0.1), x)

    @pytest.mark.parametrize("dims, zero", CASES)
    def test_a_zero_context_in_one_row_of_a_batch(self, rng, monkeypatch, dims, zero):
        H = HermitianOperator(random_hermitian_matrix(rng, dims), dims)
        states = [ComponentState(tuple(random_ket(rng, d) for d in dims)) for _ in range(5)]
        parts = list(states[3].parts)
        parts[zero] = Ket(np.zeros(dims[zero], dtype=complex))
        states[3] = ComponentState(tuple(parts))
        calls = self.kernel_calls(monkeypatch)
        schemes = [SplittingScheme.LIE_TROTTER, SplittingScheme.STRANG] * 2
        schemes.append(SplittingScheme.STRANG)
        with pytest.raises(DegenerateStateError, match=f"context state {zero} "):
            evolve(H, schemes, states, [0.1] * 5, [3] * 5)
        assert calls == []


def basis_product(dims, k, a, context):
    """e_a in slot k and the basis states ``context`` in the other slots, by np.kron."""
    slots = list(context)
    slots.insert(k, a)
    vec = np.ones(1)
    for d, i in zip(dims, slots):
        vec = np.kron(vec, np.eye(d)[i])
    return vec


class TestSlotBlocks:
    def test_built_once_and_read_only(self, rng):
        dims = (2, 3, 2)
        H = HermitianOperator(random_hermitian_matrix(rng, dims), dims)
        blocks = H.slot_blocks
        assert H.slot_blocks is blocks
        assert isinstance(blocks, tuple) and len(blocks) == len(dims)
        for block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 2, 2), (4, 2, 3)])
    def test_entries_are_matrix_elements_between_product_states(self, rng, dims):
        """Entry ((a, r, b), s) of block k is <e_a ⊗ r| H |e_b ⊗ s>."""
        H = HermitianOperator(random_hermitian_matrix(rng, dims), dims)
        for k, d in enumerate(dims):
            others = dims[:k] + dims[k + 1 :]
            m = int(np.prod(others))
            contexts = [np.unravel_index(r, others) for r in range(m)]
            expected = np.empty((d, m, d, m), dtype=complex)
            for a in range(d):
                for r, ctx_r in enumerate(contexts):
                    bra = basis_product(dims, k, a, ctx_r)
                    for b in range(d):
                        for s, ctx_s in enumerate(contexts):
                            ket = basis_product(dims, k, b, ctx_s)
                            expected[a, r, b, s] = bra @ H.entries @ ket
            assert np.array_equal(H.slot_blocks[k], expected.reshape(d * m * d, m))
