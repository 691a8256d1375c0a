import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdyn.states import (
    ComponentState,
    DensityMatrix,
    FullState,
    GELL_MANN,
    Ket,
    bloch_vector,
    gellmann_vector,
    inner,
    nuclear_norm,
    partial_trace,
    tensor_product,
    tensor_product_rows,
)

from conftest import random_ket, random_unitary


def ket(*amps):
    return Ket(np.asarray(amps, dtype=complex))


unit_qubit = st.builds(
    lambda re, im: np.array([complex(re[0], im[0]), complex(re[1], im[1])]),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


class TestKetValidation:
    def test_rejects_scalar_length(self):
        with pytest.raises(ValueError):
            Ket(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Ket(np.array([np.nan, 0.0]))

    def test_component_state_checks_dims(self):
        with pytest.raises(ValueError):
            ComponentState((ket(1, 0), ket(0, 1)), dims=(2, 3))

    def test_full_state_length_must_match_dims(self):
        with pytest.raises(ValueError):
            FullState(np.zeros(3, dtype=complex), (2, 2))


class TestTensorProduct:
    def test_basis_pair(self):
        state = ComponentState((ket(1, 0), ket(0, 1)))
        expected = np.zeros(4)
        expected[1] = 1.0  # index 0*2 + 1, first subsystem slowest
        assert np.allclose(tensor_product(state).amplitudes, expected)

    def test_superposition_second_factor(self, fig1_state):
        full = tensor_product(fig1_state)
        assert np.allclose(full.amplitudes,
                           np.array([1, 1, 0, 0]) / np.sqrt(2), atol=1e-15)

    def test_three_qutrits_lowest_basis(self):
        state = ComponentState(tuple(ket(1, 0, 0) for _ in range(3)))
        full = tensor_product(state)
        expected = np.zeros(27)
        expected[0] = 1.0
        assert full.amplitudes.shape == (27,)
        assert np.allclose(full.amplitudes, expected)

    def test_equals_chained_np_kron_bit_for_bit(self, rng):
        for dims in [(2, 2), (2, 3, 2), (3, 3, 3), (2,) * 5]:
            parts = [random_ket(rng, d, normalize=False) for d in dims]
            expected = parts[0].amplitudes
            for part in parts[1:]:
                expected = np.kron(expected, part.amplitudes)
            assert np.array_equal(tensor_product(ComponentState(tuple(parts))).amplitudes,
                                  expected)

    def test_rows_equal_np_kron_per_row_bit_for_bit(self, rng):
        dims = (2, 3, 2)
        components = (rng.standard_normal((6, sum(dims)))
                      + 1j * rng.standard_normal((6, sum(dims))))
        full = tensor_product_rows(components, dims)
        for row, stacked in zip(full, components):
            a, b, c = np.split(stacked, np.cumsum(dims)[:-1])
            assert np.array_equal(row, np.kron(np.kron(a, b), c))

    @given(a=unit_qubit, b=unit_qubit)
    @settings(max_examples=50, deadline=None)
    def test_norm_is_product_of_norms(self, a, b):
        state = ComponentState((Ket(2.5 * a), Ket(0.3 * b)))
        full = tensor_product(state)
        assert abs(full.norm() - 2.5 * 0.3) < 1e-12

    def test_partial_trace_recovers_factors(self, rng):
        parts = [random_ket(rng), random_ket(rng, 3), random_ket(rng)]
        state = ComponentState(tuple(parts), (2, 3, 2))
        rho = DensityMatrix.from_state(tensor_product(state))
        for k, part in enumerate(parts):
            reduced = partial_trace(rho, k, (2, 3, 2))
            expected = np.outer(part.amplitudes, part.amplitudes.conj())
            assert np.max(np.abs(reduced.entries - expected)) < 1e-10


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(ket(1, 0), ket(1, 0)) == pytest.approx(1.0)
        assert inner(ket(1, 0), ket(0, 1)) == pytest.approx(0.0)

    def test_projection_onto_superposition(self):
        value = inner(ket(1, 0), Ket(np.array([1, 1]) / np.sqrt(2)))
        assert value == pytest.approx(1 / np.sqrt(2))

    def test_conjugate_linear_first_argument(self, rng):
        x, y = random_ket(rng), random_ket(rng)
        scaled = inner(Ket(2j * x.amplitudes), y)
        assert scaled == pytest.approx(np.conj(2j) * inner(x, y))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner(ket(1, 0), ket(1, 0, 0))


class TestPartialTrace:
    def test_product_state_keep_first(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        reduced = partial_trace(rho, 0, (2, 2))
        assert np.allclose(reduced.entries, np.diag([1.0, 0.0]))

    def test_half_swapped_pair_is_maximally_mixed(self):
        # (|01> - i|10>)/sqrt(2): tracing the partner leaves no coherence.
        psi = np.array([0, 1, -1j, 0]) / np.sqrt(2)
        rho = DensityMatrix.from_state(psi)
        reduced = partial_trace(rho, 0, (2, 2))
        assert np.max(np.abs(reduced.entries - np.eye(2) / 2)) < 1e-12

    def test_keep_second_of_product(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        rho = DensityMatrix.from_state(
            tensor_product(ComponentState((a, b)))
        )
        reduced = partial_trace(rho, 1, (2, 2))
        assert reduced.trace() == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(reduced.entries)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_bad_keep_index(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            partial_trace(rho, 2, (2, 2))


class TestBlochVector:
    def test_basis_states(self):
        assert bloch_vector(DensityMatrix(np.diag([1.0, 0.0]))) == pytest.approx((0, 0, 1))
        assert bloch_vector(DensityMatrix(np.eye(2) / 2)) == pytest.approx((0, 0, 0))

    def test_plus_state(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        assert bloch_vector(rho) == pytest.approx((1, 0, 0))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            bloch_vector(DensityMatrix(np.eye(3) / 3))

    @given(v=unit_qubit)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_iff_pure(self, v):
        pure = DensityMatrix.from_state(v)
        assert np.linalg.norm(bloch_vector(pure)) == pytest.approx(1.0, abs=1e-10)
        mixed = DensityMatrix(0.6 * pure.entries + 0.4 * np.eye(2) / 2)
        purity = np.trace(mixed.entries @ mixed.entries).real
        assert purity < 1 - 1e-3
        assert np.linalg.norm(bloch_vector(mixed)) < 1 - 1e-3


class TestGellmannVector:
    def test_maximally_mixed_is_origin(self):
        assert np.allclose(gellmann_vector(DensityMatrix(np.eye(3) / 3)), 0.0)

    def test_basis_state_norm(self):
        vec = gellmann_vector(DensityMatrix(np.diag([1.0, 0.0, 0.0])))
        assert np.linalg.norm(vec) == pytest.approx(np.sqrt(4 / 3))

    def test_non_hermitian_rejected(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            gellmann_vector(DensityMatrix(bad))

    def test_generators_traceless_hermitian(self):
        for g in GELL_MANN:
            assert abs(np.trace(g)) < 1e-14
            assert np.max(np.abs(g - g.conj().T)) < 1e-14


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(2)) == pytest.approx(2.0)

    def test_rank_one_projector(self, rng):
        v = random_ket(rng, 4).amplitudes
        assert nuclear_norm(np.outer(v, v.conj())) == pytest.approx(1.0)

    def test_projector_difference_closed_form(self, rng):
        for _ in range(25):
            u = random_ket(rng, 3).amplitudes
            w = random_ket(rng, 3).amplitudes
            diff = np.outer(u, u.conj()) - np.outer(w, w.conj())
            expected = 2.0 * np.sqrt(1.0 - abs(np.vdot(u, w)) ** 2)
            assert nuclear_norm(diff) == pytest.approx(expected, abs=1e-10)

    def test_unitary_invariance(self, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        assert nuclear_norm(u @ mat @ v) == pytest.approx(nuclear_norm(mat), abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nuclear_norm(np.array([[np.inf, 0], [0, 1.0]]))


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_unit_trace_for_normalized_states(self, rng):
        rho = DensityMatrix.from_state(random_ket(rng, 4))
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
