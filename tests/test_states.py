import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdyn.analysis import GELL_MANN, bloch_series, reduced_density_series
from sepdyn.propagators import Trajectory
from sepdyn.states import (
    ComponentState,
    FullState,
    Ket,
    inner,
    nuclear_norm,
    split_components,
    tensor_product,
    tensor_product_rows,
)

from conftest import random_ket, random_unitary


def ket(*amps):
    return Ket(np.asarray(amps, dtype=complex))


def one_point(psi, dims) -> Trajectory:
    """A one-time trajectory holding the full state ``psi``."""
    return Trajectory(1.0, dims, full=np.asarray(psi, dtype=complex)[None, :])


def reduced_density(psi, k, dims) -> np.ndarray:
    return reduced_density_series(one_point(psi, dims), k)[0]


def bloch(psi, k, dims) -> np.ndarray:
    return bloch_series(reduced_density_series(one_point(psi, dims), k))[0]


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
        state = ComponentState(tuple(parts))
        assert state.dims == (2, 3, 2)
        psi = tensor_product(state).amplitudes
        for k, part in enumerate(parts):
            reduced = reduced_density(psi, k, (2, 3, 2))
            expected = np.outer(part.amplitudes, part.amplitudes.conj())
            assert np.max(np.abs(reduced - expected)) < 1e-10


class TestSplitComponents:
    def test_views_each_block(self, rng):
        dims = (2, 3, 2)
        x = rng.standard_normal(sum(dims)) + 1j * rng.standard_normal(sum(dims))
        parts = split_components(x, dims)
        assert [p.shape for p in parts] == [(2,), (3,), (2,)]
        assert all(np.shares_memory(p, x) for p in parts)
        assert np.array_equal(np.concatenate(parts), x)
        rows = np.stack([x, 2 * x])
        for part, row_part in zip(parts, split_components(rows, dims)):
            assert np.array_equal(row_part, np.stack([part, 2 * part]))


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
        psi = np.kron([1.0, 0.0], [0.0, 1.0])
        reduced = reduced_density(psi, 0, (2, 2))
        assert np.allclose(reduced, np.diag([1.0, 0.0]))

    def test_half_swapped_pair_is_maximally_mixed(self):
        # (|01> - i|10>)/sqrt(2): tracing the partner leaves no coherence.
        psi = np.array([0, 1, -1j, 0]) / np.sqrt(2)
        reduced = reduced_density(psi, 0, (2, 2))
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12

    def test_keep_second_of_product(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        psi = tensor_product(ComponentState((a, b))).amplitudes
        reduced = reduced_density(psi, 1, (2, 2))
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(reduced)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_bad_keep_index(self):
        with pytest.raises(ValueError):
            reduced_density(np.full(4, 0.5), 2, (2, 2))


class TestBlochVector:
    def test_basis_states(self):
        assert bloch(np.kron([1.0, 0.0], [1.0, 0.0]), 0, (2, 2)) == pytest.approx((0, 0, 1))
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert bloch(bell, 0, (2, 2)) == pytest.approx((0, 0, 0))

    def test_plus_state(self):
        psi = np.kron(np.array([1.0, 1.0]) / np.sqrt(2), [1.0, 0.0])
        assert bloch(psi, 0, (2, 2)) == pytest.approx((1, 0, 0))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            bloch(np.full(8, 1 / np.sqrt(8)), 0, (4, 2))

    @given(v=unit_qubit)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_iff_pure(self, v):
        pure = np.kron(v, [1.0, 0.0])
        assert np.linalg.norm(bloch(pure, 0, (2, 2))) == pytest.approx(1.0, abs=1e-10)
        # A purification of 0.6 |v><v| + 0.4 I/2 = 0.8 |v><v| + 0.2 |w><w|.
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        mixed = np.sqrt(0.8) * np.kron(v, [1.0, 0.0]) + np.sqrt(0.2) * np.kron(w, [0.0, 1.0])
        rho = reduced_density(mixed, 0, (2, 2))
        purity = np.trace(rho @ rho).real
        assert purity < 1 - 1e-3
        assert np.linalg.norm(bloch(mixed, 0, (2, 2))) < 1 - 1e-3


class TestGellmannVector:
    def test_maximally_mixed_is_origin(self):
        psi = np.eye(3).reshape(9) / np.sqrt(3)  # sum_i |ii> / sqrt(3)
        assert np.allclose(bloch(psi, 0, (3, 3)), 0.0)

    def test_basis_state_norm(self):
        vec = bloch(np.kron([1.0, 0.0, 0.0], [1.0, 0.0]), 0, (3, 2))
        assert np.linalg.norm(vec) == pytest.approx(np.sqrt(4 / 3))

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
    """The reduced density matrices the package forms are valid density matrices."""

    def test_unit_trace_for_normalized_states(self, rng):
        psi = random_ket(rng, 4).amplitudes
        for k in (0, 1):
            rho = reduced_density(psi, k, (2, 2))
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
