import numpy as np
import pytest

from sepdyn.hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    ladder_operators,
    random_hermitian,
    swap_hamiltonian,
)

from conftest import local_sum_hamiltonian

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError):
            HermitianOperator(mat, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.eye(4), (2, 3))


class TestSwapHamiltonian:
    def test_exchanges_basis_pair(self):
        H = swap_hamiltonian(2)
        e0, e1 = np.eye(2)
        assert np.allclose(H.entries @ np.kron(e0, e1), np.kron(e1, e0))

    def test_two_qubit_permutation_matrix(self):
        H = swap_hamiltonian(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(H.entries.real, expected)
        assert np.array_equal(H.entries.imag, np.zeros((4, 4)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_involution(self, d):
        H = swap_hamiltonian(d).entries
        assert np.allclose(H @ H, np.eye(d * d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_spectrum_is_plus_minus_one(self, d):
        evals = np.sort(np.linalg.eigvalsh(swap_hamiltonian(d).entries))
        n_antisym = d * (d - 1) // 2
        assert np.allclose(evals[:n_antisym], -1.0, atol=1e-12)
        assert np.allclose(evals[n_antisym:], 1.0, atol=1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            swap_hamiltonian(1)


class TestRandomHermitian:
    def test_five_qubit_shape(self):
        H = random_hermitian(5, seed=0)
        assert H.entries.shape == (32, 32)
        assert H.dims == (2,) * 5

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(random_hermitian(3, 42).entries,
                              random_hermitian(3, 42).entries)
        assert not np.array_equal(random_hermitian(3, 42).entries,
                                  random_hermitian(3, 43).entries)

    def test_exactly_hermitian(self):
        H = random_hermitian(4, seed=5).entries
        assert np.max(np.abs(H - H.conj().T)) < 1e-15

    def test_upper_triangle_determines_matrix(self):
        # 528 free complex entries for 32x32: upper triangle plus diagonal.
        H = random_hermitian(5, seed=3).entries
        n = H.shape[0]
        assert n * (n + 1) // 2 == 528
        rebuilt = np.triu(H) + np.triu(H, k=1).conj().T
        assert np.array_equal(rebuilt, H)

    def test_standard_normal_statistics_smoke(self):
        # Loose two-sided bounds; a 32x32 draw has ~2000 samples.
        H = random_hermitian(5, seed=11).entries
        upper = H[np.triu_indices(32, k=1)]
        samples = np.concatenate([upper.real, upper.imag])
        assert abs(samples.mean()) < 0.1
        assert 0.85 < samples.std() < 1.15


class TestLocalSum:
    def test_pair_of_sigma_z(self):
        op = HermitianOperator(SIGMA_Z, (2,))
        H = local_sum_hamiltonian([op, op])
        assert H.dims == (2, 2)
        assert np.allclose(H.entries, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_all_zero(self):
        zero = HermitianOperator(np.zeros((2, 2)), (2,))
        H = local_sum_hamiltonian([zero, zero])
        assert np.allclose(H.entries, 0.0)

    def test_identity_plus_zero(self):
        eye = HermitianOperator(np.eye(2), (2,))
        zero = HermitianOperator(np.zeros((2, 2)), (2,))
        H = local_sum_hamiltonian([eye, zero])
        assert np.allclose(H.entries, np.eye(4))


class TestLadderOperators:
    def test_raising_action(self):
        j_plus, _ = ladder_operators()
        e = np.eye(3)
        assert np.allclose(j_plus @ e[0], np.sqrt(2) * e[1])
        assert np.allclose(j_plus @ e[1], np.sqrt(2) * e[2])
        assert np.allclose(j_plus @ e[2], 0.0)

    def test_nilpotent_cube(self):
        j_plus, _ = ladder_operators()
        assert np.allclose(np.linalg.matrix_power(j_plus, 3), 0.0)

    def test_lowering_is_adjoint(self):
        j_plus, j_minus = ladder_operators()
        assert np.array_equal(j_minus, j_plus.conj().T)


class TestCorrelatorHamiltonian:
    @pytest.mark.parametrize("r, support", [
        (1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
        (3, [(1, 1, 1)]),
    ])
    def test_r_party_structure(self, r, support):
        # The ladder operator on exactly the qutrits of each support entry,
        # identities elsewhere, plus the adjoint term with J- for J+.
        j_plus, j_minus = ladder_operators()
        eye = np.eye(3, dtype=complex)
        expected = np.zeros((27, 27), dtype=complex)
        for exponents in support:
            for ladder in (j_plus, j_minus):
                f1, f2, f3 = (ladder if k else eye for k in exponents)
                expected += np.kron(np.kron(f1, f2), f3)
        assert np.array_equal(correlator_hamiltonian(r).entries, expected)

    @pytest.mark.parametrize("r", [0, 4])
    def test_rejects_r_outside_one_to_three(self, r):
        with pytest.raises(ValueError, match="r_party"):
            correlator_hamiltonian(r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_hermitian(self, r):
        H = correlator_hamiltonian(r).entries
        assert np.max(np.abs(H - H.conj().T)) < 1e-14

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_shifts_total_index_sum_by_r(self, r):
        # Basis label sums change by exactly +-r under the r-party coupling.
        H = correlator_hamiltonian(r).entries
        digit_sums = np.array([i + j + k for i in range(3) for j in range(3)
                               for k in range(3)])
        for col in range(27):
            rows = np.nonzero(np.abs(H[:, col]) > 1e-14)[0]
            for row in rows:
                assert abs(digit_sums[row] - digit_sums[col]) == r
