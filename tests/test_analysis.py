import tracemalloc
from math import prod

import numpy as np
import pytest

from sepdyn.analysis import (
    GELL_MANN,
    bloch_series,
    convergence_order,
    log_norm_spread,
    overlap_series,
    period_two_amplitude,
    period_two_rate,
    purity_series,
    rate_of_change_nuclear,
    reduced_density_series,
)
from sepdyn.exact_swap import SwapInitialData, exact_se_swap, exact_sse_swap
from sepdyn.hamiltonians import random_hermitian, swap_hamiltonian
from sepdyn.propagators import SplittingScheme, Trajectory, se_evolve
from sepdyn.states import ComponentState, tensor_product

from conftest import local_sum_hamiltonian, nuclear_norm, random_ket, splitting_run
from test_reduced import random_local


def swap_trajectories(fig1_state, dt=0.01, steps=100):
    H = swap_hamiltonian(2)
    sse = splitting_run(SplittingScheme.LIE_TROTTER, H, fig1_state, dt, steps)
    se = se_evolve(H, tensor_product(fig1_state), dt, steps)
    return se, sse


def exact_trajectories(fig1_state, dt, steps):
    """Full-state trajectories built from the closed forms only."""
    times = dt * np.arange(steps + 1)
    data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
    se_states = np.stack([exact_se_swap(data, t).amplitudes for t in times])
    sse_states = np.stack([tensor_product(exact_sse_swap(data, t)).amplitudes
                           for t in times])
    dims = (2, 2)
    return (
        Trajectory(dt, dims, full=se_states),
        Trajectory(dt, dims, full=sse_states),
    )


def svd_rate_oracle(states, dt):
    """Nuclear norms of the finite-difference projector derivative by SVD.

    Uses the centred difference inside and one-sided ones at both ends.
    |a><a| - |b><b| is formed as |d><b| + |b><d| + |d><d| with d = a - b, so
    the O(dt) difference is not left over from subtracting O(1) projectors.
    """
    later = np.concatenate([states[1:2], states[2:], states[-1:]])
    earlier = np.concatenate([states[:1], states[:-2], states[-2:-1]])
    spans = np.concatenate([[dt], np.full(len(states) - 2, 2.0 * dt), [dt]])
    d = later - earlier
    diff = (np.einsum("ti,tj->tij", d, earlier.conj())
            + np.einsum("ti,tj->tij", earlier, d.conj())
            + np.einsum("ti,tj->tij", d, d.conj()))
    return np.linalg.svd(diff, compute_uv=False).sum(axis=1) / spans


class TestOverlapSeries:
    def test_unit_at_identical_start(self, fig1_state):
        se, sse = swap_trajectories(fig1_state, steps=10)
        overlap = overlap_series(se, sse)
        assert overlap[0] == pytest.approx(1.0)

    def test_closed_form_value_at_unit_time(self, fig1_state):
        # Hand-derived scalar: with theta = |q| t,
        #   cos(t) (cos th - i|q| sin th)^2 + i sin(t) (|q| cos th - i sin th)^2.
        se, sse = exact_trajectories(fig1_state, 0.01, 100)
        overlap = overlap_series(se, sse)
        q = 1 / np.sqrt(2)
        theta = q * 1.0
        expected = (np.cos(1.0) * (np.cos(theta) - 1j * q * np.sin(theta)) ** 2
                    + 1j * np.sin(1.0) * (q * np.cos(theta) - 1j * np.sin(theta)) ** 2)
        assert overlap[-1] == pytest.approx(expected, abs=1e-12)
        assert overlap[-1] == pytest.approx(
            0.7859985868852615 - 0.4893285620061665j, abs=1e-12
        )

    def test_decoupled_hamiltonian_keeps_unit_modulus(self, rng):
        H = local_sum_hamiltonian([random_local(rng), random_local(rng)])
        state = ComponentState((random_ket(rng), random_ket(rng)))
        sse = splitting_run(SplittingScheme.LIE_TROTTER, H, state, 0.05, 80)
        se = se_evolve(H, tensor_product(state), 0.05, 80)
        overlap = overlap_series(se, sse)
        # Equal up to a running global phase, so the modulus pins to one.
        assert np.max(np.abs(np.abs(overlap) - 1.0)) < 1e-10

    def test_cauchy_schwarz_bound(self, rng):
        H = random_hermitian(2, seed=20)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        sse = splitting_run(SplittingScheme.STRANG, H, state, 0.02, 200)
        se = se_evolve(H, tensor_product(state), 0.02, 200)
        assert np.max(np.abs(overlap_series(se, sse))) <= 1 + 1e-10

    def test_grid_mismatch_rejected(self, fig1_state):
        se, _ = swap_trajectories(fig1_state, steps=10)
        _, sse = swap_trajectories(fig1_state, dt=0.02, steps=10)
        with pytest.raises(ValueError):
            overlap_series(se, sse)


class TestRateOfChangeNuclear:
    def test_constant_trajectory_is_zero(self, rng):
        psi = random_ket(rng, 4).amplitudes
        traj = Trajectory(0.1, (2, 2), full=np.stack([psi] * 5))
        assert np.allclose(rate_of_change_nuclear(traj), 0.0)

    def test_matches_commutator_oracle_for_unitary_flow(self, fig1_state):
        # d rho / dt = -i [H, rho], evaluated exactly and compared to the
        # centered differences; agreement at second order in the grid step.
        H = swap_hamiltonian(2)
        dt, steps = 0.002, 500
        traj = se_evolve(H, tensor_product(fig1_state), dt, steps)
        rates = rate_of_change_nuclear(traj)
        mid = steps // 2
        psi = traj.full[mid]
        rho = np.outer(psi, psi.conj())
        commutator = -1j * (H.entries @ rho - rho @ H.entries)
        assert rates[mid] == pytest.approx(nuclear_norm(commutator), abs=5 * dt**2)

    def test_time_independent_along_unitary_orbit(self, fig1_state):
        H = swap_hamiltonian(2)
        traj = se_evolve(H, tensor_product(fig1_state), 0.002, 400)
        rates = rate_of_change_nuclear(traj)
        interior = rates[1:-1]
        assert np.max(interior) - np.min(interior) < 5 * 0.002**2

    def test_invariant_under_global_phase(self, fig1_state):
        H = swap_hamiltonian(2)
        dt, steps = 0.01, 60
        traj = se_evolve(H, tensor_product(fig1_state), dt, steps)
        phased = np.exp(1j * np.sin(traj.times))[:, None] * traj.full
        traj_phased = Trajectory(traj.dt, traj.dims, full=phased)
        assert np.allclose(
            rate_of_change_nuclear(traj),
            rate_of_change_nuclear(traj_phased),
            atol=1e-10,
        )

    @pytest.mark.parametrize("dim", [4, 27, 32])
    @pytest.mark.parametrize("dt", [1e-1, 1e-3, 1e-6])
    def test_closed_form_matches_svd_oracle(self, rng, dim, dt):
        # Smooth, unnormalized rows: at small dt neighbours nearly coincide.
        times = dt * np.arange(9)
        start, velocity, accel = (rng.standard_normal((3, dim))
                                  + 1j * rng.standard_normal((3, dim)))
        states = start + times[:, None] * velocity + times[:, None] ** 2 * accel
        traj = Trajectory(dt, (dim,), full=states)
        rates = rate_of_change_nuclear(traj)
        expected = svd_rate_oracle(states, dt)
        assert np.max(np.abs(rates - expected) / expected) <= 1e-10

    def test_closed_form_matches_svd_oracle_on_unrelated_rows(self, rng):
        states = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        traj = Trajectory(0.5, (2,) * 5, full=states)
        expected = svd_rate_oracle(states, 0.5)
        rates = rate_of_change_nuclear(traj)
        assert np.max(np.abs(rates - expected) / expected) <= 1e-10

    def test_memory_is_linear_in_the_trajectory_size(self, rng):
        # A (T, D, D) projector stack would take D = 1024 times the limit.
        n_times, dim = 1001, 1024
        states = (rng.standard_normal((n_times, dim))
                  + 1j * rng.standard_normal((n_times, dim)))
        traj = Trajectory(1e-3, (2,) * 10, full=states)
        tracemalloc.start()
        try:
            rate_of_change_nuclear(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * n_times * dim * 16

    def test_needs_two_points(self, rng):
        psi = random_ket(rng, 4).amplitudes
        traj = Trajectory(0.1, (2, 2), full=psi[None, :])
        with pytest.raises(ValueError):
            rate_of_change_nuclear(traj)

    def test_two_points_give_the_one_sided_difference_at_both(self, rng):
        psi0, psi1 = random_ket(rng, 4).amplitudes, random_ket(rng, 4).amplitudes
        traj = Trajectory(0.1, (2, 2), full=np.stack([psi0, psi1]))
        expected = nuclear_norm(np.outer(psi1, psi1.conj())
                                - np.outer(psi0, psi0.conj())) / 0.1
        assert rate_of_change_nuclear(traj) == pytest.approx([expected] * 2, rel=1e-12)


class TestPuritySeries:
    def test_restricted_run_has_pure_marginals(self, fig1_state):
        _, sse = swap_trajectories(fig1_state, steps=200)
        for j in range(2):
            assert np.max(np.abs(purity_series(reduced_density_series(sse, j)) - 1.0)) < 1e-10

    def test_half_swapped_state_is_maximally_mixed(self):
        bell_like = np.array([0, 1, -1j, 0]) / np.sqrt(2)
        traj = Trajectory(0.1, (2, 2), full=bell_like[None, :])
        assert purity_series(reduced_density_series(traj, 0))[0] == pytest.approx(0.5)
        assert purity_series(reduced_density_series(traj, 1))[0] == pytest.approx(0.5)

    def test_product_basis_state(self, fig1_state):
        traj = Trajectory(0.1, (2, 2),
                          full=tensor_product(fig1_state).amplitudes[None, :])
        assert purity_series(reduced_density_series(traj, 0))[0] == pytest.approx(1.0)


def einsum_density_diagnostics(traj, k):
    """Reduced densities, purities and Bloch vectors by the einsum formulas
    that the Gram kernels replaced, kept as an oracle."""
    dims = traj.dims
    shaped = traj.full.reshape(-1, prod(dims[:k]), dims[k], prod(dims[k + 1 :]))
    rhos = np.einsum("tamb,tanb->tmn", shaped, shaped.conj())
    purity = np.einsum("tij,tji->t", rhos, rhos).real
    if dims[k] == 2:
        bloch = np.stack([2.0 * rhos[:, 0, 1].real, 2.0 * rhos[:, 1, 0].imag,
                          (rhos[:, 0, 0] - rhos[:, 1, 1]).real], axis=1)
    else:
        bloch = np.real(np.einsum("tij,kji->tk", rhos, GELL_MANN))
    return rhos, purity, bloch


def random_trajectory(rng, dims, rows):
    states = np.stack([random_ket(rng, prod(dims)).amplitudes for _ in range(rows)])
    return Trajectory(0.1, dims, full=states)


class TestDensityKernels:
    @pytest.mark.parametrize("dims", [(2,) * 5, (3, 3, 3), (2, 3, 2), (2, 2)],
                             ids=["2x5", "3x3x3", "2x3x2", "2x2"])
    def test_the_einsum_formulas_agree(self, rng, dims):
        traj = random_trajectory(rng, dims, 64)
        for k in range(len(dims)):
            rhos = reduced_density_series(traj, k)
            expected = einsum_density_diagnostics(traj, k)
            for got, want in zip((rhos, purity_series(rhos), bloch_series(rhos)), expected):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 2e-15

    def test_qutrit_bloch_vectors_are_traces_against_the_generators(self, rng):
        rhos = reduced_density_series(random_trajectory(rng, (3, 3, 3), 16), 1)
        expected = [[np.trace(rho @ g).real for g in GELL_MANN] for rho in rhos]
        assert np.max(np.abs(bloch_series(rhos) - expected)) <= 2e-15


class TestVariationalSummaries:
    def test_log_norm_spread_reads_the_gauge_only(self, rng):
        # a -> l a, b -> b / l leaves every product state as it is and moves
        # the spread by |2 log l| from equal norms.
        a = np.stack([random_ket(rng).amplitudes for _ in range(5)])
        b = np.stack([random_ket(rng).amplitudes for _ in range(5)])
        scales = np.array([1.0, 2.0, 0.5, 10.0, 1.0])
        gauged = Trajectory.from_components(
            0.1, np.hstack([a * scales[:, None], b / scales[:, None]]), (2, 2))
        plain = Trajectory.from_components(0.1, np.hstack([a, b]), (2, 2))
        assert np.allclose(gauged.full, plain.full, rtol=0, atol=1e-15)
        assert np.allclose(log_norm_spread(plain), 0.0, atol=1e-15)
        assert np.allclose(log_norm_spread(gauged), np.abs(2.0 * np.log(scales)), atol=1e-14)

    def test_period_two_amplitude_of_an_alternating_mode(self, rng):
        # psi_n = (-1)^n v gives a stencil of 8 (-1)^(n+1) v, so p_n = ||v||.
        v = random_ket(rng, 4).amplitudes * 3.0
        states = ((-1.0) ** np.arange(7))[:, None] * v
        assert np.allclose(period_two_amplitude(states), 3.0, rtol=1e-15)
        assert period_two_amplitude(states[:3]).shape == (0,)

    def test_period_two_rate_fits_the_second_half(self):
        dt = 0.1
        amplitude = np.exp(0.7 * dt * np.arange(1, 41))
        amplitude[:20] = 1.0  # the first half is not fitted
        assert period_two_rate(dt, amplitude) == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("amplitude", [[], [1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
    def test_period_two_rate_needs_two_positive_values(self, amplitude):
        assert period_two_rate(0.1, np.array(amplitude)) is None


class TestConvergenceOrder:
    def test_exact_power_laws(self):
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        assert convergence_order(dts, 3.7 * dts) == pytest.approx(1.0, abs=1e-12)
        assert convergence_order(dts, 0.2 * dts**2) == pytest.approx(2.0, abs=1e-12)

    def test_end_to_end_first_order_measurement(self, fig1_state):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        exact = exact_sse_swap(data, 1.0)
        exact_vec = np.concatenate([p.amplitudes for p in exact.parts])
        dts = [0.1, 0.05, 0.02]
        errors = []
        for dt in dts:
            traj = splitting_run(SplittingScheme.LIE_TROTTER, H, fig1_state, dt,
                                 int(round(1.0 / dt)))
            vec = traj.components[-1]
            errors.append(np.linalg.norm(vec - exact_vec))
        assert convergence_order(dts, errors) == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            convergence_order([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ValueError):
            convergence_order([0.1, 0.05, -0.01], [1.0, 0.5, 0.1])
        with pytest.raises(ValueError):
            convergence_order([0.1, 0.05, 0.02], [1.0, 0.5, 0.0])
