import tracemalloc

import numpy as np
import pytest

from sepdyn.analysis import (
    convergence_order,
    overlap_series,
    purity_series,
    rate_of_change_nuclear,
    reduced_density_series,
)
from sepdyn.exact_swap import SwapInitialData, exact_se_swap, exact_sse_swap
from sepdyn.hamiltonians import local_sum_hamiltonian, random_hermitian, swap_hamiltonian
from sepdyn.propagators import SplittingScheme, Trajectory, evolve, se_evolve
from sepdyn.states import ComponentState, nuclear_norm, tensor_product

from conftest import random_ket
from test_reduced import random_local


def swap_trajectories(fig1_state, dt=0.01, steps=100):
    H = swap_hamiltonian(2)
    sse = evolve(SplittingScheme.LIE_TROTTER, H, fig1_state, dt, steps)
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
        sse = evolve(SplittingScheme.LIE_TROTTER, H, state, 0.05, 80)
        se = se_evolve(H, tensor_product(state), 0.05, 80)
        overlap = overlap_series(se, sse)
        # Equal up to a running global phase, so the modulus pins to one.
        assert np.max(np.abs(np.abs(overlap) - 1.0)) < 1e-10

    def test_cauchy_schwarz_bound(self, rng):
        H = random_hermitian(2, seed=20)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        sse = evolve(SplittingScheme.STRANG, H, state, 0.02, 200)
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
            traj = evolve(SplittingScheme.LIE_TROTTER, H, fig1_state, dt,
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
