from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdyn.exact_swap import SwapInitialData, exact_sse_swap, lie_trotter_swap_closed_form
from sepdyn.hamiltonians import (
    HermitianOperator,
    local_sum_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn.propagators import (
    SplittingScheme,
    Trajectory,
    evolve,
    hermitian_expm_apply,
    lie_trotter_step,
    se_evolve,
    sse_component_flow,
    strang_step,
)
from sepdyn.states import ComponentState, FullState, Ket, inner, tensor_product

from conftest import random_ket
from test_reduced import random_local

SIGMA_Z = HermitianOperator(np.diag([1.0, -1.0]), (2,))


def stacked(state: ComponentState) -> np.ndarray:
    return np.concatenate([p.amplitudes for p in state.parts])


class TestHermitianExpmApply:
    def test_zero_time_is_identity(self, rng):
        H = random_hermitian(2, seed=0)
        v = random_ket(rng, 4).amplitudes
        out = hermitian_expm_apply(H, 0.0, v)
        assert np.allclose(out, v)

    def test_rank_one_projector_formula(self, rng):
        b = random_ket(rng)
        H = HermitianOperator(np.outer(b.amplitudes, b.amplitudes.conj()), (2,))
        a = random_ket(rng)
        t = 0.37
        out = hermitian_expm_apply(H, t, a.amplitudes)
        overlap = inner(b, a)
        expected = a.amplitudes + overlap * (np.exp(-1j * t) - 1.0) * b.amplitudes
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_diagonal_phase(self):
        out = hermitian_expm_apply(SIGMA_Z, np.pi, np.array([1.0, 0.0]))
        assert np.allclose(out, [-1.0, 0.0], atol=1e-14)

    def test_norm_preserved(self, rng):
        H = random_hermitian(3, seed=2)
        v = random_ket(rng, 8, normalize=False)
        out = hermitian_expm_apply(H, 1.7, v.amplitudes)
        assert abs(np.linalg.norm(out) - v.norm()) < 1e-12

    def test_non_hermitian_rejected(self, rng):
        # Checked once, where the operator is built, not on every application.
        with pytest.raises(ValueError):
            hermitian_expm_apply(HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,)),
                                 1.0, random_ket(rng).amplitudes)

    def test_operator_decomposed_once(self, rng, monkeypatch):
        H = random_hermitian(2, seed=4)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        v = random_ket(rng, 4).amplitudes
        first = hermitian_expm_apply(H, 0.3, v)
        again = hermitian_expm_apply(H, 0.3, v)
        grid = se_evolve(H, FullState(v, (2, 2)), 0.1, 3)
        assert len(calls) == 1
        assert np.array_equal(first, again)
        assert np.max(np.abs(grid.full[3] - first)) < 1e-12


class TestSeFlow:
    """The unrestricted flow: exp(-i t H) applied to the full state."""

    def test_swap_closed_form(self, fig1_state):
        H = swap_hamiltonian(2)
        psi0 = tensor_product(fig1_state).amplitudes
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        for t in (0.3, 1.0, 4.2):
            flowed = hermitian_expm_apply(H, t, psi0)
            a, b = data.a0.amplitudes, data.b0.amplitudes
            expected = np.cos(t) * np.kron(a, b) - 1j * np.sin(t) * np.kron(b, a)
            assert np.max(np.abs(flowed - expected)) < 1e-12

    def test_zero_hamiltonian_is_constant(self, rng):
        H = HermitianOperator(np.zeros((4, 4)), (2, 2))
        psi0 = random_ket(rng, 4).amplitudes
        assert np.allclose(hermitian_expm_apply(H, 2.3, psi0), psi0)

    def test_group_property(self, rng):
        H = random_hermitian(2, seed=6)
        psi0 = random_ket(rng, 4).amplitudes
        once = hermitian_expm_apply(H, 0.9, hermitian_expm_apply(H, 0.4, psi0))
        direct = hermitian_expm_apply(H, 1.3, psi0)
        assert np.max(np.abs(once - direct)) < 1e-10

    def test_unitary(self, rng):
        H = random_hermitian(2, seed=6)
        psi0 = random_ket(rng, 4).amplitudes
        assert abs(np.linalg.norm(hermitian_expm_apply(H, 5.0, psi0)) - 1.0) < 1e-12


class TestSseComponentFlow:
    def test_swap_matches_single_update_formula(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        t = 0.21
        out = sse_component_flow(H, state, 0, t)
        q_conj = inner(b, a)
        expected = a.amplitudes + q_conj * (np.exp(-1j * t) - 1.0) * b.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    def test_zero_time(self, rng):
        H = random_hermitian(2, seed=1)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        out = sse_component_flow(H, state, 1, 0.0)
        assert np.allclose(out.amplitudes, state.parts[1].amplitudes)

    def test_local_sum_gives_shifted_local_flow(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2], (2, 2))
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        t = 0.8
        out = sse_component_flow(H, state, 0, t)
        shift = np.real(np.vdot(b.amplitudes, h2.entries @ b.amplitudes))
        shifted = HermitianOperator(h1.entries + shift * np.eye(2), (2,))
        expected = hermitian_expm_apply(shifted, t, a.amplitudes)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


class TestLieTrotterStep:
    def test_matches_closed_form(self, rng):
        H = swap_hamiltonian(2)
        for _ in range(50):
            a, b = random_ket(rng), random_ket(rng)
            state = ComponentState((a, b))
            stepped = lie_trotter_step(H, state, 0.05)
            closed = lie_trotter_swap_closed_form(a, b, 0.05)
            assert np.max(np.abs(stacked(stepped) - stacked(closed))) < 1e-12

    def test_small_step_is_near_identity(self, rng):
        H = random_hermitian(2, seed=12)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        for dt in (1e-3, 1e-4):
            stepped = lie_trotter_step(H, state, dt)
            assert np.max(np.abs(stacked(stepped) - stacked(state))) < 10 * dt

    def test_exact_for_decoupled_hamiltonian(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2], (2, 2))
        state = ComponentState((random_ket(rng), random_ket(rng)))
        dt, steps = 0.25, 40
        traj = evolve(SplittingScheme.LIE_TROTTER, H, state, dt, steps)
        # Phases differ by the partner expectation shift; projectors match.
        for j, local in enumerate((h1, h2)):
            flow = HermitianOperator(local.entries, (2,))
            for i in (10, 25, 40):
                exact = hermitian_expm_apply(flow, dt * i, state.parts[j].amplitudes)
                num = traj.components[i, 2 * j : 2 * j + 2]
                p_num = np.outer(num, num.conj())
                p_exa = np.outer(exact, exact.conj())
                assert np.max(np.abs(p_num - p_exa)) < 1e-10


class TestStrangStep:
    def test_single_step_third_order_local_error(self, fig1_state):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        errors = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            stepped = strang_step(H, fig1_state, dt)
            exact = exact_sse_swap(data, dt)
            errors.append(np.max(np.abs(stacked(stepped) - stacked(exact))))
        slopes = np.diff(np.log(errors)) / np.diff(np.log(dts))
        assert np.all(np.abs(slopes - 3.0) < 0.2)

    def test_zero_step_is_identity(self, rng):
        H = random_hermitian(2, seed=3)
        state = ComponentState((random_ket(rng), random_ket(rng)))
        stepped = strang_step(H, state, 0.0)
        assert np.allclose(stacked(stepped), stacked(state))

    @pytest.mark.parametrize("n_parts", [2, 3])
    def test_adjoint_symmetry(self, rng, n_parts):
        H = random_hermitian(n_parts, seed=9)
        state = ComponentState(tuple(random_ket(rng) for _ in range(n_parts)))
        forward = strang_step(H, state, 0.3)
        back = strang_step(H, forward, -0.3)
        assert np.max(np.abs(stacked(back) - stacked(state))) < 1e-10


class TestEvolve:
    def test_tracks_closed_form_at_fine_step(self, fig1_state):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        dt, steps = 0.001, 2000
        traj = evolve(SplittingScheme.LIE_TROTTER, H, fig1_state, dt, steps)
        worst = 0.0
        for i in (0, 500, 1000, 2000):
            exact = exact_sse_swap(data, traj.times[i])
            worst = max(worst, np.max(np.abs(
                traj.components[i] - stacked(exact))))
        assert worst < 5e-3

    def test_rejects_zero_steps(self, fig1_state):
        with pytest.raises(ValueError):
            evolve(SplittingScheme.LIE_TROTTER, swap_hamiltonian(2), fig1_state,
                   0.1, 0)

    def test_zero_hamiltonian_constant(self, rng):
        H = HermitianOperator(np.zeros((4, 4)), (2, 2))
        state = ComponentState((random_ket(rng), random_ket(rng)))
        traj = evolve(SplittingScheme.STRANG, H, state, 0.5, 8)
        for recorded in traj.components:
            assert np.allclose(recorded, stacked(state))

    def test_norm_and_transition_amplitude_conserved(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        state = ComponentState((a, b))
        traj = evolve(SplittingScheme.LIE_TROTTER, H, state, 0.01, 400)
        q0 = inner(a, b)
        for recorded in traj.components[::50]:
            assert abs(np.linalg.norm(recorded[:2]) - 1) < 1e-12
            assert abs(np.linalg.norm(recorded[2:]) - 1) < 1e-12
            assert abs(inner(recorded[:2], recorded[2:]) - q0) < 1e-12
        assert np.max(np.abs(traj.diagnostics["norm"] - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "scheme,order",
        [(SplittingScheme.LIE_TROTTER, 1.0), (SplittingScheme.STRANG, 2.0)],
    )
    def test_convergence_order(self, fig1_state, scheme, order):
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        exact = stacked(exact_sse_swap(data, 1.0))
        dts = [0.1, 0.02, 0.005]
        errors = []
        for dt in dts:
            traj = evolve(scheme, H, fig1_state, dt, int(round(1.0 / dt)))
            errors.append(np.linalg.norm(traj.components[-1] - exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - order) < 0.1

    def test_strang_exact_for_decoupled_hamiltonian(self, rng):
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2], (2, 2))
        state = ComponentState((random_ket(rng), random_ket(rng)))
        traj = evolve(SplittingScheme.STRANG, H, state, 0.3, 20)
        for j, local in enumerate((h1, h2)):
            exact = hermitian_expm_apply(local, 0.3 * 20, state.parts[j].amplitudes)
            num = traj.components[-1, 2 * j : 2 * j + 2]
            p_num = np.outer(num, num.conj())
            p_exa = np.outer(exact, exact.conj())
            assert np.max(np.abs(p_num - p_exa)) < 1e-10


class TestSeEvolve:
    def test_grid_matches_pointwise_flow(self, rng):
        H = random_hermitian(2, seed=13)
        psi0 = FullState(random_ket(rng, 4).amplitudes, (2, 2))
        traj = se_evolve(H, psi0, 0.2, 10)
        for i in (0, 3, 10):
            direct = hermitian_expm_apply(H, traj.times[i], psi0.amplitudes)
            assert np.max(np.abs(traj.full[i] - direct)) < 1e-12


class TestTrajectoryValidation:
    def test_rejects_non_uniform_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1, 0.3]))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, -0.1, -0.2]))

    def test_rejects_mismatched_states(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), (2, 2), full=np.ones((3, 4)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), (2, 2), components=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), full=np.ones((2, 4)))

    def test_components_imply_full_state(self, rng):
        rows = np.stack([stacked(ComponentState((random_ket(rng), random_ket(rng))))
                         for _ in range(3)])
        traj = Trajectory.from_components(np.arange(3.0), rows, (2, 2))
        for row, full in zip(rows, traj.full):
            expected = tensor_product(ComponentState((Ket(row[:2]), Ket(row[2:]))))
            assert np.array_equal(full, expected.amplitudes)
        assert np.allclose(traj.diagnostics["norm"], np.linalg.norm(traj.full, axis=1))
        assert not traj.full.flags.writeable

    def test_rejects_mismatched_series(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1]), diagnostics={"norm": np.ones(3)})


class TestSplittingInvariants:
    """Every sub-step is a unitary flow of one component, so a splitting step
    keeps each component's norm, whatever H couples them."""

    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]),
           dt=st.floats(1e-3, 2.0),
           step=st.sampled_from([lie_trotter_step, strang_step]))
    @settings(max_examples=60, deadline=None)
    def test_each_component_keeps_its_norm(self, seed, dims, dt, step):
        rng = np.random.default_rng(seed)
        dim = prod(dims)
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = HermitianOperator(mat + mat.conj().T, dims)
        state = ComponentState(tuple(random_ket(rng, d, normalize=False) for d in dims))
        after = step(H, state, dt)
        for before_part, after_part in zip(state.parts, after.parts):
            assert after_part.norm() == pytest.approx(before_part.norm(), rel=1e-12)
