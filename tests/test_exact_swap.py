import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdyn.exact_swap import (
    SwapInitialData,
    exact_se_swap,
    exact_sse_swap,
    lie_trotter_swap_closed_form,
)
from sepdyn.hamiltonians import swap_hamiltonian
from sepdyn.propagators import hermitian_expm_apply
from sepdyn.states import ComponentState, Ket, inner, tensor_product

from conftest import random_ket


class TestSwapInitialData:
    def test_caches_transition_amplitude(self, fig1_state):
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        assert data.q == pytest.approx(1 / np.sqrt(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SwapInitialData(Ket(np.array([2.0, 0.0])), Ket(np.array([1.0, 0.0])))


class TestExactSeSwap:
    def test_initial_time(self, fig1_state):
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        assert np.allclose(exact_se_swap(data, 0.0).amplitudes,
                           tensor_product(fig1_state).amplitudes)

    def test_quarter_period_is_full_swap(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        data = SwapInitialData(a, b)
        out = exact_se_swap(data, np.pi / 2)
        expected = -1j * np.kron(b.amplitudes, a.amplitudes)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    def test_matches_matrix_exponential_flow(self, rng):
        H = swap_hamiltonian(2)
        a, b = random_ket(rng), random_ket(rng)
        data = SwapInitialData(a, b)
        psi0 = tensor_product_pair(a, b)
        for t in rng.uniform(0, 8, size=5):
            closed = exact_se_swap(data, t)
            flowed = hermitian_expm_apply(H, t, psi0.amplitudes)
            assert np.max(np.abs(closed.amplitudes - flowed)) < 1e-10

    def test_unit_norm_for_all_times(self, rng):
        data = SwapInitialData(random_ket(rng), random_ket(rng))
        for t in (0.0, 1.3, 7.7):
            assert abs(np.linalg.norm(exact_se_swap(data, t).amplitudes) - 1.0) < 1e-12


def tensor_product_pair(a: Ket, b: Ket):
    from sepdyn.states import ComponentState

    return tensor_product(ComponentState((a, b)))


class TestExactSseSwap:
    def test_initial_time(self, fig1_state):
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        out = exact_sse_swap(data, 0.0)
        assert np.allclose(out.parts[0].amplitudes, fig1_state.parts[0].amplitudes)
        assert np.allclose(out.parts[1].amplitudes, fig1_state.parts[1].amplitudes)

    def test_fig1_component_formula(self, fig1_state):
        # q = 1/sqrt(2) real, so a(t) = cos(t/sqrt2)|0> - i sin(t/sqrt2) b0.
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        t = 1.9
        theta = t / np.sqrt(2)
        out = exact_sse_swap(data, t)
        expected = (np.cos(theta) * fig1_state.parts[0].amplitudes
                    - 1j * np.sin(theta) * fig1_state.parts[1].amplitudes)
        assert np.max(np.abs(out.parts[0].amplitudes - expected)) < 1e-14

    def test_orthogonal_components_are_stationary(self):
        data = SwapInitialData(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
        out = exact_sse_swap(data, 5.0)
        assert np.allclose(out.parts[0].amplitudes, [1.0, 0.0])
        assert np.allclose(out.parts[1].amplitudes, [0.0, 1.0])

    def test_conserves_norms_and_transition_amplitude(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        data = SwapInitialData(a, b)
        for t in (0.4, 2.2, 9.1):
            out = exact_sse_swap(data, t)
            assert abs(np.linalg.norm(out.parts[0].amplitudes) - 1) < 1e-12
            assert abs(np.linalg.norm(out.parts[1].amplitudes) - 1) < 1e-12
            assert abs(inner(out.parts[0], out.parts[1]) - data.q) < 1e-12


class TestLieTrotterClosedForm:
    def test_zero_step(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        out = lie_trotter_swap_closed_form(a, b, 0.0)
        assert np.allclose(out.parts[0].amplitudes, a.amplitudes)
        assert np.allclose(out.parts[1].amplitudes, b.amplitudes)

    def test_conserves_norms_and_q(self, rng):
        for _ in range(20):
            a, b = random_ket(rng), random_ket(rng)
            q = inner(a, b)
            out = lie_trotter_swap_closed_form(a, b, 0.7)
            assert abs(np.linalg.norm(out.parts[0].amplitudes) - 1) < 1e-12
            assert abs(np.linalg.norm(out.parts[1].amplitudes) - 1) < 1e-12
            assert abs(inner(out.parts[0], out.parts[1]) - q) < 1e-12

    def test_second_order_agreement_with_exact_solution(self, rng):
        # One step deviates from the analytical solution at O(dt^2) with a
        # bounded constant across the sweep.
        a, b = random_ket(rng), random_ket(rng)
        data = SwapInitialData(a, b)
        ratios = []
        for dt in np.geomspace(1e-3, 1e-1, 7):
            stepped = lie_trotter_swap_closed_form(a, b, dt)
            exact = exact_sse_swap(data, dt)
            dev = max(
                np.max(np.abs(stepped.parts[j].amplitudes - exact.parts[j].amplitudes))
                for j in range(2)
            )
            ratios.append(dev / dt**2)
        assert max(ratios) < 10.0
        assert max(ratios) / min(ratios) < 10.0


class TestExactSseInvariants:
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           t=st.floats(-20.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_energy(self, seed, d, t):
        rng = np.random.default_rng(seed)
        data = SwapInitialData(random_ket(rng, d), random_ket(rng, d))
        mat = swap_hamiltonian(d).entries

        def energy(state):
            psi = tensor_product(state).amplitudes
            return np.vdot(psi, mat @ psi).real

        start = energy(ComponentState((data.a0, data.b0)))
        assert energy(exact_sse_swap(data, t)) == pytest.approx(start, abs=1e-12)
