import numpy as np
import pytest

from sepdyn import bea
from sepdyn.analysis import convergence_order
from sepdyn.exact_swap import SwapInitialData, exact_sse_swap
from sepdyn.hamiltonians import swap_hamiltonian
from sepdyn.propagators import SplittingScheme, evolve
from sepdyn.states import ComponentState

from conftest import random_ket

LIE_TROTTER = SplittingScheme.LIE_TROTTER
STRANG = SplittingScheme.STRANG


def stacked(state: ComponentState) -> np.ndarray:
    return np.concatenate([p.amplitudes for p in state.parts])


class TestModifiedRHS:
    @pytest.mark.parametrize("scheme, order", [(LIE_TROTTER, 3), (STRANG, 1), (STRANG, 4)])
    def test_rejects_orders_outside_the_series(self, scheme, order):
        with pytest.raises(ValueError):
            bea.ModifiedRHS(scheme, order, 0.1)

    @pytest.mark.parametrize("scheme", [LIE_TROTTER, STRANG])
    def test_order_zero_is_the_restricted_swap_flow(self, rng, scheme):
        times = np.linspace(0.0, 2.0, 21)
        for _ in range(3):
            a, b = random_ket(rng), random_ket(rng)
            data = SwapInitialData(a, b)
            sol = bea.rk_integrate(bea.ModifiedRHS(scheme, 0, 0.1),
                                   (a.amplitudes, b.amplitudes), (0.0, 2.0),
                                   tol=1e-12, t_eval=times)
            exact = np.stack([stacked(exact_sse_swap(data, t)) for t in times])
            assert np.max(np.abs(sol.y_eval - exact)) <= 1e-12


class TestTruncationOrder:
    """The splitting trajectory deviates from the order-p truncation of its
    modified equation as dt^(p+1) for Lie-Trotter and dt^(p+2) for Strang,
    measured at T = 1 on the exchange system."""

    DTS = [0.08, 0.04, 0.02, 0.01]

    @pytest.mark.parametrize("scheme, order, slope", [
        (LIE_TROTTER, 0, 1.0),
        (LIE_TROTTER, 1, 2.0),
        (LIE_TROTTER, 2, 3.0),
        (STRANG, 0, 2.0),
        (STRANG, 2, 4.0),
    ])
    def test_deviation_from_splitting_converges_at_expected_slope(self, rng, scheme,
                                                                   order, slope):
        H = swap_hamiltonian(2)
        for _ in range(3):
            a, b = random_ket(rng), random_ket(rng)
            errors = []
            for dt in self.DTS:
                steps = int(round(1.0 / dt))
                traj = evolve(scheme, H, ComponentState((a, b)), dt, steps)
                sol = bea.rk_integrate(bea.ModifiedRHS(scheme, order, dt),
                                       (a.amplitudes, b.amplitudes), (0.0, traj.times[-1]),
                                       tol=1e-13, t_eval=traj.times[-1:])
                errors.append(np.linalg.norm(traj.components[-1] - sol.y_eval[0]))
            assert abs(convergence_order(self.DTS, errors) - slope) < 0.1


class TestAgainstScipy:
    """rk_integrate against scipy's DOP853, an independent eighth-order solver."""

    @pytest.mark.parametrize("scheme", [LIE_TROTTER, STRANG])
    def test_order_two_truncation(self, rng, scheme):
        integrate = pytest.importorskip("scipy.integrate")
        rhs = bea.ModifiedRHS(scheme, 2, 0.2)
        times = np.linspace(0.0, 3.0, 31)
        for _ in range(3):
            a, b = random_ket(rng), random_ket(rng)
            ours = bea.rk_integrate(rhs, (a.amplitudes, b.amplitudes), (0.0, 3.0),
                                    tol=1e-12, t_eval=times)
            reference = integrate.solve_ivp(
                rhs, (0.0, 3.0), stacked(ComponentState((a, b))), method="DOP853",
                rtol=1e-12, atol=1e-12, t_eval=times)
            assert reference.success
            assert np.max(np.abs(ours.y_eval - reference.y.T)) <= 1e-11


class TestRkIntegrateInputs:
    def test_rejects_decreasing_sample_times(self, rng):
        a, b = random_ket(rng), random_ket(rng)
        with pytest.raises(ValueError, match="non-decreasing"):
            bea.rk_integrate(bea.ModifiedRHS(LIE_TROTTER, 0, 0.1), (a.amplitudes, b.amplitudes),
                             (0.0, 2.0), tol=1e-12, t_eval=[1.5, 0.5])

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            bea.OdeSolution(np.array([[np.nan + 0j]]), steps=1, rejected=0, rhs_evals=8)
