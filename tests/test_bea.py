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
        times = 0.1 * np.arange(21)
        for _ in range(3):
            a, b = random_ket(rng), random_ket(rng)
            data = SwapInitialData(a, b)
            sol = bea.rk_integrate(bea.ModifiedRHS(scheme, 0, 0.1),
                                   np.concatenate([a.amplitudes, b.amplitudes]), 0.1, 20)
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
                                       np.concatenate([a.amplitudes, b.amplitudes]),
                                       dt, steps)
                errors.append(np.linalg.norm(traj.components[-1] - sol.y_eval[-1]))
            assert abs(convergence_order(self.DTS, errors) - slope) < 0.1


class TestAgainstScipy:
    """rk_integrate against scipy's DOP853, an independent eighth-order solver."""

    @pytest.mark.parametrize("scheme", [LIE_TROTTER, STRANG])
    def test_order_two_truncation(self, rng, scheme):
        integrate = pytest.importorskip("scipy.integrate")
        rhs = bea.ModifiedRHS(scheme, 2, 0.2)
        times = 0.1 * np.arange(31)
        for _ in range(3):
            a, b = random_ket(rng), random_ket(rng)
            ours = bea.rk_integrate(rhs, np.concatenate([a.amplitudes, b.amplitudes]),
                                    0.1, 30)
            reference = integrate.solve_ivp(
                rhs, (0.0, times[-1]), stacked(ComponentState((a, b))), method="DOP853",
                rtol=1e-12, atol=1e-12, t_eval=times)
            assert reference.success
            assert np.max(np.abs(ours.y_eval - reference.y.T)) <= 1e-11


class TestRkIntegrateInputs:
    @pytest.mark.parametrize("dt, steps, message", [
        (0.0, 10, "dt must be finite and positive"),
        (-0.1, 10, "dt must be finite and positive"),
        (np.nan, 10, "dt must be finite and positive"),
        (np.inf, 10, "dt must be finite and positive"),
        (0.1, 0, "steps must be at least 1"),
        (0.1, -2, "steps must be at least 1"),
    ])
    def test_rejects_a_grid_without_steps(self, dt, steps, message):
        def rhs(t, y):
            raise AssertionError("the field was called before the grid was checked")

        with pytest.raises(ValueError, match=message):
            bea.rk_integrate(rhs, np.array([1.0, 0.0, 0.6, 0.8], dtype=complex), dt, steps)

    def test_samples_the_grid_of_dt_and_steps(self):
        # y' = -i y from y(0) = 1: every sample is exp(-i t_i) at t_i = i * dt.
        sol = bea.rk_integrate(lambda t, y: -1j * y, np.array([1.0 + 0j]), 0.25, 7)
        assert sol.y_eval.shape == (8, 1)
        assert np.max(np.abs(sol.y_eval[:, 0] - np.exp(-1j * 0.25 * np.arange(8)))) < 1e-11

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_stops_the_solver(self, bad):
        # A NaN step size neither advances t nor compares below the underflow
        # bound; the call budget turns a solver that loops on it into a failure.
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("rk_integrate kept calling a non-finite field")
            return np.full_like(y, bad)

        y0 = np.array([1.0, 0.0, 0.6, 0.8], dtype=complex)
        with pytest.raises(bea.StepSizeUnderflowError):
            bea.rk_integrate(rhs, y0, 0.1, 3)

    def test_unit_scale_field_runs_at_the_cap_from_the_first_step(self):
        # y' = -i y to t = 1.75: every step is the interpolation cap, none is
        # rejected, and each costs six field calls after the first call.
        sol = bea.rk_integrate(lambda t, y: -1j * y, np.array([1.0 + 0j]), 0.25, 7)
        h_cap = (384.0 * bea.RK_TOL) ** 0.25
        assert sol.steps == int(np.ceil(1.75 / h_cap))
        assert sol.rejected == 0
        assert sol.rhs_evals == 1 + 6 * sol.steps

    def test_fast_field_rejects_the_first_step_and_recovers(self):
        # y' = -1e3 i y: a first step at the cap is far too large for this
        # field; the rejection branch shrinks it and the samples stay accurate.
        sol = bea.rk_integrate(lambda t, y: -1e3j * y, np.array([1.0 + 0j]), 0.001, 10)
        assert sol.rejected >= 1
        times = 0.001 * np.arange(11)
        assert np.max(np.abs(sol.y_eval[:, 0] - np.exp(-1e3j * times))) < 1e-9

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            bea.OdeSolution(np.array([[np.nan + 0j]]), steps=1, rejected=0, rhs_evals=8)
