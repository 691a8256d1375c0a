import numpy as np
import pytest

from sepdyn import bea
from sepdyn.analysis import convergence_order
from sepdyn.exact_swap import SwapInitialData, exact_sse_swap
from sepdyn.hamiltonians import swap_hamiltonian
from sepdyn.propagators import SplittingScheme
from sepdyn.states import ComponentState

from conftest import random_ket, splitting_run

LIE_TROTTER = SplittingScheme.LIE_TROTTER
STRANG = SplittingScheme.STRANG


def stacked(state: ComponentState) -> np.ndarray:
    return np.concatenate([p.amplitudes for p in state.parts])


def componentwise_field(scheme, order, dt, a, b):
    """The modified series written out component by component, as a reference."""
    q = np.vdot(a, b)
    mod_q2 = abs(q) ** 2
    first = 1.0 if order >= 1 else 0.0
    second = 1.0 if order >= 2 else 0.0
    if scheme is LIE_TROTTER:
        quad = (1.0 / 6.0) * 1j * (dt * dt) * (mod_q2 - 1.0) * second
        da = (-1j - 0.5 * dt * first - quad) * (b * np.vdot(b, a)) \
            + 0.5 * dt * mod_q2 * first * a
        db = (-1j + 0.5 * dt * first - quad) * (a * np.vdot(a, b)) \
            - 0.5 * dt * mod_q2 * first * b
    else:
        da = -1j * ((1.0 - dt * dt / 24.0 * (1.0 - 4.0 * mod_q2) * second)
                    * (b * np.vdot(b, a))
                    - 0.125 * (dt * dt) * mod_q2 * second * a)
        db = -1j * ((1.0 - dt * dt / 24.0 * (1.0 + 2.0 * mod_q2) * second)
                    * (a * np.vdot(a, b))
                    + 0.125 * (dt * dt) * mod_q2 * second * b)
    return np.concatenate([da, db])


def one_step(rhs, y, h):
    """Stages of one Dormand-Prince step from t = 0, and the step's y_new."""
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(0.0, y)
    return k, bea._dp_stages(rhs, 0.0, y, h, k)


class TestModifiedRHS:
    @pytest.mark.parametrize("scheme, order", [(LIE_TROTTER, 3), (STRANG, 1), (STRANG, 4)])
    def test_rejects_orders_outside_the_series(self, scheme, order):
        with pytest.raises(ValueError):
            bea.ModifiedRHS(scheme, order, 0.1)

    @pytest.mark.parametrize("scheme, order", [
        (LIE_TROTTER, 0), (LIE_TROTTER, 1), (LIE_TROTTER, 2), (STRANG, 0), (STRANG, 2),
    ])
    def test_a_scheme_name_gives_its_member_series(self, rng, scheme, order):
        by_name = bea.ModifiedRHS(scheme.value, order, 0.1)
        assert by_name.scheme is scheme
        assert by_name == bea.ModifiedRHS(scheme, order, 0.1)
        for _ in range(3):
            y = np.concatenate([random_ket(rng).amplitudes, random_ket(rng).amplitudes])
            assert np.array_equal(by_name(0.0, y), bea.ModifiedRHS(scheme, order, 0.1)(0.0, y))

    @pytest.mark.parametrize("scheme", ["yoshida", "", "LIE_TROTTER", None, ["strang"]])
    def test_rejects_a_scheme_without_a_series(self, scheme):
        with pytest.raises(ValueError, match="no modified series"):
            bea.ModifiedRHS(scheme, 0, 0.1)

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

    @pytest.mark.parametrize("scheme, order", [
        (LIE_TROTTER, 0), (LIE_TROTTER, 1), (LIE_TROTTER, 2), (STRANG, 0), (STRANG, 2),
    ])
    def test_coefficient_matrix_matches_the_componentwise_series(self, rng, scheme, order):
        # Only the order of the roundings differs between the two forms.
        for dt in (0.01, 0.3):
            rhs = bea.ModifiedRHS(scheme, order, dt)
            for _ in range(5):
                a, b = random_ket(rng).amplitudes, random_ket(rng).amplitudes
                expected = componentwise_field(scheme, order, dt, a, b)
                got = rhs(0.0, np.concatenate([a, b]))
                assert np.max(np.abs(got - expected)) <= 1e-15


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
                traj = splitting_run(scheme, H, ComponentState((a, b)), dt, steps)
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


class TestContinuousExtension:
    """The quartic that fills the samples between the ends of a step."""

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_interior_error_falls_with_the_fifth_power_of_the_step(self, theta):
        # y' = -i y from y(0) = 1: one step's extension against exp(-i theta h).
        rhs = lambda t, y: -1j * y  # noqa: E731
        y0 = np.array([1.0 + 0j])
        hs = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for h in hs:
            k, _ = one_step(rhs, y0, h)
            sample = y0 + h * (bea._dense_weights(np.array([theta])) @ k)[0]
            errors.append(abs(sample[0] - np.exp(-1j * theta * h)))
        assert abs(convergence_order(hs, errors) - 5.0) <= 0.2

    def test_end_of_the_step_is_the_fifth_order_solution(self, rng):
        # Every coefficient of the quartics enters at theta = 1.
        a, b = random_ket(rng), random_ket(rng)
        y0 = np.concatenate([a.amplitudes, b.amplitudes])
        rhs = bea.ModifiedRHS(LIE_TROTTER, 2, 0.1)
        for h in (0.3, 0.05):
            k, y_new = one_step(rhs, y0, h)
            end = y0 + h * (bea._dense_weights(np.array([1.0])) @ k)[0]
            assert np.linalg.norm(end - y_new) <= 1e-15 * np.linalg.norm(y_new)

    @pytest.mark.parametrize("scheme, order", [(LIE_TROTTER, 2), (STRANG, 2)])
    def test_samples_between_steps_match_scipy_rk45(self, rng, scheme, order):
        # RK45 is the same pair with the same quartic dense output.
        integrate = pytest.importorskip("scipy.integrate")
        rhs = bea.ModifiedRHS(scheme, order, 0.2)
        dt, steps = 0.0005, 4000
        a, b = random_ket(rng), random_ket(rng)
        y0 = np.concatenate([a.amplitudes, b.amplitudes])
        ours = bea.rk_integrate(rhs, y0, dt, steps)
        assert ours.min_step > 5 * dt  # several samples inside each step
        reference = integrate.solve_ivp(rhs, (0.0, dt * steps), y0, method="RK45",
                                        rtol=1e-12, atol=1e-12, dense_output=True)
        assert reference.success
        times = dt * np.arange(steps + 1)
        assert np.max(np.abs(ours.y_eval - reference.sol(times).T)) <= 1e-10


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

    def test_unit_scale_field_keeps_its_first_step(self):
        # y' = -i y to t = 1.75: the first step, RK_TOL ** 0.2, is accepted,
        # the controller sets every later one, and each step costs six field
        # calls after the first call.
        sol = bea.rk_integrate(lambda t, y: -1j * y, np.array([1.0 + 0j]), 0.25, 7)
        assert bea.RK_FIRST_STEP == bea.RK_TOL ** 0.2
        assert sol.rejected == 0
        assert sol.min_step == bea.RK_FIRST_STEP
        assert sol.max_step > bea.RK_FIRST_STEP
        assert sol.steps < 1.75 / bea.RK_FIRST_STEP
        assert sol.rhs_evals == 1 + 6 * (sol.steps + sol.rejected)

    def test_spent_step_budget_stops_the_solver(self):
        # y' = -1e4 i y to t = 1 needs about 2.5e6 steps of about 4e-7; the
        # solver stops after RK_MAX_STEPS accepted plus rejected ones.
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            return -1e4j * y

        with pytest.raises(bea.StepSizeUnderflowError,
                           match=f"step budget of {bea.RK_MAX_STEPS} steps spent"):
            bea.rk_integrate(rhs, np.array([1.0 + 0j]), 1.0, 1)
        assert calls == 1 + 6 * bea.RK_MAX_STEPS

    def test_fast_field_rejects_the_first_step_and_recovers(self):
        # y' = -1e3 i y: the first step is far too large for this field; the
        # rejection branch shrinks it and the samples stay accurate.
        sol = bea.rk_integrate(lambda t, y: -1e3j * y, np.array([1.0 + 0j]), 0.001, 10)
        assert sol.rejected >= 1
        times = 0.001 * np.arange(11)
        assert np.max(np.abs(sol.y_eval[:, 0] - np.exp(-1e3j * times))) < 1e-9

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            bea.OdeSolution(np.array([[np.nan + 0j]]), steps=1, rejected=0, rhs_evals=7,
                            min_step=0.1, max_step=0.1)
