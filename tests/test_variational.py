import re
import tracemalloc
from functools import partial
from math import prod, sqrt

import numpy as np
import pytest

from sepdyn import propagators, variational
from sepdyn.analysis import convergence_order, period_two_amplitude, period_two_rate
from sepdyn.exact_swap import SwapInitialData, exact_sse_swap
from sepdyn.hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn.propagators import SplittingScheme, Trajectory, hermitian_expm_apply
from sepdyn.states import ComponentState, Ket, kron, split_components
from sepdyn.variational import (
    BlowupError,
    DiscreteLagrangian,
    DiscreteTrajectory,
    FirstOrderLagrangian,
    NewtonConvergenceError,
    ORDERINGS,
    del_step,
    initial_step,
    integrate_discrete,
    integrate_separable_rows,
    newton_solve,
    se_lagrangian,
    separable_lagrangian,
    velocity_momentum,
)
from sepdyn.variational import _SubstitutedDiscreteLagrangian
from sepdyn.variational import _least_squares as real_least_squares

from conftest import local_sum_hamiltonian, random_ket, splitting_run
from test_reduced import random_local


def run_alone(ordering, H, alpha, dt, steps, state0, blowup_factor=None):
    """``integrate_separable_rows`` on one state: its trajectory, or its error raised."""
    (outcome,) = integrate_separable_rows(ordering, H, alpha, dt, [steps], [state0],
                                          blowup_factor)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


restrict_first = partial(run_alone, "restrict_first")
discretize_first = partial(run_alone, "discretize_first")


def random_args(rng, dim, count=4):
    return [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(count)]


def wirtinger_fd(f, args, arg, comp, h=1e-6):
    """Central differences of d f / d args[arg][comp] = (d_Re - i d_Im) / 2."""
    partials = []
    for delta in (h, 1j * h):
        plus = [a.copy() for a in args]
        plus[arg][comp] += delta
        minus = [a.copy() for a in args]
        minus[arg][comp] -= delta
        partials.append((f(*plus) - f(*minus)) / (2 * h))
    return 0.5 * (partials[0] - 1j * partials[1])


def fd_gradient_check(L, rng, dim, points=10, h=1e-6):
    """Wirtinger central differences against the analytic (psi, dpsi) gradient blocks."""
    worst = 0.0
    for _ in range(points):
        args = random_args(rng, dim, count=2)
        grads = L.gradient(*args)
        block = int(rng.integers(0, 2))  # psi is argument 0, dpsi argument 1
        comp = int(rng.integers(0, dim))
        fd = wirtinger_fd(L.evaluate, args, block, comp, h)
        scale = max(1.0, abs(grads[block][comp]))
        worst = max(worst, abs(fd - grads[block][comp]) / scale)
    return worst


def quartic_lagrangian(H, eps):
    """se_lagrangian plus eps (psibar . psi)^2, whose psi block reads psi itself."""
    se = se_lagrangian(H)

    def evaluate(psi, dpsi):
        return se.evaluate(psi, dpsi) + eps * complex(np.conj(psi) @ psi) ** 2

    def gradient(psi, dpsi):
        g_psi, g_dpsi = se.gradient(psi, dpsi)
        norm2 = np.sum(np.conj(psi) * psi, axis=-1, keepdims=True)
        return g_psi + 2.0 * eps * norm2 * np.conj(psi), g_dpsi

    return FirstOrderLagrangian(dim=se.dim, evaluate=evaluate, gradient=gradient)


def stack_state(state):
    return np.concatenate([p.amplitudes for p in state.parts])


def projector_distance(x, y):
    px = np.outer(x, x.conj()) / max(np.linalg.norm(x) ** 2, 1e-300)
    py = np.outer(y, y.conj()) / max(np.linalg.norm(y) ** 2, 1e-300)
    return np.max(np.abs(px - py))


class TestSeLagrangian:
    def test_real_on_conjugate_consistent_inputs(self, rng):
        L = se_lagrangian(swap_hamiltonian(2))
        for _ in range(20):
            psi, dpsi = random_args(rng, 4, count=2)
            value = L.evaluate(psi, dpsi)
            assert abs(value.imag) < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        L = se_lagrangian(swap_hamiltonian(2))
        assert fd_gradient_check(L, rng, 4, points=25) < 1e-6

    def test_rejects_non_hermitian_generator(self):
        bad = HermitianOperator.__new__(HermitianOperator)
        object.__setattr__(bad, "entries", np.array([[0.0, 1.0], [0.0, 0.0]]))
        object.__setattr__(bad, "dims", (2,))
        # se_lagrangian consumes HermitianOperator; the type itself enforces
        # symmetry, so only a forged instance can carry a bad matrix.
        L = se_lagrangian(bad)
        # The witness needs weight on both basis states: for [1, 0] the
        # value is -M[0, 0] = 0. Here it is -conj(psi_0) M[0, 1] psi_1 = -i/2.
        psi = np.array([1.0, 1j], dtype=complex) / np.sqrt(2.0)
        value = L.evaluate(psi, 0 * psi)
        assert abs(value.imag) > 0  # loses the reality property


class TestSeparableLagrangian:
    def test_zero_velocity_value_is_minus_expectation(self):
        L_sep = separable_lagrangian(se_lagrangian(swap_hamiltonian(2)), (2, 2))
        x = np.array([1, 0, 0, 1], dtype=complex)  # |0> and |1> stacked
        zero = np.zeros(4, dtype=complex)
        # The exchange maps |01> to |10>, orthogonal to |01>: expectation zero.
        assert L_sep.evaluate(x, zero) == pytest.approx(0.0)

    def test_velocity_linearity(self, rng):
        L_sep = separable_lagrangian(se_lagrangian(swap_hamiltonian(2)), (2, 2))
        x, xdot = random_args(rng, 4, count=2)
        base = L_sep.evaluate(x, 0 * xdot)
        one = L_sep.evaluate(x, xdot)
        three = L_sep.evaluate(x, 3 * xdot)
        assert three - base == pytest.approx(3 * (one - base), abs=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        L_sep = separable_lagrangian(se_lagrangian(swap_hamiltonian(2)), (2, 2))
        assert fd_gradient_check(L_sep, rng, 4, points=25) < 1e-6

    def test_three_party_gradients(self, rng):
        from sepdyn.hamiltonians import random_hermitian

        L_sep = separable_lagrangian(se_lagrangian(random_hermitian(3, 5)), (2, 2, 2))
        assert fd_gradient_check(L_sep, rng, 6, points=15) < 1e-6

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
    def test_pulls_back_a_gradient_that_reads_psi(self, rng, dims):
        L = quartic_lagrangian(random_hermitian(len(dims), 5), 0.3)
        assert fd_gradient_check(L, rng, prod(dims), points=15) < 1e-6
        assert fd_gradient_check(separable_lagrangian(L, dims), rng, sum(dims),
                                 points=25) < 1e-6


class TestDiscreteLagrangian:
    def test_alpha_range_enforced(self):
        L = se_lagrangian(swap_hamiltonian(2))
        with pytest.raises(ValueError):
            DiscreteLagrangian(L, 1.5, 0.1)
        with pytest.raises(ValueError):
            DiscreteLagrangian(L, 0.5, -0.1)

    def test_stationary_arguments_reduce_to_scaled_lagrangian(self, rng):
        L = se_lagrangian(swap_hamiltonian(2))
        Ld = DiscreteLagrangian(L, 0.3, 0.05)
        psi = random_args(rng, 4, count=1)[0]
        value = Ld.value(psi, psi)
        assert value == pytest.approx(0.05 * L.evaluate(psi, np.zeros_like(psi)), abs=1e-12)

    def test_real_on_conjugate_pairs(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        x, y = random_args(rng, 4, count=2)
        assert abs(Ld.value(x, y).imag) < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.4, 0.07)
        for _ in range(10):
            args = random_args(rng, 4, count=2)
            grads = (Ld.d1(*args), Ld.d3(*args))
            block = int(rng.integers(0, 2))  # x is argument 0, y argument 1
            comp = int(rng.integers(0, 4))
            fd = wirtinger_fd(Ld.value, args, block, comp)
            assert abs(fd - grads[block][comp]) < 1e-6 * max(1.0, abs(grads[block][comp]))


def kron_all(parts):
    out = parts[0]
    for p in parts[1:]:
        out = np.kron(out, p)
    return out


def split(x, dims):
    return np.split(x, np.cumsum(dims)[:-1])


def contract_all_but(g, vectors, k, dims):
    operands = [g.reshape(dims), list(range(len(dims)))]
    for j, vec in enumerate(vectors):
        if j != k:
            operands.extend([vec, [j]])
    return np.einsum(*operands, [k])


def reference_se_gradient(mat, psi, psibar, dpsi, dpsibar):
    """All four holomorphic partials of the Schroedinger Lagrangian."""
    return (-0.5j * dpsibar - mat.T @ psibar, 0.5j * dpsi - mat @ psi,
            0.5j * psibar, -0.5j * psi)


def reference_separable_gradient(mat, dims, x, xbar, xdot, xbardot):
    """The pulled-back gradient of the full chain rule, built with np.kron.

    Forms every product state and all four product-space blocks, then keeps
    the component blocks in x and xdot, in the same summation order as the
    package.
    """
    parts, bparts = split(x, dims), split(xbar, dims)
    dparts, bdparts = split(xdot, dims), split(xbardot, dims)

    def velocity(ps, vs):
        total = None
        for j in range(len(ps)):
            term = kron_all([vs[j] if i == j else ps[i] for i in range(len(ps))])
            total = term if total is None else total + term
        return total

    g1, _, g3, _ = reference_se_gradient(
        mat, kron_all(parts), kron_all(bparts), velocity(parts, dparts),
        velocity(bparts, bdparts))
    n = len(dims)
    gx, gxdot = [], []
    for k in range(n):
        block = contract_all_but(g1, parts, k, dims)
        for j in range(n):
            if j != k:
                mixed = [dparts[j] if i == j else parts[i] for i in range(n)]
                block = block + contract_all_but(g3, mixed, k, dims)
        gx.append(block)
        gxdot.append(contract_all_but(g3, parts, k, dims))
    return np.concatenate(gx), np.concatenate(gxdot)


def reference_discrete_partials(gradient, alpha, dt, x, xbar, y, ybar):
    """(d1, d3) of the quadrature by the chain rule through the interior point."""
    c = alpha * x + (1.0 - alpha) * y
    cbar = alpha * xbar + (1.0 - alpha) * ybar
    g1, g3 = gradient(c, cbar, (y - x) / dt, (ybar - xbar) / dt)
    return dt * alpha * g1 - g3, dt * (1.0 - alpha) * g1 + g3


def bit_identity_cases(rng):
    three = local_sum_hamiltonian([random_local(rng) for _ in range(3)])
    return [(swap_hamiltonian(2), (2, 2)), (three, (2, 2, 2))]


class TestResidualBitIdentity:
    """d1/d3 equal a np.kron, four-block reference of the chain rule exactly.

    The references carry barred copies through every layer, formed here from
    the points; the package conjugates once, inside se_lagrangian.
    """

    STEPS = [(0.5, 0.01), (0.3, 0.1)]

    def test_restrict_first_partials(self, rng):
        for H, dims in bit_identity_cases(rng):
            mat = H.entries

            def gradient(c, cbar, v, vbar):
                return reference_separable_gradient(mat, dims, c, cbar, v, vbar)

            for alpha, dt in self.STEPS:
                Ld = DiscreteLagrangian(
                    separable_lagrangian(se_lagrangian(H), dims), alpha, dt)
                for _ in range(5):
                    x, y = random_args(rng, sum(dims), count=2)
                    d1, d3 = reference_discrete_partials(gradient, alpha, dt, x, np.conj(x),
                                                         y, np.conj(y))
                    assert np.array_equal(Ld.d1(x, y), d1)
                    assert np.array_equal(Ld.d3(x, y), d3)

    def test_discretize_first_partials(self, rng):
        for H, dims in bit_identity_cases(rng):
            mat = H.entries

            def gradient(c, cbar, v, vbar):
                g1, _, g3, _ = reference_se_gradient(mat, c, cbar, v, vbar)
                return g1, g3

            for alpha, dt in self.STEPS:
                substituted = _SubstitutedDiscreteLagrangian(
                    DiscreteLagrangian(se_lagrangian(H), alpha, dt), dims)
                for _ in range(5):
                    x, y = random_args(rng, sum(dims), count=2)
                    parts_x, parts_y = split(x, dims), split(y, dims)
                    psi_x, psi_y = kron_all(parts_x), kron_all(parts_y)
                    full_d1, full_d3 = reference_discrete_partials(
                        gradient, alpha, dt, psi_x, np.conj(psi_x), psi_y, np.conj(psi_y))
                    d1 = np.concatenate([contract_all_but(full_d1, parts_x, k, dims)
                                         for k in range(len(dims))])
                    d3 = np.concatenate([contract_all_but(full_d3, parts_y, k, dims)
                                         for k in range(len(dims))])
                    assert np.array_equal(substituted.d1(x, y), d1)
                    assert np.array_equal(substituted.d3(x, y), d3)


def per_column_jacobian(residual, x, r):
    """Forward-difference Jacobian one residual call per column, as a reference."""
    m = x.size
    jac = np.empty((m, m))
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for j in range(m):
        h = sqrt_eps * max(1.0, abs(x[j]))
        bumped = x.copy()
        bumped[j] += h
        values = residual(bumped[: m // 2] + 1j * bumped[m // 2 :])
        jac[:, j] = (np.concatenate([values.real, values.imag]) - r) / h
    return jac


def stacking_cases():
    """The experiment systems: swap, a seeded random five-qubit H, the qutrit ladder."""
    return [
        (swap_hamiltonian(2), (2, 2)),
        (random_hermitian(5, 7), (2,) * 5),
        (correlator_hamiltonian(2), (3, 3, 3)),
    ]


def random_product_point(rng, dims):
    return np.concatenate([random_ket(rng, d).amplitudes for d in dims])


def captured_residual(monkeypatch, solve):
    """The row residual ``solve`` hands to the Newton loop, and its guesses."""
    seen = {}

    def capture(residual, guesses, **options):
        seen.update(residual=residual, guesses=np.asarray(guesses, dtype=complex))
        return [(guess, 0) for guess in seen["guesses"]]

    monkeypatch.setattr(variational, "_newton_rows", capture)
    solve()
    monkeypatch.undo()
    return seen["residual"], seen["guesses"]


def one_point(step, Ld, *points):
    """``initial_step`` or ``del_step`` on one-row stacks of ``points``: the
    row's (solution, iterations), or the error it ended with, raised."""
    (outcome,) = step(Ld, *(point[None] for point in points))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[:2]


def one_row(residual, row=0):
    """A row residual as a residual of one system: a point, or a stack of them."""
    return lambda y: residual(y[None], np.array([row]))[0]


def newton_jacobians(monkeypatch, residual, points):
    """The real-split Jacobians and residuals that ``_newton_rows`` hands to its
    first least-squares update, started at the rows of ``points``."""
    seen = {}

    def record(a, b):
        seen.update(jacobians=a.copy(), residuals=-b)
        return np.full_like(b, np.nan), np.full(len(b), -1)

    monkeypatch.setattr(variational, "_least_squares", record)
    variational._newton_rows(residual, points)
    monkeypatch.undo()
    return seen["jacobians"], seen["residuals"]


def jacobian_at(monkeypatch, residual, point):
    """The Newton Jacobian of row 0 of ``residual`` at ``point``, with the
    real-split point and the one-point residual there."""
    x = np.concatenate([point.real, point.imag])
    values = one_row(residual)(point)
    r = np.concatenate([values.real, values.imag])
    jacobians, residuals = newton_jacobians(monkeypatch, residual, point[None])
    # The stacked call's point 0 is the one-point call, bit for bit.
    assert np.array_equal(residuals[0], r)
    return jacobians[0], x, r


class TestStackedResiduals:
    """Stacked residual calls equal one-point calls row by row, bit for bit, so the
    one-call Jacobian equals the column-by-column one exactly."""

    ALPHA, DT = 0.5, 0.02

    def orderings(self, H, dims):
        L = se_lagrangian(H)
        restrict_first = DiscreteLagrangian(separable_lagrangian(L, dims), self.ALPHA,
                                            self.DT)
        discretize_first = _SubstitutedDiscreteLagrangian(
            DiscreteLagrangian(L, self.ALPHA, self.DT), dims)
        return restrict_first, discretize_first

    def test_partials_row_by_row(self, rng):
        for H, dims in stacking_cases():
            for Ld in self.orderings(H, dims):
                x = random_product_point(rng, dims)
                stack = np.stack([random_product_point(rng, dims) for _ in range(6)])
                d1 = Ld.d1(x, stack)
                d3 = Ld.d3(stack, x)
                assert d1.shape == d3.shape == stack.shape
                for row, y in enumerate(stack):
                    assert np.array_equal(d1[row], Ld.d1(x, y))
                    assert np.array_equal(d3[row], Ld.d3(y, x))

    def test_jacobian_equals_the_per_column_loop(self, rng, monkeypatch):
        for H, dims in stacking_cases():
            restrict_first, discretize_first = self.orderings(H, dims)
            x_prev = random_product_point(rng, dims)
            x_curr = x_prev + 0.01 * random_product_point(rng, dims)
            solves = [
                lambda: one_point(initial_step, restrict_first, x_prev),
                lambda: one_point(del_step, restrict_first, x_prev, x_curr),
                lambda: one_point(del_step, discretize_first, x_prev, x_curr),
            ]
            for solve in solves:
                residual, (guess,) = captured_residual(monkeypatch, solve)
                for point in (guess, guess + 0.01 * random_product_point(rng, dims)):
                    jac, x, r = jacobian_at(monkeypatch, residual, point)
                    assert np.array_equal(jac, per_column_jacobian(one_row(residual), x, r))

    def test_row_jacobians_equal_the_per_column_loop(self, rng, monkeypatch):
        # Several rows at once, each with its own data: every row's Jacobian is
        # the one its system alone gives, bit for bit.
        for H, dims in stacking_cases():
            for Ld in self.orderings(H, dims):
                prev = np.stack([random_product_point(rng, dims) for _ in range(3)])
                curr = prev + 0.01 * np.stack([random_product_point(rng, dims)
                                               for _ in range(3)])
                residual, guesses = captured_residual(
                    monkeypatch, lambda: del_step(Ld, prev, curr))
                x = np.concatenate([guesses.real, guesses.imag], axis=1)
                values = residual(guesses, np.arange(3))
                r = np.concatenate([values.real, values.imag], axis=1)
                jacs, residuals = newton_jacobians(monkeypatch, residual, guesses)
                assert np.array_equal(residuals, r)
                for row in range(3):
                    assert np.array_equal(
                        jacs[row], per_column_jacobian(one_row(residual, row), x[row], r[row]))

    def test_newton_rejects_a_residual_that_ignores_the_stack(self):
        def first_row_only(y):
            return np.atleast_2d(y)[0] ** 2 - 1.0

        # One row of 2 unknowns: its iterate and 4 bumped points.
        with pytest.raises(ValueError, match=r"points of shape \(1, 5, 2\) to shape \(1, 2\)"):
            newton_solve(first_row_only, np.array([2.0 + 0j, 0.5 + 0j]))


class TestStackedLeastSquares:
    """The Newton update calls numpy's private gelsd gufunc on a stack of matrices.

    Pinned to ``np.linalg.lstsq`` row by row, so that a numpy release that
    moves or changes the gufunc fails here instead of changing results.
    """

    NUMPY = f"numpy {np.__version__}"

    def test_the_gufunc_is_where_lstsq_finds_it(self):
        gufunc = getattr(np.linalg._umath_linalg, "lstsq", None)
        assert gufunc is not None, f"{self.NUMPY} has no linalg._umath_linalg.lstsq"
        assert gufunc.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)", \
            f"{self.NUMPY}: lstsq gufunc signature {gufunc.signature}"
        assert "ddd->ddid" in gufunc.types, f"{self.NUMPY}: lstsq loops {gufunc.types}"

    @pytest.mark.parametrize("m", [8, 20], ids=["swap", "random5"])
    def test_rows_equal_np_linalg_lstsq(self, rng, m):
        # Two full-rank matrices, two short of rank by one gauge direction (a
        # column that is a scaled copy of another) and two with a zero row.
        a = rng.standard_normal((6, m, m))
        a[2:4, :, m - 1] = 2.0 * a[2:4, :, 0]
        a[4:, m // 2] = 0.0
        b = rng.standard_normal((6, m))
        steps, ranks = real_least_squares(a, b)
        assert ranks.tolist() == [m, m] + [m - 1] * 4, self.NUMPY
        for i in range(6):
            step, _, rank, _ = np.linalg.lstsq(a[i], b[i], rcond=None)
            assert steps[i].view(np.uint64).tolist() == step.view(np.uint64).tolist(), \
                f"{self.NUMPY}: row {i} differs from np.linalg.lstsq"
            assert ranks[i] == rank, self.NUMPY

    def test_a_failed_row_reads_rank_minus_one(self, rng):
        # Where np.linalg.lstsq raises, the stacked call marks the row and
        # solves the others; a NaN entry makes gelsd fail (and print to fd 1).
        a = rng.standard_normal((3, 8, 8))
        a[1, 0, 0] = np.nan
        b = rng.standard_normal((3, 8))
        steps, ranks = real_least_squares(a, b)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(a[1], b[1], rcond=None)
        assert ranks[1] == -1 and np.isnan(steps[1]).all(), self.NUMPY
        for i in (0, 2):
            step = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
            assert steps[i].view(np.uint64).tolist() == step.view(np.uint64).tolist()


def two_call_newton_rows(residual, guesses):
    """The Newton loop as it ran with two residual calls an iteration, the
    oracle of the merged loop: one call at the iterates, then one at all of
    their forward-difference bumps, column j of row b's Jacobian being
    (F_b(x_b + h_bj e_j) - r_b) / h_bj with h_bj = sqrt(eps) * max(1, |x_bj|).
    """

    def to_real(z):
        return np.concatenate([z.real, z.imag], axis=-1)

    def to_complex(r):
        half = r.shape[-1] // 2
        return r[..., :half] + 1j * r[..., half:]

    x = to_real(guesses)
    rows = np.arange(len(x))
    outcomes = [None] * len(x)
    iteration = 0
    while len(rows):
        z = to_complex(x)
        r = to_real(residual(z, rows))
        norms = np.array([sqrt(v @ v) for v in r])
        running = (np.isfinite(norms) & (norms > variational.NEWTON_TOL)
                   & (iteration < variational.NEWTON_MAXITER))
        for i in np.flatnonzero(~running):
            res_norm = float(norms[i])
            if not np.isfinite(res_norm):
                outcomes[rows[i]] = NewtonConvergenceError(
                    "Newton residual became non-finite", res_norm)
            elif res_norm <= variational.NEWTON_TOL:
                outcomes[rows[i]] = (z[i], iteration, res_norm, False)
            else:
                outcomes[rows[i]] = NewtonConvergenceError(
                    f"Newton did not reach {variational.NEWTON_TOL} in "
                    f"{variational.NEWTON_MAXITER} iterations", res_norm)
        x, r, rows, norms = x[running], r[running], rows[running], norms[running]
        if not len(rows):
            break
        m = x.shape[1]
        h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
        bumped = np.repeat(x[:, None, :], m, axis=1)
        diagonal = np.arange(m)
        bumped[:, diagonal, diagonal] += h
        values = residual(to_complex(bumped), rows)
        jac = ((to_real(values) - r[:, None, :]) / h[:, :, None]).transpose(0, 2, 1)
        finite = np.isfinite(jac).all(axis=(1, 2))
        jac[~finite] = 0.0
        steps, ranks = variational._least_squares(jac, -r)
        running = finite & (ranks >= 0)
        for i in np.flatnonzero(~running):
            reason = ("update failed: SVD did not converge in Linear Least Squares"
                      if finite[i] else "Jacobian became non-finite")
            outcomes[rows[i]] = NewtonConvergenceError(f"Newton {reason}", float(norms[i]))
        rows = rows[running]
        x = x[running] + steps[running]
        iteration += 1
    return outcomes


def newton_outcome_bits(outcome):
    """Message and residual of a failed row; bytes of a solved row's point,
    its iteration count and its residual norm, and whether that norm is the
    contraction estimate."""
    if isinstance(outcome, NewtonConvergenceError):
        return ("failed", str(outcome), np.float64(outcome.residual).tobytes())
    solution, iterations, res_norm, estimated = outcome
    return ("solved", solution.shape, solution.tobytes(), iterations,
            np.float64(res_norm).tobytes(), estimated)


def fail_steep_rows(a, b):
    """The stacked update, with gelsd's failure faked for Jacobians above 1e10."""
    steps, ranks = real_least_squares(a, b)
    steep = np.abs(a).max(axis=(1, 2)) > 1e10
    steps[steep], ranks[steep] = np.nan, -1
    return steps, ranks


class TestMergedNewtonOracle:
    """One residual call an iteration, on the iterates and their bumps, gives
    every row the outcome of the two-call loop, bit for bit."""

    ALPHA, DT = 0.5, 0.05

    @staticmethod
    def same_outcomes(residual, guesses):
        with np.errstate(over="ignore", invalid="ignore"):
            merged = variational._newton_rows(residual, guesses)
            oracle = two_call_newton_rows(residual, guesses)
        for row, (one, two) in enumerate(zip(merged, oracle)):
            assert newton_outcome_bits(one) == newton_outcome_bits(two), row
            if not isinstance(one, Exception):
                assert np.array_equal(one[0], two[0])
        return merged

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("system", [0, 1, 2], ids=["swap", "random5", "ladder"])
    def test_experiment_systems(self, rng, monkeypatch, ordering, system):
        H, dims = stacking_cases()[system]
        L = se_lagrangian(H)
        start = DiscreteLagrangian(separable_lagrangian(L, dims), self.ALPHA, self.DT)
        recursion = start
        if ordering == "discretize_first":
            recursion = _SubstitutedDiscreteLagrangian(
                DiscreteLagrangian(L, self.ALPHA, self.DT), dims)
        prev = np.stack([random_product_point(rng, dims) for _ in range(4)])
        curr = prev + 0.01 * np.stack([random_product_point(rng, dims) for _ in range(4)])
        # Row 3's product states overflow, so its first residual is not finite.
        prev[3] *= 1e200
        curr[3] *= 1e200
        for solve in (lambda: initial_step(start, prev),
                      lambda: del_step(recursion, prev, curr)):
            with np.errstate(over="ignore", invalid="ignore"):
                residual, guesses = captured_residual(monkeypatch, solve)
            outcomes = self.same_outcomes(residual, guesses)
            assert str(outcomes[3]) == "Newton residual became non-finite"
            assert any(not isinstance(outcome, Exception) for outcome in outcomes[:3])

    def test_every_way_a_row_ends(self, monkeypatch, capfd):
        # Row 0 solves, row 1's target is NaN, row 2's steep Jacobian fails its
        # update, row 3 (|y|^2 + 1, no root) runs out of iterations, and row 4
        # is finite at its guess and infinite at every bumped point.
        targets = np.array([[4.0], [np.nan], [2.0], [0.0], [0.0]], dtype=complex)
        scales = np.array([[1.0], [1.0], [1e12], [1.0], [1.0]])

        def residual(points, rows):
            values = variational._row_data(scales, rows, points) * (
                points**2 - variational._row_data(targets, rows, points))
            values[rows == 3] = np.abs(points[rows == 3]) ** 2 + 1.0
            values[rows == 4] = np.where(points[rows == 4] == 1.0, 0.5, np.inf)
            return values

        monkeypatch.setattr(variational, "_least_squares", fail_steep_rows)
        outcomes = self.same_outcomes(residual, np.ones((5, 1), dtype=complex))
        assert outcomes[0][1] >= 1
        assert [str(outcome) for outcome in outcomes[1:]] == [
            "Newton residual became non-finite",
            "Newton update failed: SVD did not converge in Linear Least Squares",
            f"Newton did not reach {variational.NEWTON_TOL} in "
            f"{variational.NEWTON_MAXITER} iterations",
            "Newton Jacobian became non-finite",
        ]
        assert capfd.readouterr().out == ""


class TestStackedNorms:
    """An iteration's residual norms are one ``np.vecdot`` call, pinned bit for
    bit to the one-row ``sqrt(v @ v)`` it replaced, so that a numpy release
    that rounds the stacked dot product differently fails here."""

    NUMPY = f"numpy {np.__version__}"

    @staticmethod
    def same_bits(stack):
        stacked = np.sqrt(np.vecdot(stack, stack))
        rows = np.array([sqrt(v @ v) for v in stack])
        return stacked.tobytes() == rows.tobytes()

    def test_random_stacks(self, rng):
        for _ in range(2000):
            rows, m = rng.integers(1, 40), rng.integers(1, 60)
            stack = rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(-150, 150)
            assert self.same_bits(stack), f"{self.NUMPY}: ({rows}, {m})"

    @pytest.mark.parametrize("m", [8, 18, 20], ids=["swap", "ladder", "random5"])
    def test_the_strided_view_of_the_loop(self, rng, m):
        # The loop reads the iterates' residuals, point 0 of each row's stack
        # of 2n + 1 = m + 1 points.
        for rows in (1, 3, 12):
            values = rng.standard_normal((rows, m + 1, m))
            assert values[:, 0].strides == ((m + 1) * m * 8, 8)
            assert self.same_bits(values[:, 0]), f"{self.NUMPY}: ({rows}, {m})"


def evaluated_norm(residual, row, point):
    """The real-split residual norm of system ``row`` at ``point``, one call."""
    value = one_row(residual, row)(point[None])[0]
    r = np.concatenate([value.real, value.imag])
    return sqrt(r @ r)


def assert_estimates_hold(residual, outcomes):
    """(a) Every row stopped on the estimate has an evaluated residual of at
    most ``NEWTON_TOL`` at its accepted point."""
    for row, outcome in enumerate(outcomes):
        if not isinstance(outcome, Exception) and outcome[3]:
            assert evaluated_norm(residual, row, outcome[0]) <= variational.NEWTON_TOL, row


def assert_points_of_the_two_call_loop(residual, guesses, outcomes):
    """(b) Every row ends as in the two-call loop, which stops on evaluated
    residuals only: the same point and iteration count, bit for bit, and on
    the evaluated stop the same residual too."""
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = two_call_newton_rows(residual, guesses)
    for row, (one, two) in enumerate(zip(outcomes, oracle)):
        if isinstance(two, Exception):
            assert str(one) == str(two), row
            continue
        assert not isinstance(one, Exception), row
        assert one[0].tobytes() == two[0].tobytes() and one[1] == two[1], row
        if not one[3]:
            assert np.float64(one[2]).tobytes() == np.float64(two[2]).tobytes(), row


def first_update_rows(residual, guesses):
    """A counter-case: the estimate read at k = 0, from one residual, with the
    missing ||r_{-1}|| taken as infinite, so that every row is accepted after
    its first update."""
    half = guesses.shape[1]
    outcomes = []
    for row, guess in enumerate(guesses):
        x = np.concatenate([guess.real, guess.imag])
        value = one_row(residual, row)(guess)
        r = np.concatenate([value.real, value.imag])
        jac = per_column_jacobian(one_row(residual, row), x, r)
        y = x + np.linalg.lstsq(jac, -r, rcond=None)[0]
        outcomes.append((y[:half] + 1j * y[half:], 1, 0.0, True))
    return outcomes


class TestContractionStop:
    """Restrict-first solves, and every start, stop on the contraction estimate
    ||r_k||^2 / ||r_{k-1}||; discretize-first steps stop on evaluated
    residuals."""

    ALPHA, DT, STEPS = 0.5, 0.02, 20

    @staticmethod
    def systems():
        """Swap, random5 (seed 3) and ladder (r_party 2)."""
        return {"swap": (swap_hamiltonian(2), (2, 2)),
                "random5": (random_hermitian(5, 3), (2,) * 5),
                "ladder": (correlator_hamiltonian(2), (3, 3, 3))}

    @staticmethod
    def recorded_solves(monkeypatch, ordering, H, states, steps):
        """Each ``_newton_rows`` call of a run of ``states``: its residual,
        guesses, options and outcomes; and the run's rows."""
        solves = []
        newton_rows = variational._newton_rows

        def recording(residual, guesses, **options):
            outcomes = newton_rows(residual, guesses, **options)
            solves.append((residual, np.array(guesses), options, outcomes))
            return outcomes

        monkeypatch.setattr(variational, "_newton_rows", recording)
        rows = integrate_separable_rows(ordering, H, TestContractionStop.ALPHA,
                                        TestContractionStop.DT, [steps] * len(states), states)
        monkeypatch.undo()
        return solves, rows

    def solves(self, rng, monkeypatch, ordering, system):
        """The ``recorded_solves`` of a 3-row run. Restrict-first rows all
        complete; discretize-first rows may end early, on gauge (ROADMAP F3)."""
        H, dims = self.systems()[system]
        states = [ComponentState(tuple(random_ket(rng, d) for d in dims)) for _ in range(3)]
        solves, rows = self.recorded_solves(monkeypatch, ordering, H, states, self.STEPS)
        if ordering == "restrict_first":
            assert all(isinstance(row, DiscreteTrajectory) for row in rows)
            assert len(solves) == self.STEPS
        return solves

    @staticmethod
    def check_restrict_first(solves):
        """(a) and (b) on every solve; returns how many rows stopped on the estimate."""
        stopped = 0
        for residual, guesses, options, outcomes in solves:
            assert options == {"contraction_stop": True}
            assert_estimates_hold(residual, outcomes)
            assert_points_of_the_two_call_loop(residual, guesses, outcomes)
            stopped += sum(outcome[3] for outcome in outcomes)
        return stopped

    @pytest.mark.parametrize("system", ["swap", "random5", "ladder"])
    def test_restrict_first_rows(self, rng, monkeypatch, system):
        assert self.check_restrict_first(self.solves(rng, monkeypatch, "restrict_first",
                                                     system)) > 0

    def test_a_contraction_that_slows_is_not_trusted_at_the_tolerance(self, monkeypatch):
        # On this ladder row every other solve contracts more slowly at its
        # second update than at its first: estimates of 5e-13 to 9e-13 meet
        # residuals of 1e-12 to 2e-12 at the accepted points. The stop's
        # safety factor keeps them running; without it, the checks fail.
        amplitudes = [[-0.31 + 0.54j, 0.09 + 0.25j, -0.73 - 0.11j],
                      [-0.3 - 0.22j, 0.29 + 0.69j, -0.26 + 0.49j],
                      [-0.07 - 0.66j, -0.09 - 0.43j, 0.17 + 0.59j]]
        state = ComponentState(tuple(Ket(np.array(vec)) for vec in amplitudes))
        H = self.systems()["ladder"][0]
        solves, _ = self.recorded_solves(monkeypatch, "restrict_first", H, [state], 12)
        assert self.check_restrict_first(solves) > 0
        monkeypatch.setattr(variational, "_ESTIMATE_SAFETY", 1.0)
        solves, _ = self.recorded_solves(monkeypatch, "restrict_first", H, [state], 12)
        with pytest.raises(AssertionError):
            self.check_restrict_first(solves)

    @pytest.mark.parametrize("system", ["swap", "random5", "ladder"])
    def test_the_checks_refuse_an_estimate_at_the_first_update(self, rng, monkeypatch,
                                                             system):
        (residual, guesses, _, _), *_ = self.solves(rng, monkeypatch, "restrict_first",
                                                    system)
        eager = first_update_rows(residual, guesses)
        with pytest.raises(AssertionError):
            assert_estimates_hold(residual, eager)
        with pytest.raises(AssertionError):
            assert_points_of_the_two_call_loop(residual, guesses, eager)

    @pytest.mark.parametrize("system", ["swap", "random5", "ladder"])
    def test_discretize_first_steps_end_on_an_evaluated_residual(self, rng, monkeypatch,
                                                                 system):
        (start, *steps) = self.solves(rng, monkeypatch, "discretize_first", system)
        # The start is the restrict-first one that both orderings share.
        assert start[2] == {"contraction_stop": True}
        solved = 0
        for residual, guesses, options, outcomes in steps:
            assert options == {"contraction_stop": False}
            assert_points_of_the_two_call_loop(residual, guesses, outcomes)
            for row, outcome in enumerate(outcomes):
                if isinstance(outcome, Exception):
                    continue
                point, _, res_norm, estimated = outcome
                assert not estimated
                assert res_norm == evaluated_norm(residual, row, point)
                solved += 1
        assert solved > 0


class TestOneResidualCallPerIteration:
    """A solve of k iterations makes k + 1 residual calls, or k when it
    stopped on the contraction estimate, each on the iterates and their 2n
    bumped points, n complex unknowns a row; rows past ``BLOCK_CELLS``
    amplitudes of those points solve in ``row_blocks``, one after another."""

    @staticmethod
    def expected_calls(made, per_call, n):
        """Row b of a chunk runs in the chunk's first made[b] calls."""
        calls = []
        for start in range(0, len(made), per_call):
            counts = made[start:start + per_call]
            calls += [(sum(k < count for count in counts), 2 * n + 1, n)
                      for k in range(max(counts))]
        return calls

    @staticmethod
    def counting_newton(monkeypatch):
        calls = []
        newton_rows = variational._newton_rows

        def counting(residual, guesses, **options):
            def counted(points, rows):
                calls.append(points.shape)
                return residual(points, rows)

            return newton_rows(counted, guesses, **options)

        monkeypatch.setattr(variational, "_newton_rows", counting)
        return calls

    def test_newton_solve(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        psi1, _ = one_point(initial_step, Ld, psi0)
        tail = Ld.d3(psi0, psi1)
        calls = []

        def residual(y):
            calls.append(np.shape(y))
            return Ld.d1(psi1, y) + tail

        _, iterations = newton_solve(residual, 2.0 * psi1 - psi0)
        assert iterations >= 1
        assert calls == [(9, 4)] * (iterations + 1)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_start_and_del_rows(self, rng, monkeypatch, ordering, rows):
        self.check_calls(rng, monkeypatch, ordering, rows, rows)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("rows, per_call", [(3, 1), (5, 2)])
    def test_one_call_per_chunk_and_iteration(self, rng, monkeypatch, ordering, rows, per_call):
        monkeypatch.setattr(propagators, "BLOCK_CELLS", per_call * (2 * 9 + 1) * 9 + 1)
        self.check_calls(rng, monkeypatch, ordering, rows, per_call)

    def check_calls(self, rng, monkeypatch, ordering, rows, per_call):
        """A start and a del step of ``rows`` ladder rows, ``per_call`` rows a chunk."""
        H, dims = correlator_hamiltonian(2), (3, 3, 3)
        n = sum(dims)
        L = se_lagrangian(H)
        start = DiscreteLagrangian(separable_lagrangian(L, dims), 0.5, 0.02)
        recursion = start
        if ordering == "discretize_first":
            recursion = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, 0.5, 0.02), dims)
        prev = np.stack([random_product_point(rng, dims) for _ in range(rows)])
        calls = self.counting_newton(monkeypatch)
        started = initial_step(start, prev)
        curr = np.stack([outcome[0] for outcome in started])
        solved = del_step(recursion, prev, curr)
        if ordering == "discretize_first":
            assert not any(outcome[3] for outcome in solved)
        for outcomes in (started, solved):
            assert min(outcome[1] for outcome in outcomes) >= 1
            made = [outcome[1] + 1 - outcome[3] for outcome in outcomes]
            expected = self.expected_calls(made, per_call, n)
            solve_calls, calls[:] = calls[:len(expected)], calls[len(expected):]
            assert solve_calls == expected
        assert calls == []


class TestContractionKernel:
    """The residuals contract through numpy's private C einsum, which
    ``np.einsum`` forwards to when it does not optimize. Pinned to
    ``np.einsum`` bit for bit on every contraction the residuals make, so that
    a numpy release that moves or changes it fails here instead of changing
    results."""

    NUMPY = f"numpy {np.__version__}"

    def test_c_einsum_is_what_np_einsum_calls(self):
        from numpy._core import einsumfunc

        assert variational.c_einsum is einsumfunc.c_einsum, \
            f"{self.NUMPY}: np.einsum no longer forwards to numpy._core.multiarray.c_einsum"

    def test_every_contraction_equals_np_einsum(self, rng, monkeypatch):
        seen = {}
        contract = variational._contract_all_but

        def record(g, vectors, k):
            seen.setdefault((g.shape, tuple(vec.shape for vec in vectors), k),
                            (g, list(vectors), k))
            return contract(g, vectors, k)

        monkeypatch.setattr(variational, "_contract_all_but", record)
        for H, dims in stacking_cases():
            states = [ComponentState(tuple(random_ket(rng, d) for d in dims))
                      for _ in range(2)]
            for ordering in ORDERINGS:
                integrate_separable_rows(ordering, H, 0.5, 0.02, [3, 2], states)
        monkeypatch.undo()
        # One point, a row per system, and stacks of bumped points, some
        # broadcast against one point a row.
        assert {len(g_shape) for g_shape, _, _ in seen} == {2, 3}
        assert any(g_shape[:-1] != shapes[0][:-1] for g_shape, shapes, _ in seen)
        for g, vectors, k in seen.values():
            operands = [g.reshape(g.shape[:-1] + tuple(vec.shape[-1] for vec in vectors)),
                        [Ellipsis, *range(len(vectors))]]
            for j, vec in enumerate(vectors):
                if j != k:
                    operands += [vec, [Ellipsis, j]]
            expected = np.einsum(*operands, [Ellipsis, k])
            got = contract(g, vectors, k)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), \
                f"{self.NUMPY}: c_einsum differs from np.einsum on {g.shape}, slot {k}"


class TestInitialStep:
    def test_free_evolution_keeps_the_point(self, rng):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        Ld = DiscreteLagrangian(se_lagrangian(H0), 0.5, 0.1)
        psi0 = random_args(rng, 4, count=1)[0]
        psi1, _ = one_point(initial_step, Ld, psi0)
        assert np.allclose(psi1, psi0)

    def test_midpoint_start_is_third_order_accurate(self, rng):
        H = swap_hamiltonian(2)
        L = se_lagrangian(H)
        psi0 = random_ket(rng, 4).amplitudes
        ratios = []
        for dt in (0.1, 0.05, 0.025):
            psi1, _ = one_point(initial_step, DiscreteLagrangian(L, 0.5, dt), psi0)
            exact = hermitian_expm_apply(H, dt, psi0)
            ratios.append(np.linalg.norm(psi1 - exact) / dt**3)
        assert max(ratios) / min(ratios) < 1.5

    def test_residual_below_tolerance(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        psi1, _ = one_point(initial_step, Ld, psi0)
        residual = velocity_momentum(Ld.base, psi0) + Ld.d1(psi0, psi1)
        assert np.linalg.norm(residual) < 1e-12


class TestDelStep:
    def test_affine_system_matches_the_closed_form_jacobian(self, rng, monkeypatch):
        dt = 0.05
        # random_hermitian has complex entries, so H^T differs from H there.
        for H, alpha in [(swap_hamiltonian(2), 0.5), (random_hermitian(2, 11), 0.5),
                         (random_hermitian(2, 11), 0.3)]:
            Ld = DiscreteLagrangian(se_lagrangian(H), alpha, dt)
            psi0 = random_ket(rng, 4).amplitudes
            psi1, _ = one_point(initial_step, Ld, psi0)
            # The full-space residual d1(psi1, y) + d3(psi0, psi1) reads y only
            # through conj(y), in c = alpha psi1 + (1 - alpha) y and
            # v = (y - psi1)/dt, so it is affine with the constant
            # conj(y)-Jacobian J. With y = u + iw its real split is
            # [[Re J, Im J], [Im J, -Re J]].
            J = -0.5j * np.eye(4) - alpha * (1.0 - alpha) * dt * H.entries.T
            exact = np.block([[J.real, J.imag], [J.imag, -J.real]])
            residual, (guess,) = captured_residual(monkeypatch,
                                                   lambda: one_point(del_step, Ld, psi0, psi1))
            for point in (guess, guess + 0.1 * random_ket(rng, 4).amplitudes):
                jac, _, _ = jacobian_at(monkeypatch, residual, point)
                assert np.max(np.abs(jac - exact)) <= 1e-6 * np.max(np.abs(exact))
            nxt, iterations = one_point(del_step, Ld, psi0, psi1)
            assert 1 <= iterations <= 2
            residual = Ld.d1(psi1, nxt) + Ld.d3(psi0, psi1)
            assert np.linalg.norm(residual) < 1e-12

    def test_two_term_recursion_reproduces_trajectory(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        traj = integrate_discrete(Ld, psi0, 20)
        rebuilt = [traj.points[0], traj.points[1]]
        for _ in range(19):
            nxt, _ = one_point(del_step, Ld, rebuilt[-2], rebuilt[-1])
            rebuilt.append(nxt)
        assert np.max(np.abs(np.stack(rebuilt) - traj.points)) < 1e-10

    def test_free_evolution_stays_constant(self, rng):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        Ld = DiscreteLagrangian(se_lagrangian(H0), 0.5, 0.1)
        psi0 = random_args(rng, 4, count=1)[0]
        nxt, _ = one_point(del_step, Ld, psi0, psi0)
        assert np.allclose(nxt, psi0)

    def test_newton_reports_nonconvergence(self):
        def impossible(y):
            return (np.abs(y[..., :1]) ** 2 + 1.0).astype(complex)

        with pytest.raises(NewtonConvergenceError) as info:
            newton_solve(impossible, np.array([1.0 + 0j]))
        assert info.value.residual > 0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_first_residual_stops_before_a_jacobian(self, monkeypatch):
        calls, updates = [], []

        def overflowing(y):
            calls.append(np.shape(y))
            return np.full(np.shape(y), np.nan, dtype=complex)

        def least_squares(a, b):
            updates.append(a.shape)
            return real_least_squares(a, b)

        monkeypatch.setattr(variational, "_least_squares", least_squares)
        with pytest.raises(NewtonConvergenceError,
                           match="^Newton residual became non-finite$"):
            newton_solve(overflowing, np.array([1.0 + 0j, 2.0 + 0j]))
        # One call, the iterate and its 4 bumped points, and no update.
        assert calls == [(5, 2)]
        assert updates == []

    def test_non_finite_jacobian_is_a_convergence_failure(self, capfd):
        # Finite at the guess, infinite at every bumped point: handed to
        # lstsq, such a Jacobian makes LAPACK print to fd 1 before it fails.
        def steep(y):
            values = np.full(np.shape(y), np.inf, dtype=complex)
            values[0] = 1.0
            return values

        with pytest.raises(NewtonConvergenceError, match="Jacobian became non-finite") as info:
            newton_solve(steep, np.array([1.0 + 0j, 2.0 + 0j]))
        assert info.value.residual == pytest.approx(np.sqrt(2.0))
        assert capfd.readouterr().out == ""

    def test_failed_update_is_a_convergence_failure(self, monkeypatch):
        def no_update(a, b):
            # What gelsd returns for a row whose SVD does not converge.
            steps, ranks = real_least_squares(a, b)
            return np.full_like(steps, np.nan), np.full_like(ranks, -1)

        monkeypatch.setattr(variational, "_least_squares", no_update)
        with pytest.raises(NewtonConvergenceError, match="Newton update failed: SVD"):
            newton_solve(lambda y: y - 1.0, np.array([0.5 + 0j]))


class TestNewtonStatistics:
    def direct_counts(self, Ld, x0, steps):
        x1, first = one_point(initial_step, Ld, x0)
        rows, counts = [x0, x1], [first]
        for _ in range(1, steps):
            nxt, used = one_point(del_step, Ld, rows[-2], rows[-1])
            rows.append(nxt)
            counts.append(used)
        return np.stack(rows), counts

    def test_counts_match_a_direct_del_step_loop(self, fig1_state):
        H = swap_hamiltonian(2)
        traj = restrict_first(H, 0.5, 0.05, 40, fig1_state)
        Ld = DiscreteLagrangian(separable_lagrangian(se_lagrangian(H), (2, 2)), 0.5, 0.05)
        rows, counts = self.direct_counts(Ld, stack_state(fig1_state), 40)
        assert np.array_equal(traj.points, rows)
        assert traj.newton_iterations.tolist() == counts
        assert min(counts) >= 1

    def test_single_step_run_records_the_start(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        traj = integrate_discrete(Ld, psi0, 1)
        assert traj.points.shape[0] == 2
        assert traj.newton_iterations.tolist() == [one_point(initial_step, Ld, psi0)[1]]

    def test_blowup_partial_carries_one_count_per_step(self, fig1_state):
        with pytest.raises(BlowupError) as info:
            discretize_first(swap_hamiltonian(2), 0.5, 0.1, 300, fig1_state,
                             blowup_factor=2.0)
        partial = info.value.partial
        assert partial.newton_iterations.shape == (partial.points.shape[0] - 1,)
        assert np.all(partial.newton_iterations >= 1)

    def test_count_length_is_validated(self):
        flags = np.zeros(2, dtype=bool)
        with pytest.raises(ValueError):
            DiscreteTrajectory(1.0, np.zeros((3, 2)), newton_iterations=np.ones(3),
                               newton_residuals=np.ones(2), newton_estimated=flags)
        with pytest.raises(ValueError):
            DiscreteTrajectory(1.0, np.zeros((3, 2)), newton_iterations=np.ones(2),
                               newton_residuals=np.ones(3), newton_estimated=flags)
        with pytest.raises(ValueError):
            DiscreteTrajectory(1.0, np.zeros((3, 2)), newton_iterations=np.ones(2),
                               newton_residuals=np.ones(2), newton_estimated=flags[:1])

    def test_final_residuals_are_recorded(self, fig1_state, monkeypatch):
        H = swap_hamiltonian(2)
        norms = []  # a list a solve: the residual norm at each of its iterates
        newton_rows = variational._newton_rows

        def recording(residual, guesses, **options):
            seen = []
            norms.append(seen)

            def recorded(points, rows):
                values = residual(points, rows)
                r = np.concatenate([values[0, 0].real, values[0, 0].imag])
                seen.append(sqrt(r @ r))
                return values

            return newton_rows(recorded, guesses, **options)

        monkeypatch.setattr(variational, "_newton_rows", recording)
        # At dt 0.1 the start ends on an evaluated residual and later steps on
        # the estimate, so both records are checked.
        traj = restrict_first(H, 0.5, 0.1, 10, fig1_state)
        monkeypatch.undo()
        assert len(norms) == 10
        assert not traj.newton_estimated[0] and traj.newton_estimated[1:].any()
        Ld = DiscreteLagrangian(separable_lagrangian(se_lagrangian(H), (2, 2)), 0.5, 0.1)
        x = traj.points
        for i, seen in enumerate(norms):
            # The solve's residual, evaluated again at the point it accepted.
            momentum = velocity_momentum(Ld.base, x[0]) if i == 0 else Ld.d3(x[i - 1], x[i])
            value = Ld.d1(x[i], x[i + 1]) + momentum
            evaluated = np.linalg.norm(np.concatenate([value.real, value.imag]))
            assert evaluated <= variational.NEWTON_TOL
            if traj.newton_estimated[i]:
                # The contraction estimate ||r_k||^2 / ||r_{k-1}|| it stopped on.
                assert traj.newton_residuals[i] == seen[-1] * seen[-1] / seen[-2]
            else:
                assert traj.newton_residuals[i] == seen[-1] == evaluated
        assert np.all(traj.newton_residuals <= variational.NEWTON_TOL)
        # A run whose every solve converges at its guess makes no update.
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        free = restrict_first(H0, 0.5, 0.05, 3, fig1_state)
        assert free.newton_iterations.tolist() == [0, 0, 0]

    def test_times_are_derived_and_read_only(self, fig1_state):
        traj = restrict_first(swap_hamiltonian(2), 0.5, 0.05, 12, fig1_state)
        assert traj.dt == 0.05
        assert np.array_equal(traj.times, 0.05 * np.arange(13))
        assert not traj.times.flags.writeable


class TestEntryPoints:
    """Both integrate_* functions share one run loop and its checks."""

    @staticmethod
    def entry_points(steps):
        H = swap_hamiltonian(2)
        state0 = ComponentState((Ket(np.array([1.0, 0.0])), Ket(np.array([0.6, 0.8]))))
        Ld = DiscreteLagrangian(se_lagrangian(H), 0.5, 0.1)
        return {
            "integrate_discrete": lambda: integrate_discrete(
                Ld, np.kron([1.0, 0.0], [0.6, 0.8]), steps),
            "restrict_first": lambda: restrict_first(H, 0.5, 0.1, steps, state0),
            "discretize_first": lambda: discretize_first(H, 0.5, 0.1, steps, state0),
        }

    @pytest.mark.parametrize("name", ["integrate_discrete", "restrict_first",
                                      "discretize_first"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected_before_any_solve(self, monkeypatch, name, steps):
        def no_solve(residual, guesses):
            raise AssertionError("a Newton solve ran")

        monkeypatch.setattr(variational, "_newton_rows", no_solve)
        with pytest.raises(ValueError, match="steps must be at least 1"):
            self.entry_points(steps)[name]()

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_operator_and_state_layouts_must_agree(self, rng, ordering):
        # Equal total dimension, different tensor layout.
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H = HermitianOperator(mat + mat.conj().T, (2, 4))
        state0 = ComponentState((random_ket(rng, 4), random_ket(rng, 2)))
        with pytest.raises(ValueError, match=re.escape(
                "operator dims (2, 4) do not match state dims (4, 2)")):
            integrate_separable_rows(ordering, H, 0.5, 0.1, [3], [state0])

    def test_one_step_count_per_state(self, fig1_state, monkeypatch):
        def no_solve(residual, guesses):
            raise AssertionError("a Newton solve ran")

        monkeypatch.setattr(variational, "_newton_rows", no_solve)
        for steps in ([3], [3, 3, 3]):
            with pytest.raises(ValueError, match=f"{len(steps)} step counts for 2 states"):
                integrate_separable_rows("restrict_first", swap_hamiltonian(2), 0.5, 0.1,
                                         steps, [fig1_state, fig1_state])


class TestRowBatches:
    """Rows advanced together equal, bit for bit, the same states run one at a time."""

    @staticmethod
    def outcome_bits(outcome):
        """Kind, message, and the bytes of the points, Newton counts and residuals
        of one row's outcome."""
        if isinstance(outcome, NewtonConvergenceError):
            return ("failed start", str(outcome), outcome.residual)
        kind, message = "ok", None
        if isinstance(outcome, BlowupError):
            kind, message, outcome = "blow-up", str(outcome), outcome.partial
        return (kind, message, outcome.points.tobytes(), outcome.newton_iterations.tobytes(),
                outcome.newton_residuals.tobytes())

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("system", ["swap", "random5"])
    def test_rows_equal_one_row_runs(self, rng, fig1_state, ordering, system):
        if system == "swap":
            H, dims, dt, steps = swap_hamiltonian(2), (2, 2), 0.1, [40, 25, 40, 40, 10]
            # Discretize first blows up from fig1_state within 30 steps; the
            # first Newton residual of the last state overflows.
            extra = [fig1_state, ComponentState((Ket(np.array([1e150, 0.0])),
                                                 Ket(np.array([0.6, 0.8]))))]
        else:
            H, dims, dt, steps = random_hermitian(5, 3), (2,) * 5, 0.05, [12, 5, 8]
            extra = []
        states = [ComponentState(tuple(random_ket(rng, d) for d in dims))
                  for _ in range(3)] + extra
        rows = integrate_separable_rows(ordering, H, 0.5, dt, steps, states,
                                        blowup_factor=2.0)
        kinds, lengths = [], []
        for state, count, row in zip(states, steps, rows):
            try:
                single = run_alone(ordering, H, 0.5, dt, count, state, blowup_factor=2.0)
            except (BlowupError, NewtonConvergenceError) as err:
                single = err
            assert self.outcome_bits(row) == self.outcome_bits(single)
            kinds.append(self.outcome_bits(row)[0])
            if not isinstance(row, NewtonConvergenceError):
                lengths.append(len(getattr(row, "partial", row).points))
        if system == "swap":
            assert kinds[1] == "ok" and lengths[1] == 26  # a row of 25 of 40 steps
            assert kinds[-1] == "failed start"
        if (system, ordering) == ("swap", "discretize_first"):
            # A row blows up mid-run while another keeps going.
            blown = [n for kind, n in zip(kinds, lengths) if kind == "blow-up"]
            assert blown and min(blown) < max(lengths)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_each_step_is_one_call_on_the_running_rows(self, rng, monkeypatch, ordering):
        """A batch makes one ``initial_step`` call on every row, then one
        ``del_step`` call a step on the rows still running."""
        calls = []
        for name in ("initial_step", "del_step"):
            def recording(Ld, *points, step=getattr(variational, name), name=name):
                calls.append((name, len(points[-1])))
                return step(Ld, *points)

            monkeypatch.setattr(variational, name, recording)
        states = [ComponentState((random_ket(rng), random_ket(rng))) for _ in range(3)]
        rows = integrate_separable_rows(ordering, swap_hamiltonian(2), 0.5, 0.1, [2, 4, 5],
                                        states)
        assert calls == [("initial_step", 3), ("del_step", 3), ("del_step", 2),
                         ("del_step", 2), ("del_step", 1)]
        assert [len(row.points) for row in rows] == [3, 5, 6]

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("system", ["swap", "ladder", "random5"])
    @pytest.mark.parametrize("chunk", ["one row", "one point"])
    def test_chunks_give_the_bits_of_one_call(self, rng, monkeypatch, fig1_state, ordering,
                                              system, chunk):
        """Newton in blocks of one row (and at one cell a block, the momenta
        p_n in blocks of one point too) gives every row the bits of one
        stacked call."""
        if system == "swap":
            H, dims, dt, steps = swap_hamiltonian(2), (2, 2), 0.1, [40, 25, 40, 40, 10]
            extra = [fig1_state, ComponentState((Ket(np.array([1e150, 0.0])),
                                                 Ket(np.array([0.6, 0.8]))))]
        elif system == "ladder":
            H, dims, dt, steps = correlator_hamiltonian(2), (3, 3, 3), 0.05, [8, 5, 8]
            extra = []
        else:
            H, dims, dt, steps = random_hermitian(5, 3), (2,) * 5, 0.05, [12, 5, 8]
            extra = []
        states = [ComponentState(tuple(random_ket(rng, d) for d in dims))
                  for _ in range(3)] + extra
        shapes = []
        newton_rows = variational._newton_rows

        def recording(residual, guesses, **options):
            def recorded(points, rows):
                shapes.append(points.shape)
                return residual(points, rows)

            return newton_rows(recorded, guesses, **options)

        monkeypatch.setattr(variational, "_newton_rows", recording)

        def run():
            shapes.clear()
            rows = integrate_separable_rows(ordering, H, 0.5, dt, steps, states,
                                            blowup_factor=2.0)
            return [self.outcome_bits(row) for row in rows], max(shape[0] for shape in shapes)

        whole, widest = run()
        assert widest == len(states)
        n = sum(dims)
        cells = (2 * n + 1) * n if chunk == "one row" else 1
        monkeypatch.setattr(propagators, "BLOCK_CELLS", cells)
        assert run() == (whole, 1)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_every_product_state_call_fits_a_chunk(self, rng, monkeypatch, ordering):
        """Residuals and the momenta p_n form product states (``kron``) of at
        most ``BLOCK_CELLS`` stacked amplitudes a call, or of one row's
        2n + 1 points: here 12 swap rows of n = 4, against blocks of 9 points
        of 4 amplitudes."""
        sizes = []

        def recording(factors, _kron=variational.kron):
            sizes.append(prod(np.shape(factors[0])[:-1]))
            return _kron(factors)

        monkeypatch.setattr(variational, "kron", recording)
        states = [ComponentState((random_ket(rng), random_ket(rng))) for _ in range(12)]

        def widest():
            sizes.clear()
            integrate_separable_rows(ordering, swap_hamiltonian(2), 0.5, 0.1, [3] * 12, states)
            return max(sizes)

        assert widest() == 12 * 9
        monkeypatch.setattr(propagators, "BLOCK_CELLS", 9 * 4)
        assert widest() == 9

    def test_a_failing_row_leaves_the_others(self):
        targets = np.array([[4.0 + 0j], [np.nan], [9.0 + 0j]])

        def residual(points, rows):
            return points**2 - variational._row_data(targets, rows, points)

        outcomes = variational._newton_rows(residual, np.ones((3, 1), dtype=complex))
        assert isinstance(outcomes[1], NewtonConvergenceError)
        assert "non-finite" in str(outcomes[1])
        for row in (0, 2):
            solution, iterations = newton_solve(lambda y: y**2 - targets[row],
                                                np.ones(1, dtype=complex))
            assert outcomes[row][0].view(np.uint64).tolist() == \
                solution.view(np.uint64).tolist()
            assert outcomes[row][1] == iterations

    def test_row_failures_leave_the_other_rows(self, monkeypatch, capfd):
        # Row 1's update fails (gelsd's failure is faked for its steep
        # Jacobian), row 3's Jacobian is infinite, and rows 0, 2 and 4 solve
        # as they do alone.
        targets = np.array([[4.0], [2.0], [9.0], [3.0], [0.25]], dtype=complex)
        scales = np.array([[1.0], [100.0], [1.0], [1.0], [1.0]])

        def residual(points, rows):
            values = variational._row_data(scales, rows, points) * (
                points**2 - variational._row_data(targets, rows, points))
            values[rows == 3, 1:] = np.inf  # the Jacobian's bumped points
            return values

        def fail_steep_rows(a, b):
            steps, ranks = real_least_squares(a, b)
            steep = np.abs(a).max(axis=(1, 2)) > 50.0
            steps[steep], ranks[steep] = np.nan, -1
            return steps, ranks

        monkeypatch.setattr(variational, "_least_squares", fail_steep_rows)
        outcomes = variational._newton_rows(residual, np.ones((5, 1), dtype=complex))
        monkeypatch.undo()
        assert "Newton update failed: SVD" in str(outcomes[1])
        assert "Newton Jacobian became non-finite" in str(outcomes[3])
        for row in (0, 2, 4):
            alone = variational._newton_rows(lambda y, _: y**2 - targets[row],
                                             np.ones((1, 1), dtype=complex))[0]
            assert outcomes[row][0].view(np.uint64).tolist() == \
                alone[0].view(np.uint64).tolist()
            assert outcomes[row][1:] == alone[1:]
        # The infinite Jacobian never reached gelsd, which would print to fd 1.
        assert capfd.readouterr().out == ""

    def test_a_batch_stores_each_point_once(self, rng):
        # A batch stores (steps + 1) * sum(dims) amplitudes a row. The buffer
        # adds 17 bytes a point for the Newton counts, residuals and estimate
        # flags, and a
        # Newton iteration's temporaries take a few kB a swap row.
        batch, steps = 8, 250
        states = [ComponentState((random_ket(rng, 2), random_ket(rng, 2)))
                  for _ in range(batch)]
        counted = batch * (steps + 1) * 4 * 16
        tracemalloc.start()
        try:
            rows = integrate_separable_rows("restrict_first", swap_hamiltonian(2), 0.5, 0.01,
                                            [steps] * batch, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(row, DiscreteTrajectory) for row in rows)
        assert counted <= peak <= 2 * counted

    def test_unknown_ordering_is_rejected(self, fig1_state):
        with pytest.raises(ValueError, match="unknown ordering"):
            integrate_separable_rows("restrict_last", swap_hamiltonian(2), 0.5, 0.1, [3],
                                     [fig1_state])


class TestFullStateIntegration:
    def test_midpoint_is_second_order_globally(self, rng):
        H = swap_hamiltonian(2)
        L = se_lagrangian(H)
        psi0 = random_ket(rng, 4).amplitudes
        exact = hermitian_expm_apply(H, 1.0, psi0)
        dts = [0.1, 0.05, 0.02]
        errors = []
        for dt in dts:
            traj = integrate_discrete(DiscreteLagrangian(L, 0.5, dt), psi0,
                                      int(round(1.0 / dt)))
            errors.append(np.linalg.norm(traj.points[-1] - exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - 2.0) < 0.1

    @pytest.mark.parametrize("H", [swap_hamiltonian(2), random_hermitian(3, seed=11)],
                             ids=["swap", "random3"])
    def test_parasitic_root_neither_grows_nor_decays(self, rng, H):
        # At alpha 1/2 the two-step recursion's second root is exactly -1, so
        # the period-2 amplitude keeps its size; a growing (-1)^n e^t mode
        # added to the same points must read as growth.
        psi0 = random_ket(rng, H.entries.shape[0]).amplitudes
        dt = 0.02
        points = integrate_discrete(DiscreteLagrangian(se_lagrangian(H), 0.5, dt), psi0,
                                    400).points
        amplitude = period_two_amplitude(points)
        assert abs(period_two_rate(dt, amplitude)) < 1e-3

        times = dt * np.arange(points.shape[0])
        # The added mode reaches 10 times the run's largest amplitude at t = 5.
        epsilon = 10.0 * amplitude.max() * np.exp(-5.0)
        grown = points + epsilon * ((-1.0) ** np.arange(times.size) * np.exp(times))[:, None] \
            * psi0
        assert period_two_rate(dt, period_two_amplitude(grown)) > 0.5

    @staticmethod
    def two_step_eigenvalues(step, prev, curr, h=1e-5):
        """Eigenvalues of the forward-difference Jacobian of the two-step map
        (prev, curr) -> (curr, step(prev, curr)), in the real coordinates
        (Re, Im) of the pair."""
        dim = prev.size

        def pair_map(z):
            pair = z[: 2 * dim] + 1j * z[2 * dim :]
            out = np.concatenate([pair[dim:], step(pair[:dim], pair[dim:])])
            return np.concatenate([out.real, out.imag])

        z0 = np.concatenate([prev.real, curr.real, prev.imag, curr.imag])
        f0 = pair_map(z0)
        jac = np.stack([(pair_map(z0 + h * e) - f0) / h for e in np.eye(z0.size)], axis=1)
        return np.linalg.eigvals(jac)

    @pytest.mark.parametrize("H", [swap_hamiltonian(2), random_hermitian(3, seed=11)],
                             ids=["swap", "random3"])
    def test_two_step_map_has_its_spectrum_on_the_unit_circle(self, rng, H):
        # At alpha 1/2 each eigenvalue of H gives the recursion a Cayley root
        # and the root -1, both of modulus 1: in real coordinates 2D of the 4D
        # eigenvalues are -1. The map is linear, so the forward differences
        # are exact up to the Newton tolerance over h.
        dim = H.entries.shape[0]
        dt, gamma, tol = 0.05, 1.0, 1e-6
        Ld = DiscreteLagrangian(se_lagrangian(H), 0.5, dt)
        prev = random_ket(rng, dim).amplitudes
        curr = one_point(initial_step, Ld, prev)[0]

        def step(p, c):
            return one_point(del_step, Ld, p, c)[0]

        mu = self.two_step_eigenvalues(step, prev, curr)
        assert np.max(np.abs(np.abs(mu) - 1.0)) < tol
        assert np.sum(np.abs(mu + 1.0) < tol) == 2 * dim

        # Counter-case: the same map with an added (-1)^n mode that grows by
        # gamma dt per step; (n - 2c + p) / 4 is that mode's part of n.
        def grown(p, c):
            n = step(p, c)
            return n + gamma * dt * (n - 2.0 * c + p) / 4.0

        mu = self.two_step_eigenvalues(grown, prev, curr)
        assert np.max(np.abs(np.abs(mu) - 1.0)) > 0.5 * gamma * dt

    def test_stability_dichotomy_against_stiff_generator(self, rng):
        # The endpoint quadratures are conditionally stable: they explode once
        # an eigenvalue crosses 1/dt, while the midpoint rule holds the norm
        # for any spectral radius.
        H = HermitianOperator(150.0 * swap_hamiltonian(2).entries, (2, 2))
        L = se_lagrangian(H)
        psi0 = random_ket(rng, 4).amplitudes
        traj = integrate_discrete(DiscreteLagrangian(L, 0.5, 0.01), psi0, 2000)
        norms = np.linalg.norm(traj.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-3
        for alpha in (0.0, 1.0):
            with pytest.raises(BlowupError):
                integrate_discrete(DiscreteLagrangian(L, alpha, 0.01), psi0, 2000,
                                   blowup_factor=10.0)


class TestRestrictThenDiscretize:
    def test_tracks_exact_restricted_solution(self, fig1_state):
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        H = swap_hamiltonian(2)
        dts = [0.1, 0.05, 0.02]
        errors = []
        for dt in dts:
            traj = restrict_first(H, 0.5, dt, int(round(1.0 / dt)), fig1_state)
            exact = exact_sse_swap(data, 1.0)
            dev = max(
                projector_distance(traj.points[-1][:2], exact.parts[0].amplitudes),
                projector_distance(traj.points[-1][2:], exact.parts[1].amplitudes),
            )
            errors.append(dev)
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - 2.0) < 0.15

    def test_component_norms_stay_near_one(self, fig1_state):
        H = swap_hamiltonian(2)
        traj = restrict_first(H, 0.5, 0.1, 300, fig1_state)
        norms_a = np.linalg.norm(traj.points[:, :2], axis=1)
        norms_b = np.linalg.norm(traj.points[:, 2:], axis=1)
        assert np.max(np.abs(norms_a - 1.0)) < 0.05
        assert np.max(np.abs(norms_b - 1.0)) < 0.05

    def test_local_sum_decouples_to_per_factor_midpoint(self, rng):
        # Cross-check against independent single-factor midpoint runs with the
        # partner expectation as an identity shift; agreement is second order.
        h1, h2 = random_local(rng), random_local(rng)
        H = local_sum_hamiltonian([h1, h2])
        a0, b0 = random_ket(rng), random_ket(rng)
        state0 = ComponentState((a0, b0))
        shift_a = float(np.real(np.vdot(b0.amplitudes, h2.entries @ b0.amplitudes)))
        shift_b = float(np.real(np.vdot(a0.amplitudes, h1.entries @ a0.amplitudes)))
        devs = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            steps = int(round(2.0 / dt))
            traj = restrict_first(H, 0.5, dt, steps, state0)
            gen_a = HermitianOperator(h1.entries + shift_a * np.eye(2), (2,))
            gen_b = HermitianOperator(h2.entries + shift_b * np.eye(2), (2,))
            ta = integrate_discrete(
                DiscreteLagrangian(se_lagrangian(gen_a), 0.5, dt),
                a0.amplitudes, steps)
            tb = integrate_discrete(
                DiscreteLagrangian(se_lagrangian(gen_b), 0.5, dt),
                b0.amplitudes, steps)
            dev = 0.0
            for i in range(steps + 1):
                dev = max(dev, projector_distance(traj.points[i][:2], ta.points[i]))
                dev = max(dev, projector_distance(traj.points[i][2:], tb.points[i]))
            devs.append(dev)
        slope = np.polyfit(np.log(dts), np.log(devs), 1)[0]
        assert abs(slope - 2.0) < 0.3


class TestDiscretizeThenRestrict:
    def test_blows_up_on_the_exchange_system(self, fig1_state):
        H = swap_hamiltonian(2)
        with pytest.raises(BlowupError) as info:
            discretize_first(H, 0.5, 0.1, 300, fig1_state, blowup_factor=2.0)
        assert info.value.partial.times[-1] <= 30.0

    def test_free_evolution_matches_other_ordering(self, fig1_state):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        t1 = restrict_first(H0, 0.5, 0.1, 10, fig1_state)
        t2 = discretize_first(H0, 0.5, 0.1, 10, fig1_state)
        assert np.max(np.abs(t1.points - t2.points)) < 1e-12

    def test_single_step_differs_at_second_order(self, fig1_state):
        # Same (x0, x1) data for both orderings; the product states of the two
        # next points separate at O(dt^2) but not O(dt^3).
        H = swap_hamiltonian(2)
        data = SwapInitialData(fig1_state.parts[0], fig1_state.parts[1])
        L = se_lagrangian(H)
        dts = [0.2, 0.1, 0.05, 0.025]
        diffs = []
        for dt in dts:
            e0 = exact_sse_swap(data, 0.0)
            e1 = exact_sse_swap(data, dt)
            x0 = stack_state(e0)
            x1 = stack_state(e1)
            L_sep = separable_lagrangian(L, (2, 2))
            y1, _ = one_point(del_step, DiscreteLagrangian(L_sep, 0.5, dt), x0, x1)
            substituted = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, 0.5, dt), (2, 2))
            y2, _ = one_point(del_step, substituted, x0, x1)
            product = lambda x: np.kron(x[:2], x[2:])
            diffs.append(np.linalg.norm(product(y1) - product(y2)))
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert 1.7 < slope < 2.7

    def test_partial_trajectory_is_retained(self, fig1_state):
        H = swap_hamiltonian(2)
        try:
            discretize_first(H, 0.5, 0.1, 300, fig1_state, blowup_factor=2.0)
        except BlowupError as err:
            assert err.partial.points.shape[0] >= 2
            assert err.partial.points.shape[1] == 4
            assert np.all(np.isfinite(err.partial.points))
        else:
            pytest.fail("expected a blow-up")


def two_qubit_products(points):
    """Product states a (x) b of a (T, 4) series of stacked two-qubit components."""
    return np.einsum("ti,tj->tij", points[:, :2], points[:, 2:]).reshape(len(points), 4)


class TestPeriodTwoRate:
    """Oracles for the parasitic root: restrict first has no growing period-2
    mode, and discretize first has one at a rate gamma = O(1) that does not
    depend on dt (p grows like dt^2 e^(gamma t))."""

    DTS = (0.04, 0.02, 0.01, 0.005)
    T_FINAL = 5.0

    @staticmethod
    def fixed_state():
        a = np.array([0.21 + 0.2j, 0.51 - 0.81j])
        b = np.array([0.71 - 0.42j, 0.35 + 0.45j])
        return ComponentState((Ket(a / np.linalg.norm(a)), Ket(b / np.linalg.norm(b))))

    def products(self, run, dt):
        traj = run(swap_hamiltonian(2), 0.5, dt, int(round(self.T_FINAL / dt)),
                   self.fixed_state())
        return two_qubit_products(traj.points)

    @staticmethod
    def rate(dt, products, mode_rate=None):
        """period_two_rate of the products; with ``mode_rate``, of the products
        plus a (-1)^n e^(mode_rate t) mode 100 times the run's largest p from
        the fit window on."""
        if mode_rate is not None:
            n = np.arange(len(products))
            size = 100.0 * period_two_amplitude(products).max() * np.exp(
                -mode_rate * dt * len(products) / 2)
            products = products + size * ((-1.0) ** n * np.exp(mode_rate * dt * n))[:, None] \
                * products[0]
        return period_two_rate(dt, period_two_amplitude(products))

    def test_restrict_first_rate_is_at_most_about_zero(self):
        for dt in self.DTS[:2]:
            products = self.products(restrict_first, dt)
            assert self.rate(dt, products) < 0.1
            # Counter-case: a growing period-2 mode added to the same points.
            assert self.rate(dt, products, mode_rate=0.5) > 0.1

    def test_discretize_first_rate_agrees_across_dt(self):
        products = {dt: self.products(discretize_first, dt)
                    for dt in self.DTS}

        def spread(rates):
            return (max(rates) - min(rates)) / min(rates)

        rates = [self.rate(dt, products[dt]) for dt in self.DTS]
        # A growth rate of order one, the same at every dt.
        assert min(rates) > 0.5
        assert spread(rates) < 0.02
        # Counter-case: a mode whose rate moves with dt.
        assert spread([self.rate(dt, products[dt], mode_rate=1.0 + 20.0 * dt)
                       for dt in self.DTS]) > 0.02


class TestComponentLayout:
    def test_round_trip(self, rng):
        state = ComponentState((random_ket(rng, 2), random_ket(rng, 3)))
        x = stack_state(state)
        back = ComponentState(tuple(Ket(p) for p in split_components(x, (2, 3))))
        assert np.allclose(stack_state(back), x)


class TestPhaseConvention:
    """Strang and restrict-first approximate one restricted flow, and differ by
    the global phase e^{-i(N-1)<H>t} of the ``propagators`` docstring: with it
    the product states agree to order dt², and without it they do not agree.

    Every step count is even, so the restrict-first error is read at one
    parity of its period-2 component. The states are pinned: the slope of a
    three-point ladder of another state can sit farther from 2.
    """

    T = 0.4
    DTS = (0.02, 0.01, 0.005)
    SYSTEMS = {
        "swap": (lambda: swap_hamiltonian(2), [[1, 0], [0.8, 0.6j]]),
        "random5": (lambda: random_hermitian(5, 3),
                    [[0.6, 0.8], [1, 0.5], [0.3, 1j], [1, 1], [0.8, -0.6]]),
        "ladder": (lambda: correlator_hamiltonian(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1j]]),
    }

    def differences(self, system, scheme=SplittingScheme.STRANG):
        """|splitting - restrict-first| at T, each dt, with and without the phase."""
        make_H, vectors = self.SYSTEMS[system]
        H = make_H()
        state = ComponentState(tuple(Ket(np.asarray(v, dtype=complex) / np.linalg.norm(v))
                                     for v in vectors))
        psi0 = kron(state.vectors())
        phase = np.exp(-1j * (len(H.dims) - 1) * np.vdot(psi0, H.entries @ psi0).real * self.T)
        with_phase, without = [], []
        for dt in self.DTS:
            steps = round(self.T / dt)
            assert steps % 2 == 0
            split = splitting_run(scheme, H, state, dt, steps).full[-1]
            run = restrict_first(H, 0.5, dt, steps, state)
            var = Trajectory.from_components(dt, run.points, state.dims).full[-1]
            with_phase.append(np.linalg.norm(split - phase * var))
            without.append(np.linalg.norm(split - var))
        return with_phase, without

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_strang_is_restrict_first_times_the_phase(self, system):
        with_phase, without = self.differences(system)
        assert abs(convergence_order(self.DTS, with_phase) - 2.0) < 0.3
        # Counter-case: without the phase the two stay apart at every dt.
        assert all(0.18 <= d <= 2.0 for d in without)

    def test_a_first_order_splitting_reads_slope_one(self):
        """Counter-case: Lie-Trotter in Strang's place fails the slope check."""
        with_phase, _ = self.differences("swap", SplittingScheme.LIE_TROTTER)
        assert abs(convergence_order(self.DTS, with_phase) - 1.0) < 0.3


def noether_charges(Ld, points: np.ndarray, dims) -> np.ndarray:
    """The discrete Noether charges J_xi(n) = 2 Re p_n . xi(x_n), n = 1..steps,
    one row per direction xi, with p_n = D2 L_d(x_{n-1}, x_n) of ``Ld``.

    The directions are i a_k on each slot k (a phase of one component), then
    (a_0, -a_k) on slots 0 and k for k >= 1 (the gauge a_0 -> lambda a_0,
    a_k -> a_k / lambda for real lambda): 2N - 1 charges.
    """
    momenta = Ld.d3(points[:-1], points[1:])
    parts = split_components(points[1:], dims)
    directions = []
    for k in range(len(dims)):
        xi = [np.zeros_like(part) for part in parts]
        xi[k] = 1j * parts[k]
        directions.append(xi)
    for k in range(1, len(dims)):
        xi = [np.zeros_like(part) for part in parts]
        xi[0], xi[k] = parts[0], -parts[k]
        directions.append(xi)
    return np.array([2.0 * np.sum(momenta * np.concatenate(xi, axis=-1), axis=-1).real
                     for xi in directions])


class TestNoetherCharges:
    """Both orderings conserve their discrete Noether charges to Newton's tolerance.

    The discrete Lagrangian each recursion solves with is invariant under a
    phase of one component and under the gauge of ``noether_charges``, so
    the discrete Euler-Lagrange equations conserve each charge exactly, and
    only the solves' residuals move it. That holds whatever the gauge and
    the norm do, which the other variational checks read. The recursion's
    L_d is the separable ``DiscreteLagrangian`` for restrict-first, and
    ``_SubstitutedDiscreteLagrangian`` for discretize-first, whose momentum
    p_1 is taken at the shared restrict-first start. The states are pinned:
    with N >= 3 many discretize-first runs end in a Newton failure before
    step 50.
    """

    ALPHA, DT, STEPS = 0.5, 0.02, 50
    SYSTEMS = {
        "swap": (lambda: swap_hamiltonian(2), [[1, 0], [0.8, 0.6j]]),
        "random5": (lambda: random_hermitian(5, 3),
                    [[0.1 - 1j, 0.3 - 1.1j], [0.2 + 0.2j, -0.5 + 0.8j], [-1.6 + 1.2j, 0.3 - 0.3j],
                     [-0.8 + 0.3j, 0.8 + 0.9j], [-0.3 - 0.1j, -1.5 - 0.4j]]),
        "ladder": (lambda: correlator_hamiltonian(2),
                   [[0.3 + 1.4j, -1.2 + 0.3j, -1.1 + 0.1j], [-1j, 0.4 + 1.3j, -1.2 + 0.2j],
                    [0.9 + 0.3j, -0.6 + 0.5j, 1.4 + 0.5j]]),
    }
    CASES = [(system, ordering) for system in SYSTEMS for ordering in ORDERINGS]

    def largest_drift(self, system, ordering) -> float:
        """max over xi and n of |J_xi(n) - J_xi(1)| on the pinned run."""
        make_H, vectors = self.SYSTEMS[system]
        H = make_H()
        state = ComponentState(tuple(Ket(np.asarray(v, dtype=complex) / np.linalg.norm(v))
                                     for v in vectors))
        L = se_lagrangian(H)
        Ld = DiscreteLagrangian(separable_lagrangian(L, state.dims), self.ALPHA, self.DT)
        if ordering == "discretize_first":
            Ld = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, self.ALPHA, self.DT),
                                                state.dims)
        run = run_alone(ordering, H, self.ALPHA, self.DT, self.STEPS, state)
        assert run.points.shape[0] == self.STEPS + 1
        charges = noether_charges(Ld, run.points, state.dims)
        assert charges.shape == (2 * len(state.dims) - 1, self.STEPS)
        return float(np.abs(charges - charges[:, :1]).max())

    @pytest.mark.parametrize("system, ordering", CASES)
    def test_every_charge_is_conserved(self, system, ordering):
        assert self.largest_drift(system, ordering) <= 1e-9

    @pytest.mark.parametrize("system, ordering", CASES)
    def test_a_loose_newton_tolerance_breaks_conservation(self, monkeypatch, system,
                                                          ordering):
        """Counter-case: solves stopped at 1e-6 move the charges past the bound."""
        monkeypatch.setattr(variational, "NEWTON_TOL", 1e-6)
        assert self.largest_drift(system, ordering) > 1e-9
