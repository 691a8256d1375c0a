import re
from math import prod

import numpy as np
import pytest

from sepdyn import variational
from sepdyn.analysis import period_two_amplitude, period_two_rate
from sepdyn.exact_swap import SwapInitialData, exact_sse_swap
from sepdyn.hamiltonians import (
    HermitianOperator,
    correlator_hamiltonian,
    random_hermitian,
    swap_hamiltonian,
)
from sepdyn.propagators import hermitian_expm_apply
from sepdyn.states import ComponentState, Ket, split_components
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
    integrate_discretize_then_restrict,
    integrate_restrict_then_discretize,
    integrate_separable_rows,
    newton_solve,
    se_lagrangian,
    separable_lagrangian,
    velocity_momentum,
)
from sepdyn.variational import _SubstitutedDiscreteLagrangian, _forward_difference_jacobian
from sepdyn.variational import _least_squares as real_least_squares

from conftest import local_sum_hamiltonian, random_ket
from test_reduced import random_local


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

    def capture(residual, guesses):
        seen.update(residual=residual, guesses=np.asarray(guesses, dtype=complex))
        return [(guess, 0) for guess in seen["guesses"]]

    monkeypatch.setattr(variational, "_newton_rows", capture)
    solve()
    monkeypatch.undo()
    return seen["residual"], seen["guesses"]


def one_row(residual, row=0):
    """A row residual as a residual of one system: a point, or a stack of them."""
    return lambda y: residual(y[None], np.array([row]))[0]


def jacobian_at(residual, point):
    """``_forward_difference_jacobian`` of row 0 of ``residual`` at ``point``,
    with the real-split point and residual it was taken at."""
    x = np.concatenate([point.real, point.imag])
    values = one_row(residual)(point)
    r = np.concatenate([values.real, values.imag])
    return _forward_difference_jacobian(residual, x[None], r[None], np.array([0]))[0], x, r


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
                lambda: initial_step(restrict_first, x_prev),
                lambda: del_step(restrict_first, x_prev, x_curr),
                lambda: del_step(discretize_first, x_prev, x_curr),
            ]
            for solve in solves:
                residual, (guess,) = captured_residual(monkeypatch, solve)
                for point in (guess, guess + 0.01 * random_product_point(rng, dims)):
                    jac, x, r = jacobian_at(residual, point)
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
                    monkeypatch, lambda: variational._del_rows(Ld, prev, curr))
                x = np.concatenate([guesses.real, guesses.imag], axis=1)
                values = residual(guesses, np.arange(3))
                r = np.concatenate([values.real, values.imag], axis=1)
                jacs = _forward_difference_jacobian(residual, x, r, np.arange(3))
                for row in range(3):
                    assert np.array_equal(
                        jacs[row], per_column_jacobian(one_row(residual, row), x[row], r[row]))

    def test_newton_rejects_a_residual_that_ignores_the_stack(self):
        def first_row_only(y):
            return np.atleast_2d(y)[0] ** 2 - 1.0

        with pytest.raises(ValueError, match=r"to shape \(1, 2\)"):
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


class TestInitialStep:
    def test_free_evolution_keeps_the_point(self, rng):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        Ld = DiscreteLagrangian(se_lagrangian(H0), 0.5, 0.1)
        psi0 = random_args(rng, 4, count=1)[0]
        psi1, _ = initial_step(Ld, psi0)
        assert np.allclose(psi1, psi0)

    def test_midpoint_start_is_third_order_accurate(self, rng):
        H = swap_hamiltonian(2)
        L = se_lagrangian(H)
        psi0 = random_ket(rng, 4).amplitudes
        ratios = []
        for dt in (0.1, 0.05, 0.025):
            psi1, _ = initial_step(DiscreteLagrangian(L, 0.5, dt), psi0)
            exact = hermitian_expm_apply(H, dt, psi0)
            ratios.append(np.linalg.norm(psi1 - exact) / dt**3)
        assert max(ratios) / min(ratios) < 1.5

    def test_residual_below_tolerance(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        psi1, _ = initial_step(Ld, psi0)
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
            psi1, _ = initial_step(Ld, psi0)
            # The full-space residual d1(psi1, y) + d3(psi0, psi1) reads y only
            # through conj(y), in c = alpha psi1 + (1 - alpha) y and
            # v = (y - psi1)/dt, so it is affine with the constant
            # conj(y)-Jacobian J. With y = u + iw its real split is
            # [[Re J, Im J], [Im J, -Re J]].
            J = -0.5j * np.eye(4) - alpha * (1.0 - alpha) * dt * H.entries.T
            exact = np.block([[J.real, J.imag], [J.imag, -J.real]])
            residual, (guess,) = captured_residual(monkeypatch,
                                                   lambda: del_step(Ld, psi0, psi1))
            for point in (guess, guess + 0.1 * random_ket(rng, 4).amplitudes):
                jac, _, _ = jacobian_at(residual, point)
                assert np.max(np.abs(jac - exact)) <= 1e-6 * np.max(np.abs(exact))
            nxt, iterations = del_step(Ld, psi0, psi1)
            assert 1 <= iterations <= 2
            residual = Ld.d1(psi1, nxt) + Ld.d3(psi0, psi1)
            assert np.linalg.norm(residual) < 1e-12

    def test_two_term_recursion_reproduces_trajectory(self, rng):
        Ld = DiscreteLagrangian(se_lagrangian(swap_hamiltonian(2)), 0.5, 0.1)
        psi0 = random_ket(rng, 4).amplitudes
        traj = integrate_discrete(Ld, psi0, 20)
        rebuilt = [traj.points[0], traj.points[1]]
        for _ in range(19):
            nxt, _ = del_step(Ld, rebuilt[-2], rebuilt[-1])
            rebuilt.append(nxt)
        assert np.max(np.abs(np.stack(rebuilt) - traj.points)) < 1e-10

    def test_free_evolution_stays_constant(self, rng):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        Ld = DiscreteLagrangian(se_lagrangian(H0), 0.5, 0.1)
        psi0 = random_args(rng, 4, count=1)[0]
        nxt, _ = del_step(Ld, psi0, psi0)
        assert np.allclose(nxt, psi0)

    def test_newton_reports_nonconvergence(self):
        def impossible(y):
            return (np.abs(y[..., :1]) ** 2 + 1.0).astype(complex)

        with pytest.raises(NewtonConvergenceError) as info:
            newton_solve(impossible, np.array([1.0 + 0j]))
        assert info.value.residual > 0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_first_residual_stops_before_a_jacobian(self):
        calls = []

        def overflowing(y):
            calls.append(np.shape(y))
            return np.full(np.shape(y), np.nan, dtype=complex)

        with pytest.raises(NewtonConvergenceError, match="non-finite"):
            newton_solve(overflowing, np.array([1.0 + 0j, 2.0 + 0j]))
        assert calls == [(2,)]

    def test_non_finite_jacobian_is_a_convergence_failure(self, capfd):
        # Finite at the guess, infinite at every bumped point: handed to
        # lstsq, such a Jacobian makes LAPACK print to fd 1 before it fails.
        def steep(y):
            return np.full(np.shape(y), np.inf if np.ndim(y) == 2 else 1.0, dtype=complex)

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
        x1, first = initial_step(Ld, x0)
        rows, counts = [x0, x1], [first]
        for _ in range(1, steps):
            nxt, used = del_step(Ld, rows[-2], rows[-1])
            rows.append(nxt)
            counts.append(used)
        return np.stack(rows), counts

    def test_counts_match_a_direct_del_step_loop(self, fig1_state):
        H = swap_hamiltonian(2)
        traj = integrate_restrict_then_discretize(H, 0.5, 0.05, 40, fig1_state)
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
        assert traj.newton_iterations.tolist() == [initial_step(Ld, psi0)[1]]

    def test_blowup_partial_carries_one_count_per_step(self, fig1_state):
        with pytest.raises(BlowupError) as info:
            integrate_discretize_then_restrict(swap_hamiltonian(2), 0.5, 0.1, 300,
                                               fig1_state, blowup_factor=2.0)
        partial = info.value.partial
        assert partial.newton_iterations.shape == (partial.points.shape[0] - 1,)
        assert np.all(partial.newton_iterations >= 1)

    def test_count_length_is_validated(self):
        with pytest.raises(ValueError):
            DiscreteTrajectory(1.0, np.zeros((3, 2)), newton_iterations=np.ones(3),
                               newton_residuals=np.ones(2), min_lstsq_rank=None)
        with pytest.raises(ValueError):
            DiscreteTrajectory(1.0, np.zeros((3, 2)), newton_iterations=np.ones(2),
                               newton_residuals=np.ones(3), min_lstsq_rank=None)

    def test_final_residuals_and_ranks_are_recorded(self, fig1_state):
        H = swap_hamiltonian(2)
        traj = integrate_restrict_then_discretize(H, 0.5, 0.05, 10, fig1_state)
        # The start's residual, evaluated again at the point it accepted.
        Ld = DiscreteLagrangian(separable_lagrangian(se_lagrangian(H), (2, 2)), 0.5, 0.05)
        x0, x1 = traj.points[:2]
        start = velocity_momentum(Ld.base, x0) + Ld.d1(x0, x1)
        assert traj.newton_residuals[0] == np.linalg.norm(np.concatenate([start.real,
                                                                          start.imag]))
        assert np.all(traj.newton_residuals <= variational.NEWTON_TOL)
        assert 1 <= traj.min_lstsq_rank <= 8
        # A run whose every solve converges at its guess makes no update.
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        free = integrate_restrict_then_discretize(H0, 0.5, 0.05, 3, fig1_state)
        assert free.newton_iterations.tolist() == [0, 0, 0]
        assert free.min_lstsq_rank is None

    def test_times_are_derived_and_read_only(self, fig1_state):
        traj = integrate_restrict_then_discretize(swap_hamiltonian(2), 0.5, 0.05, 12, fig1_state)
        assert traj.dt == 0.05
        assert np.array_equal(traj.times, 0.05 * np.arange(13))
        assert not traj.times.flags.writeable


class TestEntryPoints:
    """The three integrate_* functions share one run loop and its checks."""

    @staticmethod
    def entry_points(steps):
        H = swap_hamiltonian(2)
        state0 = ComponentState((Ket(np.array([1.0, 0.0])), Ket(np.array([0.6, 0.8]))))
        Ld = DiscreteLagrangian(se_lagrangian(H), 0.5, 0.1)
        return {
            "integrate_discrete": lambda: integrate_discrete(
                Ld, np.kron([1.0, 0.0], [0.6, 0.8]), steps),
            "restrict_first": lambda: integrate_restrict_then_discretize(
                H, 0.5, 0.1, steps, state0),
            "discretize_first": lambda: integrate_discretize_then_restrict(
                H, 0.5, 0.1, steps, state0),
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

    @pytest.mark.parametrize("run", [integrate_restrict_then_discretize,
                                     integrate_discretize_then_restrict],
                             ids=["restrict_first", "discretize_first"])
    def test_operator_and_state_layouts_must_agree(self, rng, run):
        # Equal total dimension, different tensor layout.
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H = HermitianOperator(mat + mat.conj().T, (2, 4))
        state0 = ComponentState((random_ket(rng, 4), random_ket(rng, 2)))
        with pytest.raises(ValueError, match=re.escape(
                "operator dims (2, 4) do not match state dims (4, 2)")):
            run(H, 0.5, 0.1, 3, state0)


class TestRowBatches:
    """Rows advanced together equal, bit for bit, the same states run one at a time."""

    @staticmethod
    def outcome_bits(outcome):
        """Kind, message, points as uint64 and Newton counts of one row's outcome."""
        if isinstance(outcome, NewtonConvergenceError):
            return ("failed start", str(outcome), outcome.residual)
        kind, message = "ok", None
        if isinstance(outcome, BlowupError):
            kind, message, outcome = "blow-up", str(outcome), outcome.partial
        return (kind, message, outcome.points.view(np.uint64).tobytes(),
                outcome.newton_iterations.tolist())

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
        alone = {"restrict_first": integrate_restrict_then_discretize,
                 "discretize_first": integrate_discretize_then_restrict}[ordering]
        kinds, lengths = [], []
        for state, count, row in zip(states, steps, rows):
            try:
                single = alone(H, 0.5, dt, count, state, blowup_factor=2.0)
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
            if points.ndim == 3:  # the Jacobians' bumped points
                values[rows == 3] = np.inf
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
        curr = initial_step(Ld, prev)[0]

        def step(p, c):
            return del_step(Ld, p, c)[0]

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
            traj = integrate_restrict_then_discretize(
                H, 0.5, dt, int(round(1.0 / dt)), fig1_state
            )
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
        traj = integrate_restrict_then_discretize(H, 0.5, 0.1, 300, fig1_state)
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
            traj = integrate_restrict_then_discretize(H, 0.5, dt, steps, state0)
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
            integrate_discretize_then_restrict(H, 0.5, 0.1, 300, fig1_state,
                                               blowup_factor=2.0)
        assert info.value.partial.times[-1] <= 30.0

    def test_free_evolution_matches_other_ordering(self, fig1_state):
        H0 = HermitianOperator(np.zeros((4, 4)), (2, 2))
        t1 = integrate_restrict_then_discretize(H0, 0.5, 0.1, 10, fig1_state)
        t2 = integrate_discretize_then_restrict(H0, 0.5, 0.1, 10, fig1_state)
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
            y1, _ = del_step(DiscreteLagrangian(L_sep, 0.5, dt), x0, x1)
            substituted = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, 0.5, dt), (2, 2))
            y2, _ = del_step(substituted, x0, x1)
            product = lambda x: np.kron(x[:2], x[2:])
            diffs.append(np.linalg.norm(product(y1) - product(y2)))
        slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
        assert 1.7 < slope < 2.7

    def test_partial_trajectory_is_retained(self, fig1_state):
        H = swap_hamiltonian(2)
        try:
            integrate_discretize_then_restrict(H, 0.5, 0.1, 300, fig1_state,
                                               blowup_factor=2.0)
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
            products = self.products(integrate_restrict_then_discretize, dt)
            assert self.rate(dt, products) < 0.1
            # Counter-case: a growing period-2 mode added to the same points.
            assert self.rate(dt, products, mode_rate=0.5) > 0.1

    def test_discretize_first_rate_agrees_across_dt(self):
        products = {dt: self.products(integrate_discretize_then_restrict, dt)
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
