"""Variational integrators for Lagrangians linear in velocities.

A one-parameter quadrature family turns a continuous first-order Lagrangian
into a discrete one; stationarity of the discrete action gives a two-term
recursion, started by matching the continuous momentum (well defined here
because the Lagrangian is degenerate: the momentum depends on positions
only). Restricting to product states can happen before discretization, by
pulling the Lagrangian back to the component variables, or after, by
substituting product states into the discrete action. The two orderings
produce different schemes.

All Newton solves treat the unknown's real and imaginary parts as
independent, since the stationarity equations couple a point to its complex
conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np

from .hamiltonians import HermitianOperator
from .states import ComponentState, Ket

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BlowupError(RuntimeError):
    """Iterates exceeded the blow-up threshold; carries the partial run."""

    def __init__(self, message: str, partial: "DiscreteTrajectory"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class FirstOrderLagrangian:
    """Scalar function of (psi, psibar, dpsi, dpsibar) with analytic gradients.

    ``gradient`` returns the four holomorphic partial derivatives, one block
    per argument, in the same order. ``second_blocks``, when provided,
    returns the 4x4 grid of second-derivative matrices T[i][j] = d(g_i)/d(arg_j)
    (None for zero blocks); quadratic Lagrangians can supply it so Newton
    solves get exact Jacobians.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], complex]
    gradient: Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ]
    second_blocks: Callable | None = None


def se_lagrangian(H: HermitianOperator) -> FirstOrderLagrangian:
    """The velocity-linear Lagrangian whose stationary curves solve i dpsi = H psi."""
    mat = H.entries
    dim = mat.shape[0]
    eye = np.eye(dim, dtype=complex)

    def evaluate(psi, psibar, dpsi, dpsibar):
        kinetic = 0.5j * (psibar @ dpsi - dpsibar @ psi)
        return complex(kinetic - psibar @ (mat @ psi))

    def gradient(psi, psibar, dpsi, dpsibar):
        g_psi = -0.5j * dpsibar - mat.T @ psibar
        g_psibar = 0.5j * dpsi - mat @ psi
        g_dpsi = 0.5j * psibar
        g_dpsibar = -0.5j * psi
        return g_psi, g_psibar, g_dpsi, g_dpsibar

    # Quadratic Lagrangian: constant second derivatives.
    blocks = (
        (None, -mat.T, None, -0.5j * eye),
        (-mat, None, 0.5j * eye, None),
        (None, 0.5j * eye, None, None),
        (-0.5j * eye, None, None, None),
    )

    def second_blocks(psi, psibar, dpsi, dpsibar):
        return blocks

    return FirstOrderLagrangian(
        dim=dim, evaluate=evaluate, gradient=gradient, second_blocks=second_blocks
    )


@dataclass(frozen=True)
class ComponentLayout:
    """Slicing of stacked component vectors x = concat(a_1, ..., a_N)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total(self) -> int:
        return sum(self.dims)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        parts = []
        offset = 0
        for d in self.dims:
            parts.append(x[offset : offset + d])
            offset += d
        return parts

    def stack(self, parts) -> np.ndarray:
        return np.concatenate([np.asarray(p, dtype=complex) for p in parts])

    def stack_state(self, state: ComponentState) -> np.ndarray:
        return self.stack(state.vectors())

    def to_state(self, x: np.ndarray) -> ComponentState:
        return ComponentState(tuple(Ket(p) for p in self.split(x)), self.dims)


def _kron_all(parts) -> np.ndarray:
    out = parts[0]
    for p in parts[1:]:
        out = np.kron(out, p)
    return out


def _product_velocity(parts, velocities) -> np.ndarray:
    """Derivative of a product state: sum over slots of the one-slot velocity."""
    total = None
    for j in range(len(parts)):
        factors = [velocities[j] if i == j else parts[i] for i in range(len(parts))]
        term = _kron_all(factors)
        total = term if total is None else total + term
    return total


def _contract_all_but(g: np.ndarray, vectors, k: int, dims) -> np.ndarray:
    """Contract g (a flattened product tensor) with vectors on every slot but k.

    Plain dot products, no conjugation: this is the transpose of the linear
    slot-k embedding map, as needed for holomorphic chain rules.
    """
    n = len(dims)
    operands = [g.reshape(dims), list(range(n))]
    for j in range(n):
        if j == k:
            continue
        operands.extend([vectors[j], [j]])
    return np.einsum(*operands, [k])


def separable_lagrangian(L: FirstOrderLagrangian, dims) -> FirstOrderLagrangian:
    """Pull a Lagrangian on the product space back to stacked component variables."""
    layout = ComponentLayout(tuple(dims))
    if L.dim != prod(layout.dims):
        raise ValueError(f"Lagrangian dimension {L.dim} does not match dims {dims}")
    n = len(layout.dims)

    def assemble(x, xbar, xdot, xbardot):
        parts = layout.split(x)
        bparts = layout.split(xbar)
        dparts = layout.split(xdot)
        bdparts = layout.split(xbardot)
        psi = _kron_all(parts)
        psibar = _kron_all(bparts)
        dpsi = _product_velocity(parts, dparts)
        dpsibar = _product_velocity(bparts, bdparts)
        return parts, bparts, dparts, bdparts, psi, psibar, dpsi, dpsibar

    def evaluate(x, xbar, xdot, xbardot):
        _, _, _, _, psi, psibar, dpsi, dpsibar = assemble(x, xbar, xdot, xbardot)
        return L.evaluate(psi, psibar, dpsi, dpsibar)

    def gradient(x, xbar, xdot, xbardot):
        parts, bparts, dparts, bdparts, psi, psibar, dpsi, dpsibar = assemble(
            x, xbar, xdot, xbardot
        )
        g1, g2, g3, g4 = L.gradient(psi, psibar, dpsi, dpsibar)
        dims_t = layout.dims
        gx, gxbar, gxdot, gxbardot = [], [], [], []
        for k in range(n):
            # Position gradient: the product state depends on a_k directly, and
            # the velocity sum depends on a_k through every slot j != k.
            block = _contract_all_but(g1, parts, k, dims_t)
            for j in range(n):
                if j == k:
                    continue
                mixed = [dparts[j] if i == j else parts[i] for i in range(n)]
                block = block + _contract_all_but(g3, mixed, k, dims_t)
            gx.append(block)

            block = _contract_all_but(g2, bparts, k, dims_t)
            for j in range(n):
                if j == k:
                    continue
                mixed = [bdparts[j] if i == j else bparts[i] for i in range(n)]
                block = block + _contract_all_but(g4, mixed, k, dims_t)
            gxbar.append(block)

            gxdot.append(_contract_all_but(g3, parts, k, dims_t))
            gxbardot.append(_contract_all_but(g4, bparts, k, dims_t))
        return (
            layout.stack(gx),
            layout.stack(gxbar),
            layout.stack(gxdot),
            layout.stack(gxbardot),
        )

    return FirstOrderLagrangian(dim=layout.total, evaluate=evaluate, gradient=gradient)


@dataclass(frozen=True)
class DiscreteLagrangian:
    """One-parameter quadrature of a first-order Lagrangian.

    Evaluates the base Lagrangian at the interior point
    alpha*x + (1-alpha)*y with the difference quotient (y - x)/dt;
    alpha = 1/2 is the midpoint rule.
    """

    base: FirstOrderLagrangian
    alpha: float
    dt: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def _interior(self, x, xbar, y, ybar):
        a = self.alpha
        c = a * x + (1.0 - a) * y
        cbar = a * xbar + (1.0 - a) * ybar
        v = (y - x) / self.dt
        vbar = (ybar - xbar) / self.dt
        return c, cbar, v, vbar

    def value(self, x, xbar, y, ybar) -> complex:
        c, cbar, v, vbar = self._interior(x, xbar, y, ybar)
        return self.dt * self.base.evaluate(c, cbar, v, vbar)

    def gradients(self, x, xbar, y, ybar):
        """All four partials (d1, d2, d3, d4) by the chain rule."""
        c, cbar, v, vbar = self._interior(x, xbar, y, ybar)
        g1, g2, g3, g4 = self.base.gradient(c, cbar, v, vbar)
        a, dt = self.alpha, self.dt
        d1 = dt * a * g1 - g3
        d2 = dt * a * g2 - g4
        d3 = dt * (1.0 - a) * g1 + g3
        d4 = dt * (1.0 - a) * g2 + g4
        return d1, d2, d3, d4

    def d1(self, x, xbar, y, ybar):
        return self.gradients(x, xbar, y, ybar)[0]

    def d2(self, x, xbar, y, ybar):
        return self.gradients(x, xbar, y, ybar)[1]

    def d3(self, x, xbar, y, ybar):
        return self.gradients(x, xbar, y, ybar)[2]

    def d4(self, x, xbar, y, ybar):
        return self.gradients(x, xbar, y, ybar)[3]

    def d1_jacobian(self, x, xbar, y, ybar):
        """Holomorphic/antiholomorphic Jacobians of d1 in its third argument.

        Returns (d(d1)/dy, d(d1)/dybar) when the base Lagrangian supplies
        second derivatives, else None.
        """
        if self.base.second_blocks is None:
            return None
        c, cbar, v, vbar = self._interior(x, xbar, y, ybar)
        T = self.base.second_blocks(c, cbar, v, vbar)
        a, dt = self.alpha, self.dt
        dim = y.size
        zero = np.zeros((dim, dim), dtype=complex)

        def blk(entry):
            return zero if entry is None else entry

        # Chain rule: dc/dy = (1-a) I, dv/dy = I/dt, bars analogous.
        dg1_dy = (1.0 - a) * blk(T[0][0]) + blk(T[0][2]) / dt
        dg1_dybar = (1.0 - a) * blk(T[0][1]) + blk(T[0][3]) / dt
        dg3_dy = (1.0 - a) * blk(T[2][0]) + blk(T[2][2]) / dt
        dg3_dybar = (1.0 - a) * blk(T[2][1]) + blk(T[2][3]) / dt
        j_y = dt * a * dg1_dy - dg3_dy
        j_ybar = dt * a * dg1_dybar - dg3_dybar
        return j_y, j_ybar


def velocity_momentum(L: FirstOrderLagrangian, x: np.ndarray) -> np.ndarray:
    """Conjugate momentum dL/d(dpsi) at (x, conj x); position-only for linear L."""
    zero = np.zeros_like(x)
    return L.gradient(x, np.conj(x), zero, zero)[2]


def _complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _real_to_complex(r: np.ndarray) -> np.ndarray:
    half = r.size // 2
    return r[:half] + 1j * r[half:]


def _real_jacobian_from_complex(j_y: np.ndarray, j_ybar: np.ndarray) -> np.ndarray:
    """Real-split Jacobian of F(y, conj y) from its two complex Jacobians."""
    d_u = j_y + j_ybar          # derivative along the real part
    d_w = 1j * (j_y - j_ybar)   # derivative along the imaginary part
    return np.block([[d_u.real, d_w.real], [d_u.imag, d_w.imag]])


def newton_solve(residual: Callable[[np.ndarray], np.ndarray], guess: np.ndarray,
                 tol: float = NEWTON_TOL, maxiter: int = NEWTON_MAXITER,
                 jacobian: Callable | None = None):
    """Newton iteration on a complex residual with real/imaginary splitting.

    ``jacobian``, when given, maps the complex iterate to the pair
    (dF/dy, dF/dybar); otherwise the real-split Jacobian is assembled by
    forward differences of the residual. Updates are solved in the
    least-squares sense, which also covers rank-deficient systems (the
    product-state substitution leaves a rescaling direction unconstrained).
    Returns (solution, iterations).
    """

    def real_residual(r_vec):
        return _complex_to_real(residual(_real_to_complex(r_vec)))

    x = _complex_to_real(np.asarray(guess, dtype=complex))
    r = real_residual(x)
    if np.linalg.norm(r) <= tol:
        return _real_to_complex(x), 0
    m = x.size
    for iteration in range(1, maxiter + 1):
        if jacobian is not None:
            jac = _real_jacobian_from_complex(*jacobian(_real_to_complex(x)))
        else:
            jac = np.empty((m, m))
            base = r
            for j in range(m):
                h = np.sqrt(np.finfo(float).eps) * max(1.0, abs(x[j]))
                bumped = x.copy()
                bumped[j] += h
                jac[:, j] = (real_residual(bumped) - base) / h
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        x = x + step
        r = real_residual(x)
        res_norm = float(np.linalg.norm(r))
        if not np.isfinite(res_norm):
            raise NewtonConvergenceError("Newton residual became non-finite", res_norm)
        if res_norm <= tol:
            return _real_to_complex(x), iteration
    raise NewtonConvergenceError(
        f"Newton did not reach {tol} in {maxiter} iterations", res_norm
    )


def _d1_jacobian_callable(Ld: DiscreteLagrangian, x, xbar):
    if getattr(Ld, "d1_jacobian", None) is None:
        return None
    probe = Ld.d1_jacobian(x, xbar, x, xbar)
    if probe is None:
        return None

    def jacobian(y):
        return Ld.d1_jacobian(x, xbar, y, np.conj(y))

    return jacobian


def initial_step(Ld: DiscreteLagrangian, psi0: np.ndarray,
                 tol: float = NEWTON_TOL) -> np.ndarray:
    """First grid point from momentum matching at the initial time."""
    psi0 = np.asarray(psi0, dtype=complex)
    p0 = velocity_momentum(Ld.base, psi0)
    bar0 = np.conj(psi0)

    def residual(y):
        return p0 + Ld.d1(psi0, bar0, y, np.conj(y))

    solution, _ = newton_solve(
        residual, psi0, tol=tol, jacobian=_d1_jacobian_callable(Ld, psi0, bar0)
    )
    return solution


def del_step(Ld: DiscreteLagrangian, psi_prev: np.ndarray, psi_curr: np.ndarray,
             guess: np.ndarray | None = None, tol: float = NEWTON_TOL):
    """Advance the two-term discrete stationarity recursion by one point.

    Returns (psi_next, newton_iterations).
    """
    psi_prev = np.asarray(psi_prev, dtype=complex)
    psi_curr = np.asarray(psi_curr, dtype=complex)
    tail = Ld.d3(psi_prev, np.conj(psi_prev), psi_curr, np.conj(psi_curr))
    bar_curr = np.conj(psi_curr)

    def residual(y):
        return Ld.d1(psi_curr, bar_curr, y, np.conj(y)) + tail

    if guess is None:
        guess = psi_curr
    return newton_solve(
        residual, guess, tol=tol, jacobian=_d1_jacobian_callable(Ld, psi_curr, bar_curr)
    )


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Points of a discrete variational run on a uniform grid.

    ``points`` has shape (n_times, dim); for separable runs the rows are
    stacked component vectors and ``dims`` records the subsystem split.
    """

    times: np.ndarray
    points: np.ndarray
    dt: float
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        if points.shape[0] != times.size:
            raise ValueError("points and times disagree in length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)


def _run_recursion(Ld: DiscreteLagrangian, x0: np.ndarray, x1: np.ndarray,
                   steps: int, dims, blowup_factor: float | None) -> DiscreteTrajectory:
    """Iterate del_step from (x0, x1), optionally watching for blow-up."""
    dt = Ld.dt
    rows = [np.asarray(x0, dtype=complex), np.asarray(x1, dtype=complex)]
    reference = float(np.max(np.abs(rows[0])))

    def make_traj(n_rows):
        times = dt * np.arange(n_rows)
        return DiscreteTrajectory(times, np.stack(rows[:n_rows]), dt, dims)

    for j in range(1, steps):
        guess = 2.0 * rows[-1] - rows[-2]
        try:
            nxt, _ = del_step(Ld, rows[-2], rows[-1], guess=guess)
        except NewtonConvergenceError:
            if blowup_factor is None:
                raise
            raise BlowupError(
                f"solver failure at step {j + 1}, treated as blow-up",
                make_traj(len(rows)),
            ) from None
        rows.append(nxt)
        if blowup_factor is not None:
            if np.max(np.abs(nxt)) > blowup_factor * reference:
                raise BlowupError(
                    f"amplitude exceeded {blowup_factor}x initial at step {j + 1}",
                    make_traj(len(rows)),
                )
    return make_traj(len(rows))


def integrate_discrete(Ld: DiscreteLagrangian, psi0: np.ndarray, steps: int,
                       dims=None, blowup_factor: float | None = None) -> DiscreteTrajectory:
    """Momentum-matching start followed by the stationarity recursion."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = np.asarray(psi0, dtype=complex)
    x1 = initial_step(Ld, x0)
    if steps == 1:
        times = Ld.dt * np.arange(2)
        return DiscreteTrajectory(times, np.stack([x0, x1]), Ld.dt, dims)
    return _run_recursion(Ld, x0, x1, steps, dims, blowup_factor)


def integrate_restrict_then_discretize(
    H: HermitianOperator, alpha: float, dt: float, steps: int,
    state0: ComponentState, blowup_factor: float | None = None,
) -> DiscreteTrajectory:
    """Restrict first: discretize the component-variable Lagrangian."""
    layout = ComponentLayout(state0.dims)
    L_sep = separable_lagrangian(se_lagrangian(H), state0.dims)
    Ld = DiscreteLagrangian(L_sep, alpha, dt)
    return integrate_discrete(
        Ld, layout.stack_state(state0), steps, dims=state0.dims,
        blowup_factor=blowup_factor,
    )


class _SubstitutedDiscreteLagrangian:
    """Discrete stationarity equations of the product-state substitution.

    The full-space discrete Lagrangian is evaluated on product states and
    differentiated with respect to the component variables; the unknown
    enters only through its tensor product, so the resulting equations are
    rank-deficient along component rescalings (handled by the least-squares
    Newton update).
    """

    def __init__(self, Ld_full: DiscreteLagrangian, dims):
        self.full = Ld_full
        self.layout = ComponentLayout(tuple(dims))
        self.dt = Ld_full.dt

    def _product(self, x):
        parts = self.layout.split(x)
        return parts, _kron_all(parts)

    def d1(self, x, xbar, y, ybar):
        parts, psi_x = self._product(x)
        _, psi_y = self._product(y)
        full_grad = self.full.d1(psi_x, np.conj(psi_x), psi_y, np.conj(psi_y))
        dims = self.layout.dims
        blocks = [
            _contract_all_but(full_grad, parts, k, dims) for k in range(len(dims))
        ]
        return self.layout.stack(blocks)

    def d3(self, x, xbar, y, ybar):
        _, psi_x = self._product(x)
        parts_y, psi_y = self._product(y)
        full_grad = self.full.d3(psi_x, np.conj(psi_x), psi_y, np.conj(psi_y))
        dims = self.layout.dims
        blocks = [
            _contract_all_but(full_grad, parts_y, k, dims) for k in range(len(dims))
        ]
        return self.layout.stack(blocks)


def integrate_discretize_then_restrict(
    H: HermitianOperator, alpha: float, dt: float, steps: int,
    state0: ComponentState, blowup_factor: float | None = None,
) -> DiscreteTrajectory:
    """Discretize first: substitute product states into the discrete action.

    The recursion is seeded with the restrict-first momentum-matching point;
    the projected momentum-matching system of this ordering is overdetermined
    (the unknown appears only through its tensor product), so a shared,
    consistent start keeps the comparison between the orderings clean.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    layout = ComponentLayout(state0.dims)
    L = se_lagrangian(H)
    Ld_full = DiscreteLagrangian(L, alpha, dt)
    substituted = _SubstitutedDiscreteLagrangian(Ld_full, state0.dims)

    L_sep = separable_lagrangian(L, state0.dims)
    x0 = layout.stack_state(state0)
    x1 = initial_step(DiscreteLagrangian(L_sep, alpha, dt), x0)
    if steps == 1:
        times = dt * np.arange(2)
        return DiscreteTrajectory(times, np.stack([x0, x1]), dt, state0.dims)
    return _run_recursion(substituted, x0, x1, steps, state0.dims, blowup_factor)


def substituted_del_step(H: HermitianOperator, alpha: float, dt: float,
                         x_prev: np.ndarray, x_curr: np.ndarray, dims,
                         tol: float = NEWTON_TOL):
    """One step of the discretize-first recursion from explicit grid points.

    Returns (x_next, newton_iterations); useful for comparing the two
    orderings from identical inputs.
    """
    substituted = _SubstitutedDiscreteLagrangian(
        DiscreteLagrangian(se_lagrangian(H), alpha, dt), dims
    )
    return del_step(substituted, x_prev, x_curr, guess=np.asarray(x_curr), tol=tol)
