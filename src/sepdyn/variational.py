"""Variational integrators for Lagrangians linear in velocities.

A one-parameter quadrature family turns a continuous first-order Lagrangian
into a discrete one; stationarity of the discrete action gives a two-term
recursion, started by matching the continuous momentum (well defined here
because the Lagrangian is degenerate: the momentum depends on positions
only). Restricting to product states can happen before discretization, by
pulling the Lagrangian back to the component variables, or after, by
substituting product states into the discrete action. The two orderings
produce different schemes, both run by one routine: start, then recursion.

There is one Newton path: real and imaginary parts of the unknown are
independent (the stationarity equations couple a point to its conjugate),
and the Jacobian is taken by forward differences. Residuals, and the
gradients and partials they are built from, accept a stack of points on
leading axes and act row by row, each row equal bit for bit to the
one-point call; a forward-difference Jacobian is then one residual call on
all bumped points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable

import numpy as np

from .hamiltonians import HermitianOperator, check_dims
from .propagators import check_grid
from .states import ComponentState, kron, split_components

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

    ``gradient`` returns the holomorphic partial derivatives in psi and dpsi,
    (dL/dpsi, dL/d(dpsi)): the only two blocks the discrete stationarity
    equations and the momentum use. The psibar blocks are their complex
    conjugates on conjugate-consistent arguments and are never formed.
    ``gradient`` also takes stacks of points on leading axes, row by row.
    There are no second derivatives: Newton differences the residuals.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], complex]
    gradient: Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        tuple[np.ndarray, np.ndarray],
    ]


def se_lagrangian(H: HermitianOperator) -> FirstOrderLagrangian:
    """The velocity-linear Lagrangian whose stationary curves solve i dpsi = H psi."""
    mat = H.entries

    def evaluate(psi, psibar, dpsi, dpsibar):
        kinetic = 0.5j * (psibar @ dpsi - dpsibar @ psi)
        return complex(kinetic - psibar @ (mat @ psi))

    def gradient(psi, psibar, dpsi, dpsibar):
        # One matrix-vector product per row: a stacked psibar @ mat would run
        # as one matrix-matrix product, whose rounding differs from the
        # one-point call at larger dimensions.
        g_psi = -0.5j * dpsibar - (mat.T @ psibar[..., None])[..., 0]
        g_dpsi = 0.5j * psibar
        return g_psi, g_dpsi

    return FirstOrderLagrangian(dim=mat.shape[0], evaluate=evaluate, gradient=gradient)


def _product_velocity(parts, velocities) -> np.ndarray:
    """Derivative of a product state: sum over slots of the one-slot velocity."""
    total = None
    for j in range(len(parts)):
        factors = [velocities[j] if i == j else parts[i] for i in range(len(parts))]
        term = kron(factors)
        total = term if total is None else total + term
    return total


def _contract_all_but(g: np.ndarray, vectors, k: int) -> np.ndarray:
    """Contract g (a flattened product tensor) with vectors on every slot but k.

    The vectors' last axes give the slot sizes (entry k is read for its size
    only). Plain dot products, no conjugation: the transpose of the linear
    slot-k embedding map, as needed for holomorphic chain rules. Leading axes
    of g and of the vectors are stack axes and broadcast.
    """
    shape = g.shape[:-1]
    operands = [None, [Ellipsis, *range(len(vectors))]]
    for j, vec in enumerate(vectors):
        shape += vec.shape[-1:]
        if j != k:
            operands += [vec, [Ellipsis, j]]
    operands[0] = g.reshape(shape)
    return np.einsum(*operands, [Ellipsis, k])


def separable_lagrangian(L: FirstOrderLagrangian, dims) -> FirstOrderLagrangian:
    """Pull a Lagrangian on the product space back to stacked component variables.

    The pulled-back ``gradient`` keeps the two-block contract: it returns
    (dL/dx, dL/d(xdot)) in the stacked component variables, by the chain rule
    through the product state and its velocity. ``L`` must be sesquilinear,
    as ``se_lagrangian`` is: its two blocks read only the barred arguments,
    so only the barred product state and velocity are formed, and the
    unbarred components enter only through the contractions.
    """
    dims = tuple(dims)
    if L.dim != prod(dims):
        raise ValueError(f"Lagrangian dimension {L.dim} does not match dims {dims}")
    n = len(dims)

    def product_and_velocity(x, xdot):
        parts = split_components(x, dims)
        return kron(parts), _product_velocity(parts, split_components(xdot, dims))

    def evaluate(x, xbar, xdot, xbardot):
        psi, dpsi = product_and_velocity(x, xdot)
        psibar, dpsibar = product_and_velocity(xbar, xbardot)
        return L.evaluate(psi, psibar, dpsi, dpsibar)

    def gradient(x, xbar, xdot, xbardot):
        parts = split_components(x, dims)
        dparts = split_components(xdot, dims)
        psibar, dpsibar = product_and_velocity(xbar, xbardot)
        # The product space's psi blocks read only the barred arguments.
        g_psi, g_dpsi = L.gradient(None, psibar, None, dpsibar)
        gx, gxdot = [], []
        for k in range(n):
            # Position gradient: the product state depends on a_k directly, and
            # the velocity sum depends on a_k through every slot j != k.
            block = _contract_all_but(g_psi, parts, k)
            for j in range(n):
                if j == k:
                    continue
                mixed = [dparts[j] if i == j else parts[i] for i in range(n)]
                block = block + _contract_all_but(g_dpsi, mixed, k)
            gx.append(block)
            gxdot.append(_contract_all_but(g_dpsi, parts, k))
        return np.concatenate(gx, axis=-1), np.concatenate(gxdot, axis=-1)

    return FirstOrderLagrangian(dim=sum(dims), evaluate=evaluate, gradient=gradient)


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

    def d1(self, x, xbar, y, ybar):
        """Partial in the first point x, by the chain rule."""
        g_psi, g_dpsi = self.base.gradient(*self._interior(x, xbar, y, ybar))
        return self.dt * self.alpha * g_psi - g_dpsi

    def d3(self, x, xbar, y, ybar):
        """Partial in the second point y, by the chain rule."""
        g_psi, g_dpsi = self.base.gradient(*self._interior(x, xbar, y, ybar))
        return self.dt * (1.0 - self.alpha) * g_psi + g_dpsi


def velocity_momentum(L: FirstOrderLagrangian, x: np.ndarray) -> np.ndarray:
    """Conjugate momentum dL/d(dpsi) at (x, conj x); position-only for linear L."""
    zero = np.zeros_like(x)
    return L.gradient(x, np.conj(x), zero, zero)[1]


def _complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def _real_to_complex(r: np.ndarray) -> np.ndarray:
    half = r.shape[-1] // 2
    return r[..., :half] + 1j * r[..., half:]


def _forward_difference_jacobian(residual: Callable[[np.ndarray], np.ndarray],
                                 x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Real-split forward-difference Jacobian of ``residual`` at the real point x.

    ``r`` is the real-split residual at x. Column j is (F(x + h_j e_j) - r) / h_j
    with h_j = sqrt(eps) * max(1, |x_j|); all bumped points go through one
    stacked residual call, whose shape is checked.
    """
    m = x.size
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    # Row j of ``bumped`` is x + h_j e_j, so row j of the result is column j.
    bumped = np.repeat(x[None, :], m, axis=0)
    diagonal = np.arange(m)
    bumped[diagonal, diagonal] += h
    values = residual(_real_to_complex(bumped))
    if values.shape != (m, m // 2):
        raise ValueError(
            f"residual mapped a stack of shape {(m, m // 2)} to shape "
            f"{values.shape}; it must return one row per point"
        )
    return ((_complex_to_real(values) - r) / h[:, None]).T


def newton_solve(residual: Callable[[np.ndarray], np.ndarray], guess: np.ndarray):
    """Newton iteration on a complex residual with real/imaginary splitting.

    ``residual`` maps one complex point of shape (n,) to shape (n,), and an
    (m, n) stack of points to (m, n), each row equal to the one-point call.
    The Jacobian is always ``_forward_difference_jacobian``. Updates are
    solved in the least-squares sense, which also covers rank-deficient
    systems (the product-state substitution leaves a rescaling direction
    unconstrained). Returns (solution, iterations) once the real-split
    residual norm is at most ``NEWTON_TOL``; a non-finite residual or
    Jacobian, an unsolvable update or ``NEWTON_MAXITER`` iterations raise
    ``NewtonConvergenceError``.
    """

    def real_residual(r_vec):
        return _complex_to_real(residual(_real_to_complex(r_vec)))

    x = _complex_to_real(np.asarray(guess, dtype=complex))
    r = real_residual(x)
    iteration = 0
    while True:
        res_norm = float(np.linalg.norm(r))
        if not np.isfinite(res_norm):
            raise NewtonConvergenceError("Newton residual became non-finite", res_norm)
        if res_norm <= NEWTON_TOL:
            return _real_to_complex(x), iteration
        if iteration == NEWTON_MAXITER:
            raise NewtonConvergenceError(
                f"Newton did not reach {NEWTON_TOL} in {NEWTON_MAXITER} iterations", res_norm
            )
        jac = _forward_difference_jacobian(residual, x, r)
        if not np.isfinite(jac).all():  # LAPACK would print to stdout before failing
            raise NewtonConvergenceError("Newton Jacobian became non-finite", res_norm)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError as err:  # an SVD that does not converge
            raise NewtonConvergenceError(f"Newton update failed: {err}", res_norm) from None
        x = x + step
        r = real_residual(x)
        iteration += 1


def initial_step(Ld: DiscreteLagrangian, psi0: np.ndarray):
    """First grid point from momentum matching at the initial time.

    Returns (psi_1, newton_iterations).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    p0 = velocity_momentum(Ld.base, psi0)
    bar0 = np.conj(psi0)

    def residual(y):
        return p0 + Ld.d1(psi0, bar0, y, np.conj(y))

    return newton_solve(residual, psi0)


def del_step(Ld: DiscreteLagrangian, psi_prev: np.ndarray, psi_curr: np.ndarray):
    """Advance the two-term discrete stationarity recursion by one point.

    Newton starts from the linear predictor 2 psi_curr - psi_prev, the
    point a constant velocity would reach. Returns (psi_next, newton_iterations).
    """
    psi_prev = np.asarray(psi_prev, dtype=complex)
    psi_curr = np.asarray(psi_curr, dtype=complex)
    tail = Ld.d3(psi_prev, np.conj(psi_prev), psi_curr, np.conj(psi_curr))
    bar_curr = np.conj(psi_curr)

    def residual(y):
        return Ld.d1(psi_curr, bar_curr, y, np.conj(y)) + tail

    return newton_solve(residual, 2.0 * psi_curr - psi_prev)


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Points of a discrete variational run on the uniform grid t_i = i * dt.

    ``points`` has shape (n_times, dim); for separable runs the rows are
    stacked component vectors. ``newton_iterations[i]`` is the Newton
    iteration count of the solve that produced ``points[i + 1]``.
    """

    dt: float
    points: np.ndarray
    newton_iterations: np.ndarray

    def __post_init__(self):
        if np.shape(self.newton_iterations) != (len(self.points) - 1,):
            raise ValueError("newton_iterations needs one count per point after the first")

    @cached_property
    def times(self) -> np.ndarray:
        times = self.dt * np.arange(len(self.points))
        times.setflags(write=False)
        return times


# Overflow ends a run as a Newton failure, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def _run_recursion(start_Ld: DiscreteLagrangian, Ld, x0: np.ndarray, steps: int,
                   blowup_factor: float | None) -> DiscreteTrajectory:
    """The one run loop: momentum matching on ``start_Ld``, then del_step on ``Ld``.

    With ``blowup_factor``, a failed del_step, or an amplitude above that
    factor times the initial largest one, ends the run as a blow-up.
    """
    check_grid(start_Ld.dt, steps)
    x0 = np.asarray(x0, dtype=complex)
    x1, first_iterations = initial_step(start_Ld, x0)
    rows = [x0, x1]
    iterations = [first_iterations]
    reference = float(np.max(np.abs(x0)))

    def make_traj():
        return DiscreteTrajectory(start_Ld.dt, np.stack(rows), np.array(iterations))

    for j in range(1, steps):
        try:
            nxt, used = del_step(Ld, rows[-2], rows[-1])
        except NewtonConvergenceError:
            if blowup_factor is None:
                raise
            raise BlowupError(
                f"solver failure at step {j + 1}, treated as blow-up", make_traj()
            ) from None
        rows.append(nxt)
        iterations.append(used)
        if blowup_factor is not None and np.max(np.abs(nxt)) > blowup_factor * reference:
            raise BlowupError(
                f"amplitude exceeded {blowup_factor}x initial at step {j + 1}", make_traj()
            )
    return make_traj()


def integrate_discrete(Ld: DiscreteLagrangian, psi0: np.ndarray, steps: int,
                       blowup_factor: float | None = None) -> DiscreteTrajectory:
    """Momentum-matching start followed by the stationarity recursion."""
    return _run_recursion(Ld, Ld, psi0, steps, blowup_factor)


def _restricted(H: HermitianOperator, alpha: float, dt: float, state0: ComponentState):
    """H's Lagrangian and its restrict-first discretization, after checking dims."""
    check_dims(H, state0.dims)
    L = se_lagrangian(H)
    return L, DiscreteLagrangian(separable_lagrangian(L, state0.dims), alpha, dt)


def integrate_restrict_then_discretize(
    H: HermitianOperator, alpha: float, dt: float, steps: int,
    state0: ComponentState, blowup_factor: float | None = None,
) -> DiscreteTrajectory:
    """Restrict first: discretize the component-variable Lagrangian."""
    _, Ld = _restricted(H, alpha, dt, state0)
    return _run_recursion(Ld, Ld, np.concatenate(state0.vectors()), steps, blowup_factor)


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
        self.dims = tuple(dims)

    def _pulled_back(self, full_partial, x, y, slot: int):
        """A full-space partial at the product states of x and y, by the chain
        rule in the components of x (slot 0) or of y (slot 1)."""
        parts = (split_components(x, self.dims), split_components(y, self.dims))
        psi_x, psi_y = kron(parts[0]), kron(parts[1])
        full_grad = full_partial(psi_x, np.conj(psi_x), psi_y, np.conj(psi_y))
        return np.concatenate([_contract_all_but(full_grad, parts[slot], k)
                               for k in range(len(self.dims))], axis=-1)

    def d1(self, x, xbar, y, ybar):
        return self._pulled_back(self.full.d1, x, y, 0)

    def d3(self, x, xbar, y, ybar):
        return self._pulled_back(self.full.d3, x, y, 1)


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
    L, start = _restricted(H, alpha, dt, state0)
    substituted = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, alpha, dt), state0.dims)
    return _run_recursion(start, substituted, np.concatenate(state0.vectors()), steps,
                          blowup_factor)
