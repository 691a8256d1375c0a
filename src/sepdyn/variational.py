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
conjugate. Residuals, and the gradients and partials they are built from,
accept a stack of points on leading axes and act row by row, each row equal
bit for bit to the one-point call; a forward-difference Jacobian is then one
residual call on all bumped points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np

from .hamiltonians import HermitianOperator
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
    ``second_blocks``, when provided, returns the matching two rows of
    second-derivative matrices T[i][j] = d(g_i)/d(arg_j), i indexing
    (dL/dpsi, dL/d(dpsi)) and j the four arguments (None for zero blocks);
    quadratic Lagrangians can supply it so Newton solves get exact Jacobians.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], complex]
    gradient: Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        tuple[np.ndarray, np.ndarray],
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
        # One matrix-vector product per row: a stacked psibar @ mat would run
        # as one matrix-matrix product, whose rounding differs from the
        # one-point call at larger dimensions.
        g_psi = -0.5j * dpsibar - (mat.T @ psibar[..., None])[..., 0]
        g_dpsi = 0.5j * psibar
        return g_psi, g_dpsi

    # Quadratic Lagrangian: constant second derivatives.
    blocks = (
        (None, -mat.T, None, -0.5j * eye),
        (None, 0.5j * eye, None, None),
    )

    def second_blocks(psi, psibar, dpsi, dpsibar):
        return blocks

    return FirstOrderLagrangian(
        dim=dim, evaluate=evaluate, gradient=gradient, second_blocks=second_blocks
    )


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
        dgpsi_dy = (1.0 - a) * blk(T[0][0]) + blk(T[0][2]) / dt
        dgpsi_dybar = (1.0 - a) * blk(T[0][1]) + blk(T[0][3]) / dt
        dgdpsi_dy = (1.0 - a) * blk(T[1][0]) + blk(T[1][2]) / dt
        dgdpsi_dybar = (1.0 - a) * blk(T[1][1]) + blk(T[1][3]) / dt
        j_y = dt * a * dgpsi_dy - dgdpsi_dy
        j_ybar = dt * a * dgpsi_dybar - dgdpsi_dybar
        return j_y, j_ybar


def velocity_momentum(L: FirstOrderLagrangian, x: np.ndarray) -> np.ndarray:
    """Conjugate momentum dL/d(dpsi) at (x, conj x); position-only for linear L."""
    zero = np.zeros_like(x)
    return L.gradient(x, np.conj(x), zero, zero)[1]


def _complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def _real_to_complex(r: np.ndarray) -> np.ndarray:
    half = r.shape[-1] // 2
    return r[..., :half] + 1j * r[..., half:]


def _real_jacobian_from_complex(j_y: np.ndarray, j_ybar: np.ndarray) -> np.ndarray:
    """Real-split Jacobian of F(y, conj y) from its two complex Jacobians."""
    d_u = j_y + j_ybar          # derivative along the real part
    d_w = 1j * (j_y - j_ybar)   # derivative along the imaginary part
    return np.block([[d_u.real, d_w.real], [d_u.imag, d_w.imag]])


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


def newton_solve(residual: Callable[[np.ndarray], np.ndarray], guess: np.ndarray,
                 jacobian: Callable | None = None):
    """Newton iteration on a complex residual with real/imaginary splitting.

    ``residual`` maps one complex point of shape (n,) to shape (n,), and an
    (m, n) stack of points to (m, n), each row equal to the one-point call.
    ``jacobian``, when given, maps the complex iterate to the pair
    (dF/dy, dF/dybar); otherwise the real-split Jacobian is assembled by
    forward differences, all 2n bumped points in one stacked residual call.
    Updates are solved in the least-squares sense, which also covers
    rank-deficient systems (the product-state substitution leaves a
    rescaling direction unconstrained). Converged means a real-split
    residual norm of at most ``NEWTON_TOL`` within ``NEWTON_MAXITER``
    iterations. Returns (solution, iterations).
    """

    def real_residual(r_vec):
        return _complex_to_real(residual(_real_to_complex(r_vec)))

    x = _complex_to_real(np.asarray(guess, dtype=complex))
    r = real_residual(x)
    if np.linalg.norm(r) <= NEWTON_TOL:
        return _real_to_complex(x), 0
    for iteration in range(1, NEWTON_MAXITER + 1):
        if jacobian is not None:
            jac = _real_jacobian_from_complex(*jacobian(_real_to_complex(x)))
        else:
            jac = _forward_difference_jacobian(residual, x, r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        x = x + step
        r = real_residual(x)
        res_norm = float(np.linalg.norm(r))
        if not np.isfinite(res_norm):
            raise NewtonConvergenceError("Newton residual became non-finite", res_norm)
        if res_norm <= NEWTON_TOL:
            return _real_to_complex(x), iteration
    raise NewtonConvergenceError(
        f"Newton did not reach {NEWTON_TOL} in {NEWTON_MAXITER} iterations", res_norm
    )


def _d1_jacobian_callable(Ld: DiscreteLagrangian, x, xbar):
    """Exact Jacobian of d1 in y, or None where only forward differences exist."""
    if not isinstance(Ld, DiscreteLagrangian) or Ld.base.second_blocks is None:
        return None

    def jacobian(y):
        return Ld.d1_jacobian(x, xbar, y, np.conj(y))

    return jacobian


def initial_step(Ld: DiscreteLagrangian, psi0: np.ndarray):
    """First grid point from momentum matching at the initial time.

    Returns (psi_1, newton_iterations).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    p0 = velocity_momentum(Ld.base, psi0)
    bar0 = np.conj(psi0)

    def residual(y):
        return p0 + Ld.d1(psi0, bar0, y, np.conj(y))

    return newton_solve(residual, psi0, jacobian=_d1_jacobian_callable(Ld, psi0, bar0))


def del_step(Ld: DiscreteLagrangian, psi_prev: np.ndarray, psi_curr: np.ndarray,
             guess: np.ndarray | None = None):
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
        residual, guess, jacobian=_d1_jacobian_callable(Ld, psi_curr, bar_curr)
    )


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Points of a discrete variational run on a uniform grid.

    ``points`` has shape (n_times, dim); for separable runs the rows are
    stacked component vectors. ``newton_iterations[i]``, when recorded, is
    the Newton iteration count of the solve that produced ``points[i + 1]``.
    """

    times: np.ndarray
    points: np.ndarray
    newton_iterations: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        if points.shape[0] != times.size:
            raise ValueError("points and times disagree in length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        if self.newton_iterations is not None:
            iterations = np.asarray(self.newton_iterations, dtype=int)
            if iterations.shape != (times.size - 1,):
                raise ValueError("newton_iterations needs one count per point after the first")
            object.__setattr__(self, "newton_iterations", iterations)


def _run_recursion(Ld: DiscreteLagrangian, x0: np.ndarray, start, steps: int,
                   blowup_factor: float | None) -> DiscreteTrajectory:
    """Iterate del_step from x0 and ``start`` = (x1, its Newton iterations).

    Optionally watches for blow-up.
    """
    dt = Ld.dt
    x1, first_iterations = start
    rows = [np.asarray(x0, dtype=complex), np.asarray(x1, dtype=complex)]
    iterations = [first_iterations]
    reference = float(np.max(np.abs(rows[0])))

    def make_traj():
        times = dt * np.arange(len(rows))
        return DiscreteTrajectory(times, np.stack(rows), np.array(iterations))

    for j in range(1, steps):
        guess = 2.0 * rows[-1] - rows[-2]
        try:
            nxt, used = del_step(Ld, rows[-2], rows[-1], guess=guess)
        except NewtonConvergenceError:
            if blowup_factor is None:
                raise
            raise BlowupError(
                f"solver failure at step {j + 1}, treated as blow-up", make_traj()
            ) from None
        rows.append(nxt)
        iterations.append(used)
        if blowup_factor is not None:
            if np.max(np.abs(nxt)) > blowup_factor * reference:
                raise BlowupError(
                    f"amplitude exceeded {blowup_factor}x initial at step {j + 1}",
                    make_traj(),
                )
    return make_traj()


# Overflow ends a run as a non-finite Newton residual, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def integrate_discrete(Ld: DiscreteLagrangian, psi0: np.ndarray, steps: int,
                       blowup_factor: float | None = None) -> DiscreteTrajectory:
    """Momentum-matching start followed by the stationarity recursion."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = np.asarray(psi0, dtype=complex)
    return _run_recursion(Ld, x0, initial_step(Ld, x0), steps, blowup_factor)


def integrate_restrict_then_discretize(
    H: HermitianOperator, alpha: float, dt: float, steps: int,
    state0: ComponentState, blowup_factor: float | None = None,
) -> DiscreteTrajectory:
    """Restrict first: discretize the component-variable Lagrangian."""
    L_sep = separable_lagrangian(se_lagrangian(H), state0.dims)
    Ld = DiscreteLagrangian(L_sep, alpha, dt)
    return integrate_discrete(
        Ld, np.concatenate(state0.vectors()), steps, blowup_factor=blowup_factor
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
        self.dims = tuple(dims)
        self.dt = Ld_full.dt

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


@np.errstate(over="ignore", invalid="ignore")
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
    L = se_lagrangian(H)
    Ld_full = DiscreteLagrangian(L, alpha, dt)
    substituted = _SubstitutedDiscreteLagrangian(Ld_full, state0.dims)

    L_sep = separable_lagrangian(L, state0.dims)
    x0 = np.concatenate(state0.vectors())
    start = initial_step(DiscreteLagrangian(L_sep, alpha, dt), x0)
    return _run_recursion(substituted, x0, start, steps, blowup_factor)

