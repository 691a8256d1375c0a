"""Variational integrators for Lagrangians linear in velocities.

A one-parameter quadrature family turns a continuous first-order Lagrangian
into a discrete one. The start and every step of its two-term recursion are
one discrete Euler–Lagrange equation, D1 L_d(x_n, x_{n+1}) + p_n = 0, with
p_n = D2 L_d(x_{n-1}, x_n) and p_0 the continuous momentum (well defined
here because the Lagrangian is degenerate: p depends on positions only).
``initial_step`` and ``del_step`` solve it for a stack of rows; a run calls
them once a step on the rows still running.
Restricting to product states can happen before discretization, by pulling
the Lagrangian back to the component variables, or after, by substituting
product states into the discrete action. The two orderings produce
different schemes, both run by one routine. It advances a batch of initial
states on one grid in lockstep, each row with its own step count and its
own end (done, blown up, or a failed start); every row equals bit for bit
the run of its state alone, and a run of one state is a batch of one. A
batch allocates its Σ (steps + 1) points up front, the count ``cli`` caps
it by, in one buffer that its trajectories are slices of. Every stacked
call on product states takes whole rows of ``propagators.row_blocks``, so
the product-state temporaries beside the buffer do not grow with the batch.

Every point is conjugate-consistent: a callable takes a point and its
velocity once, and the barred copies are formed in the one place that reads
them, ``se_lagrangian``. IEEE rounding is symmetric, so conjugation commutes
exactly with the real-weighted sums and the Kronecker products built on the
way: forming it last gives the values that barred copies carried through
every layer would.

There is one Newton path, a loop over the rows of a batch that masks out
each row as it ends: real and imaginary parts of the unknown are
independent (the stationarity equations couple a point to its conjugate),
and the Jacobian is taken by forward differences. Residuals, and the
gradients and partials they are built from, accept a stack of points on
leading axes and act row by row, each row equal bit for bit to the
one-point call, so a row's bits do not depend on which rows share a call.
Each iteration makes one residual call per block of rows, on a stack that
holds every running row's iterate and its Jacobian's bumped points. The
least-squares updates of a block's running rows are one call to the LAPACK
gelsd gufunc that ``np.linalg.lstsq`` wraps, which solves each matrix of a
stack as it would solve it alone. Norms stay one dot product per row, all
of an iteration's in one ``np.vecdot`` call, which rounds each row as
``sqrt(v @ v)`` does; ``np.linalg.norm`` along an axis rounds differently.
A restrict-first solve, and every start, stops on Deuflhard's contraction
estimate once it has two residuals and the estimate is a tenth of the
tolerance, accepting its last update without evaluating it: the point is
the one the evaluated stop accepts, one residual call sooner, and the run
records the estimate as its final residual. Discretize-first steps keep
the evaluated stop until their gauge is fixed (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod, sqrt
from typing import Callable

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg import _umath_linalg

from .hamiltonians import HermitianOperator, check_dims
from .propagators import check_grid, row_blocks
from .states import SolverFailure, kron, split_components

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
# A solve stops on the contraction estimate only at a tenth of NEWTON_TOL
# (Hairer & Wanner's kappa): on N >= 3 restrict-first rows the residual at the
# accepted point read up to 4.6 times the estimate.
_ESTIMATE_SAFETY = 0.1
_SQRT_EPS = sqrt(np.finfo(float).eps)


class NewtonConvergenceError(SolverFailure, RuntimeError):
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
    """Scalar function L(psi, conj psi, dpsi, conj dpsi) with analytic gradients.

    Both callables take (psi, dpsi) only; the Lagrangian forms the conjugates
    it reads. ``gradient`` returns the holomorphic partial derivatives in psi
    and dpsi, (dL/dpsi, dL/d(dpsi)): the only two blocks the discrete
    stationarity equations and the momentum use. The psibar blocks are their
    complex conjugates and are never formed. ``gradient`` also takes stacks
    of points on leading axes, row by row. There are no second derivatives:
    Newton differences the residuals.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], complex]
    gradient: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def se_lagrangian(H: HermitianOperator) -> FirstOrderLagrangian:
    """The velocity-linear Lagrangian whose stationary curves solve i dpsi = H psi.

    The only place the package conjugates a variational point.
    """
    mat = H.entries

    def evaluate(psi, dpsi):
        psibar = np.conj(psi)
        kinetic = 0.5j * (psibar @ dpsi - np.conj(dpsi) @ psi)
        return complex(kinetic - psibar @ (mat @ psi))

    def gradient(psi, dpsi):
        psibar = np.conj(psi)
        # One matrix-vector product per row: a stacked psibar @ mat would run
        # as one matrix-matrix product, whose rounding differs from the
        # one-point call at larger dimensions.
        g_psi = -0.5j * np.conj(dpsi) - (mat.T @ psibar[..., None])[..., 0]
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
    of g and of the vectors are stack axes and broadcast. Calls the C
    contraction that ``np.einsum`` (``optimize=False``) forwards to, without
    its Python wrapper.
    """
    shape = g.shape[:-1]
    operands = [None, [Ellipsis, *range(len(vectors))]]
    for j, vec in enumerate(vectors):
        shape += vec.shape[-1:]
        if j != k:
            operands += [vec, [Ellipsis, j]]
    operands[0] = g.reshape(shape)
    return c_einsum(*operands, [Ellipsis, k])


def separable_lagrangian(L: FirstOrderLagrangian, dims) -> FirstOrderLagrangian:
    """Pull a Lagrangian on the product space back to stacked component variables.

    The pulled-back ``gradient`` keeps the two-block contract: it returns
    (dL/dx, dL/d(xdot)) in the stacked component variables, by the
    holomorphic chain rule through the product state and its velocity. That
    rule needs only L's psi and dpsi blocks, so it holds for any ``L``.
    """
    dims = tuple(dims)
    if L.dim != prod(dims):
        raise ValueError(f"Lagrangian dimension {L.dim} does not match dims {dims}")
    n = len(dims)

    def product_and_velocity(x, xdot):
        parts = split_components(x, dims)
        return kron(parts), _product_velocity(parts, split_components(xdot, dims))

    def evaluate(x, xdot):
        return L.evaluate(*product_and_velocity(x, xdot))

    def gradient(x, xdot):
        parts = split_components(x, dims)
        dparts = split_components(xdot, dims)
        g_psi, g_dpsi = L.gradient(kron(parts), _product_velocity(parts, dparts))
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

    def _interior(self, x, y):
        a = self.alpha
        return a * x + (1.0 - a) * y, (y - x) / self.dt

    def value(self, x, y) -> complex:
        return self.dt * self.base.evaluate(*self._interior(x, y))

    def d1(self, x, y):
        """Partial in the first point x, by the chain rule."""
        g_psi, g_dpsi = self.base.gradient(*self._interior(x, y))
        return self.dt * self.alpha * g_psi - g_dpsi

    def d3(self, x, y):
        """Partial in the second point y, by the chain rule."""
        g_psi, g_dpsi = self.base.gradient(*self._interior(x, y))
        return self.dt * (1.0 - self.alpha) * g_psi + g_dpsi


def velocity_momentum(L: FirstOrderLagrangian, x: np.ndarray) -> np.ndarray:
    """Conjugate momentum dL/d(dpsi) at x; position-only for linear L."""
    return L.gradient(x, np.zeros_like(x))[1]


def _complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def _real_to_complex(r: np.ndarray) -> np.ndarray:
    half = r.shape[-1] // 2
    return r[..., :half] + 1j * r[..., half:]


def _row_data(data: np.ndarray, rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The entries of ``data`` for ``rows``, shaped to broadcast against ``points``.

    ``points`` holds one point per row, (len(rows), n), or a stack of points
    per row, (len(rows), m, n); the picked rows gain a unit axis for each
    stack axis.
    """
    picked = data[rows]
    return picked.reshape(picked.shape[:1] + (1,) * (points.ndim - 2) + picked.shape[1:])


def _least_squares(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solutions of a[i] y = b[i] for a (B, m, n) stack.

    One call to the gelsd gufunc that ``np.linalg.lstsq`` wraps, with its
    default rcond; row i equals ``np.linalg.lstsq(a[i], b[i], rcond=None)``
    bit for bit. Returns the (B, n) solutions and the (B,) ranks, read only
    as a failure flag: where ``np.linalg.lstsq`` would raise, the gufunc marks
    the row by rank -1 (and NaN solutions) and raises the invalid flag,
    ignored here so that the other rows keep their results.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(all="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(a, b[..., None], rcond, signature="ddd->ddid")
    return x[..., 0], rank


def _newton_rows(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 guesses: np.ndarray, contraction_stop: bool = False) -> list:
    """Newton iteration on B complex systems at once, with real/imaginary splitting.

    ``residual(points, rows)`` evaluates the systems ``rows`` (indices into
    the B guesses) at a stack of points per row, shape (len(rows), k, n),
    each point's value equal to a one-point call. The guesses are solved in
    the ``row_blocks`` of rows of (2n + 1) n amplitudes, one block after the
    other, each of at most ``BLOCK_CELLS`` amplitudes of a residual call (or
    one row): all B at once when they fit. Every iteration makes one
    residual call, whose shape is checked, on the block's rows still
    running: k = 2n + 1 points a row, the iterate and its 2n
    forward-difference bumps.
    With x the iterate's real and imaginary parts, point 1 + j is
    x + h_j e_j, h_j = sqrt(eps) * max(1, |x_j|), so the call gives the
    residual r at x and column j of the Jacobian, (F(x + h_j e_j) - r) / h_j.
    A row leaves once its real-split residual norm is at most
    ``NEWTON_TOL``, with (solution, iterations, that norm, False), or with a
    ``NewtonConvergenceError`` for a non-finite residual or
    ``NEWTON_MAXITER`` iterations. The others take one stacked least-squares
    update (``_least_squares``), the minimum-norm step where gelsd finds a
    Jacobian rank-deficient; a row whose Jacobian is not finite, or whose
    update fails, leaves with a ``NewtonConvergenceError``.

    With ``contraction_stop``, a row whose update of iteration k >= 1 is
    made leaves at once when Deuflhard's contraction estimate
    ||r_k||^2 / ||r_{k-1}|| is at most ``_ESTIMATE_SAFETY * NEWTON_TOL``,
    with (x_k + dx_k, k + 1, the estimate, True); x_{k+1} is never
    evaluated. Wherever the evaluated stop would also accept x_{k+1}, that
    is the same point bit for bit, one residual call sooner. The estimate
    is no bound: it assumes the contraction does not slow, and with
    forward-difference Jacobians it can, hence the safety factor. It needs
    two residuals, so no row stops on it at k = 0.
    Returns one of these outcomes per guess.
    """
    count, m = guesses.shape[0], 2 * guesses.shape[1]
    outcomes: list = [None] * count
    diagonal = np.arange(m)
    for block in row_blocks(count, (m + 1) * guesses.shape[1]):
        rows = np.arange(count)[block]
        x = _complex_to_real(guesses[block])
        iteration = 0
        while len(rows):
            h = _SQRT_EPS * np.maximum(1.0, np.abs(x))
            stack = np.repeat(x[:, None, :], m + 1, axis=1)
            stack[:, diagonal + 1, diagonal] += h
            points = _real_to_complex(stack)
            values = residual(points, rows)
            if values.shape != points.shape:
                raise ValueError(
                    f"residual mapped points of shape {points.shape} to shape "
                    f"{values.shape}; it must return one row per point"
                )
            values = _complex_to_real(values)
            # np.linalg.norm's sqrt(v @ v) of each row's residual, in one call.
            norms = np.sqrt(np.vecdot(values[:, 0], values[:, 0]))
            running = np.isfinite(norms) & (norms > NEWTON_TOL) & (iteration < NEWTON_MAXITER)
            if not running.all():
                for i in np.flatnonzero(~running):
                    res_norm = float(norms[i])
                    if not np.isfinite(res_norm):
                        outcomes[rows[i]] = NewtonConvergenceError(
                            "Newton residual became non-finite", res_norm)
                    elif res_norm <= NEWTON_TOL:
                        # A copy: a view would keep the whole stack of points.
                        outcomes[rows[i]] = (points[i, 0].copy(), iteration, res_norm, False)
                    else:
                        outcomes[rows[i]] = NewtonConvergenceError(
                            f"Newton did not reach {NEWTON_TOL} in {NEWTON_MAXITER} "
                            "iterations", res_norm)
                rows, x, h, values, norms = (rows[running], x[running], h[running],
                                             values[running], norms[running])
                if iteration:
                    previous = previous[running]
                if not len(rows):
                    break
            r = values[:, 0]
            # Entry (b, j) of the differences is column j of row b's Jacobian.
            jac = ((values[:, 1:] - r[:, None, :]) / h[:, :, None]).transpose(0, 2, 1)
            # gelsd prints to stdout on a non-finite matrix: such rows solve zeros.
            finite = np.isfinite(jac).all(axis=(1, 2))
            jac[~finite] = 0.0
            steps, ranks = _least_squares(jac, -r)
            x = x + steps
            updated = finite & (ranks >= 0)
            leaving = ~updated
            if contraction_stop and iteration:
                estimates = norms * norms / previous
                leaving |= updated & (estimates <= _ESTIMATE_SAFETY * NEWTON_TOL)
            if leaving.any():
                for i in np.flatnonzero(leaving):
                    if updated[i]:
                        outcomes[rows[i]] = (_real_to_complex(x[i]), iteration + 1,
                                             float(estimates[i]), True)
                        continue
                    reason = ("update failed: SVD did not converge in Linear Least Squares"
                              if finite[i] else "Jacobian became non-finite")
                    outcomes[rows[i]] = NewtonConvergenceError(f"Newton {reason}",
                                                               float(norms[i]))
                rows, x, norms = rows[~leaving], x[~leaving], norms[~leaving]
            previous = norms
            iteration += 1
    return outcomes


def _solved(outcome):
    """A row's result, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def newton_solve(residual: Callable[[np.ndarray], np.ndarray], guess: np.ndarray):
    """``_newton_rows`` on one system; returns (solution, iterations) or raises.

    ``residual`` maps an (m, n) stack of complex points to (m, n), each row
    equal to its one-point call; each iteration calls it once, on 2n + 1
    points.
    """

    def one_row(points, rows):
        return residual(points[0])[None]

    return _solved(_newton_rows(one_row, np.asarray(guess, dtype=complex)[None])[0])[:2]


def _step_rows(Ld, curr: np.ndarray, momentum: np.ndarray, guess: np.ndarray) -> list:
    """Newton's outcome per row for y in D1 L_d(curr, y) + momentum = 0, from ``guess``.

    A ``DiscreteLagrangian``'s rows (every restrict-first step and every
    start) stop on the contraction estimate. The substituted equations keep
    the evaluated stop until their gauge (ROADMAP F1) is fixed: along it the
    estimate moved their outputs.
    """

    def residual(points, rows):
        return Ld.d1(_row_data(curr, rows, points), points) + _row_data(momentum, rows, points)

    return _newton_rows(residual, guess, contraction_stop=isinstance(Ld, DiscreteLagrangian))


def initial_step(Ld: DiscreteLagrangian, x0: np.ndarray) -> list:
    """First grid point of each row of the (B, n) stack x0, by momentum matching.

    Solves D1 L_d(x0, x1) + p_0 = 0 with p_0 the continuous momentum at x0,
    formed in ``row_blocks``, and Newton started at x0. Returns one
    ``_newton_rows`` outcome per row: (x1, iterations, final residual,
    whether that residual is the contraction estimate) or a
    ``NewtonConvergenceError``.
    """
    p0 = np.concatenate([velocity_momentum(Ld.base, x0[block])
                         for block in row_blocks(*x0.shape)])
    return _step_rows(Ld, x0, p0, x0)


def del_step(Ld, prev: np.ndarray, curr: np.ndarray) -> list:
    """Advance the two-term discrete stationarity recursion of each row by one point.

    Solves D1 L_d(curr, y) + p_n = 0 with p_n = D2 L_d(prev, curr), formed
    in ``row_blocks``, for (B, n) stacks prev and curr. Newton starts from
    the linear predictor 2 curr - prev, the point a constant velocity would
    reach. Returns one ``_newton_rows`` outcome per row, as ``initial_step``.
    """
    pn = np.concatenate([Ld.d3(prev[block], curr[block])
                         for block in row_blocks(*curr.shape)])
    return _step_rows(Ld, curr, pn, 2.0 * curr - prev)


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Points of a discrete variational run on the uniform grid t_i = i * dt.

    ``points`` has shape (n_times, dim); for separable runs the rows are
    stacked component vectors. ``newton_iterations[i]`` and
    ``newton_residuals[i]`` are the Newton iteration count and final residual
    norm of the solve that produced ``points[i + 1]``; ``newton_estimated[i]``
    is True where that residual is the contraction estimate the solve
    stopped on, not an evaluated norm. The arrays of a run from
    ``_run_rows`` are views of its batch's buffers.
    """

    dt: float
    points: np.ndarray
    newton_iterations: np.ndarray
    newton_residuals: np.ndarray
    newton_estimated: np.ndarray

    def __post_init__(self):
        solves = (len(self.points) - 1,)
        records = (self.newton_iterations, self.newton_residuals, self.newton_estimated)
        if any(np.shape(record) != solves for record in records):
            raise ValueError("newton_iterations, newton_residuals and newton_estimated need "
                             "one entry per point after the first")

    @cached_property
    def times(self) -> np.ndarray:
        times = self.dt * np.arange(len(self.points))
        times.setflags(write=False)
        return times


# Overflow ends a run as a Newton failure, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def _run_rows(start_Ld: DiscreteLagrangian, Ld, x0: np.ndarray, steps,
              blowup_factor: float | None) -> list:
    """The one run loop: each step is one row solve of the rows still running.

    Step 1 is ``initial_step`` on ``start_Ld``, every later one ``del_step``
    on ``Ld``, each on the stack of the running rows. Advances the rows of
    x0 in lockstep, row b for ``steps[b]`` steps. A row whose start fails
    ends with its ``NewtonConvergenceError``. With ``blowup_factor``, a
    failed del_step, or an amplitude above that factor times the row's
    initial largest one, ends the row with a ``BlowupError``; without it, a
    failed del_step ends the row with its error. Returns one
    ``DiscreteTrajectory`` or error per row.

    The points live in one complex buffer of shape (Σ_b (steps[b] + 1), n),
    allocated up front: row b's point i at starts[b] + i, and the Newton
    count, final residual and estimate flag of the solve that produced it at
    the same index of three more arrays. A step gathers the running rows'
    last two points with one fancy index and writes their solved points in
    place; a trajectory is a slice of the four. So a batch stores
    (steps + 1) * n amplitudes a row, and 17 bytes a point besides;
    ``cli._batch_amplitudes`` counts these. The
    solves and the momenta p_0 and p_n work on the ``row_blocks`` of whole
    rows, at most ``BLOCK_CELLS`` stacked amplitudes a call, so beside the
    buffers a batch holds one block's product states and a few points a row.
    """
    for count in steps:
        check_grid(start_Ld.dt, count)
    lengths = np.add(steps, 1)
    starts = np.cumsum(lengths) - lengths
    points = np.empty((lengths.sum(), x0.shape[1]), dtype=complex)
    iterations = np.empty(len(points), dtype=int)
    residuals = np.empty(len(points))
    estimated = np.empty(len(points), dtype=bool)
    points[starts] = x0
    references = np.abs(x0).max(axis=1)
    outcomes: list = [None] * len(x0)

    def make_traj(b, last):
        """Row b through its point ``last``, as views of the buffers."""
        span = slice(starts[b], starts[b] + last + 1)
        return DiscreteTrajectory(start_Ld.dt, points[span], iterations[span][1:],
                                  residuals[span][1:], estimated[span][1:])

    def advance(rows, solved, step):
        """Store each row's solve of ``step``; returns the rows still running."""
        running = []
        for b, outcome in zip(rows, solved):
            if isinstance(outcome, NewtonConvergenceError):
                if blowup_factor is None or step == 1:
                    outcomes[b] = outcome
                else:
                    outcomes[b] = BlowupError(
                        f"solver failure at step {step}, treated as blow-up",
                        make_traj(b, step - 1))
                continue
            at = starts[b] + step
            points[at], iterations[at], residuals[at], estimated[at] = outcome
            if (step > 1 and blowup_factor is not None
                    and np.abs(points[at]).max() > blowup_factor * references[b]):
                outcomes[b] = BlowupError(
                    f"amplitude exceeded {blowup_factor}x initial at step {step}",
                    make_traj(b, step))
            elif steps[b] > step:
                running.append(b)
            else:
                outcomes[b] = make_traj(b, step)
        return running

    rows = advance(range(len(x0)), initial_step(start_Ld, x0), 1)
    step = 1
    while rows:
        step += 1
        prev, curr = points[starts[rows] + [[step - 2], [step - 1]]]
        rows = advance(rows, del_step(Ld, prev, curr), step)
    return outcomes


def integrate_discrete(Ld: DiscreteLagrangian, psi0: np.ndarray, steps: int,
                       blowup_factor: float | None = None) -> DiscreteTrajectory:
    """Momentum-matching start followed by the stationarity recursion."""
    x0 = np.asarray(psi0, dtype=complex)[None]
    return _solved(_run_rows(Ld, Ld, x0, [steps], blowup_factor)[0])


class _SubstitutedDiscreteLagrangian:
    """Discrete stationarity equations of the product-state substitution.

    The full-space discrete Lagrangian is evaluated on product states and
    differentiated with respect to the component variables; the unknown
    enters only through its tensor product, so the exact equations are
    rank-deficient along component rescalings. The Newton update does not
    see that: forward-difference noise usually lifts those singular values
    of the Jacobian above gelsd's cutoff, which then counts them as rank and
    steps along them instead of taking the minimum-norm step.
    """

    def __init__(self, Ld_full: DiscreteLagrangian, dims):
        self.full = Ld_full
        self.dims = tuple(dims)

    def _pulled_back(self, full_partial, x, y, slot: int):
        """A full-space partial at the product states of x and y, by the chain
        rule in the components of x (slot 0) or of y (slot 1)."""
        parts = (split_components(x, self.dims), split_components(y, self.dims))
        full_grad = full_partial(kron(parts[0]), kron(parts[1]))
        return np.concatenate([_contract_all_but(full_grad, parts[slot], k)
                               for k in range(len(self.dims))], axis=-1)

    def d1(self, x, y):
        return self._pulled_back(self.full.d1, x, y, 0)

    def d3(self, x, y):
        return self._pulled_back(self.full.d3, x, y, 1)


ORDERINGS = ("restrict_first", "discretize_first")


def integrate_separable_rows(ordering: str, H: HermitianOperator, alpha: float, dt: float,
                             steps, states, blowup_factor: float | None = None) -> list:
    """Either ordering from a batch of product states on one grid.

    Row b starts from ``states[b]`` and runs ``steps[b]`` steps; all rows
    advance together through ``_run_rows``, each row's points, Newton counts
    and outcome equal bit for bit to a run of that state alone. Returns one
    ``DiscreteTrajectory``, ``BlowupError`` or ``NewtonConvergenceError``
    (a failed start) per row.

    Restrict first discretizes the component-variable Lagrangian.
    Discretize first substitutes product states into the discrete action; its
    recursion is seeded with the restrict-first momentum-matching point,
    since its own projected momentum-matching system is overdetermined (the
    unknown appears only through its tensor product), and a shared,
    consistent start keeps the comparison between the orderings clean.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering '{ordering}'; choose from {ORDERINGS}")
    if len(steps) != len(states):
        raise ValueError(f"{len(steps)} step counts for {len(states)} states")
    dims = states[0].dims
    for state in states:
        check_dims(H, state.dims)
    L = se_lagrangian(H)
    start = DiscreteLagrangian(separable_lagrangian(L, dims), alpha, dt)
    recursion = start
    if ordering == "discretize_first":
        recursion = _SubstitutedDiscreteLagrangian(DiscreteLagrangian(L, alpha, dt), dims)
    x0 = np.stack([np.concatenate(state.vectors()) for state in states])
    return _run_rows(start, recursion, x0, steps, blowup_factor)
