"""Modified differential equations for the splitting schemes on the exchange
system, and an adaptive Runge-Kutta solver for their truncations.

The modified right-hand sides are formal power series in the step size; the
truncation order selects how many correction terms beyond the restricted
equations are kept; ``SERIES`` holds each scheme's orders and 2x2 matrix.
``ModifiedRHS`` checks the scheme and order once, when it is built; each
call applies the matrix to the rows a and b of the stacked state, since the
solver calls it six times per step. The series are written for unit-norm
components a and b, as the exchange system's restricted equations are; for
other norms they are not the modified equations of the splitting, so
callers check the norms first. Truncations are solved with an embedded
Dormand-Prince 5(4) pair at the fixed tolerance ``RK_TOL``, so the
reference solutions sit far below the deviations being measured; the solver
takes the stacked state [a; b], a step dt and a step count, and returns the
samples on the grid t_i = i * dt and its step statistics only. The samples
come from the pair's fourth-order continuous extension, so no step is
capped for their sake: the step controller alone sizes every step, within a
budget of ``RK_MAX_STEPS`` accepted plus rejected steps per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagators import SplittingScheme, check_grid
from .states import SolverFailure

STEP_UNDERFLOW = 1e-14
RK_TOL = 1e-12
# The step a unit-scale field takes at RK_TOL; no field call is spent on it.
RK_FIRST_STEP = RK_TOL ** 0.2
# Accepted plus rejected steps one solve may take: seconds of work on the
# swap field, and 30 times the 600 steps it takes to t = 5 at unit scale.
RK_MAX_STEPS = 20_000


class StepSizeUnderflowError(SolverFailure, RuntimeError):
    """A step size below 1e-14, a non-finite step or error estimate, or a field overflow."""


def _trotter_matrix(order: int, dt: float, q: complex) -> list:
    """Sequential-splitting modified equations as [da; db] = M [a; b].

    Order 0 reproduces the restricted equations; order 1 adds the
    odd-in-dt projector and identity corrections with opposite signs for
    the two components; order 2 adds the shared second-order projector
    term. The transition amplitude q = <a|b> is evaluated at the current
    state, and the field is linear in (a, b) once q is fixed.
    """
    mod_q2 = abs(q) ** 2
    first = 1.0 if order >= 1 else 0.0
    second = 1.0 if order >= 2 else 0.0
    quad = (1.0 / 6.0) * 1j * (dt * dt) * (mod_q2 - 1.0) * second
    own = 0.5 * dt * mod_q2 * first
    return [[own, (-1j - 0.5 * dt * first - quad) * q.conjugate()],
            [(-1j + 0.5 * dt * first - quad) * q, -own]]


def _strang_matrix(order: int, dt: float, q: complex) -> list:
    """Palindromic-splitting modified equations as [da; db] = M [a; b].

    The series contains no odd powers of dt; order 2 adds the quadratic
    corrections with coefficients 1/24 and 1/8. The two components take the
    roles ``propagators.strang_step`` gives them: b (component 1) is
    half-stepped on both sides of the full step on a (component 0).
    """
    mod_q2 = abs(q) ** 2
    second = 1.0 if order >= 2 else 0.0
    own = 0.125j * (dt * dt) * mod_q2 * second
    return [[own, -1j * (1.0 - dt * dt / 24.0 * (1.0 - 4.0 * mod_q2) * second)
             * q.conjugate()],
            [-1j * (1.0 - dt * dt / 24.0 * (1.0 + 2.0 * mod_q2) * second) * q, -own]]


SERIES = {SplittingScheme.LIE_TROTTER: ((0, 1, 2), _trotter_matrix),
          SplittingScheme.STRANG: ((0, 2), _strang_matrix)}


@dataclass(frozen=True)
class ModifiedRHS:
    """Callable modified vector field on the stacked pair y = [a; b]; ``scheme`` may be a name."""

    scheme: SplittingScheme
    truncation_order: int
    dt: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "scheme", SplittingScheme(self.scheme))
            orders = SERIES[self.scheme][0]
        except (ValueError, KeyError):
            raise ValueError(f"no modified series for the scheme {self.scheme!r}") from None
        if self.truncation_order not in orders:
            raise ValueError(f"truncation order {self.truncation_order} invalid for {self.scheme}")

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        pair = y.reshape(2, -1)  # rows a and b
        q = complex(np.vdot(pair[0], pair[1]))
        try:
            matrix = SERIES[self.scheme][1](self.truncation_order, self.dt, q)
        except OverflowError:  # |q|² beyond the double range, from the float power
            raise StepSizeUnderflowError(f"modified field overflowed at t={t}") from None
        return np.dot(np.array(matrix), pair).reshape(-1)


@dataclass(frozen=True)
class OdeSolution:
    """Samples on the grid t_i = i * dt, and step statistics; ``min_step``
    and ``max_step`` range over the accepted steps."""

    y_eval: np.ndarray
    steps: int
    rejected: int
    rhs_evals: int
    min_step: float
    max_step: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.y_eval)):
            raise ValueError("solver samples must be finite")


# Dormand-Prince 5(4) tableau. Row i of _DP_A weights the stages that stage i
# is evaluated at; its last row holds the fifth-order weights, so the seventh
# stage is f(t + h, y_new) and starts the next step (first-same-as-last). The
# arrays are complex only so that products with the stages need no cast.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
], dtype=complex)
# Difference between the 5th- and embedded 4th-order weights.
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    dtype=complex,
)
# Continuous extension (Shampine's, in Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.6): y(t + theta h) = y + h sum_i b_i(theta) k_i. Row i holds the
# coefficients of theta, theta^2, theta^3 and theta^4 in the quartic b_i;
# each row sums to the fifth-order weight of stage i, so theta = 1 gives y_new.
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _dense_weights(theta: np.ndarray) -> np.ndarray:
    """Weights b_i(theta) of the continuous extension, one row per theta."""
    return (theta[:, None] ** np.arange(1, 5)) @ _DP_DENSE.T


def _dp_stages(rhs, t: float, y: np.ndarray, h: float, k: np.ndarray) -> np.ndarray:
    """Fill the stages k[1:7] of a step of size h from k[0] = f(t, y).

    Returns the step's fifth-order solution y_new, where the last stage is taken.
    """
    weights = h * _DP_A
    for i in range(1, 7):
        y_stage = y + np.dot(weights[i, :i], k[:i])
        k[i] = rhs(t + _DP_C[i] * h, y_stage)
    return y_stage


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> float:
    scaled = err / (RK_TOL + RK_TOL * np.maximum(np.abs(y0), np.abs(y1)))
    return math.sqrt(np.vdot(scaled, scaled).real / scaled.size)


# Overflow and NaN raise StepSizeUnderflowError below, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def rk_integrate(rhs, y0: np.ndarray, dt: float, steps: int) -> OdeSolution:
    """Adaptive embedded Runge-Kutta 5(4) integration with PI step control.

    ``rhs`` is any callable f(t, y) -> dy on complex vectors such as ``y0``.
    The run starts at t = 0 and samples the grid t_i = i * dt, i = 0..steps.
    Each sample comes from the continuous extension of the accepted step
    that covers it: a quartic built from the step's seven stages, whose
    error follows the step's local error. So the PI controller alone sets
    every step size, and the last step may end past the grid. The first
    step is ``RK_FIRST_STEP``, where the controller keeps a unit-scale
    field; a faster field gets it rejected and shrunk. A run that spends
    ``RK_MAX_STEPS`` accepted plus rejected steps before the grid is covered
    ends in ``StepSizeUnderflowError``, as does a step below 1e-14 or a
    non-finite error estimate.
    """
    check_grid(dt, steps)
    t = 0.0
    y = np.asarray(y0, dtype=complex)
    t_eval = dt * np.arange(steps + 1)
    y_eval = np.empty((t_eval.size, y.size), dtype=complex)
    y_eval[0] = y
    filled = 1  # samples taken so far

    h = RK_FIRST_STEP
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(t, y)
    rhs_evals = 1
    accepted = 0
    rejected = 0
    min_step, max_step = math.inf, 0.0
    err_prev = 1.0

    while filled < t_eval.size:
        if accepted + rejected >= RK_MAX_STEPS:
            raise StepSizeUnderflowError(f"step budget of {RK_MAX_STEPS} steps spent at t={t}")
        if not h >= STEP_UNDERFLOW:  # also true for a NaN step
            raise StepSizeUnderflowError(f"step size underflow at t={t}")
        y_new = _dp_stages(rhs, t, y, h, k)
        rhs_evals += 6
        err = _error_norm(np.dot(h * _DP_E, k), y, y_new)
        if not math.isfinite(err):
            raise StepSizeUnderflowError(f"non-finite error estimate at t={t}")

        if err <= 1.0:
            t_new = t + h
            covered = int(np.searchsorted(t_eval, t_new, side="right"))
            if covered > filled:
                theta = (t_eval[filled:covered] - t) / h
                y_eval[filled:covered] = y + np.dot(h * _dense_weights(theta), k)
                filled = covered
            t, y = t_new, y_new
            accepted += 1
            min_step, max_step = min(min_step, h), max(max_step, h)
            k[0] = k[6]  # first-same-as-last
            factor = 0.9 * err ** -0.14 * err_prev**0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(max(factor, 0.2), 5.0)
        else:
            rejected += 1
            h *= min(max(0.9 * err**-0.2, 0.2), 1.0)

    return OdeSolution(y_eval, accepted, rejected, rhs_evals, min_step, max_step)
