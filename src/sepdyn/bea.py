"""Modified differential equations for the splitting schemes on the exchange
system, and an adaptive Runge-Kutta solver for their truncations.

The modified right-hand sides are formal power series in the step size; the
truncation order selects how many correction terms beyond the restricted
equations are kept. ``ModifiedRHS`` checks the order once, when it is
built; the right-hand sides it calls then run unchecked on views of the
stacked state, since the solver calls them seven times per step.
The series are written for unit-norm components a and b, as the
exchange system's restricted equations are; for other norms they are not
the modified equations of the splitting, so callers check the norms first.
Truncations are solved with an embedded Dormand-Prince 5(4) pair at the
fixed tolerance ``RK_TOL``, so the reference solutions sit far below the
deviations being measured; the solver takes the stacked state [a; b], a
step dt and a step count, and returns the samples on the grid t_i = i * dt
and its step statistics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagators import SplittingScheme, check_grid

TROTTER_ORDERS = (0, 1, 2)
STRANG_ORDERS = (0, 2)
STEP_UNDERFLOW = 1e-14
RK_TOL = 1e-12
# Cubic Hermite remainder is h^4 |y''''| / 384; keep it at the tolerance
# assuming order-one derivatives, as for the unit-scale fields here.
RK_STEP_CAP = (384.0 * RK_TOL) ** 0.25


class StepSizeUnderflowError(RuntimeError):
    """A step size below 1e-14, or a step size or error estimate that is not finite."""


def _trotter_rhs(order: int, dt: float, a: np.ndarray, b: np.ndarray):
    """Right-hand sides of the sequential-splitting modified equations.

    Order 0 reproduces the restricted equations; order 1 adds the
    odd-in-dt projector and identity corrections with opposite signs for
    the two components; order 2 adds the shared second-order projector
    term. The transition amplitude q is evaluated at the current state.
    """
    q = np.vdot(a, b)
    mod_q2 = abs(q) ** 2
    first = 1.0 if order >= 1 else 0.0
    second = 1.0 if order >= 2 else 0.0
    quad = (1.0 / 6.0) * 1j * (dt * dt) * (mod_q2 - 1.0) * second
    da = (-1j - 0.5 * dt * first - quad) * (b * np.vdot(b, a)) \
        + 0.5 * dt * mod_q2 * first * a
    db = (-1j + 0.5 * dt * first - quad) * (a * np.vdot(a, b)) \
        - 0.5 * dt * mod_q2 * first * b
    return da, db


def _strang_rhs(order: int, dt: float, a: np.ndarray, b: np.ndarray):
    """Right-hand sides of the palindromic-splitting modified equations.

    The series contains no odd powers of dt; order 2 adds the quadratic
    corrections with coefficients 1/24 and 1/8. The two components take the
    roles ``propagators.strang_step`` gives them: b (component 1) is
    half-stepped on both sides of the full step on a (component 0).
    """
    q = np.vdot(a, b)
    mod_q2 = abs(q) ** 2
    second = 1.0 if order >= 2 else 0.0
    da = -1j * ((1.0 - dt * dt / 24.0 * (1.0 - 4.0 * mod_q2) * second)
                * (b * np.vdot(b, a))
                - 0.125 * (dt * dt) * mod_q2 * second * a)
    db = -1j * ((1.0 - dt * dt / 24.0 * (1.0 + 2.0 * mod_q2) * second)
                * (a * np.vdot(a, b))
                + 0.125 * (dt * dt) * mod_q2 * second * b)
    return da, db


@dataclass(frozen=True)
class ModifiedRHS:
    """Callable modified vector field on the stacked complex pair y = [a; b]."""

    scheme: SplittingScheme
    truncation_order: int
    dt: float

    def __post_init__(self):
        valid = TROTTER_ORDERS if self.scheme is SplittingScheme.LIE_TROTTER else STRANG_ORDERS
        if self.truncation_order not in valid:
            raise ValueError(
                f"truncation order {self.truncation_order} invalid for {self.scheme}"
            )

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        half = y.size // 2
        a, b = y[:half], y[half:]
        if self.scheme is SplittingScheme.LIE_TROTTER:
            da, db = _trotter_rhs(self.truncation_order, self.dt, a, b)
        else:
            da, db = _strang_rhs(self.truncation_order, self.dt, a, b)
        return np.concatenate([da, db])


@dataclass(frozen=True)
class OdeSolution:
    """Samples on the grid t_i = i * dt, and step statistics."""

    y_eval: np.ndarray
    steps: int
    rejected: int
    rhs_evals: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.y_eval)):
            raise ValueError("solver samples must be finite")


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between the 5th- and embedded 4th-order weights.
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> float:
    scale = RK_TOL + RK_TOL * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


# Overflow and NaN raise StepSizeUnderflowError below, not numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def rk_integrate(rhs, y0: np.ndarray, dt: float, steps: int) -> OdeSolution:
    """Adaptive embedded Runge-Kutta 5(4) integration with PI step control.

    ``rhs`` is any callable f(t, y) -> dy on complex vectors such as ``y0``.
    The run starts at t = 0 and samples the grid t_i = i * dt, i = 0..steps.
    The samples are filled by piecewise cubic Hermite interpolation on the
    accepted steps, which is fourth-order accurate; the step size is capped
    at ``RK_STEP_CAP`` so that the interpolation remainder stays at the level
    of ``RK_TOL``. A run therefore takes at least ``dt * steps / RK_STEP_CAP``
    steps, which callers bound before they start one. The first step is that
    cap, where the controller keeps unit-scale fields for the whole run; a
    faster field gets it rejected and shrunk.
    """
    check_grid(dt, steps)
    t, t1 = 0.0, dt * steps
    y = np.asarray(y0, dtype=complex)

    h = h_cap = min(RK_STEP_CAP, t1)

    t_eval = dt * np.arange(steps + 1)
    y_eval = np.empty((t_eval.size, y.size), dtype=complex)
    eval_cursor = 0

    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(t, y)
    rhs_evals = 1
    accepted = 0
    rejected = 0
    err_prev = 1.0

    while t < t1 - 1e-14:
        h = min(h, h_cap, t1 - t)
        if not h >= STEP_UNDERFLOW:  # also true for a NaN step
            raise StepSizeUnderflowError(f"step size underflow at t={t}")
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ k[:i])
            k[i] = rhs(t + _DP_C[i] * h, yi)
        rhs_evals += 6
        y_new = y + h * (_DP_B @ k)
        err_vec = h * (_DP_E @ k)
        err = _error_norm(err_vec, y, y_new)
        if not math.isfinite(err):
            raise StepSizeUnderflowError(f"non-finite error estimate at t={t}")

        if err <= 1.0:
            t_new = t + h
            # Fill every requested sample inside the accepted interval.
            while eval_cursor < t_eval.size and t_eval[eval_cursor] <= t_new + 1e-14:
                theta = np.clip((t_eval[eval_cursor] - t) / h, 0.0, 1.0)
                h00 = 2 * theta**3 - 3 * theta**2 + 1
                h10 = theta**3 - 2 * theta**2 + theta
                h01 = -2 * theta**3 + 3 * theta**2
                h11 = theta**3 - theta**2
                y_eval[eval_cursor] = (
                    h00 * y + h10 * h * k[0] + h01 * y_new + h11 * h * k[6]
                )
                eval_cursor += 1
            t, y = t_new, y_new
            accepted += 1
            k[0] = k[6]  # first-same-as-last
            factor = 0.9 * err ** -0.14 * err_prev**0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err**-0.2)
            factor = min(factor, 1.0)
        h = h * float(np.clip(factor, 0.2, 5.0))

    y_eval[eval_cursor:] = y  # samples at the right endpoint
    return OdeSolution(y_eval, accepted, rejected, rhs_evals)
