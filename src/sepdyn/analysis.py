"""Cross-trajectory diagnostics.

Overlap between restricted and unrestricted runs, finite-difference rate of
change of the state projector in nuclear norm, the reduced density matrices
of each subsystem with their purity and (generalized) Bloch vector, a
log-log slope estimator for convergence studies, and, for variational runs,
the gauge spread of the components and the period-2 amplitude of the
product states. Everything here works on stored trajectories, so one
implementation serves all integrators. Purity and Bloch vectors are
functions of one subsystem's reduced-density stack, so a caller that wants
both forms the stack once.

Each pass over (T, D) states reads them in ``propagators.row_blocks``, and
inner products go through ``np.vecdot``, which conjugates its first argument
without a copy: what a pass allocates beyond its inputs and its output is
one row block. A reduced density is the Gram matrix of the rows of the
state's subsystem-leading (d_k, D / d_k) matrix, its purity the squared
norm of the flattened matrix, and a qutrit's Bloch vector one matrix
product against the flattened Gell-Mann generators.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .propagators import Trajectory, row_blocks
from .states import split_components

# Traceless Hermitian generators of SU(3), in the standard order: the three
# symmetric off-diagonal pairs interleaved with their antisymmetric partners
# on (0,1), (0,2), (1,2), then the two diagonal generators.
GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0),
    ],
    dtype=complex,
)
GELL_MANN.setflags(write=False)


def overlap_series(traj_se: Trajectory, traj_sse: Trajectory) -> np.ndarray:
    """Pointwise inner product <psi_se(t)|psi_sse(t)> on a grid of shared dt and length."""
    if traj_se.dt != traj_sse.dt or len(traj_se.full) != len(traj_sse.full):
        raise ValueError("trajectories are not on the same time grid")
    return np.vecdot(traj_se.full, traj_sse.full)


def _projector_difference_nuclear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise || |a><a| - |b><b| ||_1 for (n, dim) arrays a and b, a row block at a time."""
    norms = np.empty(len(a))
    for rows in row_blocks(*a.shape):
        delta = a[rows] - b[rows]
        b_delta = np.vecdot(b[rows], delta)
        b_sq = np.vecdot(b[rows], b[rows]).real
        delta_sq = np.vecdot(delta, delta).real
        gram = np.maximum(b_sq * delta_sq - np.abs(b_delta) ** 2, 0.0)
        trace = 2.0 * b_delta.real + delta_sq
        norms[rows] = np.sqrt(trace**2 + 4.0 * gram)
    return norms


def rate_of_change_nuclear(traj: Trajectory) -> np.ndarray:
    """Nuclear norm of the finite-difference projector derivative.

    Differences over the trajectory's own grid spacing ``traj.dt``,
    centered in the interior and one-sided at the endpoints (on two grid
    points both rows get the same one-sided difference). Each difference of
    two rank-1 projectors has the closed form

        || |a><a| - |b><b| ||_1 = sqrt((|a|^2 - |b|^2)^2 + 4 G),
        G = |a|^2 |b|^2 - |<a|b>|^2,

    since the difference is Hermitian of rank at most two, with trace
    |a|^2 - |b|^2 and determinant -G on span{a, b}. G is the Gram
    determinant of (a, b), which is unchanged by a -> a - b, so it is
    evaluated as G = |b|^2 |d|^2 - |<b|d>|^2 with d = a - b, clamped at zero,
    and |a|^2 - |b|^2 as 2 Re<b|d> + |d|^2. Both forms avoid subtracting
    O(1) quantities whose difference is O(dt). The cost is O(n_times * dim).
    """
    states = traj.full
    if states.shape[0] < 2:
        raise ValueError("need at least two grid points")
    dt = traj.dt
    rates = np.empty(states.shape[0])
    rates[1:-1] = _projector_difference_nuclear(states[2:], states[:-2]) / (2.0 * dt)
    rates[[0, -1]] = _projector_difference_nuclear(states[[1, -1]], states[[0, -2]]) / dt
    return rates


def reduced_density_series(traj: Trajectory, k: int) -> np.ndarray:
    """Partial trace of the projector series onto subsystem k, a (T, d_k, d_k) stack.

    rho = M M^H per row, with M the (d_k, D / d_k) matrix of the row's
    amplitudes with subsystem k's index first: rho_mn = <M_n|M_m>. Each row
    block takes one ``np.vecdot`` over the d_k^2 pairs of M's rows, a dot
    product per entry, so a row's bits do not depend on its block. M is a
    view of the states when k is the first or last subsystem, else one block
    copy.
    """
    dims = traj.dims
    if not 0 <= k < len(dims):
        raise ValueError(f"subsystem index {k} out of range")
    states = traj.full
    left, d, right = prod(dims[:k]), dims[k], prod(dims[k + 1 :])
    shaped = states.reshape(-1, left, d, right)
    rhos = np.empty((len(states), d, d), dtype=complex)
    for rows in row_blocks(*states.shape):
        leading = shaped[rows].transpose(0, 2, 1, 3).reshape(-1, d, left * right)
        np.vecdot(leading[:, None], leading[:, :, None], out=rhos[rows])
    return rhos


def purity_series(rhos: np.ndarray) -> np.ndarray:
    """tr(rho(t)^2) = sum_ij |rho_ij|^2 of a (n_times, d, d) stack of Hermitian matrices."""
    flat = rhos.reshape(len(rhos), rhos.shape[-1] ** 2)
    return np.vecdot(flat, flat).real.copy()  # not a view holding the complex sums


def bloch_series(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (n_times, d, d) stack of reduced density matrices.

    (n_times, 3) Cartesian coordinates for a qubit, (n_times, 8) components
    tr(rho G_i) over ``GELL_MANN`` for a qutrit; other dimensions raise.
    tr(rho G) = sum_mn rho_mn G_nm, so a qutrit stack is one (n_times, 9)
    by (9, 8) product against the transposed generators.
    """
    d = rhos.shape[-1]
    if d == 2:
        return np.stack([2.0 * rhos[:, 0, 1].real, 2.0 * rhos[:, 1, 0].imag,
                         (rhos[:, 0, 0] - rhos[:, 1, 1]).real], axis=1)
    if d == 3:
        generators = GELL_MANN.transpose(0, 2, 1).reshape(len(GELL_MANN), d * d)
        return np.real(rhos.reshape(len(rhos), d * d) @ generators.T)
    raise ValueError(f"reduced densities of dimension {d}; Bloch vectors need 2 or 3")


def log_norm_spread(traj: Trajectory) -> np.ndarray:
    """Per grid time, max_k log||a_k|| - min_k log||a_k|| over the components.

    The gauge a_j -> l a_j, a_k -> a_k / l of a component run moves it; the
    product state does not see it.
    """
    parts = split_components(traj.components, traj.dims)
    logs = np.log(np.stack([np.linalg.norm(part, axis=1) for part in parts], axis=1))
    return logs.max(axis=1) - logs.min(axis=1)


def period_two_amplitude(states: np.ndarray) -> np.ndarray:
    """p_n = ||psi_{n+2} - 3 psi_{n+1} + 3 psi_n - psi_{n-1}|| / 8, n = 1 .. T - 3.

    The sign-alternating part of the second difference of a (T, D) state
    series, in which smooth motion leaks in only at O(dt^3): the amplitude of
    a two-step recursion's parasitic (period-2) mode. Empty below 4 rows.
    """
    amplitude = np.empty(max(len(states) - 3, 0))
    for rows in row_blocks(amplitude.size, states.shape[1]):
        start, stop = rows.start, rows.stop
        stencil = (states[start + 3 : stop + 3] - 3.0 * states[start + 2 : stop + 2]
                   + 3.0 * states[start + 1 : stop + 1] - states[start:stop])
        amplitude[rows] = np.linalg.norm(stencil, axis=1) / 8.0
    return amplitude


def period_two_rate(dt: float, amplitude: np.ndarray) -> float | None:
    """Fitted exponential rate of ``period_two_amplitude`` over the run's second half.

    The least-squares slope of log p_n against t_n = n dt, over the positive,
    finite p_n of the later half of n; None with fewer than two of them.
    """
    times = dt * np.arange(1, amplitude.size + 1)
    half = amplitude.size // 2
    times, amplitude = times[half:], amplitude[half:]
    kept = (amplitude > 0) & np.isfinite(amplitude)
    if np.count_nonzero(kept) < 2:
        return None
    return float(np.polyfit(times[kept], np.log(amplitude[kept]), 1)[0])


def convergence_order(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if dts.size < 3 or errors.size != dts.size:
        raise ValueError("need at least three (dt, error) pairs")
    if np.any(dts <= 0) or np.any(errors <= 0):
        raise ValueError("dt and error values must be positive")
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope)
