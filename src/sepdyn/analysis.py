"""Cross-trajectory diagnostics.

Overlap between restricted and unrestricted runs, finite-difference rate of
change of the state projector in nuclear norm, the reduced density matrices
of each subsystem with their purity and (generalized) Bloch vector, and a
log-log slope estimator for convergence studies. Everything here works on
stored trajectories, so one implementation serves all integrators. Purity
and Bloch vectors are functions of one subsystem's reduced-density stack,
so a caller that wants both forms the stack once.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .propagators import Trajectory

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
    """Pointwise inner product <psi_se(t)|psi_sse(t)> on a shared grid."""
    if traj_se.times.shape != traj_sse.times.shape or \
            np.max(np.abs(traj_se.times - traj_sse.times)) > 1e-12:
        raise ValueError("trajectories are not on the same time grid")
    return np.einsum("ti,ti->t", traj_se.full.conj(), traj_sse.full)


def _projector_difference_nuclear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise || |a><a| - |b><b| ||_1 for (n, dim) arrays a and b."""
    delta = a - b
    b_delta = np.einsum("ti,ti->t", b.conj(), delta)
    b_sq = np.einsum("ti,ti->t", b.conj(), b).real
    delta_sq = np.einsum("ti,ti->t", delta.conj(), delta).real
    gram = np.maximum(b_sq * delta_sq - np.abs(b_delta) ** 2, 0.0)
    trace = 2.0 * b_delta.real + delta_sq
    return np.sqrt(trace**2 + 4.0 * gram)


def rate_of_change_nuclear(traj: Trajectory, dt: float) -> np.ndarray:
    """Nuclear norm of the finite-difference projector derivative.

    Centered differences in the interior, one-sided at the endpoints (on
    two grid points both rows get the same one-sided difference). Each
    difference of two rank-1 projectors has the closed form

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
    rates = np.empty(states.shape[0])
    rates[1:-1] = _projector_difference_nuclear(states[2:], states[:-2]) / (2.0 * dt)
    rates[[0, -1]] = _projector_difference_nuclear(states[[1, -1]], states[[0, -2]]) / dt
    return rates


def reduced_density_series(traj: Trajectory, k: int) -> np.ndarray:
    """Partial trace of the projector series onto subsystem k, batched."""
    dims = traj.dims
    if not 0 <= k < len(dims):
        raise ValueError(f"subsystem index {k} out of range")
    states = traj.full
    before = prod(dims[:k])
    after = prod(dims[k + 1 :])
    shaped = states.reshape(-1, before, dims[k], after)
    return np.einsum("tamb,tanb->tmn", shaped, shaped.conj())


def purity_series(rhos: np.ndarray) -> np.ndarray:
    """tr(rho(t)^2) of a (n_times, d, d) stack of reduced density matrices."""
    return np.real(np.einsum("tij,tji->t", rhos, rhos))


def bloch_series(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (n_times, d, d) stack of reduced density matrices.

    (n_times, 3) Cartesian coordinates for a qubit, (n_times, 8) components
    tr(rho G_i) over ``GELL_MANN`` for a qutrit; other dimensions raise.
    """
    d = rhos.shape[-1]
    if d == 2:
        return np.stack([2.0 * rhos[:, 0, 1].real, 2.0 * rhos[:, 1, 0].imag,
                         (rhos[:, 0, 0] - rhos[:, 1, 1]).real], axis=1)
    if d == 3:
        return np.real(np.einsum("tij,kji->tk", rhos, GELL_MANN))
    raise ValueError(f"reduced densities of dimension {d}; Bloch vectors need 2 or 3")


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
