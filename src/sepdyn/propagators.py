"""Exact flows and splitting integrators for the restricted dynamics.

Every exp(-i t H) in the package, unrestricted or of a one-component
reduced operator, is ``spectral_apply`` (``HermitianPropagator`` for a
whole time grid) on an eigendecomposition: the one a
:class:`HermitianOperator` computes once and keeps, or that of a reduced
matrix in a splitting sub-step. The restricted equations are integrated by
composing the exactly-solvable one-component flows, sequentially (first
order) or palindromically (second order). One loop, ``_run``, does every
splitting step: ``evolve`` runs a whole trajectory through it on one list
of component arrays, and the one-step maps are runs of one row.

A sub-step on component k decomposes the sandwich S = c^H B c of
``reduced.contract_reduced`` as it comes, unscaled and unsymmetrized (the
eigh gufunc reads its lower triangle), and folds the context norm² into
the phase: exp(-i (tau / |c|²) S). A sub-step on the component of the
sub-step just before it reuses that decomposition, since its contexts have
not moved; so Strang's last half-step of a step and the first one of the
next share one reduction, bit for bit what recomputing it gives.

``evolve`` checks the operator, the initial state, every context norm and
the step size once; sub-steps are unitary per component, so no context
norm falls later. The reduction, of order ‖H‖ norm², can overflow, and a
non-finite reduced matrix decomposes to NaN without raising; ``evolve``
tests rows each ``FINITE_CHECK_STEPS`` steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np
from numpy.linalg import _umath_linalg

from .hamiltonians import HermitianOperator, check_dims
from .reduced import check_contexts, contract_reduced
from .states import (
    ComponentState,
    FullState,
    SolverFailure,
    split_components,
    tensor_product_rows,
)


FINITE_CHECK_STEPS = 256  # steps between finiteness tests of a splitting run


class NonFiniteStateError(SolverFailure, ArithmeticError):
    """A splitting reduction, or the phases t * E of an exp(-i t H) grid, overflowed."""


class SplittingScheme(enum.Enum):
    LIE_TROTTER = "lie_trotter"
    STRANG = "strang"


def check_grid(dt: float, steps: int):
    """The one check of a run's grid t_i = i * dt, i = 0..steps."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be finite and positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Time series of states on the uniform grid t_i = i * dt.

    ``full`` holds one composite-space state per grid time, shape
    (n_times, prod(dims)). Component runs also keep ``components``, the
    stacked subsystem kets concat(a_1, ..., a_N), shape (n_times, sum(dims)).
    Either may be omitted, not both. Both are stored read-only; ``times`` and
    ``norm``, the full state's norm per time, are derived on first use.
    """

    dt: float
    dims: tuple[int, ...]
    full: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if self.full is None and self.components is None:
            raise ValueError("a trajectory needs full or components")
        dims = tuple(int(d) for d in self.dims)
        rows = len(self.full if self.full is not None else self.components)
        for name, width in (("full", prod(dims)), ("components", sum(dims))):
            stored = getattr(self, name)
            if stored is None:
                continue
            stored = np.asarray(stored, dtype=complex)
            if stored.shape != (rows, width):
                raise ValueError(f"{name} has shape {stored.shape}, expected {(rows, width)}")
            if not np.all(np.isfinite(stored)):
                raise ValueError(f"{name} amplitudes must be finite")
            stored.setflags(write=False)
            object.__setattr__(self, name, stored)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_components(cls, dt: float, components: np.ndarray, dims) -> "Trajectory":
        """A component run: its rows and their tensor products."""
        return cls(dt, dims, full=tensor_product_rows(components, dims),
                   components=components)

    @cached_property
    def times(self) -> np.ndarray:
        times = self.dt * np.arange(len(self.full if self.full is not None else self.components))
        times.setflags(write=False)
        return times

    @cached_property
    def norm(self) -> np.ndarray:
        return np.linalg.norm(self.full, axis=1)


def spectral_apply(evals: np.ndarray, evecs: np.ndarray, t: float,
                   vec: np.ndarray) -> np.ndarray:
    """exp(-i t H) vec for H = evecs diag(evals) evecs^H."""
    return evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ vec))


class HermitianPropagator:
    """exp(-i t H) psi0 on a time grid, from the eigendecomposition H computes once."""

    def __init__(self, H: HermitianOperator):
        self.evals, self.evecs = H.spectrum

    def states_on_grid(self, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """All exp(-i t H) psi0 for t in times, as a (len(times), dim) array.

        Raises ``NonFiniteStateError``, before any array is formed, when a
        phase t * E overflows. Finite phases give finite states: every row
        is a unitary image of psi0.
        """
        # Every |t * E| is at most this product, and rounding is monotonic.
        if not math.isfinite(float(np.max(np.abs(times))) * float(np.max(np.abs(self.evals)))):
            raise NonFiniteStateError(
                f"the phases t * E of exp(-i t H) overflow on a grid up to t = {times[-1]:g}")
        coeffs = self.evecs.conj().T @ psi0
        phases = np.exp(-1j * np.outer(times, self.evals))
        return (phases * coeffs) @ self.evecs.T


def hermitian_expm_apply(H: HermitianOperator, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i t H) applied to an amplitude vector."""
    return spectral_apply(*H.spectrum, t, vec)


def _lie_trotter_sequence(n: int, dt: float) -> list[tuple[int, float]]:
    """One first-order step's sub-steps: (0, dt), ..., (n-1, dt).

    Component l sees components 0..l-1 already updated and l+1..n-1 still at
    their previous values.
    """
    return [(l, dt) for l in range(n)]


def _strang_sequence(n: int, dt: float) -> list[tuple[int, float]]:
    """One palindromic second-order step's sub-steps.

    For two components: half-step on component 1, full step on component 0,
    half-step on component 1. For more: half-steps on 0..n-2 ascending, a
    full step on n-1, then half-steps on n-2..0 descending. Every sub-step
    sees the most recently updated context.
    """
    if n == 2:
        return [(1, 0.5 * dt), (0, dt), (1, 0.5 * dt)]
    ascending = [(l, 0.5 * dt) for l in range(n - 1)]
    return ascending + [(n - 1, dt)] + ascending[::-1]


_SEQUENCES = {
    SplittingScheme.LIE_TROTTER: _lie_trotter_sequence,
    SplittingScheme.STRANG: _strang_sequence,
}


def _run(H: HermitianOperator, parts: list[np.ndarray], sequence, rows: np.ndarray):
    """Flow the component list ``parts`` through ``sequence`` once per row of ``rows``.

    Sub-step (k, tau) rebinds ``parts[k]`` to exp(-i (tau / |c|²) S) parts[k],
    decomposing S with the eigh gufunc that ``np.linalg.eigh`` wraps, or
    reusing the decomposition of the sub-step before when that one was on
    component k too. Each row receives the concatenated components; no
    entry of ``parts`` is written.
    """
    blocks = H.slot_blocks
    held = None  # the component whose decomposition evals, evecs, norm2 hold
    for row in rows:
        for k, tau in sequence:
            if k != held:
                sandwich, norm2 = contract_reduced(blocks[k], parts, k)
                evals, evecs = _umath_linalg.eigh_lo(sandwich, signature="D->dD")
                held = k
            parts[k] = spectral_apply(evals, evecs, tau / norm2, parts[k])
        np.concatenate(parts, out=row)


def _step(H: HermitianOperator, x: np.ndarray, sequence) -> np.ndarray:
    """``_run`` over one row from the stacked components ``x``, which it does not write."""
    x = np.asarray(x, dtype=complex)
    out = np.empty((1, x.size), dtype=complex)
    _run(H, split_components(x, H.dims), sequence, out)
    return out[0]


def sse_component_flow(H: HermitianOperator, x: np.ndarray, k: int, t: float) -> np.ndarray:
    """Flow of the k-th restricted equation with the other components frozen.

    ``x`` is the stacked components concat(a_0, ..., a_{N-1}) laid out by
    ``H.dims``; the result is the one sub-step (k, t).
    """
    return _step(H, x, [(k, t)])


def lie_trotter_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One first-order splitting step on stacked components, one component at a time."""
    return _step(H, x, _lie_trotter_sequence(len(H.dims), dt))


def strang_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One palindromic second-order splitting step on stacked components."""
    return _step(H, x, _strang_sequence(len(H.dims), dt))


def evolve(scheme: SplittingScheme, H: HermitianOperator, state0: ComponentState,
           dt: float, steps: int) -> Trajectory:
    """Run a splitting scheme for ``steps`` steps and record the trajectory.

    The operator, the state and its context norms, ``dt`` and ``steps``
    are checked here, once; the run then keeps one list of component arrays
    and writes each step's row in place. Stores the stacked components and
    their tensor-product reconstructions. An overflow ends the run within
    ``FINITE_CHECK_STEPS`` steps, as ``NonFiniteStateError`` naming the
    first non-finite step.
    """
    check_grid(dt, steps)
    check_dims(H, state0.dims)
    check_contexts(state0.vectors())
    sequence = _SEQUENCES[scheme](len(state0.dims), dt)
    parts = state0.vectors()
    rows = np.empty((steps + 1, sum(state0.dims)), dtype=complex)
    np.concatenate(parts, out=rows[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, FINITE_CHECK_STEPS):
            stop = min(start + FINITE_CHECK_STEPS, steps + 1)
            _run(H, parts, sequence, rows[start:stop])
            finite = np.isfinite(rows[start:stop]).all(axis=1)
            if not finite.all():
                raise NonFiniteStateError(
                    f"splitting step {start + finite.argmin()} produced a non-finite state")
    return Trajectory.from_components(dt, rows, state0.dims)


def se_evolve(H: HermitianOperator, psi0: FullState, dt: float, steps: int) -> Trajectory:
    """Unrestricted trajectory on a uniform grid, decomposing H only once."""
    check_grid(dt, steps)
    check_dims(H, psi0.dims)
    grid = HermitianPropagator(H).states_on_grid(psi0.amplitudes, dt * np.arange(steps + 1))
    return Trajectory(dt, psi0.dims, full=grid)
