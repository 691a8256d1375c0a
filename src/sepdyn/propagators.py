"""Exact flows and splitting integrators for the restricted dynamics.

Every exp(-i t H) in the package, unrestricted or of a one-component
reduced operator, is ``spectral_apply`` (``HermitianPropagator`` for a
whole time grid) on an eigendecomposition: the one a
:class:`HermitianOperator` computes once and keeps, or the ``eigh`` of a
reduced matrix in a splitting sub-step. The restricted equations are
integrated by composing the exactly-solvable one-component flows:
sequentially for the first-order scheme, palindromically for the
second-order one. The step maps work on plain stacked (sum(dims),)
component arrays laid out by ``H.dims``; each sub-step reduces H through
its slot block (``H.slot_blocks``, prepared once per operator) and builds
no state or operator object. ``evolve`` validates the operator, the initial
state, every component's norm as a context, and the step size once, at the
API boundary. Every sub-step is norm preserving per component, so no
context norm falls below that check later, and the reconstructed product
state keeps its norm to machine precision. The reduction is of order ‖H‖
norm², so a finite norm² can still overflow; ``evolve`` tests the rows
every ``FINITE_CHECK_STEPS`` steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .hamiltonians import HermitianOperator, check_dims
from .reduced import check_contexts, contract_reduced
from .states import ComponentState, FullState, split_components, tensor_product_rows


FINITE_CHECK_STEPS = 256  # steps between finiteness tests of a splitting run


class NonFiniteStateError(ArithmeticError):
    """A splitting run produced inf or NaN components (the reduction overflowed)."""


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
        """All exp(-i t H) psi0 for t in times, as a (len(times), dim) array."""
        coeffs = self.evecs.conj().T @ psi0
        phases = np.exp(-1j * np.outer(times, self.evals))
        return (phases * coeffs) @ self.evecs.T


def hermitian_expm_apply(H: HermitianOperator, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i t H) applied to an amplitude vector."""
    return spectral_apply(*H.spectrum, t, vec)


def sse_component_flow(H: HermitianOperator, x: np.ndarray, k: int, t: float) -> np.ndarray:
    """Flow of the k-th restricted equation with the other components frozen.

    ``x`` is the stacked components concat(a_0, ..., a_{N-1}) laid out by
    ``H.dims``; returns a new stacked array whose block k is flowed by t
    under the operator that ``H.slot_blocks[k]`` reduces to.
    """
    dims = H.dims
    parts = split_components(x, dims)
    evals, evecs = np.linalg.eigh(contract_reduced(H.slot_blocks[k], parts, k))
    out = x.astype(complex)
    offset = sum(dims[:k])
    out[offset : offset + dims[k]] = spectral_apply(evals, evecs, t, parts[k])
    return out


def lie_trotter_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One first-order splitting step on stacked components: one component at a time.

    Component l sees components 0..l-1 already updated and l+1..N-1 still at
    their previous values.
    """
    for l in range(len(H.dims)):
        x = sse_component_flow(H, x, l, dt)
    return x


def strang_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One palindromic second-order splitting step on stacked components.

    For two components the composition is: half-step on component 1, full
    step on component 0, half-step on component 1. For more components:
    half-steps on 0..N-2 ascending, a full step on N-1, then half-steps on
    N-2..0 descending. Every sub-step sees the most recently updated context.
    """
    n = len(H.dims)
    if n == 2:
        sequence = [(1, 0.5 * dt), (0, dt), (1, 0.5 * dt)]
    else:
        ascending = [(l, 0.5 * dt) for l in range(n - 1)]
        sequence = ascending + [(n - 1, dt)] + ascending[::-1]
    for l, tau in sequence:
        x = sse_component_flow(H, x, l, tau)
    return x


_STEP_MAPS = {
    SplittingScheme.LIE_TROTTER: lie_trotter_step,
    SplittingScheme.STRANG: strang_step,
}


def evolve(scheme: SplittingScheme, H: HermitianOperator, state0: ComponentState,
           dt: float, steps: int) -> Trajectory:
    """Iterate a splitting step map and record the trajectory.

    The operator, the state and its context norms, ``dt`` and ``steps``
    are checked here, once; the step maps then run on plain stacked arrays.
    Stores the stacked components and their tensor-product reconstructions.
    An overflow ends the run within ``FINITE_CHECK_STEPS`` steps, as
    ``NonFiniteStateError`` naming the first non-finite step.
    """
    check_grid(dt, steps)
    check_dims(H, state0.dims)
    check_contexts(state0.vectors())
    step_map = _STEP_MAPS[scheme]
    rows = np.empty((steps + 1, sum(state0.dims)), dtype=complex)
    rows[0] = x = np.concatenate(state0.vectors())
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, FINITE_CHECK_STEPS):
            stop = min(start + FINITE_CHECK_STEPS, steps + 1)
            for i in range(start, stop):
                x = rows[i] = step_map(H, x, dt)
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
