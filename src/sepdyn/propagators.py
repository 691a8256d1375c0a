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
state keeps its norm to machine precision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .hamiltonians import HermitianOperator
from .reduced import check_contexts, contract_reduced
from .states import ComponentState, FullState, split_components, tensor_product_rows


class SplittingScheme(enum.Enum):
    LIE_TROTTER = "lie_trotter"
    STRANG = "strang"


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid time series of states.

    ``full`` holds one composite-space state per grid time, shape
    (n_times, prod(dims)). Component runs also keep ``components``, the
    stacked subsystem kets concat(a_1, ..., a_N), shape (n_times, sum(dims)).
    Both arrays are stored read-only; ``norm`` is the full state's norm per
    grid time, computed on first use.
    """

    times: np.ndarray
    dims: tuple[int, ...]
    full: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if times.size > 1:
            spacings = np.diff(times)
            if np.any(spacings <= 0):
                raise ValueError("times must be strictly increasing")
            if np.max(np.abs(spacings - spacings[0])) > 1e-9 * max(1.0, abs(spacings[0])):
                raise ValueError("times must be uniformly spaced")
        dims = tuple(int(d) for d in self.dims)
        for name, width in (("full", prod(dims)), ("components", sum(dims))):
            stored = getattr(self, name)
            if stored is None:
                continue
            stored = np.asarray(stored, dtype=complex)
            if stored.shape != (times.size, width):
                raise ValueError(
                    f"{name} has shape {stored.shape}, expected {(times.size, width)}"
                )
            if not np.all(np.isfinite(stored)):
                raise ValueError(f"{name} amplitudes must be finite")
            stored.setflags(write=False)
            object.__setattr__(self, name, stored)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_components(cls, times, components: np.ndarray, dims) -> "Trajectory":
        """A component run: its rows and their tensor products."""
        return cls(times, dims, full=tensor_product_rows(components, dims),
                   components=components)

    @cached_property
    def norm(self) -> np.ndarray:
        return np.linalg.norm(self.full, axis=1)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0


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
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if H.dims != state0.dims:
        raise ValueError(f"operator dims {H.dims} do not match state dims {state0.dims}")
    check_contexts(state0.vectors())
    step_map = _STEP_MAPS[scheme]
    rows = np.empty((steps + 1, sum(state0.dims)), dtype=complex)
    rows[0] = x = np.concatenate(state0.vectors())
    for i in range(1, steps + 1):
        x = rows[i] = step_map(H, x, dt)
    return Trajectory.from_components(dt * np.arange(steps + 1), rows, state0.dims)


def se_evolve(H: HermitianOperator, psi0: FullState, dt: float, steps: int) -> Trajectory:
    """Unrestricted trajectory on a uniform grid, decomposing H only once."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    propagator = HermitianPropagator(H)
    times = dt * np.arange(steps + 1)
    grid = propagator.states_on_grid(psi0.amplitudes, times)
    return Trajectory(times, psi0.dims, full=grid)
