"""Exact flows and splitting integrators for the restricted dynamics.

Every exp(-i t H) in the package, unrestricted or of a one-component
reduced operator, scales coefficients in an eigenbasis by exp(-i t E). Three
places form those phases: ``spectral_apply`` for one vector,
``HermitianPropagator.states_on_grid`` for a time grid, and ``_run_rows``
for a stack of reduced matrices. The restricted equations are integrated by
composing the exactly-solvable one-component flows, sequentially (first
order) or palindromically (second order).

One loop, ``_run_rows``, does every splitting step, for a stack of one or
more rows on one H, each with its own scheme, state, dt and step count.
``evolve`` runs whole trajectories through it, a run alone being a batch
of one row, and the step maps are one step of one row.
``SplittingScheme`` lists the schemes and ``_SEQUENCES`` their sub-steps.
The rows share the order of the longest sequence among their schemes:
Strang's (``0..n-1..0``, or ``1, 0, 1`` for n = 2) if any row is Strang,
else Lie–Trotter's. Each row's own sequence sits in that order as a
subsequence, with its time there and a hold at every other position: a
Lie–Trotter row flows on the ascending half and holds on the way back. A
position where every row holds is skipped; rows leave as they end.

A sub-step on component k decomposes the sandwiches S = c^H B c of
``reduced.contract_reduced`` as they come, unscaled and unsymmetrized (the
eigh gufunc reads the lower triangle), and folds the context norm² into
the phase: exp(-i (tau / |c|²) S). Each stacked form gives a row the bits
it gets alone: one matrix-vector product per row, never a GEMM across
rows; a row that holds keeps its component by selection, since a
zero-time flow would move its bits. A sub-step on the component of the
sub-step just before it reuses that decomposition, since its contexts
have not moved; so Strang's last half-step of a step and the first one of
the next share one reduction, bit for bit what recomputing it gives.

Phase convention: each sub-step flows its component under the full mean
field, energy included, so every component picks up the phase of ⟨H⟩,
where the Dirac–Frenkel (variational) equations count it once. A
splitting product state is therefore the variational one times the
global phase e^{-i(N-1)⟨H⟩t}, to the order of the scheme, with ⟨H⟩
conserved by the restricted flow. ``abs_overlap``, purity, Bloch vectors
and ``rate_nucl`` read only |overlaps| and densities and do not see it;
the amplitude columns of splitting and variational CSVs differ by it.

``evolve`` checks the operator, the initial states, every context
norm and the step sizes once, and the step maps check their stacked
components, times and contexts; sub-steps are unitary per component, so
no context norm falls later. The reduction, of order ‖H‖ norm², can
overflow, and a non-finite reduced matrix decomposes to NaN without
raising; ``evolve`` tests the rows each ``FINITE_CHECK_STEPS`` steps,
and a non-finite row ends alone.
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
    FullState,
    SolverFailure,
    kron,
    split_components,
)


# Steps between finiteness tests of a splitting run: a count, not a row block,
# so that each test's fixed cost is amortized whatever the batch's width. Sized
# by BLOCK_CELLS (6 steps), a 512-row random5 batch of 600 steps took 2.59-2.76 s
# of CPU against 2.45-2.56 s (2-vCPU host, one BLAS thread).
FINITE_CHECK_STEPS = 256
# Every blocked pass and stacked call takes whole rows of at most about this
# many cells (or one row): the (T, D) states, the diagnostics, the CSV text,
# and a variational batch's Newton solves and momenta. What a pass allocates
# beyond its inputs and outputs is one such block.
BLOCK_CELLS = 2**15


class NonFiniteStateError(SolverFailure, ArithmeticError):
    """A splitting reduction, or the phases t * E of an exp(-i t H) grid, overflowed."""


class SplittingScheme(enum.Enum):
    LIE_TROTTER = "lie_trotter"
    STRANG = "strang"


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices over ``rows`` rows of ``width`` cells, each of at most
    ``BLOCK_CELLS`` cells or one row."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


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
    ``norm``, the full state's norm per time, are derived on first use. The
    finiteness check and ``from_components``'s tensor products run in
    ``row_blocks``.
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
            if not all(np.isfinite(stored[block]).all() for block in row_blocks(rows, width)):
                raise ValueError(f"{name} amplitudes must be finite")
            stored.setflags(write=False)
            object.__setattr__(self, name, stored)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_components(cls, dt: float, components: np.ndarray, dims) -> "Trajectory":
        """A component run: its rows and their tensor products."""
        full = np.empty((len(components), prod(dims)), dtype=complex)
        for rows in row_blocks(*full.shape):
            full[rows] = kron(split_components(components[rows], dims))
        return cls(dt, dims, full=full, components=components)

    @cached_property
    def times(self) -> np.ndarray:
        times = self.dt * np.arange(len(self.full if self.full is not None else self.components))
        times.setflags(write=False)
        return times

    @cached_property
    def norm(self) -> np.ndarray:
        return np.sqrt(np.vecdot(self.full, self.full).real)  # vecdot conjugates without a copy


def spectral_apply(evals: np.ndarray, evecs: np.ndarray, t: float,
                   vec: np.ndarray) -> np.ndarray:
    """exp(-i t H) vec for H = evecs diag(evals) evecs^H."""
    return evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ vec))


class HermitianPropagator:
    """exp(-i t H) psi0 on a time grid, from the eigendecomposition H computes once.

    The grid is filled in ``row_blocks``: beyond the (len(times), dim) result,
    a call holds one block of phases.
    """

    def __init__(self, H: HermitianOperator):
        self.evals, self.evecs = H.spectrum

    def states_on_grid(self, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """All exp(-i t H) psi0 for t in times, as a (len(times), dim) array.

        Raises ``NonFiniteStateError``, before any array is formed, when a
        phase t * E overflows. Finite phases give finite states: every row
        is a unitary image of psi0. Row i is (exp(-i t_i E) * c) @ V^T with
        c = V^H psi0, block by block. A one-row product would take numpy's
        vector-matrix path, which rounds unlike the matrix product, so a block
        of one row is formed with the row before it, and a grid of one time
        as two rows of that time: a row's bits do not depend on the length
        of the grid.
        """
        times = np.asarray(times, dtype=float)
        count = times.size
        times = np.resize(times, max(2, count))
        # Every |t * E| is at most this product, and rounding is monotonic.
        if not math.isfinite(float(np.max(np.abs(times))) * float(np.max(np.abs(self.evals)))):
            raise NonFiniteStateError(
                f"the phases t * E of exp(-i t H) overflow on a grid up to t = {times[-1]:g}")
        coeffs = self.evecs.conj().T @ psi0
        grid = np.empty((times.size, self.evals.size), dtype=complex)
        blocks = [slice(max(0, min(rows.start, rows.stop - 2)), rows.stop)
                  for rows in row_blocks(*grid.shape)]
        phases = np.empty((max(2, blocks[0].stop), grid.shape[1]), dtype=complex)
        for rows in blocks:
            block = phases[: rows.stop - rows.start]
            np.multiply.outer(times[rows], self.evals, out=block)
            np.multiply(-1j, block, out=block)
            np.exp(block, out=block)
            np.multiply(block, coeffs, out=block)
            np.matmul(block, self.evecs.T, out=grid[rows])
        return grid[:count]


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


def _shared_order(schemes, n: int) -> list[int]:
    """The components of a batch step's sub-steps: the longest sequence's of its schemes."""
    sequences = [_SEQUENCES[scheme](n, 1.0) for scheme in SplittingScheme if scheme in schemes]
    return [k for k, _ in max(sequences, key=len, default=[])]


def _embed(sequence, order: list[int]) -> list[float | None]:
    """A row's ``sequence`` as a subsequence of ``order``, taken first-fit:
    its time at each position it flows at, None at each one it holds at."""
    taus: list[float | None] = [None] * len(order)
    position = 0
    for k, tau in sequence:
        position = order.index(k, position)
        taus[position] = tau
        position += 1
    return taus


def _plan(order: list[int], taus: list[list[float | None]]) -> list[tuple]:
    """The sub-steps (k, tau, flows) of a batch step over rows with ``_embed`` times ``taus``.

    ``tau`` holds each row's time, 0 where it holds; ``flows`` is the
    (rows, 1) mask of the rows that move, or None when all of them do. A
    position at which every row holds is left out.
    """
    plan = []
    for position, k in enumerate(order):
        times = [row[position] for row in taus]
        flows = np.array([t is not None for t in times])
        if flows.any():
            tau = np.array([0.0 if t is None else t for t in times])
            plan.append((k, tau, None if flows.all() else flows[:, None]))
    return plan


def _run_rows(H: HermitianOperator, parts: list[np.ndarray], plan, rows: np.ndarray):
    """Flow the stacked components ``parts`` through ``plan`` once per step of ``rows``.

    ``parts[k]`` is (B, d_k) and ``rows`` is (steps, B, sum(dims)); each
    step receives the concatenated components, and no array of ``parts`` is
    written. Sub-step (k, tau, flows) of ``_plan`` rebinds ``parts[k]`` to
    exp(-i (tau / |c|²) S) parts[k] row by row, decomposing the stack of
    sandwiches S with the eigh gufunc that ``np.linalg.eigh`` wraps, or
    reusing the decompositions of the sub-step before when that one was on
    component k too.
    """
    blocks = H.slot_blocks
    held = None  # the component whose decompositions evals, evecs, norm2 hold
    for row in rows:
        for k, tau, flows in plan:
            if k != held:
                sandwich, norm2 = contract_reduced(blocks[k], parts, k)
                evals, evecs = _umath_linalg.eigh_lo(sandwich, signature="D->dD")
                evecs_h = evecs.conj().swapaxes(1, 2)
                held = k
            phases = np.exp(-1j * (tau / norm2)[:, None] * evals)
            coeffs = phases * (evecs_h @ parts[k][:, :, None])[:, :, 0]
            moved = (evecs @ coeffs[:, :, None])[:, :, 0]
            parts[k] = moved if flows is None else np.where(flows, moved, parts[k])
        np.concatenate(parts, axis=1, out=row)


def _step(H: HermitianOperator, x, sequence, keep: int | None = None) -> np.ndarray:
    """One step of one row through ``_run_rows`` from the stacked components ``x``.

    The step maps' boundary: ``x`` must hold sum(H.dims) finite amplitudes,
    every time of ``sequence`` must be finite (zero and negative times
    flow), and every context but ``keep`` must pass ``check_contexts``.
    ``x`` is not written.
    """
    x = np.asarray(x, dtype=complex)
    width = sum(H.dims)
    if x.shape != (width,):
        raise ValueError(f"x has shape {x.shape}, expected ({width},), sum(H.dims) "
                         f"for dims {H.dims}")
    if not np.isfinite(x).all():
        raise ValueError("amplitudes must be finite")
    if not all(math.isfinite(tau) for _, tau in sequence):
        raise ValueError("the step time must be finite")
    parts = split_components(x, H.dims)
    check_contexts(parts, keep)
    out = np.empty((1, 1, width), dtype=complex)
    _run_rows(H, [part[None] for part in parts],
              [(k, np.array([tau]), None) for k, tau in sequence], out)
    return out[0, 0]


def sse_component_flow(H: HermitianOperator, x: np.ndarray, k: int, t: float) -> np.ndarray:
    """Flow of the k-th restricted equation with the other components frozen.

    ``x`` is the stacked components concat(a_0, ..., a_{N-1}) laid out by
    ``H.dims``; the result is the one sub-step (k, t).
    """
    if not 0 <= k < len(H.dims):
        raise ValueError(f"subsystem index {k} out of range for {len(H.dims)} subsystems")
    return _step(H, x, [(k, t)], keep=k)


def lie_trotter_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One first-order splitting step on stacked components, one component at a time."""
    return _step(H, x, _lie_trotter_sequence(len(H.dims), dt))


def strang_step(H: HermitianOperator, x: np.ndarray, dt: float) -> np.ndarray:
    """One palindromic second-order splitting step on stacked components."""
    return _step(H, x, _strang_sequence(len(H.dims), dt))


def evolve(H: HermitianOperator, schemes, states, dts, steps) -> list:
    """Splitting runs of the rows (scheme, state, dt, steps), advanced as one batch.

    Returns per row its stacked components, a (steps + 1, sum(dims)) array
    whose row i is the state at time i * dt, or the ``NonFiniteStateError``
    that ended it, naming the first non-finite step;
    ``Trajectory.from_components`` forms a row's trajectory. The components
    of each row are bit for bit those of the row run alone, a batch of one.
    Every row is checked before any step. The rows share the sub-step order
    of ``_shared_order``, each holding at the positions its own sequence
    skips. Every ``FINITE_CHECK_STEPS`` steps, and when a row ends, the rows
    are tested; a row ends at its last step or at its first non-finite one,
    and leaves the batch, down to the last row.
    """
    for state, dt, count in zip(states, dts, steps, strict=True):
        check_grid(dt, count)
        check_dims(H, state.dims)
        check_contexts(state.vectors())
    n, width = len(H.dims), sum(H.dims)
    order = _shared_order(schemes, n)
    taus = [_embed(_SEQUENCES[scheme](n, dt), order)
            for scheme, dt in zip(schemes, dts, strict=True)]
    outs = [np.empty((count + 1, width), dtype=complex) for count in steps]
    for out, state in zip(outs, states):
        np.concatenate(state.vectors(), out=out[0])
    live = list(range(len(states)))
    parts = [np.stack(column) for column in zip(*(state.vectors() for state in states))]
    start = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            stop = min(start + FINITE_CHECK_STEPS, min(steps[i] for i in live) + 1)
            block = np.empty((stop - start, len(live), width), dtype=complex)
            _run_rows(H, parts, _plan(order, [taus[i] for i in live]), block)
            finite = np.isfinite(block).all(axis=2)
            going = []
            for j, i in enumerate(live):
                outs[i][start:stop] = block[:, j]
                if not finite[:, j].all():
                    outs[i] = NonFiniteStateError(
                        f"splitting step {start + finite[:, j].argmin()} produced a "
                        "non-finite state")
                elif steps[i] >= stop:
                    going.append(j)
            if len(going) < len(live):  # re-indexed only when a row ends
                live = [live[j] for j in going]
                parts = [p[going] for p in parts]
            start = stop
    return outs


def se_evolve(H: HermitianOperator, psi0: FullState, dt: float, steps: int) -> Trajectory:
    """Unrestricted trajectory on a uniform grid, decomposing H only once."""
    check_grid(dt, steps)
    check_dims(H, psi0.dims)
    grid = HermitianPropagator(H).states_on_grid(psi0.amplitudes, dt * np.arange(steps + 1))
    return Trajectory(dt, psi0.dims, full=grid)
