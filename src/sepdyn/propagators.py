"""Exact flows and splitting integrators for the restricted dynamics.

Every exp(-i t H) in the package, unrestricted or of a one-component
reduced operator, is ``spectral_apply`` (``HermitianPropagator`` for a
whole time grid) on an eigendecomposition: the one a
:class:`HermitianOperator` computes once and keeps, or that of a reduced
matrix in a splitting sub-step. The restricted equations are integrated by
composing the exactly-solvable one-component flows, sequentially (first
order) or palindromically (second order). One loop, ``_run``, does every
splitting step of one run: ``evolve`` runs a whole trajectory through it on
one list of component arrays, and the one-step maps are runs of one row.

A sub-step on component k decomposes the sandwich S = c^H B c of
``reduced.contract_reduced`` as it comes, unscaled and unsymmetrized (the
eigh gufunc reads its lower triangle), and folds the context norm² into
the phase: exp(-i (tau / |c|²) S). A sub-step on the component of the
sub-step just before it reuses that decomposition, since its contexts have
not moved; so Strang's last half-step of a step and the first one of the
next share one reduction, bit for bit what recomputing it gives.

``evolve_rows`` runs several rows on one H, each with its own scheme,
state, dt and step count, as one batch: ``_run_rows`` does for a stack of
rows what ``_run`` does for one, in stacked forms that give each row the
bits of its run alone. The rows share one order of sub-steps, Strang's
(``0..n-1..0``, or ``1, 0, 1`` for n = 2) if any row is Strang, else
Lie–Trotter's. Each row's own sequence sits in that order as a
subsequence, with its time there and a hold at every other position: a
Lie–Trotter row flows on the ascending half and holds on the way back. A
position at which every row holds is skipped. Rows leave the batch as they
end; the last one left finishes in ``_run``. ``evolve`` is that one-row run.

``evolve_rows`` checks the operator, the initial states, every context
norm and the step sizes once; sub-steps are unitary per component, so no
context norm falls later. The reduction, of order ‖H‖ norm², can overflow,
and a non-finite reduced matrix decomposes to NaN without raising; the
rows are tested each ``FINITE_CHECK_STEPS`` steps, and a non-finite row
ends alone.
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
    kron,
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


def _run_checked(H: HermitianOperator, parts: list[np.ndarray], sequence, rows: np.ndarray,
                 start: int):
    """``_run`` into ``rows[start:]``, testing each block of ``FINITE_CHECK_STEPS`` rows.

    Raises ``NonFiniteStateError`` naming the first non-finite row.
    """
    for block in range(start, len(rows), FINITE_CHECK_STEPS):
        stop = min(block + FINITE_CHECK_STEPS, len(rows))
        _run(H, parts, sequence, rows[block:stop])
        finite = np.isfinite(rows[block:stop]).all(axis=1)
        if not finite.all():
            raise NonFiniteStateError(
                f"splitting step {block + finite.argmin()} produced a non-finite state")


def _shared_order(schemes, n: int) -> list[int]:
    """The components of a batch step's sub-steps: Strang's if any row is Strang."""
    scheme = (SplittingScheme.STRANG if SplittingScheme.STRANG in schemes
              else SplittingScheme.LIE_TROTTER)
    return [k for k, _ in _SEQUENCES[scheme](n, 1.0)]


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
    """``_run`` for a batch: ``parts[k]`` is (B, d_k), ``rows`` is (steps, B, sum(dims)).

    Each row of the batch goes through the arithmetic ``_run`` does on it
    alone, in stacked forms that keep its bits: a GEMV of the slot block
    against each row's context, a vector-matrix product per row and slot,
    the eigh gufunc on a (B, d, d) stack and a matrix-vector product per row.
    A 2-D GEMM across rows would round differently. A row that holds at a
    sub-step keeps its component by selection, since a zero-time flow would
    move its bits.
    """
    blocks = H.slot_blocks
    batch = len(parts[0])
    held = None  # the component whose decompositions evals, evecs, norm2 hold
    for row in rows:
        for k, tau, flows in plan:
            if k != held:
                c = kron(parts[:k] + parts[k + 1 :])
                norm2 = np.vecdot(c, c).real
                d, m = parts[k].shape[1], c.shape[1]
                products = (blocks[k] @ c[:, :, None]).reshape(batch, d, m, d)
                sandwich = (c.conj()[:, None, None, :] @ products).reshape(batch, d, d)
                evals, evecs = _umath_linalg.eigh_lo(sandwich, signature="D->dD")
                evecs_h = evecs.conj().swapaxes(1, 2)
                held = k
            phases = np.exp(-1j * (tau / norm2)[:, None] * evals)
            coeffs = phases * (evecs_h @ parts[k][:, :, None])[:, :, 0]
            moved = (evecs @ coeffs[:, :, None])[:, :, 0]
            parts[k] = moved if flows is None else np.where(flows, moved, parts[k])
        np.concatenate(parts, axis=1, out=row)


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


def evolve_rows(H: HermitianOperator, schemes, states, dts, steps) -> list:
    """``evolve`` of each row (scheme, state, dt, steps), the rows advanced as one batch.

    Returns per row its ``Trajectory``, or the ``NonFiniteStateError`` that
    ended it, bit for bit what ``evolve`` returns or raises for the row
    alone. Every row is checked as ``evolve`` checks it, before any step.
    The rows share the sub-step order of ``_shared_order``, each holding at
    the positions its own sequence skips. Every ``FINITE_CHECK_STEPS``
    steps, and when a row ends, the rows are tested; a row ends at its last
    step or at its first non-finite one, and leaves the batch. The last row
    left finishes in ``_run``.
    """
    for state, dt, count in zip(states, dts, steps, strict=True):
        check_grid(dt, count)
        check_dims(H, state.dims)
        check_contexts(state.vectors())
    n, width = len(H.dims), sum(H.dims)
    sequences = [_SEQUENCES[scheme](n, dt) for scheme, dt in zip(schemes, dts, strict=True)]
    order = _shared_order(schemes, n)
    taus = [_embed(sequence, order) for sequence in sequences]
    outs = [np.empty((count + 1, width), dtype=complex) for count in steps]
    for out, state in zip(outs, states):
        np.concatenate(state.vectors(), out=out[0])
    outcomes = [None] * len(states)
    live = list(range(len(states)))
    parts = [np.stack(column) for column in zip(*(state.vectors() for state in states))]
    start = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while len(live) > 1:
            stop = min(start + FINITE_CHECK_STEPS, min(steps[i] for i in live) + 1)
            block = np.empty((stop - start, len(live), width), dtype=complex)
            _run_rows(H, parts, _plan(order, [taus[i] for i in live]), block)
            finite = np.isfinite(block).all(axis=2)
            going = []
            for j, i in enumerate(live):
                outs[i][start:stop] = block[:, j]
                if not finite[:, j].all():
                    outcomes[i] = NonFiniteStateError(
                        f"splitting step {start + finite[:, j].argmin()} produced a "
                        "non-finite state")
                elif steps[i] >= stop:
                    going.append(j)
            if len(going) < len(live):  # re-indexed only when a row ends
                live = [live[j] for j in going]
                parts = [p[going] for p in parts]
            start = stop
        for i in live:
            try:
                _run_checked(H, [p[0] for p in parts], sequences[i], outs[i], start)
            except NonFiniteStateError as err:
                outcomes[i] = err
    return [Trajectory.from_components(dt, out, state.dims) if outcome is None else outcome
            for outcome, dt, out, state in zip(outcomes, dts, outs, states)]


def evolve(scheme: SplittingScheme, H: HermitianOperator, state0: ComponentState,
           dt: float, steps: int) -> Trajectory:
    """Run a splitting scheme for ``steps`` steps and record the trajectory.

    The operator, the state and its context norms, ``dt`` and ``steps``
    are checked here, once; the run then keeps one list of component arrays
    and writes each step's row in place, through ``_run``. Stores the
    stacked components and their tensor-product reconstructions. An overflow
    ends the run within ``FINITE_CHECK_STEPS`` steps, as
    ``NonFiniteStateError`` naming the first non-finite step.
    """
    (outcome,) = evolve_rows(H, [scheme], [state0], [dt], [steps])
    if isinstance(outcome, NonFiniteStateError):
        raise outcome
    return outcome


def se_evolve(H: HermitianOperator, psi0: FullState, dt: float, steps: int) -> Trajectory:
    """Unrestricted trajectory on a uniform grid, decomposing H only once."""
    check_grid(dt, steps)
    check_dims(H, psi0.dims)
    grid = HermitianPropagator(H).states_on_grid(psi0.amplitudes, dt * np.arange(steps + 1))
    return Trajectory(dt, psi0.dims, full=grid)
