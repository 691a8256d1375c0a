"""Every pass that works in ``propagators.row_blocks`` against an independent
computation, with the block at one row, at seven rows and at its default
(``write_csv``'s blocks are checked in ``test_cli.TestWriteCsvBlocks``).

Row counts are chosen so that no block size divides them, and so that the
default block splits the grid too.
"""

from math import prod

import numpy as np
import pytest

from sepdyn import propagators
from sepdyn.analysis import (
    bloch_series,
    purity_series,
    rate_of_change_nuclear,
    reduced_density_series,
)
from sepdyn.hamiltonians import random_hermitian
from sepdyn.propagators import HermitianPropagator, Trajectory, spectral_apply

BLOCK_ROWS = [1, 7, None]  # None: the default BLOCK_CELLS


@pytest.fixture(params=BLOCK_ROWS, ids=["1 row", "7 rows", "default"])
def block_rows(request, monkeypatch):
    """Sets the block to ``request.param`` rows of the given width, and returns a row
    count: 23, or two default blocks and five rows."""

    def use(width: int) -> int:
        if request.param is not None:
            monkeypatch.setattr(propagators, "BLOCK_CELLS", request.param * width)
        return 2 * (propagators.BLOCK_CELLS // width) + 5 if request.param is None else 23

    return use


def random_rows(rng, rows, width):
    return rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))


def test_blocks_cover_the_rows_in_order(block_rows):
    rows = block_rows(12)
    blocks = propagators.row_blocks(rows, 12)
    assert np.array_equal(np.concatenate([np.arange(rows)[b] for b in blocks]), np.arange(rows))
    assert max(b.stop - b.start for b in blocks) == max(1, propagators.BLOCK_CELLS // 12)


def test_states_on_grid_is_the_flow_at_each_time(rng, block_rows):
    H = random_hermitian(5, seed=4)
    rows = block_rows(32)
    psi0 = random_rows(rng, 1, 32)[0]
    psi0 /= np.linalg.norm(psi0)
    times = 0.013 * np.arange(rows)
    grid = HermitianPropagator(H).states_on_grid(psi0, times)
    evals, evecs = H.spectrum
    expected = np.stack([spectral_apply(evals, evecs, t, psi0) for t in times])
    assert np.max(np.abs(grid - expected)) < 1e-13


def test_a_row_does_not_depend_on_the_length_of_the_grid(rng, block_rows):
    # Grids one, two and three rows past a whole number of blocks: the first
    # ends in a one-row block.
    block_rows(32)
    H = random_hermitian(5, seed=4)
    step = max(1, propagators.BLOCK_CELLS // 32)
    psi0 = random_rows(rng, 1, 32)[0]
    psi0 /= np.linalg.norm(psi0)
    times = 0.013 * np.arange(step + 3)
    longest = HermitianPropagator(H).states_on_grid(psi0, times)
    for rows in (step + 1, step + 2):
        assert np.array_equal(HermitianPropagator(H).states_on_grid(psi0, times[:rows]),
                              longest[:rows])


@pytest.mark.parametrize("t", [0.0, 0.7])
def test_grids_of_one_two_and_three_times_agree_bit_for_bit(rng, t):
    # random5 seed 3: on one time, a one-row product would round row 0
    # differently from the grids of two and three times.
    H = random_hermitian(5, seed=3)
    psi0 = random_rows(rng, 1, 32)[0]
    psi0 /= np.linalg.norm(psi0)
    times = np.array([t, t, t + 0.3])
    grids = [HermitianPropagator(H).states_on_grid(psi0, times[:rows]) for rows in (1, 2, 3)]
    for grid, rows in zip(grids, (1, 2, 3)):
        assert grid.shape == (rows, 32)
        assert np.array_equal(grid, grids[-1][:rows])


def partial_trace(psi, dims, k) -> np.ndarray:
    """Tr over every subsystem but k of |psi><psi|, one subsystem at a time."""
    rho = np.outer(psi, psi.conj()).reshape(dims + dims)
    for j in reversed(range(len(dims))):
        if j != k:
            rho = np.trace(rho, axis1=j, axis2=j + rho.ndim // 2)
    return rho


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reduced_densities_are_partial_traces(rng, block_rows, k):
    dims = (2, 3, 2)
    rows = block_rows(prod(dims))
    traj = Trajectory(0.1, dims, full=random_rows(rng, rows, prod(dims)))
    rhos = reduced_density_series(traj, k)
    expected = np.stack([partial_trace(psi, dims, k) for psi in traj.full])
    assert np.max(np.abs(rhos - expected)) < 1e-13


def test_rate_is_the_spectrum_of_the_projector_difference(rng, block_rows):
    rows = block_rows(32)
    states = random_rows(rng, rows, 32) / 8.0
    dt = 0.05
    rates = rate_of_change_nuclear(Trajectory(dt, (2,) * 5, full=states))
    step = max(1, propagators.BLOCK_CELLS // 32)
    picks = sorted({0, 1, step - 1, step, step + 1, rows - 2, rows - 1} & set(range(rows)))
    for i in picks:
        later, earlier = min(i + 1, rows - 1), max(i - 1, 0)
        a, b = states[later], states[earlier]
        difference = np.outer(a, a.conj()) - np.outer(b, b.conj())
        expected = np.abs(np.linalg.eigvalsh(difference)).sum() / ((later - earlier) * dt)
        assert rates[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3, 3)])
def test_purity_is_the_trace_of_the_squared_partial_trace(rng, dims):
    traj = Trajectory(0.1, dims, full=random_rows(rng, 23, prod(dims)))
    for k in range(len(dims)):
        expected = [np.trace(rho @ rho).real
                    for rho in (partial_trace(psi, dims, k) for psi in traj.full)]
        assert np.allclose(purity_series(reduced_density_series(traj, k)), expected,
                           rtol=1e-13, atol=0)


@pytest.mark.parametrize("dims", [(2,) * 5, (3, 3, 3), (2, 3, 2), (2, 2)],
                         ids=["2x5", "3x3x3", "2x3x2", "2x2"])
def test_density_diagnostics_do_not_depend_on_the_block(rng, monkeypatch, dims):
    width = prod(dims)
    rows = 2 * (propagators.BLOCK_CELLS // width) + 5
    traj = Trajectory(0.1, dims, full=random_rows(rng, rows, width))

    def diagnostics():
        rhos = [reduced_density_series(traj, k) for k in range(len(dims))]
        return [(rho, purity_series(rho), bloch_series(rho)) for rho in rhos]

    default = diagnostics()
    for block in (1, 7):
        monkeypatch.setattr(propagators, "BLOCK_CELLS", block * width)
        for blocked, expected in zip(diagnostics(), default):
            assert all(np.array_equal(a, b) for a, b in zip(blocked, expected))
