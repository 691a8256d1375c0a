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
from sepdyn.analysis import rate_of_change_nuclear, reduced_density_series
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

