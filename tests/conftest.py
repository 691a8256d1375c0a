import os
from math import prod

import numpy as np
import pytest
from hypothesis import settings

from sepdyn.hamiltonians import HermitianOperator
from sepdyn.propagators import Trajectory, evolve
from sepdyn.states import ComponentState, Ket

# CI runs HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failure
# prints the blob that reproduces it. Local runs keep random exploration.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_ket(rng, dim=2, normalize=True):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if normalize:
        vec /= np.linalg.norm(vec)
    return Ket(vec)


def random_unitary(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def nuclear_norm(matrix) -> float:
    """Sum of singular values: the SVD oracle of the closed-form nuclear norms."""
    mat = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def local_sum_hamiltonian(locals_: list[HermitianOperator]) -> HermitianOperator:
    """Sum of one-subsystem operators embedded with identities elsewhere.

    Operator j acts on subsystem j, whose dimension is the operator's side;
    each term is built with chained ``np.kron``, independently of the slot
    blocks the package reduces through.
    """
    dims = tuple(op.entries.shape[0] for op in locals_)
    side = prod(dims)
    total = np.zeros((side, side), dtype=complex)
    for j, op in enumerate(locals_):
        term = np.eye(1, dtype=complex)
        for i, d in enumerate(dims):
            factor = op.entries if i == j else np.eye(d, dtype=complex)
            term = np.kron(term, factor)
        total += term
    return HermitianOperator(total, dims)


def splitting_run(scheme, H, state, dt, steps) -> Trajectory:
    """``evolve`` on a batch of one row, as a Trajectory; raises the error the row ended with."""
    (outcome,) = evolve(H, [scheme], [state], [dt], [steps])
    if isinstance(outcome, Exception):
        raise outcome
    return Trajectory.from_components(dt, outcome, state.dims)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fig1_state():
    """|0> on the first qubit, the equal superposition on the second."""
    a0 = Ket(np.array([1.0, 0.0], dtype=complex))
    b0 = Ket(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    return ComponentState((a0, b0))
