"""Partial reduction of a full Hamiltonian against component context states.

Reduction sandwiches the full operator between product states that hold
e_i in slot k and the context states everywhere else. The kernel works on
H's slot-k block (``HermitianOperator.slot_blocks``): H's tensor with slot k
leading on the ket and the bra side, reshaped to (d_k m d_k, m) with
m = D / d_k. With c the Kronecker product of the contexts, ``block @ c``
contracts the bra context and ``c^H`` the ket context, one matrix-vector
product and one small batched product.

``contract_reduced`` is the one kernel, on plain arrays, for one set of
vectors or for a (B, d_j) stack of them, one row per splitting row: a
stack takes one matrix-vector product per row, so each row gets the bits
of its call alone. It returns the unnormalized sandwich c^H B c and the
context norm² |c|², and leaves the division to its caller: the splitting
sub-steps fold 1/|c|² into the phase of exp(-i (tau / |c|²) c^H B c), and
their eigh gufunc reads only the lower triangle, so the sandwich is
neither scaled nor symmetrized there. ``partially_reduced`` divides by
|c|² and symmetrizes against rounding skew, so that unnormalized contexts
give the same Hermitian operator as normalized ones.

Context norms are checked once, at the boundary, by ``check_contexts``:
``partially_reduced`` checks its state, and ``propagators.evolve`` and
the step maps theirs; splitting sub-steps are unitary per component, so no
norm falls later. The kernel is arithmetic only and checks nothing.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import HermitianOperator, check_dims
from .states import ComponentState, SolverFailure, kron

DEGENERATE_NORM_TOL = 1e-14


class DegenerateStateError(SolverFailure, ValueError):
    """A context state has numerically zero norm, so reduction is undefined."""


def check_contexts(vectors, keep: int | None = None):
    """Raise DegenerateStateError for a context of norm below 1e-14.

    Every entry of ``vectors`` but ``keep`` is a context; with ``keep`` None
    all of them are, as each is a context to some splitting sub-step.
    """
    for j, vec in enumerate(vectors):
        if j != keep and np.vdot(vec, vec).real < DEGENERATE_NORM_TOL**2:
            raise DegenerateStateError(f"context state {j} has norm below 1e-14")


def contract_reduced(block: np.ndarray, vectors: list[np.ndarray],
                     keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The sandwich c^H B c that H induces on subsystem ``keep``, and |c|².

    ``block`` is ``H.slot_blocks[keep]``; ``vectors`` holds one amplitude
    vector per subsystem, and of entry ``keep`` only the length is read.
    c is the Kronecker product of the other vectors in order, and entry
    (i, j) of the sandwich is <e_i ⊗ c| H |e_j ⊗ c>, Hermitian up to
    rounding; divided by |c|² it is the reduced operator. Vectors stacked
    as (B, d_j) give a (B, d, d) stack of sandwiches and B norms², each row
    bit for bit its call alone. The contexts must have passed
    ``check_contexts``: a zero one gives |c|² = 0.
    """
    c = kron(vectors[:keep] + vectors[keep + 1 :])
    norm2 = np.vecdot(c, c).real
    d, m = vectors[keep].shape[-1], c.shape[-1]
    products = (block @ c[..., :, None]).reshape(c.shape[:-1] + (d, m, d))
    return (c.conj()[..., None, None, :] @ products).reshape(c.shape[:-1] + (d, d)), norm2


def partially_reduced(H: HermitianOperator, state: ComponentState, k: int) -> HermitianOperator:
    """Effective subsystem-k operator given the other subsystems' states."""
    dims = state.dims
    check_dims(H, dims)
    n = len(dims)
    if not 0 <= k < n:
        raise ValueError(f"subsystem index {k} out of range for {n} subsystems")
    vectors = state.vectors()
    check_contexts(vectors, k)
    sandwich, norm2 = contract_reduced(H.slot_blocks[k], vectors, k)
    return HermitianOperator((sandwich + sandwich.conj().T) * (0.5 / norm2), (dims[k],))
